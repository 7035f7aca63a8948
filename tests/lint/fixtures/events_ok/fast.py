"""Fast engine: registry-member literals."""


def emit(tracer, record):
    if record.kind == "push":
        tracer.on_slot(record)
    tracer.on_served(record)
