"""Reference engine: registry-member literals."""


def emit(tracer, record):
    if record.kind != "idle":
        tracer.on_slot(record)
    tracer.on_served(record)
