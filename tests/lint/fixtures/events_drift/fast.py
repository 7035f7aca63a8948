"""Fast engine: a typo'd event literal."""


def emit(tracer, record):
    if record.kind == "psh":
        tracer.on_slot(record)
    tracer.on_served(record)
