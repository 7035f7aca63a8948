"""Reference engine: invented served_kind literal."""


def emit(tracer, sink, record):
    tracer.on_slot(record)
    sink.record(served_kind="cash")
    tracer.on_served(record)
