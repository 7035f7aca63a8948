#!/usr/bin/env python3
"""Request-lifecycle tracing: where does a client's wait actually go?

The paper reports *mean* response times.  The request tracer follows every
measured-client access through its lifecycle (issued -> miss -> pull sent
-> page on air -> served) and decomposes the wait into think time, push
wait, pull-queue wait, and on-air service — plus latency quantiles that
reveal the tail the means hide.

Run:
    python examples/request_tracing.py [think_time_ratio]
"""

import sys

import numpy as np

from repro import Algorithm, SystemConfig
from repro.core.fast import FastEngine
from repro.obs import ColumnarSink, RequestTracer
from repro.obs.events import OFFER_OUTCOMES, SERVED_KINDS


def trace_one_run(think_time_ratio: float) -> None:
    """Trace an IPP run and print its wait decomposition."""
    config = SystemConfig(algorithm=Algorithm.IPP).with_(
        client__think_time_ratio=think_time_ratio,
        server__pull_bw=0.50,
        run__settle_accesses=500,
        run__measure_accesses=1500,
    )
    tracer = RequestTracer(ColumnarSink(table="request"))
    result = FastEngine(config, request_tracer=tracer).run()

    print(f"IPP at ThinkTimeRatio={think_time_ratio:g}: "
          f"mean miss response {result.response_miss.mean:.1f} units")
    print()
    print("where the measured client's time went:")
    print(tracer.breakdown().render())
    print()

    quantiles = tracer.wait_quantiles()
    if quantiles is not None:
        print(f"miss wait quantiles: p50={quantiles['p50']:.1f}  "
              f"p90={quantiles['p90']:.1f}  p99={quantiles['p99']:.1f}  "
              f"(mean {result.response_miss.mean:.1f} — the tail the "
              f"mean hides)")
    print()


def inspect_slowest_requests(think_time_ratio: float) -> None:
    """Show the worst individual requests, end to end."""
    config = SystemConfig(algorithm=Algorithm.IPP).with_(
        client__think_time_ratio=think_time_ratio,
        server__pull_bw=0.50,
        run__settle_accesses=500,
        run__measure_accesses=1500,
    )
    tracer = RequestTracer(ColumnarSink(table="request"))
    FastEngine(config, request_tracer=tracer).run()
    # The trace is one structured array, a row per access: filter and
    # sort it by column.
    trace = tracer.sink.array()
    misses = trace[trace["measured"] & ~trace["hit"]]
    slowest = misses[np.argsort(-misses["wait"], kind="stable")]

    print("three slowest requests (every event of each lifecycle):")
    for row in slowest[:3]:
        pull = (f"pull {OFFER_OUTCOMES[row['pull_outcome']]}"
                if row["pull_sent"] else "no pull (threshold)")
        print(f"  page {row['page']:>4}: issued t={row['issued_at']:.1f}, "
              f"{pull}, on air t={row['on_air_at']:.1f} "
              f"({SERVED_KINDS[row['served_kind']]} slot), served "
              f"t={row['served_at']:.1f} — waited {row['wait']:.1f} "
              f"(queue {row['queue_wait']:.1f} + service "
              f"{row['service']:.1f})")
    print()
    print("`repro-broadcast trace --requests` writes the same rows to a "
          ".npy; summarize one with `repro-broadcast report --trace FILE` "
          "or export it with `repro-broadcast convert FILE OUT.jsonl`.")


def main() -> int:
    think_time_ratio = float(sys.argv[1]) if len(sys.argv) > 1 else 25.0
    trace_one_run(think_time_ratio)
    inspect_slowest_requests(think_time_ratio)
    return 0


if __name__ == "__main__":
    sys.exit(main())
