"""Sampled vs full request tracing: overhead and estimator accuracy.

Two measurements in one bench:

- **Overhead** — synthesizes seeded access lifecycles and drives the
  real :class:`~repro.obs.requests.RequestTracer` hook sequence
  (``on_access .. on_served``) at 10^5-10^6 accesses, full-trace vs
  deterministic 1-in-100 vs a seeded reservoir, over both a ``NullSink``
  and the columnar ``.npy`` sink.  The interesting number is the
  speedup: a skipped access pays one policy decision instead of record
  construction + aggregation + serialization.
- **Accuracy** — compares each sampled run's inverse-probability
  corrected estimates (mean wait, p50/p90/p99) against the full trace's
  on the same stream, reporting relative errors; ``--accuracy-sim``
  additionally runs the figure-3a representative point through the fast
  engine twice (full trace vs 1-in-100) and enforces the 5% acceptance
  bound on corrected mean and p90 — the job CI runs.

Usage::

    python benchmarks/bench_sampling.py                  # full bench
    python benchmarks/bench_sampling.py --smoke          # CI: tiny, fast
    python benchmarks/bench_sampling.py --accuracy-sim   # CI: 5% gate

Results land in ``BENCH_sampling.json`` at the repo root (``--out`` to
move them).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.columnar import ColumnarSink  # noqa: E402
from repro.obs.requests import RequestRecord, RequestTracer  # noqa: E402
from repro.obs.sampling import EveryNSampling, ReservoirSampling  # noqa: E402
from repro.obs.trace import NullSink  # noqa: E402

DEFAULT_ACCESSES = "100000,1000000"
DEFAULT_OUT = REPO_ROOT / "BENCH_sampling.json"
SAMPLE_EVERY = 100
RESERVOIR_CAPACITY = 10_000


def synthesize(count: int, seed: int = 7) -> list[RequestRecord]:
    """``count`` seeded records shaped like a real IPP request trace."""
    rng = np.random.default_rng(seed)
    issued = np.cumsum(rng.exponential(2.0, count))
    pages = rng.integers(0, 500, count)
    measured = rng.random(count) > 0.1
    hits = rng.random(count) < 0.6
    served_pull = rng.random(count) < 0.5
    outcomes = rng.choice(["enqueued", "duplicate", "dropped"], count,
                          p=[0.9, 0.08, 0.02])
    predicted = np.round(rng.exponential(40.0, count), 3)
    never_pushed = rng.random(count) < 0.05
    queue_wait = np.round(rng.exponential(5.0, count), 3)
    offers = rng.integers(0, 4, count)
    records = []
    for i in range(count):
        if hits[i]:
            records.append(RequestRecord(
                index=i, page=int(pages[i]), issued_at=float(issued[i]),
                measured=bool(measured[i]), hit=True, pull_sent=False,
                pull_outcome=None, predicted_push_wait=None, page_offers=0,
                on_air_at=None, served_at=float(issued[i]),
                served_kind="cache", wait=0.0, queue_wait=None,
                service=None))
            continue
        pull = bool(served_pull[i])
        wait = float(queue_wait[i]) + 1.0
        records.append(RequestRecord(
            index=i, page=int(pages[i]), issued_at=float(issued[i]),
            measured=bool(measured[i]), hit=False, pull_sent=pull,
            pull_outcome=str(outcomes[i]) if pull else None,
            predicted_push_wait=(None if never_pushed[i]
                                 else float(predicted[i])),
            page_offers=int(offers[i]),
            on_air_at=float(issued[i] + queue_wait[i]),
            served_at=float(issued[i]) + wait,
            served_kind="pull" if pull else "push", wait=wait,
            queue_wait=float(queue_wait[i]), service=1.0))
    return records


def lifecycles(count: int, seed: int) -> list[tuple]:
    """Plain-tuple hook arguments for ``count`` synthetic accesses.

    Flattened ahead of time so the timed loop measures tracer cost, not
    attribute access on the synthesized records.
    """
    return [(r.page, r.issued_at, r.measured, r.hit,
             r.predicted_push_wait, r.pull_sent, r.pull_outcome,
             r.on_air_at, r.served_kind, r.served_at)
            for r in synthesize(count, seed)]


def drive(tracer: RequestTracer, stream: list[tuple]) -> float:
    """Run the full hook sequence for every access; returns seconds."""
    start = perf_counter()
    for (page, issued_at, measured, hit, predicted, pull_sent, outcome,
         on_air_at, kind, served_at) in stream:
        tracer.on_access(page, issued_at, measured)
        if hit:
            tracer.on_hit(page, issued_at)
            continue
        tracer.on_miss(page, issued_at)
        tracer.on_miss_predict(math.inf if predicted is None else predicted)
        if pull_sent:
            tracer.on_pull(page, issued_at, outcome)
        tracer.on_air(on_air_at, kind)
        tracer.on_served(page, served_at)
    tracer.finalize()
    return perf_counter() - start


def rel_error(estimate: float, exact: float) -> float:
    if exact == 0:
        return abs(estimate)
    return abs(estimate - exact) / abs(exact)


def summarize(tracer: RequestTracer) -> dict:
    stats = tracer.breakdown()
    quantiles = tracer.wait_quantiles() or {}
    return {"mean_wait": stats.mean_wait, **quantiles}


def bench_size(count: int, seed: int, workdir: Path) -> dict:
    stream = lifecycles(count, seed)

    def tracers():
        return {
            "full": RequestTracer(NullSink()),
            "every_100": RequestTracer(
                NullSink(), sampling=EveryNSampling(SAMPLE_EVERY)),
            "reservoir_10k": RequestTracer(
                NullSink(),
                sampling=ReservoirSampling(RESERVOIR_CAPACITY, seed=seed)),
        }

    times: dict[str, float] = {}
    estimates: dict[str, dict] = {}
    for name, tracer in tracers().items():
        times[name] = drive(tracer, stream)
        estimates[name] = summarize(tracer)

    # Columnar-backed variant: the sink actually serializes, so sampling
    # also saves the write path and the on-disk bytes.
    columnar_times: dict[str, float] = {}
    columnar_bytes: dict[str, int] = {}
    for name, sampling in (("full", None),
                           ("every_100", EveryNSampling(SAMPLE_EVERY))):
        path = workdir / f"trace_{count}_{name}.npy"
        tracer = RequestTracer(ColumnarSink(path, table="request"),
                               sampling=sampling)
        columnar_times[name] = drive(tracer, stream)
        tracer.close()
        columnar_bytes[name] = path.stat().st_size

    exact = estimates["full"]
    accuracy = {
        name: {metric: round(rel_error(values[metric], exact[metric]), 4)
               for metric in ("mean_wait", "p50", "p90", "p99")
               if metric in values and metric in exact}
        for name, values in estimates.items() if name != "full"
    }
    return {
        "accesses": count,
        "trace_s": {name: round(seconds, 4)
                    for name, seconds in times.items()},
        "columnar_trace_s": {name: round(seconds, 4)
                             for name, seconds in columnar_times.items()},
        "columnar_bytes": columnar_bytes,
        "speedup": {
            "every_100": round(times["full"] / times["every_100"], 1),
            "reservoir_10k": round(
                times["full"] / times["reservoir_10k"], 1),
            "columnar_every_100": round(
                columnar_times["full"] / columnar_times["every_100"], 1),
        },
        "estimates": {name: {k: round(v, 3) for k, v in values.items()}
                      for name, values in estimates.items()},
        "relative_error": accuracy,
    }


def accuracy_sim(seed: int, measure_accesses: int,
                 tolerance: float = 0.05) -> dict:
    """Engine-level gate: 1-in-100 sampling on the figure-3a point.

    Runs the representative figure-3a configuration (QUICK-style settle,
    ``measure_accesses`` measured accesses) twice — full trace and
    1-in-100 — and checks the corrected mean wait and p90 land within
    ``tolerance`` of the full-trace values.
    """
    from repro.core.fast import FastEngine
    from repro.experiments.figures import FIGURES

    config = FIGURES["3a"].representative_config().with_(
        run__settle_accesses=500,
        run__measure_accesses=measure_accesses,
        run__seed=seed,
        run__max_slots=50_000_000,
    )

    def run(sampling):
        tracer = RequestTracer(NullSink(), sampling=sampling)
        start = perf_counter()
        FastEngine(config, request_tracer=tracer).run()
        elapsed = perf_counter() - start
        return elapsed, summarize(tracer)

    full_s, exact = run(None)
    sampled_s, estimate = run(EveryNSampling(SAMPLE_EVERY))
    errors = {metric: round(rel_error(estimate[metric], exact[metric]), 4)
              for metric in ("mean_wait", "p50", "p90", "p99")
              if metric in exact and metric in estimate}
    ok = (errors["mean_wait"] <= tolerance and errors["p90"] <= tolerance)
    return {
        "figure": "3a",
        "measure_accesses": measure_accesses,
        "sample_every": SAMPLE_EVERY,
        "tolerance": tolerance,
        "run_s": {"full_trace": round(full_s, 2),
                  "sampled": round(sampled_s, 2)},
        "exact": {k: round(v, 3) for k, v in exact.items()},
        "estimate": {k: round(v, 3) for k, v in estimate.items()},
        "relative_error": errors,
        "ok": ok,
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--accesses", default=DEFAULT_ACCESSES,
                        help="comma-separated synthetic access counts "
                             f"(default: {DEFAULT_ACCESSES})")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="result JSON path (default: BENCH_sampling"
                             ".json at the repo root)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny single-size run that only checks the "
                             "bench executes; writes no result file")
    parser.add_argument("--accuracy-sim", action="store_true",
                        help="run the engine-level figure-3a accuracy "
                             "gate only; exit 1 beyond the 5%% bound")
    parser.add_argument("--sim-accesses", type=int, default=120_000,
                        help="measured accesses for --accuracy-sim "
                             "(default: 120000)")
    args = parser.parse_args(argv)

    if args.accuracy_sim:
        gate = accuracy_sim(args.seed, args.sim_accesses)
        print(json.dumps(gate, indent=2))
        if not gate["ok"]:
            print("accuracy gate FAILED: sampled estimates beyond "
                  f"{gate['tolerance']:.0%} of the full trace",
                  file=sys.stderr)
            return 1
        print(f"accuracy gate ok: mean_wait err "
              f"{gate['relative_error']['mean_wait']:.2%}, p90 err "
              f"{gate['relative_error']['p90']:.2%}")
        return 0

    counts = ([5000] if args.smoke
              else [int(c) for c in args.accesses.split(",")])
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for count in counts:
            entry = bench_size(count, args.seed, Path(tmp))
            results.append(entry)
            print(f"{count:>9} accesses: full {entry['trace_s']['full']:.3f}s"
                  f" vs 1-in-{SAMPLE_EVERY} "
                  f"{entry['trace_s']['every_100']:.4f}s "
                  f"({entry['speedup']['every_100']}x), reservoir "
                  f"{entry['trace_s']['reservoir_10k']:.4f}s "
                  f"({entry['speedup']['reservoir_10k']}x); mean err "
                  f"{entry['relative_error']['every_100'].get('mean_wait')}")
    if args.smoke:
        print("smoke ok")
        return 0
    largest = results[-1]
    if largest["speedup"]["every_100"] < 5.0:
        print(f"FAILED: 1-in-{SAMPLE_EVERY} sampling only "
              f"{largest['speedup']['every_100']}x cheaper than full "
              f"tracing at {largest['accesses']} accesses (need >= 5x)",
              file=sys.stderr)
        return 1
    payload = {
        "bench": "sampled vs full request tracing",
        "seed": args.seed,
        "sample_every": SAMPLE_EVERY,
        "reservoir_capacity": RESERVOIR_CAPACITY,
        "sizes": results,
        "accuracy_sim": accuracy_sim(args.seed, args.sim_accesses),
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
