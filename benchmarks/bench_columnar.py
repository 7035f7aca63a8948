"""Columnar vs JSONL trace backend benchmark.

Synthesizes seeded request-lifecycle records, writes them through each
sink (``JsonlSink`` / ``ColumnarSink`` / ``MemorySink``), then times the
full read-and-analyze path both ways: JSONL readback (``json.loads`` per
line into record dataclasses, Python-loop breakdown, sorted-list
quantiles) against the memory-mapped columnar path
(``load_columnar`` + ``breakdown_of_array`` + ``exact_quantiles``).
Both paths must produce the identical ``WaitBreakdown`` — the benchmark
asserts it — so the speedup column compares equal work.

Usage::

    python benchmarks/bench_columnar.py                  # 10^4..10^6
    python benchmarks/bench_columnar.py --records 50000
    python benchmarks/bench_columnar.py --smoke          # CI: tiny, fast

Results land in ``BENCH_columnar.json`` at the repo root (``--out`` to
move them).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.columnar import (  # noqa: E402
    ColumnarSink,
    breakdown_of_array,
    load_columnar,
    measured_miss_waits,
)
from repro.obs.requests import (  # noqa: E402
    RequestRecord,
    breakdown_of,
    read_requests_jsonl,
)
from repro.obs.trace import JsonlSink, MemorySink  # noqa: E402
from repro.sim.monitor import exact_quantiles  # noqa: E402

DEFAULT_RECORDS = "10000,100000,1000000"
DEFAULT_OUT = REPO_ROOT / "BENCH_columnar.json"


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


def timed(fn: Callable):
    start = perf_counter()
    result = fn()
    return perf_counter() - start, result


def write_jsonl(records, path: Path) -> None:
    with JsonlSink(path) as sink:
        for record in records:
            sink.emit(record)


def write_columnar(records, path: Path) -> None:
    with ColumnarSink(path) as sink:
        for record in records:
            sink.emit(record)


def write_memory(records) -> MemorySink:
    sink = MemorySink()
    for record in records:
        sink.emit(record)
    return sink


def analyze_jsonl(path: Path):
    records = read_requests_jsonl(path)
    breakdown = breakdown_of(records)
    waits = sorted(r.wait for r in records if r.measured and not r.hit)
    n = len(waits)
    marks = {f"p{int(q * 100)}": waits[min(n - 1, int(q * n))]
             for q in (0.50, 0.90, 0.99)}
    return breakdown, marks


def analyze_columnar(path: Path):
    array = load_columnar(path)
    breakdown = breakdown_of_array(array)
    marks = exact_quantiles(measured_miss_waits(array))
    return breakdown, marks


def same_breakdown(a, b) -> bool:
    """Field-wise equality with float tolerance.

    numpy's pairwise summation and the Python loop's running sum differ
    in the last ulp on fractional synthetic waits; counts must still
    match exactly.
    """
    import dataclasses
    import math

    for field in dataclasses.fields(a):
        left = getattr(a, field.name)
        right = getattr(b, field.name)
        if isinstance(left, float):
            if not math.isclose(left, right, rel_tol=1e-9, abs_tol=1e-9):
                return False
        elif left != right:
            return False
    return True


def bench_size(count: int, seed: int, workdir: Path) -> dict:
    records = synthesize(count, seed)
    jsonl = workdir / f"req_{count}.jsonl"
    npy = workdir / f"req_{count}.npy"
    jsonl_write, _ = timed(lambda: write_jsonl(records, jsonl))
    columnar_write, _ = timed(lambda: write_columnar(records, npy))
    memory_write, _ = timed(lambda: write_memory(records))
    jsonl_read, (jsonl_breakdown, jsonl_marks) = timed(
        lambda: analyze_jsonl(jsonl))
    columnar_read, (columnar_breakdown, columnar_marks) = timed(
        lambda: analyze_columnar(npy))
    if not same_breakdown(columnar_breakdown, jsonl_breakdown):
        raise AssertionError(
            f"backends disagree on the breakdown at {count} records")
    if columnar_marks != jsonl_marks:
        raise AssertionError(
            f"backends disagree on quantiles at {count} records")
    return {
        "records": count,
        "write_s": {"jsonl": round(jsonl_write, 4),
                    "columnar": round(columnar_write, 4),
                    "memory": round(memory_write, 4)},
        "read_analyze_s": {"jsonl": round(jsonl_read, 4),
                           "columnar_mmap": round(columnar_read, 4)},
        "file_bytes": {"jsonl": jsonl.stat().st_size,
                       "columnar": npy.stat().st_size},
        "speedup": {
            "read_analyze": round(jsonl_read / columnar_read, 1),
            "write": round(jsonl_write / columnar_write, 1),
            "bytes": round(jsonl.stat().st_size / npy.stat().st_size, 2),
        },
        "quantiles": {k: round(v, 3) for k, v in columnar_marks.items()},
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", default=DEFAULT_RECORDS,
                        help="comma-separated record counts "
                             f"(default: {DEFAULT_RECORDS})")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="result JSON path (default: BENCH_columnar"
                             ".json at the repo root)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny single-size run that only checks the "
                             "bench executes; writes no result file")
    args = parser.parse_args(argv)
    counts = ([2000] if args.smoke
              else [int(c) for c in args.records.split(",")])
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for count in counts:
            entry = bench_size(count, args.seed, Path(tmp))
            results.append(entry)
            print(f"{count:>9} records: read+analyze "
                  f"jsonl {entry['read_analyze_s']['jsonl']:.3f}s vs "
                  f"columnar {entry['read_analyze_s']['columnar_mmap']:.4f}s "
                  f"({entry['speedup']['read_analyze']}x)")
    if args.smoke:
        print("smoke ok")
        return 0
    payload = {
        "bench": "columnar vs JSONL request-trace backend",
        "seed": args.seed,
        "sizes": results,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
