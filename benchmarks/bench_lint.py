"""Serial vs parallel lint-scan benchmark.

Times ``repro.lint.engine.run_lint`` over the real source tree with the
per-file pass serial (``jobs=1``) and fanned out over a process pool
(``--jobs``, default ``os.cpu_count()``).  Both scans must produce the
identical finding list — the benchmark asserts it — so the speedup
column compares equal work.  Project-level rules (REP004, REP010)
always run single-pass in the parent and are timed as part of
both scans, which keeps the reported speedup honest about Amdahl's
share rather than flattering the map step.

Usage::

    python benchmarks/bench_lint.py                # scan src/, 3 repeats
    python benchmarks/bench_lint.py --jobs 4
    python benchmarks/bench_lint.py --smoke        # CI: one tiny scan

Results land in ``BENCH_lint.json`` at the repo root (``--out`` to move
them).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from time import perf_counter
from typing import Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.lint.engine import run_lint  # noqa: E402

DEFAULT_OUT = REPO_ROOT / "BENCH_lint.json"


def scan(target: Path, jobs: int) -> tuple[float, "object"]:
    start = perf_counter()
    result = run_lint([target], jobs=jobs)
    return perf_counter() - start, result


def bench(target: Path, jobs: int, repeats: int) -> dict:
    serial_times, parallel_times = [], []
    serial = parallel = None
    for _ in range(repeats):
        elapsed, serial = scan(target, jobs=1)
        serial_times.append(elapsed)
        elapsed, parallel = scan(target, jobs=jobs)
        parallel_times.append(elapsed)
    assert serial is not None and parallel is not None
    if parallel.findings != serial.findings:
        raise AssertionError("parallel scan disagrees with serial scan")
    best_serial = min(serial_times)
    best_parallel = min(parallel_times)
    return {
        "target": str(target),
        "files": serial.files_scanned,
        "jobs": jobs,
        "repeats": repeats,
        "serial_s": round(best_serial, 4),
        "parallel_s": round(best_parallel, 4),
        "speedup": round(best_serial / best_parallel, 2),
        "findings": len(serial.findings),
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--target", type=Path, default=REPO_ROOT / "src",
                        help="tree to scan (default: src/)")
    parser.add_argument("--jobs", type=int, default=os.cpu_count(),
                        help="parallel worker count (default: cpu count)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats; best of N is reported")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="result JSON path (default: BENCH_lint.json "
                             "at the repo root)")
    parser.add_argument("--smoke", action="store_true",
                        help="one parity-checked scan of the lint package "
                             "only; writes no result file")
    args = parser.parse_args(argv)
    if args.jobs is None or args.jobs < 1:
        parser.error("--jobs must be a positive integer")
    if args.smoke:
        entry = bench(REPO_ROOT / "src" / "repro" / "lint", jobs=2,
                      repeats=1)
        print(f"smoke ok: {entry['files']} files, serial "
              f"{entry['serial_s']:.3f}s vs 2-way {entry['parallel_s']:.3f}s")
        return 0
    entry = bench(args.target, jobs=args.jobs, repeats=args.repeats)
    print(f"{entry['files']} files: serial {entry['serial_s']:.3f}s vs "
          f"{entry['jobs']}-way {entry['parallel_s']:.3f}s "
          f"({entry['speedup']}x)")
    payload = {
        "bench": "serial vs process-pool lint scan",
        "result": entry,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
