"""Pull-scheduler overhead benchmark: what each discipline costs.

Two layers:

- **queue microbench** — drives a
  :class:`~repro.server.queue.BoundedRequestQueue` directly with
  synthetic offer/pop traffic at a given capacity, isolating the
  discipline's own cost: the ``on_*`` hook bookkeeping per offer (none
  for FIFO; for RxW/LWF the upkeep of their count-bucketed index) and
  ``select`` per pop (O(1) for FIFO, one candidate per distinct request
  count for RxW/LWF, not one per queued page).  The capacity-5 rows are
  where the index has to pay for itself: there its upkeep is not offset
  by a shorter ``select``.  The headline number is ``ops_per_sec``
  (offers + pops / elapsed).
- **engine bench** — a small IPP system simulated end to end per
  discipline, reporting ``slots_per_sec``; shows what the microbench
  deltas amount to inside the full slot loop (the queue is a small
  fraction of a slot's work, so disciplines should be within noise of
  each other here).

Usage::

    python benchmarks/bench_sched.py            # full grid
    python benchmarks/bench_sched.py --smoke    # CI: tiny, fast

Results land in ``BENCH_sched.json`` at the repo root (``--out`` to
move them).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.algorithms import Algorithm  # noqa: E402
from repro.core.config import SystemConfig  # noqa: E402
from repro.core.fast import FastEngine  # noqa: E402
from repro.server.queue import BoundedRequestQueue  # noqa: E402
from repro.server.schedulers import DISCIPLINES, make_scheduler  # noqa: E402

DEFAULT_OUT = REPO_ROOT / "BENCH_sched.json"


def bench_queue(discipline: str, capacity: int, ops: int,
                seed: int) -> dict:
    """Synthetic offer/pop traffic straight at the queue."""
    rng = np.random.default_rng(seed)
    # Page universe 4x capacity: keeps the queue near full (drops and
    # duplicates both occur) so select sees the worst-case depth.
    pages = rng.integers(0, capacity * 4, size=ops)
    queue = BoundedRequestQueue(capacity, make_scheduler(discipline))
    pops = 0
    start = perf_counter()
    for i in range(ops):
        queue.now = i
        queue.offer(int(pages[i]))
        if i % 3 == 0 and len(queue):
            queue.pop()
            pops += 1
    elapsed = perf_counter() - start
    return {
        "discipline": discipline,
        "capacity": capacity,
        "offers": ops,
        "pops": pops,
        "reordered": queue.scheduler.reordered,
        "elapsed_s": round(elapsed, 4),
        "ops_per_sec": round((ops + pops) / elapsed),
    }


def bench_engine(discipline: str, measure_accesses: int,
                 seed: int) -> dict:
    """A whole IPP run per discipline, timing the slot loop."""
    config = SystemConfig(algorithm=Algorithm.IPP).with_(
        scheduler__discipline=discipline,
        server__pull_bw=0.3,
        run__settle_accesses=measure_accesses // 4,
        run__measure_accesses=measure_accesses,
        run__seed=seed,
    )
    start = perf_counter()
    result = FastEngine(config).run()
    elapsed = perf_counter() - start
    return {
        "discipline": discipline,
        "measure_accesses": measure_accesses,
        "measured_slots": result.measured_slots,
        "mean_response": round(result.response_miss.mean, 3),
        "elapsed_s": round(elapsed, 4),
        "slots_per_sec": round(result.measured_slots / elapsed),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for CI (results not archived)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"result JSON (default: {DEFAULT_OUT})")
    args = parser.parse_args(argv)

    ops = 20_000 if args.smoke else 400_000
    accesses = 300 if args.smoke else 3000
    capacities = (5, 50) if args.smoke else (5, 50, 250)

    queue_results = [bench_queue(disc, capacity, ops, args.seed)
                     for capacity in capacities
                     for disc in DISCIPLINES]
    engine_results = [bench_engine(disc, accesses, args.seed)
                      for disc in DISCIPLINES]

    print(f"{'discipline':>10} {'capacity':>8} {'ops/s':>12} "
          f"{'reordered':>9}")
    for row in queue_results:
        print(f"{row['discipline']:>10} {row['capacity']:>8} "
              f"{row['ops_per_sec']:>12,} {row['reordered']:>9}")
    print(f"\n{'discipline':>10} {'slots/s':>12} {'mean resp':>10}")
    for row in engine_results:
        print(f"{row['discipline']:>10} {row['slots_per_sec']:>12,} "
              f"{row['mean_response']:>10}")

    payload = {
        "bench": "sched",
        "smoke": args.smoke,
        "seed": args.seed,
        "queue": queue_results,
        "engine": engine_results,
    }
    if args.smoke:
        print("\n[smoke mode: results not archived]")
        return 0
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n[results -> {args.out}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
