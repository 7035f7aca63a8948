"""Fleet scaling benchmark: client-slots per second at 10^4..10^6.

Drives :class:`repro.fleet.state.FleetState` directly — no engine, no
server — through a fixed number of broadcast slots against a cyclic
push program (deliver last slot's page, then generate this slot's
accesses), which isolates the struct-of-arrays population's own cost:
the slot calendar, the batched Zipf draws, absorption masks, and
waiter bookkeeping.  The headline number is ``client_slots_per_sec``
(population x slots / elapsed); ``accesses_per_sec`` tracks the
throughput of actual access processing, and the final ``snapshot()``
(per-user quantiles over the whole population) is timed separately.

Usage::

    python benchmarks/bench_fleet.py                   # 10^4..10^6
    python benchmarks/bench_fleet.py --clients 50000
    python benchmarks/bench_fleet.py --smoke           # CI: tiny, fast

Results land in ``BENCH_fleet.json`` at the repo root (``--out`` to
move them).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.fleet.state import FleetState  # noqa: E402
from repro.workload.zipf import zipf_probabilities  # noqa: E402

DEFAULT_CLIENTS = "10000,100000,1000000"
DEFAULT_OUT = REPO_ROOT / "BENCH_fleet.json"
DB_SIZE = 1000
#: Mean accesses per slot is held at population / THINK_TIME: the dense
#: regime, where a think time is about one calendar window, so most of
#: the population is indexed in every window and larger fleets stress
#: the calendar's upkeep and the batched access path together.
THINK_TIME = 1000.0


def make_fleet(num_clients: int, seed: int,
               think_time: float = THINK_TIME) -> FleetState:
    probs = zipf_probabilities(DB_SIZE, 0.95)
    return FleetState(
        num_clients=num_clients, mean_think_time=think_time,
        think_time_spread=0.5, zipf_offset_spread=50,
        cache_size=100, cache_size_spread=0.5, steady_state_perc=0.8,
        probabilities=probs,
        value_order=np.arange(DB_SIZE, dtype=np.int64),
        threshold=None, rng=np.random.default_rng(seed))


def bench_size(num_clients: int, slots: int, seed: int,
               think_time: float = THINK_TIME) -> dict:
    fleet = make_fleet(num_clients, seed, think_time)
    start = perf_counter()
    previous: Optional[int] = None
    for t in range(slots):
        if previous is not None:
            # Last slot's page completes at the boundary, exactly the
            # engines' call order (deliver then generate).
            fleet.deliver(previous, float(t))
        fleet.generate(t, t)
        previous = t % DB_SIZE
    elapsed = perf_counter() - start
    snap_start = perf_counter()
    snapshot = fleet.snapshot()
    snapshot_s = perf_counter() - snap_start
    return {
        "clients": num_clients,
        "slots": slots,
        "elapsed_s": round(elapsed, 4),
        "client_slots_per_sec": round(num_clients * slots / elapsed),
        "accesses_per_sec": round(fleet.generated / elapsed),
        "generated": fleet.generated,
        "delivered": fleet.delivered,
        "absorbed": fleet.absorbed_by_cache,
        "snapshot_s": round(snapshot_s, 4),
        "users_measured": snapshot["users_measured"],
        "jain_index": (None if snapshot["users_measured"] == 0
                       else round(snapshot["jain_index"], 4)),
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", default=DEFAULT_CLIENTS,
                        help="comma-separated population sizes "
                             f"(default: {DEFAULT_CLIENTS})")
    parser.add_argument("--slots", type=int, default=2000,
                        help="broadcast slots per size (default: 2000)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="result JSON path (default: BENCH_fleet.json "
                             "at the repo root)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny single-size run that only checks the "
                             "bench executes; writes no result file")
    args = parser.parse_args(argv)
    if args.smoke:
        sizes, slots = [2000], 200
    else:
        sizes = [int(c) for c in args.clients.split(",")]
        slots = args.slots
    results = []
    for num_clients in sizes:
        entry = bench_size(num_clients, slots, args.seed)
        results.append(entry)
        print(f"{num_clients:>9} clients x {slots} slots: "
              f"{entry['client_slots_per_sec']:>12,} client-slots/s, "
              f"{entry['accesses_per_sec']:>9,} accesses/s, "
              f"snapshot {entry['snapshot_s']:.3f}s")
    if args.smoke:
        print("smoke ok")
        return 0
    payload = {
        "bench": "fleet client-slots throughput",
        "seed": args.seed,
        "db_size": DB_SIZE,
        "think_time": THINK_TIME,
        "sizes": results,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
