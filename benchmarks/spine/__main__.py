"""Every workload, one command: ``PYTHONPATH=src python -m benchmarks.spine``.

Each workload runs in fresh child interpreters, strictly one after
another: first the contract's command with ``--trace 0`` (end-to-end
metrics), then with ``--trace 1`` (per-layer metrics and the trace
file).  The parent prints every metric by name with its unit — median,
IQR and n beside each end-to-end one — stamps the set with provenance,
writes it to ``results/latest.json`` and appends it to ``history.jsonl``.

``--smoke`` runs everything at about 1/20 length and writes no file;
``--selfcheck`` runs two full sets back to back and exits non-zero if
they disagree by more than the benchmark's own bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Optional

from benchmarks.spine import HARNESS_VERSION, run
from benchmarks.spine.metrics import END_TO_END, PER_LAYER, RUN_SECONDS
from benchmarks.spine.workloads import DEFAULT_SEED, WORKLOADS

HISTORY_PATH = run.SPINE_DIR / "history.jsonl"
LATEST_PATH = run.RESULTS_DIR / "latest.json"


def _child(workload: str, seed: int, trace: int, smoke: bool,
           ) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run the contract's command; return its result and detail lines."""
    command = [sys.executable, run.__file__, "--workload", workload,
               "--seed", str(seed), "--trace", str(trace)] + (
        ["--smoke"] if smoke else ["--seconds", str(RUN_SECONDS)])
    done = subprocess.run(command, check=True, stdout=subprocess.PIPE,
                          text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    return (json.loads(lines[-1]),
            json.loads(lines[-2].removeprefix("# detail ")))


def measure_set(names: list[str], seed: int, smoke: bool,
                trace: bool) -> dict[str, Any]:
    """One full set: every named workload, untraced then traced."""
    measured: dict[str, Any] = {}
    for name in names:
        result, detail = _child(name, seed, 0, smoke)
        entry = {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "failed_fraction": result["failed"] / result["attempted"],
            "failures": detail["failures"],
            "noisy": detail["noisy"],
            "load_1min": detail["load_1min"],
            "nproc": detail["nproc"],
            "inputs": detail["inputs"],
            "digests": detail["digests"],
            "simulated": detail["simulated"],
            # wall_s is printed beside the gated metrics, not one of them.
            "end_to_end": {
                key: {"unit": unit, **{
                    stat: detail[key][stat]
                    for stat in ("reported", "median", "iqr", "n")}}
                for key, unit, *_ in (*END_TO_END, ("wall_s", "s"))},
            "per_layer": None,
        }
        _print_end_to_end(name, entry)
        if trace:
            layers, trace_detail = _child(name, seed, 1, smoke)
            entry["per_layer"] = {
                key: value["value"]
                for key, value in layers["metrics"].items()}
            entry["trace_file"] = trace_detail["trace_file"]
            entry["correct"] &= layers["correct"]
            entry["failures"] += trace_detail["failures"]
            _print_per_layer(entry)
        measured[name] = entry
    return measured


def _print_end_to_end(name: str, entry: dict[str, Any]) -> None:
    flags = "" if entry["correct"] else "  ** INCORRECT **"
    if entry["noisy"]:
        flags += (f"  (noisy: load {entry['load_1min']:.2f} > "
                  f"nproc {entry['nproc']})")
    print(f"\n== {name}{flags}")
    print(f"   failed_fraction     {entry['failed_fraction']:.6f}  "
          f"({entry['failed']} of {entry['attempted']} operations)")
    for key, value in entry["simulated"].items():
        print(f"   {key:<26} {value:>14.6f}  (simulated, exact per seed)")
    for key, stats in entry["end_to_end"].items():
        print(f"   {key:<26} {stats['reported']:>14.4f} {stats['unit']:<5}"
              f" median {stats['median']:.4f}  iqr {stats['iqr']:.4f}  "
              f"n {stats['n']}")
    for text in entry["failures"]:
        print(f"   !! {text}")


def _print_per_layer(entry: dict[str, Any]) -> None:
    units = {name: unit for name, unit, _ in PER_LAYER}
    for key, value in entry["per_layer"].items():
        if value:  # 0: the layer does not run on this workload
            print(f"     {key:<40} {value:>14.4f} {units[key]}")


def provenance(seed: int) -> dict[str, Any]:
    """Where a result set came from (``repro.obs.manifest`` fields)."""
    from repro.core.config import SystemConfig
    from repro.obs.manifest import run_manifest

    stamp = run_manifest(SystemConfig(), "fast")
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                         capture_output=True, text=True)
    return {
        "harness_version": HARNESS_VERSION,
        "seed": seed,
        "git_sha": git.stdout.strip() if git.returncode == 0 else None,
        **{key: stamp[key] for key in (
            "package_version", "python_version", "numpy_version",
            "created_utc")},
        "nproc": os.cpu_count(),
    }


def disagreements(first: dict[str, Any],
                  second: dict[str, Any]) -> list[str]:
    """Where two sets of the same code differ by more than the bounds."""
    found: list[str] = []
    for name, one in first.items():
        two = second[name]
        for key in ("digests", "simulated", "failed_fraction"):
            if one[key] != two[key]:
                found.append(f"{name}: {key} differs between the sets "
                             "(must repeat exactly)")
        for key, _unit, better, bound in END_TO_END:
            a = one["end_to_end"][key]["reported"]
            b = two["end_to_end"][key]["reported"]
            worse = (b - a) / a if better == "lower" else (a - b) / a
            if abs(worse) > bound:
                found.append(f"{name}: {key} {a:.4f} vs {b:.4f} differ by "
                             f"{abs(worse):.1%} > bound {bound:.0%}")
    return found


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.spine",
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workload", action="append",
                        choices=list(WORKLOADS), metavar="NAME",
                        help="run only this workload (repeatable)")
    parser.add_argument("--no-trace", action="store_true",
                        help="skip the traced runs (no per-layer metrics)")
    parser.add_argument("--smoke", action="store_true",
                        help="~1/20 length, no file written")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two sets; fail if they disagree")
    parser.add_argument("--update-golden", action="store_true",
                        help="re-pin golden.json (full and smoke) from the "
                             "default seed; for a stated model change only")
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)
    if args.update_golden:
        return _update_golden()

    measured = measure_set(names, args.seed, args.smoke,
                           trace=not args.no_trace)
    problems = [f"{name}: incorrect" for name, entry in measured.items()
                if not entry["correct"]]
    if args.selfcheck:
        print("\n-- selfcheck: second set --")
        again = measure_set(names, args.seed, args.smoke, trace=False)
        problems += disagreements(measured, again)
    record = {**provenance(args.seed), "smoke": args.smoke,
              "workloads": measured}
    if not args.smoke:
        run.RESULTS_DIR.mkdir(exist_ok=True)
        LATEST_PATH.write_text(json.dumps(record, indent=1) + "\n")
        with HISTORY_PATH.open("a") as history:
            history.write(json.dumps(record) + "\n")
        print(f"\nwrote {LATEST_PATH.relative_to(run.ROOT)}, appended "
              f"{HISTORY_PATH.relative_to(run.ROOT)}")
    for text in problems:
        print(f"FAIL {text}")
    return 1 if problems else 0


def _update_golden() -> int:
    from benchmarks.spine.workloads import repeat_seeds

    pins: dict[str, Any] = {"seed": DEFAULT_SEED}
    for mode, smoke in (("full", False), ("smoke", True)):
        pins[mode] = {}
        for workload in WORKLOADS.values():
            if workload.kind == "net":
                continue  # a race between real sockets has no digest
            count = 1 if smoke else workload.min_repeats
            pins[mode][workload.name] = [
                run.run_repeat(workload, seed, smoke).digest
                for seed in repeat_seeds(DEFAULT_SEED, count)]
            print(mode, workload.name, pins[mode][workload.name])
    run.GOLDEN_PATH.write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
