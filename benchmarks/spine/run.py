"""One workload, measured in this interpreter: the contract's command.

``python3 benchmarks/spine/run.py --workload W --seed S --seconds N
--trace 0|1`` prints, as the last line of stdout, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  The
line before it (``# detail {...}``) carries what the developer command
prints beside them: per-repeat values, digests, inputs, host load.

A run is: one discarded warm-up repeat on the pinned default-seed
inputs, timed repeats on seed-derived inputs until the minimum count is
reached and ``--seconds`` have been measured, then set-up probes (fresh
interpreters that import ``repro`` and build the system; ``setup_s`` is
their wall time).  End-to-end numbers never come from a traced repeat.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

SPINE_DIR = Path(__file__).resolve().parent
ROOT = SPINE_DIR.parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'} not found: the benchmark measures "
             "the program in its own checkout and there is none here")
# The checkout's own source, ahead of any installed copy; and the repo
# root instead of this directory, so ``benchmarks.spine`` imports as the
# package it is under ``python -m`` too.
sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [
    entry for entry in sys.path if Path(entry or ".").resolve() != SPINE_DIR]

from benchmarks.spine import layers, netload  # noqa: E402
from benchmarks.spine.checks import (  # noqa: E402
    figure_digest,
    run_digest,
    run_failures,
)
from benchmarks.spine.metrics import END_TO_END, PER_LAYER  # noqa: E402
from benchmarks.spine.spans import (  # noqa: E402
    SpanRecorder,
    install_shims,
    uninstall_shims,
)
from benchmarks.spine.workloads import (  # noqa: E402
    DEFAULT_SEED,
    MAX_REPEATS,
    PACED_SLOT,
    PACED_SLOTS,
    REQUEST_EVERY,
    SATURATED_SLOT,
    WORKLOADS,
    Workload,
    repeat_seeds,
)
from repro.core.build import build_system  # noqa: E402
from repro.core.fast import FastEngine  # noqa: E402
from repro.core.simulation import ReferenceEngine  # noqa: E402
from repro.experiments.experiment1 import figure_3a  # noqa: E402

GOLDEN_PATH = SPINE_DIR / "golden.json"
RESULTS_DIR = SPINE_DIR / "results"
_SETUP_PROBES = 4


@dataclass
class Repeat:
    """What one repeat of a workload did and whether it was sound."""

    wall_s: float
    cpu_s: float
    slots: float
    #: Simulated-statistics digest (None where the run is not a function
    #: of its seed alone: the loopback pass races real sockets).
    digest: Optional[str]
    #: Checked operations (engine runs; frames and requests on the wire)
    #: and how many of them failed, with the reasons.
    attempted: int
    failed: int
    failures: list[str] = field(default_factory=list)
    #: Kind-specific result: a RunResult, a FigureResult, or the dict
    #: :func:`netload.fanout_pass` returns.
    outcome: Any = None
    #: Engine runs only: the built system the run used.
    state: Any = None


def _cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child."""
    return max(resource.getrusage(who).ru_maxrss for who in (
        resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


# -- one repeat, by kind ---------------------------------------------------
def _engine_repeat(workload: Workload, run_seed: int, smoke: bool,
                   recorder: Optional[SpanRecorder] = None,
                   **observers: Any) -> Repeat:
    config = workload.config(run_seed, smoke)
    state = build_system(config)
    if workload.kind == "reference":
        engine: Any = ReferenceEngine(config, state=state, **observers)
    else:
        engine = FastEngine(config, state=state, **observers)
    installed: list = []
    cpu = _cpu_seconds()
    started = time.perf_counter()
    if recorder is None:
        result = engine.run()
    else:
        installed = install_shims(recorder, state,
                                  env=getattr(engine, "env", None))
        try:
            with recorder.root("core.loop"):
                result = engine.run()
        finally:
            uninstall_shims(installed)
    wall = time.perf_counter() - started
    cpu = _cpu_seconds() - cpu
    failures = run_failures(result, config.run.measure_accesses,
                            config.server.queue_size)
    return Repeat(wall_s=wall, cpu_s=cpu,
                  slots=result.total_slots, digest=run_digest(result),
                  attempted=1, failed=1 if failures else 0,
                  failures=failures, outcome=result,
                  state=state if recorder is not None else None)


def _sweep_runs(figure: Any) -> list[Any]:
    """The distinct ``RunResult``s behind a figure (the flat Pure-Push
    series repeats one point along the x axis)."""
    return list({id(run): run for series in figure.series
                 for point in series.points
                 for run in point.results}.values())


def _sweep_repeat(workload: Workload, run_seed: int, smoke: bool,
                  recorder: Optional[SpanRecorder] = None) -> Repeat:
    profile = workload.profile(run_seed, smoke)
    # The runs happen in pool workers, out of a recorder's reach: the
    # figure as a whole is the only span.
    span = (recorder.root("experiments.figure_3a") if recorder is not None
            else nullcontext())
    cpu = _cpu_seconds()
    started = time.perf_counter()
    with span:
        figure = figure_3a(profile, ttrs=workload.sweep_ttrs(smoke))
    wall = time.perf_counter() - started
    cpu = _cpu_seconds() - cpu
    runs = _sweep_runs(figure)
    failures = []
    failed = 0
    for run in runs:
        inputs = run.manifest["config"]
        broken = run_failures(run, inputs["run"]["measure_accesses"],
                              inputs["server"]["queue_size"])
        failed += bool(broken)
        failures += broken
    return Repeat(wall_s=wall, cpu_s=cpu,
                  slots=sum(run.total_slots for run in runs),
                  digest=figure_digest(figure), attempted=len(runs),
                  failed=failed, failures=failures, outcome=figure)


def _net_repeat(workload: Workload, run_seed: int, smoke: bool,
                recorder: Optional[SpanRecorder] = None,
                slot_duration: float = SATURATED_SLOT,
                slots: Optional[int] = None) -> Repeat:
    observed = asyncio.run(netload.fanout_pass(
        workload.config(run_seed, smoke),
        slots=slots if slots is not None else workload.net_slots(smoke),
        listeners=workload.listeners, requesters=workload.requesters,
        request_every=REQUEST_EVERY, slot_duration=slot_duration,
        recorder=recorder))
    return Repeat(wall_s=observed["wall_s"], cpu_s=observed["cpu_s"],
                  slots=observed["slots"], digest=None,
                  attempted=observed["attempted"], failed=observed["failed"],
                  failures=observed["failures"], outcome=observed)


def run_repeat(workload: Workload, run_seed: int, smoke: bool,
               recorder: Optional[SpanRecorder] = None) -> Repeat:
    """Run one repeat of ``workload`` on ``run_seed``'s inputs."""
    if workload.kind == "sweep":
        return _sweep_repeat(workload, run_seed, smoke, recorder)
    if workload.kind == "net":
        return _net_repeat(workload, run_seed, smoke, recorder)
    return _engine_repeat(workload, run_seed, smoke, recorder)


# -- the pin ---------------------------------------------------------------
def load_golden(smoke: bool) -> dict[str, list[str]]:
    """Pinned digests per workload for the default seed's repeats."""
    return json.loads(GOLDEN_PATH.read_text())["smoke" if smoke else "full"]


class Ledger:
    """Operations attempted and failed over a whole run, with reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, label: str, repeat: Repeat,
            pinned: Optional[str] = None) -> None:
        """Count ``repeat``; a digest differing from ``pinned`` fails it."""
        failures = [f"{label}: {text}" for text in repeat.failures]
        failed = repeat.failed
        if pinned is not None and repeat.digest != pinned:
            failures.append(f"{label}: digest {repeat.digest} != pinned "
                            f"{pinned}")
            failed = max(failed, 1)
        self.attempted += repeat.attempted
        self.failed += failed
        self.failures += failures


def _pinned(golden: dict[str, list[str]], workload: Workload,
            index: int) -> Optional[str]:
    digests = golden.get(workload.name, [])
    return digests[index] if index < len(digests) else None


# -- set-up ----------------------------------------------------------------
def setup_once(workload: Workload, run_seed: int, smoke: bool) -> None:
    """Everything a user pays before the timed section (the import of
    ``repro`` happened when this module loaded)."""
    config = workload.config(run_seed, smoke)
    if workload.kind != "net":
        build_system(config)
        return

    async def start_connect_stop() -> None:
        from repro.net.server import NetServer, NetServerSettings

        # A paced clock: set-up is construct + start + connect, not a race.
        server = NetServer(config, NetServerSettings(slot_duration=PACED_SLOT))
        await server.start()
        audience = await netload.connect_audience(
            server, run_seed, workload.listeners, workload.requesters,
            REQUEST_EVERY)
        await netload.disconnect(server, audience)

    asyncio.run(start_connect_stop())


def probe_setup(workload: Workload, seed: int, smoke: bool,
                probes: int) -> list[float]:
    """Wall seconds of ``probes`` fresh interpreters doing the set-up."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--setup-probe", "--workload", workload.name,
               "--seed", str(seed)] + (["--smoke"] if smoke else [])
    times = []
    for _ in range(probes):
        started = time.perf_counter()
        # No timeout: with one, ``wait`` polls in steps of up to 50 ms
        # and the probe's time comes out quantised.
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - started)
    return times


# -- the two runs ----------------------------------------------------------
def _spread(values: list[float], better: str) -> dict[str, Any]:
    """The value the benchmark reports for per-repeat ``values`` — the
    best repeat — with their median, IQR and n beside it.

    On a shared box interference only ever slows a repeat down, and does
    so for seconds at a time, so the fastest repeat is the least
    disturbed one: between identical runs it moved by 1-10 % where the
    median of the same repeats moved by 6-22 % (README.md, "Noise").
    """
    low, _, high = (statistics.quantiles(values, n=4) if len(values) > 1
                    else [values[0]] * 3)
    return {"reported": max(values) if better == "higher" else min(values),
            "median": statistics.median(values), "iqr": high - low,
            "n": len(values), "values": values}


def run_untraced(workload: Workload, seed: int, seconds: float,
                 smoke: bool) -> tuple[dict[str, float], Ledger, dict]:
    """End-to-end metrics: the best of the timed, untraced repeats."""
    golden = load_golden(smoke)
    ledger = Ledger()
    warmup = run_repeat(workload, repeat_seeds(DEFAULT_SEED, 1)[0], smoke)
    ledger.add("warm-up", warmup, _pinned(golden, workload, 0))

    seeds = repeat_seeds(seed)
    minimum = 1 if smoke else workload.min_repeats
    repeats: list[Repeat] = []
    began = time.perf_counter()
    while len(repeats) < minimum or (
            time.perf_counter() - began < seconds
            and len(repeats) < MAX_REPEATS):
        index = len(repeats)
        repeat = run_repeat(workload, seeds[index], smoke)
        ledger.add(f"repeat {index}", repeat,
                  _pinned(golden, workload, index)
                  if seed == DEFAULT_SEED else None)
        repeats.append(repeat)
        # A repeat's cyclic garbage (a NetServer and its 6 MB distance
        # table, say) would otherwise live until some later repeat's
        # collection and make the peak depend on how many repeats ran.
        gc.collect()

    # Read before the probes run: they are children too, and their
    # resident set is not the measured program's.
    peak_rss = _peak_rss_mb()
    series = {
        "slots_per_s": [r.slots / r.wall_s for r in repeats],
        "cpu_us_per_slot": [r.cpu_s * 1e6 / r.slots for r in repeats],
        "peak_rss_mb": [peak_rss],
        "setup_s": probe_setup(workload, seed, smoke,
                               1 if smoke else _SETUP_PROBES),
        # Printed, not gated: it moves with the seed's slot count.
        "wall_s": [r.wall_s for r in repeats],
    }
    better = {name: direction for name, _, direction, _ in END_TO_END}
    detail = {name: _spread(values, better.get(name, "lower"))
              for name, values in series.items()}
    detail["digests"] = [r.digest for r in repeats]
    detail["simulated"] = _simulated(workload, repeats)
    metrics = {name: detail[name]["reported"] for name in better}
    return metrics, ledger, detail


def _simulated(workload: Workload, repeats: list[Repeat]) -> dict[str, Any]:
    """Simulated-time results (exact per seed), mean over the repeats."""
    if workload.kind == "net":
        return {}
    if workload.kind == "sweep":
        results = [run for r in repeats for run in _sweep_runs(r.outcome)]
    else:
        results = [r.outcome for r in repeats]
    return {
        "response_miss_mean_slots": statistics.fmean(
            result.response_miss.mean for result in results),
        "drop_rate": statistics.fmean(
            result.drop_rate for result in results)}


def run_traced(workload: Workload, seed: int, smoke: bool, write: bool,
               ) -> tuple[dict[str, float], Ledger, dict]:
    """Per-layer metrics: one traced repeat beside its untraced twin."""
    ledger = Ledger()
    if not smoke:
        warmup = run_repeat(workload, repeat_seeds(DEFAULT_SEED, 1)[0], smoke)
        ledger.add("warm-up", warmup,
                   _pinned(load_golden(smoke), workload, 0))
    run_seed = repeat_seeds(seed, 1)[0]
    plain = run_repeat(workload, run_seed, smoke)
    ledger.add("untraced", plain)
    recorder = SpanRecorder()
    traced = run_repeat(workload, run_seed, smoke, recorder)
    # The same inputs run twice, once under the shims: equal digests show
    # both that the run is a function of its seed and that looking at it
    # did not change it.
    ledger.add("traced", traced, plain.digest)

    metrics = layers.zero_layers()
    config = workload.config(run_seed, smoke)
    metrics.update(layers.micro_layers(config))
    # Same work on both sides (host time per slot where the slot count is
    # itself timing-dependent).
    metrics["bench.trace_overhead_ratio"] = (
        (traced.wall_s / traced.slots) / (plain.wall_s / plain.slots))
    # Summed self times (plus the recorder's own, set-aside time) over
    # the wall time measured around the traced run.
    metrics["bench.self_time_coverage"] = (
        (recorder.self_ns() + recorder.overhead_ns) / (traced.wall_s * 1e9))
    if workload.kind == "sweep":
        metrics.update(_sweep_layers(workload, plain))
    elif workload.kind == "net":
        metrics.update(layers.net_micro_layers())
        metrics.update(layers.net_layers(recorder, traced.outcome))
        metrics["net.frames_per_s"] = (
            plain.outcome["frames_delivered"] / plain.wall_s)
        paced = _net_repeat(workload, run_seed, smoke,
                            slot_duration=PACED_SLOT,
                            slots=100 if smoke else PACED_SLOTS)
        ledger.add("paced", paced)
        metrics["net.lagging_fraction_paced"] = (
            paced.outcome["lagging_slots"] / paced.slots)
    else:
        metrics.update(layers.engine_layers(recorder, traced.outcome,
                                            traced.state))
        if traced.state.fleet is not None:
            metrics["fleet.client_slots_per_s"] = (
                plain.slots / plain.wall_s
                * config.fleet.num_clients)
    if workload.name == "ipp_light":
        metrics.update(_tracer_overheads(workload, run_seed, smoke, plain,
                                         ledger))
    detail = {"trace_file": None, "traced_wall_s": traced.wall_s,
              "untraced_wall_s": plain.wall_s}
    if write:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"trace-{workload.name}.json"
        trace = recorder.to_dict()
        trace.update(workload=workload.name, seed=seed,
                     wall_s=traced.wall_s)
        path.write_text(json.dumps(trace))
        detail["trace_file"] = str(path.relative_to(ROOT))
    return metrics, ledger, detail


def _sweep_layers(workload: Workload, repeat: Repeat) -> dict[str, float]:
    runs = _sweep_runs(repeat.outcome)
    busy = sum(run.manifest["elapsed_seconds"] for run in runs)
    workers = workload.profile(0).workers or 1
    simulated = _simulated(workload, [repeat])
    return {
        "experiments.pool_efficiency": busy / (workers * repeat.wall_s),
        "experiments.runs_per_s": len(runs) / repeat.wall_s,
        "core.response_miss_mean_slots":
            simulated["response_miss_mean_slots"],
        "core.drop_rate": simulated["drop_rate"],
    }


def _tracer_overheads(workload: Workload, run_seed: int, smoke: bool,
                      plain: Repeat, ledger: Ledger) -> dict[str, float]:
    """The program's own tracers, on against off, on identical inputs."""
    from repro.obs.columnar import ColumnarSink
    from repro.obs.requests import RequestTracer
    from repro.obs.trace import SlotTracer

    with_requests = _engine_repeat(
        workload, run_seed, smoke,
        request_tracer=RequestTracer(ColumnarSink(table="request")))
    with_slots = _engine_repeat(
        workload, run_seed, smoke,
        tracer=SlotTracer(ColumnarSink(table="slot")))
    ledger.add("request tracer on", with_requests, plain.digest)
    ledger.add("slot tracer on", with_slots, plain.digest)
    return {
        "obs.request_tracer_overhead_ratio":
            with_requests.wall_s / plain.wall_s,
        "obs.slot_tracer_overhead_ratio": with_slots.wall_s / plain.wall_s,
    }


# -- entry point -----------------------------------------------------------
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="measure at least this long (and at least the "
                             "workload's minimum number of repeats)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 length, one timed repeat, no file "
                             "written")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        setup_once(workload, repeat_seeds(args.seed, 1)[0], args.smoke)
        return 0
    load = os.getloadavg()[0]
    nproc = os.cpu_count() or 1
    if args.trace:
        metrics, ledger, detail = run_traced(
            workload, args.seed, args.smoke, write=not args.smoke)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics, ledger, detail = run_untraced(
            workload, args.seed, args.seconds, args.smoke)
        units = {name: unit for name, unit, *_ in END_TO_END}
    detail.update(
        workload=workload.name, seed=args.seed, smoke=args.smoke,
        trace=args.trace, load_1min=load, nproc=nproc, noisy=load > nproc,
        failures=ledger.failures,
        inputs=workload.describe(repeat_seeds(args.seed, 1)[0], args.smoke))
    print("# detail " + json.dumps(detail))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
