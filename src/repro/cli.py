"""Command-line interface: ``repro-broadcast`` / ``python -m repro``.

``repro-broadcast --help`` lists the subcommands; each one's ``help=`` in
:func:`build_parser` is its description.  The single-system subcommands
(``simulate``, ``serve``, ``loadgen``, ``trace``, ``sanitize``) share
one flag per config field, derived from the field's declared domain
(:data:`_SYSTEM_FLAGS`); so are the flags of ``serve``,
``loadgen``, ``figures`` and ``compare`` that set a field of the server,
load-generator, self-test, sweep-profile or compare settings.

Exit codes: 0 success; 2 a usage or load error, reported as one
``command: ...`` line on stderr; 1 is reserved for a verdict:
``compare`` drift, ``sanitize`` divergence, a failed ``serve
--self-test``, a figure claim that ``report`` finds false (see
docs/COMPARE.md).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from repro.core import ENGINES
from repro.core.algorithms import Algorithm
from repro.core.config import SystemConfig, config_field
from repro.core.fast import FastEngine
from repro.experiments import (
    EXTENSIONS,
    FIGURES,
    FULL,
    QUICK,
    evaluate,
    render_figure,
    run_figure,
)
from repro.experiments.compare import CompareSettings
from repro.experiments.reporting import render_ascii_chart
from repro.net.client import ClientFleet, FleetSettings
from repro.net.selftest import SelfTestSettings, run_selftest
from repro.net.server import NetServer, NetServerSettings

__all__ = ["main", "build_parser"]


class _UsageError(Exception):
    """A bad argument value argparse cannot catch: one line, exit 2."""


def _figure_specs(ids):
    """The :data:`FIGURES` / :data:`EXTENSIONS` rows for ``ids`` (a usage
    error if unknown)."""
    table = {**FIGURES, **EXTENSIONS}
    unknown = [i for i in ids if i not in table]
    if unknown:
        raise _UsageError(f"unknown figure id(s): {', '.join(unknown)} "
                          f"(known: {', '.join(table)})")
    return [table[i] for i in ids]


@contextmanager
def _naming_flags(flags):
    """Turn a ValueError naming the field a flag sets into a usage error
    led by that flag; ``flags`` maps flag -> dotted name."""
    try:
        yield
    except ValueError as exc:
        named = [flag for flag, dotted in flags.items()
                 if str(exc).startswith(f"{dotted} ")]
        if not named:
            raise
        raise _UsageError(": ".join([*named, str(exc)])) from None


def _output_dir(flag, path) -> None:
    """Create the directory ``path`` a flag names (if given) now, so an
    unusable one is a usage error before any run, not a traceback after."""
    if path is None:
        return
    try:
        path.mkdir(parents=True, exist_ok=True)
    except FileExistsError:
        raise _UsageError(f"{flag}: {path} is not a directory") from None
    except OSError as exc:
        raise _UsageError(f"{flag}: cannot create directory {path}: "
                          f"{exc.strerror}") from None


def _output_file(flag, path) -> None:
    """:func:`_output_dir` for the directory of a file a flag names."""
    if path is not None:
        if path.is_dir():
            raise _UsageError(f"{flag}: {path} is a directory, not a file")
        _output_dir(flag, path.parent)


def _version() -> str:
    """Package version from installed metadata, source tree as fallback."""
    try:
        from importlib.metadata import version
        return version("repro")
    except Exception:  # pragma: no cover - metadata always present when installed
        from repro import __version__
        return __version__


#: The single-system flags shared by simulate / serve / loadgen / trace /
#: sanitize, each setting one config field; its type, default and help
#: come from the field's declared domain.
_SYSTEM_FLAGS = {
    "--ttr": "client.think_time_ratio",
    "--pull-bw": "server.pull_bw",
    "--thresh-perc": "server.thresh_perc",
    "--steady-state-perc": "client.steady_state_perc",
    "--noise": "client.noise",
    "--chop": "server.chop",
    "--seed": "run.seed",
    "--settle": "run.settle_accesses",
    "--measure": "run.measure_accesses",
    "--fleet-clients": "fleet.num_clients",
    "--fleet-think-time": "fleet.think_time",
    "--fleet-think-spread": "fleet.think_time_spread",
    "--fleet-offset-spread": "fleet.zipf_offset_spread",
    "--fleet-cache-size": "fleet.cache_size",
    "--fleet-cache-spread": "fleet.cache_size_spread",
}


#: Where a server listens and how fast it ticks: serve sets these, loadgen
#: names the server it drives by them.
_SERVER_FLAGS = {
    "--host": "serve.host",
    "--port": "serve.port",
    "--slot-duration": "serve.slot_duration",
}
#: serve's flags: the rest of the server's settings, then the self-test's.
_SERVE_FLAGS = {
    **_SERVER_FLAGS,
    "--slots": "serve.max_slots",
    "--send-queue": "serve.send_queue_frames",
    "--drop-after": "serve.drop_after",
    "--clients": "selftest.num_clients",
    "--think-time": "selftest.think_time",
}
#: The serve flags ``--self-test`` reads, by the self-test field each sets
#: (``--slots`` left unset keeps the self-test's own length).
_SELFTEST_FLAGS = {
    **_SERVE_FLAGS,
    "--slots": "selftest.slots",
    "--slot-duration": "selftest.slot_duration",
    "--seed": "selftest.seed",
}
#: loadgen's flags: the server it drives, then its fleet's settings.
_LOADGEN_FLAGS = {
    **_SERVER_FLAGS,
    "--clients": "loadgen.num_clients",
    "--think-time": "loadgen.think_time",
    "--settle-slots": "loadgen.settle_slots",
    "--duration": "loadgen.duration",
}
#: compare's drift thresholds.
_COMPARE_FLAGS = {"--alpha": "compare.alpha",
                  "--tolerance": "compare.tolerance"}
#: The sweep-profile flags of figures (over QUICK or FULL).
_FIGURES_FLAGS = {"--workers": "profile.workers", "--seed": "profile.base_seed"}
#: program's flags, over an IPP system.
_PROGRAM_FLAGS = {"--cache-size": "client.cache_size", "--chop": "server.chop"}


def _dest(flag: str) -> str:
    """The attribute argparse stores ``flag`` under."""
    return flag[2:].replace("-", "_")


def _add_flags(parser, flags, required=()) -> None:
    """One flag per entry of ``flags`` (flag -> dotted field name), its
    type, default and help from the field's declared domain."""
    for flag, dotted in flags.items():
        spec = config_field(dotted)
        domain = spec.metadata["domain"]
        parser.add_argument(
            flag, type=domain.kind, required=flag in required,
            default=None if flag in required else spec.default,
            help=f"{dotted}: {domain.describe()}"
                 + ("" if flag in required else " (default: %(default)s)"))


def _settings(base, args, flags):
    """A copy of the settings ``base`` with each of its fields that a flag
    in ``flags`` sets to other than None; a value outside its field's
    domain is a usage error naming flag and field."""
    values = {}
    for flag, dotted in flags.items():
        prefix, name = dotted.split(".")
        value = getattr(args, _dest(flag))
        if prefix == base.prefix and value is not None:
            values[name] = value
    with _naming_flags(flags):
        return replace(base, **values)


def _add_system_args(parser: argparse.ArgumentParser) -> None:
    """The single-system knobs: ``--algorithm`` plus :data:`_SYSTEM_FLAGS`."""
    parser.add_argument("--algorithm", choices=[a.value for a in Algorithm],
                        default="ipp")
    _add_flags(parser, _SYSTEM_FLAGS)


def _system_config(args) -> SystemConfig:
    """Build the configured system from simulate-style arguments.

    ``--figure`` (trace / sanitize) swaps in that figure's
    representative sweep point, which the client and server flags then
    leave alone; the fleet flags apply only with a non-zero
    ``--fleet-clients``; the run flags always apply.  A value outside its
    field's domain is a usage error naming the flag and the field.
    """
    figure = getattr(args, "figure", None)
    if figure is not None:
        [spec] = _figure_specs([figure])
        config = spec.representative_config()
    else:
        config = SystemConfig(algorithm=Algorithm(args.algorithm))
    updates = {}
    for flag, dotted in _SYSTEM_FLAGS.items():
        section, name = dotted.split(".")
        if not ((section in ("client", "server") and figure is not None)
                or (section == "fleet" and not args.fleet_clients)):
            updates[f"{section}__{name}"] = getattr(args, _dest(flag))
    with _naming_flags(_SYSTEM_FLAGS):
        return config.with_(**updates)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro-broadcast",
        description="Reproduction of 'Balancing Push and Pull for Data "
                    "Broadcast' (SIGMOD 1997)",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {_version()}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, **kwargs) -> argparse.ArgumentParser:
        """A subcommand; ``main`` runs ``handler(args)`` for it."""
        subparser = sub.add_parser(name, **kwargs)
        subparser.set_defaults(handler=handler)
        return subparser

    figures = command(
        "figures", _cmd_figures,
        help="regenerate the paper's figures and the extensions")
    figures.add_argument(
        "ids", nargs="*", metavar="FIG",
        help=f"figure ids ({', '.join(FIGURES)}; beyond the paper: "
             f"{', '.join(EXTENSIONS)}); default: the paper's eleven")
    figures.add_argument(
        "--full", action="store_true",
        help="paper-scale runs (slow); default is the quick profile")
    _add_flags(figures, _FIGURES_FLAGS)
    figures.add_argument("--chart", action="store_true",
                         help="also plot each figure as an ASCII chart")
    figures.add_argument(
        "--json", type=Path, default=None, metavar="DIR",
        help="also write one JSON file per figure into DIR")
    figures.add_argument(
        "--trace", type=Path, default=None, metavar="DIR",
        help="also write a slot trace of each figure's representative "
             "point into DIR (trace_<FIG>.npy)")
    figures.add_argument(
        "--drop-rates", action="store_true",
        help="print server drop-rate tables as well")

    one = command(
        "simulate", _cmd_simulate, help="run one configured system")
    _add_system_args(one)
    one.add_argument(
        "--metrics", action="store_true",
        help="include the server's own accounting under 'server' (the "
             "block a live serve instance reports in STATS frames)")

    serve = command(
        "serve", _cmd_serve,
        help="serve one configured system over TCP (asyncio)")
    _add_system_args(serve)
    _add_flags(serve, _SERVE_FLAGS)
    serve.add_argument(
        "--self-test", action="store_true",
        help="loopback mode: server + client fleet in-process, swept over "
             "PullBW and checked against the simulator's p90 ordering")
    serve.add_argument(
        "--stats-json", type=Path, default=None, metavar="FILE",
        help="write the final stats (self-test: figure-schema JSON that "
             "'report' renders) to FILE")

    loadgen = command(
        "loadgen", _cmd_loadgen,
        help="drive a running serve instance with a client fleet")
    _add_system_args(loadgen)
    _add_flags(loadgen, _LOADGEN_FLAGS, required=("--port",))
    loadgen.add_argument(
        "--stats-json", type=Path, default=None, metavar="FILE",
        help="write the fleet's result JSON to FILE")

    trace = command(
        "trace", _cmd_trace,
        help="run one system and write a columnar .npy trace")
    _add_system_args(trace)
    trace.add_argument(
        "--figure", default=None, metavar="FIG",
        help="trace this figure's representative sweep point instead of "
             "the --algorithm/--ttr/... knobs")
    trace.add_argument(
        "--engine", choices=tuple(ENGINES), default="fast",
        help="which engine to trace (default: fast)")
    trace.add_argument(
        "--out", type=Path, default=Path("trace.npy"), metavar="FILE",
        help="output .npy path (default: trace.npy)")
    trace.add_argument(
        "--requests", action="store_true",
        help="trace measured-client request lifecycles (one record per "
             "access) instead of broadcast slots")

    report = command(
        "report", _cmd_report,
        help="summarize a saved figure JSON or .npy trace; a figure's "
             "claims get one verdict line each, and exit 1 if one fails")
    report.add_argument(
        "path", nargs="?", type=Path, default=None, metavar="FIGURE_JSON",
        help="a results/figure_*.json file to render")
    report.add_argument(
        "--trace", type=Path, default=None, metavar="FILE",
        help="summarize a .npy trace (slot or request records) instead")
    report.add_argument(
        "--think-time", type=float, default=None, metavar="UNITS",
        help="think time per access, to fill the think row of a request-"
             "trace wait breakdown")

    compare = command(
        "compare", _cmd_compare,
        help="diff two saved figure JSONs for drift beyond replicate noise")
    compare.add_argument("a", type=Path, metavar="A_JSON",
                         help="reference figure JSON (left side)")
    compare.add_argument("b", type=Path, metavar="B_JSON",
                         help="candidate figure JSON (right side)")
    _add_flags(compare, _COMPARE_FLAGS)
    compare.add_argument(
        "--series", default=None, metavar="LABELS",
        help="comma-separated series labels to compare (default: all)")
    compare.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="report rendering (default: table)")

    convert = command(
        "convert", _cmd_convert, help="export a .npy trace as JSON lines")
    convert.add_argument(
        "src", type=Path, metavar="SRC.npy", help="source trace")
    convert.add_argument(
        "dst", type=Path, metavar="DST.jsonl",
        help="destination: one JSON object per record")

    prog = command(
        "program", _cmd_program, help="inspect a broadcast program")
    _add_flags(prog, _PROGRAM_FLAGS)
    prog.add_argument("--no-offset", action="store_true")

    sanitize = command(
        "sanitize", _cmd_sanitize,
        help="runtime determinism check: replay a config per engine and "
             "diff the slot traces bit-exactly")
    _add_system_args(sanitize)
    sanitize.add_argument(
        "--figure", default=None, metavar="FIG",
        help="sanitize this figure's representative sweep point instead "
             "of the --algorithm/--ttr/... knobs")
    sanitize.add_argument(
        "--engine", choices=("both", *ENGINES), default="both",
        help="which engine(s) to replay (default: both)")
    sanitize.add_argument(
        "--hash-seed", default=None, metavar="SEED",
        help="PYTHONHASHSEED for the subprocess replay (default: 31337)")
    sanitize.add_argument(
        "--no-hashseed", action="store_true",
        help="skip the subprocess replay (in-process replays only)")
    sanitize.add_argument(
        "--inject-divergence", type=int, default=None, metavar="SLOT",
        help="self-test hook: perturb the in-process replay from SLOT "
             "onward, proving the diff trips and names the slot")
    sanitize.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report rendering (default: text)")

    return parser


def _write_request_trace(config: SystemConfig, path: Path,
                         engine: str = "fast") -> int:
    """Request-trace ``config`` into a file; prints what ``report
    --trace`` prints of it."""
    from repro.experiments.tracing import write_request_trace

    tracer = write_request_trace(config, path, engine=engine)
    print("\n".join(_request_summary(tracer.sink.array(),
                                     tracer.think_time)))
    return tracer.records_emitted


def _write_json(path, payload, what: str) -> None:
    """Write ``payload`` to ``path`` (if given) and say where it went."""
    if path is not None:
        path.write_text(json.dumps(payload, indent=2))
        print(f"[{what} JSON -> {path}]")


def _emit_figure(figure, chart: bool, json_path) -> None:
    """The ``--chart`` / ``--json`` tail of ``figures`` (and the JSON of
    ``serve --self-test``)."""
    if chart:
        print()
        print(render_ascii_chart(figure))
    _write_json(json_path, figure.to_dict(), "figure")


def _cmd_figures(args) -> int:
    specs = _figure_specs(args.ids or list(FIGURES))
    profile = _settings(FULL if args.full else QUICK, args, _FIGURES_FLAGS)
    _output_dir("--json", args.json)
    _output_dir("--trace", args.trace)
    for spec in specs:
        fig_id = spec.figure_id
        started = time.perf_counter()
        figure = run_figure(spec, profile)
        elapsed = time.perf_counter() - started
        if figure.manifest is not None:
            figure.manifest["elapsed_seconds"] = elapsed
        print(render_figure(figure, show_drop_rates=args.drop_rates))
        _emit_figure(figure, args.chart,
                     args.json and args.json / f"figure_{fig_id}.json")
        print(f"[figure {fig_id} regenerated in {elapsed:.1f}s]\n")
        if args.trace is not None:
            from repro.experiments.tracing import write_slot_trace

            trace_path = args.trace / f"trace_{fig_id}.npy"
            emitted = write_slot_trace(
                profile.apply(spec.representative_config(),
                              profile.base_seed), trace_path)
            print(f"[trace {fig_id}: {emitted} slot records -> "
                  f"{trace_path}]\n")
    return 0


def _cmd_simulate(args) -> int:
    engine = FastEngine(_system_config(args))
    output = engine.run().to_dict()
    if args.metrics:
        output["server"] = engine.state.server.stats_snapshot()
    print(json.dumps(output, indent=2))
    return 0


def _cmd_serve(args) -> int:
    config = _system_config(args)
    _output_file("--stats-json", args.stats_json)
    if args.self_test:
        result = run_selftest(
            config, _settings(SelfTestSettings(), args, _SELFTEST_FLAGS))
        print(render_figure(result.figure))
        _emit_figure(result.figure, False, args.stats_json)
        for diag in result.diagnostics:
            fleet = diag["fleet"]
            print(f"  pull_bw={diag['pull_bw']:g}: "
                  f"{fleet['measured_latencies']} measured latencies, "
                  f"{fleet['censored']} censored, "
                  f"effective slot {fleet['effective_slot_duration']:.4g}s")
        verdict = "matches" if result.ordering_ok else "DOES NOT match"
        print(f"self-test: wall-clock p90 ordering {verdict} the "
              f"simulator's (fleet={result.fleet_p90}, "
              f"sim={result.sim_p90})")
        return 0 if result.ok else 1

    settings = _settings(NetServerSettings(), args, _SERVE_FLAGS)

    async def _serve():
        server = NetServer(config, settings)
        await server.start()
        print(f"serving {config.algorithm.value} on "
              f"{settings.host}:{server.port} "
              f"(slot {settings.slot_duration}s"
              + (f", {settings.max_slots} slots)" if settings.max_slots
                 else ")"),
              flush=True)
        try:
            if settings.max_slots is not None:
                await server.wait_finished()
            else:
                await asyncio.Event().wait()  # until interrupted
            return server.stats_snapshot()
        finally:
            await server.stop()

    try:
        stats = asyncio.run(_serve())
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    _write_json(args.stats_json, stats, "stats")
    if args.stats_json is None:
        print(json.dumps(stats, indent=2))
    return 0


def _cmd_loadgen(args) -> int:
    config = _system_config(args)
    _output_file("--stats-json", args.stats_json)
    settings = _settings(FleetSettings(), args, _LOADGEN_FLAGS)
    with _naming_flags(_LOADGEN_FLAGS):
        fleet = ClientFleet(config, args.host, args.port, args.slot_duration,
                            settings, seed=args.seed)

    async def _drive():
        await fleet.start()
        await asyncio.sleep(settings.duration)
        return await fleet.stop(fetch_stats=True)

    try:
        result = asyncio.run(_drive())
    except ConnectionRefusedError:
        raise _UsageError(f"nothing listening on {args.host}:{args.port} "
                          "(start 'repro-broadcast serve' first)") from None
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    output = result.to_dict()
    _write_json(args.stats_json, output, "fleet")
    print(json.dumps({k: v for k, v in output.items()
                      if k != "server_stats"}, indent=2))
    return 0


def _cmd_trace(args) -> int:
    config = _system_config(args)
    if args.out.suffix != ".npy":
        raise _UsageError(
            f"--out {args.out} must end in .npy (a trace is a columnar "
            ".npy; 'convert SRC.npy DST.jsonl' exports one as JSON lines)")
    _output_file("--out", args.out)
    if args.requests:
        emitted = _write_request_trace(config, args.out, engine=args.engine)
        print(f"{emitted} request records -> {args.out}")
    else:
        from repro.experiments.tracing import write_slot_trace

        emitted = write_slot_trace(config, args.out, engine=args.engine)
        print(f"{emitted} slot records -> {args.out}")
    return 0


def _cmd_compare(args) -> int:
    from repro.experiments.compare import compare_files
    from repro.experiments.reporting import render_compare

    thresholds = _settings(CompareSettings(), args, _COMPARE_FLAGS)
    series = None
    if args.series is not None:
        series = [label.strip() for label in args.series.split(",")
                  if label.strip()]
    try:
        comparison = compare_files(args.a, args.b,
                                   alpha=thresholds.alpha,
                                   tolerance=thresholds.tolerance,
                                   series=series)
    except (OSError, ValueError) as exc:
        raise _UsageError(exc) from None
    if args.format == "json":
        print(json.dumps(comparison.to_dict(), indent=2))
    else:
        print(render_compare(comparison))
    return comparison.exit_code


def _cmd_convert(args) -> int:
    from repro.obs.columnar import columnar_to_jsonl

    if args.dst.suffix == ".npy":
        raise _UsageError("DST is written as JSON lines and cannot be a "
                          ".npy (usage: convert SRC.npy DST.jsonl)")
    try:
        args.dst.parent.mkdir(parents=True, exist_ok=True)
        count = columnar_to_jsonl(args.src, args.dst)
    except (OSError, ValueError) as exc:
        raise _UsageError(exc) from None
    print(f"{count} records: {args.src} -> {args.dst}")
    return 0


def _request_summary(array, think_time) -> list[str]:
    """A request table's breakdown and exact miss-wait quantile lines."""
    from repro.obs.requests import breakdown_of_array, measured_miss_waits
    from repro.sim.monitor import exact_quantiles

    lines = [breakdown_of_array(array, think_time=think_time).render()]
    waits = measured_miss_waits(array)
    marks = exact_quantiles(waits)
    if marks is not None:
        lines.append(
            f"measured miss wait quantiles: p50={marks['p50']:.1f}  "
            f"p90={marks['p90']:.1f}  p99={marks['p99']:.1f}  "
            f"max={waits.max():.1f}")
    return lines


def _report_trace(path: Path, think_time) -> int:
    """Summarize a ``.npy`` trace file (slot or request records).

    Breakdowns come from the vectorized column reductions, quantiles as
    exact order statistics.
    """
    import numpy as np

    from repro.obs.columnar import load_columnar, slot_summary, table_of

    try:
        array = load_columnar(path)
        if array.shape[0] == 0:
            print(f"{path}: empty trace")
            return 2
        if table_of(array) == "request":
            measured = int(np.count_nonzero(array["measured"]))
            lines = [f"request trace: {array.shape[0]} records "
                     f"({measured} measured) from {path}", "",
                     *_request_summary(array, think_time)]
        else:
            summary = slot_summary(array)
            lines = [f"slot trace: {summary['slots']} slots from {path}",
                     "  slots by kind: " + ", ".join(
                         f"{k}={v}"
                         for k, v in sorted(summary["kinds"].items())),
                     f"  mean queue depth: {summary['mean_queue_depth']:.2f}",
                     f"  requests dropped: {summary['dropped']}"]
    except (OSError, ValueError) as exc:
        raise _UsageError(exc) from None
    print("\n".join(lines))
    return 0


def _cmd_report(args) -> int:
    if (args.path is None) == (args.trace is None):
        raise _UsageError("give exactly one of FIGURE_JSON or --trace FILE")
    if args.think_time is not None:
        with _naming_flags({"--think-time": "client.think_time"}):
            SystemConfig().with_(client__think_time=args.think_time)
    if args.trace is not None:
        return _report_trace(args.trace, args.think_time)
    from repro.experiments.base import load_figure
    from repro.experiments.reporting import render_manifest, render_quantiles

    try:
        figure = load_figure(args.path)
    except (OSError, ValueError) as exc:
        raise _UsageError(exc) from None
    print(render_figure(figure))
    print()
    print("response-time quantiles (per series point):")
    print(render_quantiles(figure))
    print()
    print(render_manifest(figure.manifest))
    spec = {**FIGURES, **EXTENSIONS}.get(figure.figure_id)
    try:
        verdicts = evaluate(spec, figure) if spec else []
    except (KeyError, ValueError) as exc:  # a figure on a shrunk grid
        print(f"\nclaims not evaluated: {exc}")
        return 0
    if verdicts:
        print("\nclaims:", *verdicts, sep="\n  ")
    return 0 if all(verdict.holds for verdict in verdicts) else 1


def _cmd_program(args) -> int:
    from repro.core.build import build_push_program
    from repro.workload.zipf import zipf_probabilities

    with _naming_flags(_PROGRAM_FLAGS):
        config = SystemConfig(algorithm=Algorithm.IPP).with_(
            client__cache_size=args.cache_size,
            server__offset=not args.no_offset, server__chop=args.chop)
    probs = zipf_probabilities(config.server.db_size,
                               config.client.zipf_theta)
    schedule = build_push_program(config, probs)
    assert schedule is not None
    print(f"major cycle: {len(schedule)} slots "
          f"({schedule.num_empty_slots} padding)")
    assert schedule.assignment is not None
    for index, disk in enumerate(schedule.assignment.disks, start=1):
        sample = ", ".join(str(p) for p in disk.pages[:5])
        print(f"disk {index}: {disk.size} pages @ rel_freq "
              f"{disk.rel_freq} (hottest: {sample}, ...)")
    for page in (0, 100, 500, 999):
        if page in schedule:
            print(f"page {page}: freq {schedule.frequency(page)}/cycle, "
                  f"E[delay] = {schedule.expected_delay(page):.1f}")
        else:
            print(f"page {page}: not broadcast (pull only)")
    return 0


def _cmd_sanitize(args) -> int:
    from repro.obs.sanitize import DEFAULT_HASH_SEED, sanitize_config

    if args.no_hashseed and args.hash_seed is not None:
        raise _UsageError("--hash-seed and --no-hashseed are mutually "
                          "exclusive")
    config = _system_config(args)
    engines = tuple(ENGINES) if args.engine == "both" else (args.engine,)
    hash_seed = (None if args.no_hashseed
                 else args.hash_seed or DEFAULT_HASH_SEED)
    try:
        report = sanitize_config(
            config, engines=engines, hash_seed=hash_seed,
            inject_divergence=args.inject_divergence)
    except (RuntimeError, ValueError) as exc:
        raise _UsageError(exc) from None
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.format())
    return 0 if report.ok else 1


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
