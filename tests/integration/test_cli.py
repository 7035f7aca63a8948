"""End-to-end tests for the command-line interface."""

import json
from dataclasses import replace

import pytest

from repro.cli import build_parser, main
from repro.experiments import FIGURES, Profile, run_figure

#: Figure 3a on a two-point grid at a scale that runs in a blink.
SMALL_3A = replace(FIGURES["3a"], xs=(2, 5))
SMALL_PROFILE = Profile(settle_accesses=20, measure_accesses=40,
                        replicates=1)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figures_defaults(self):
        args = build_parser().parse_args(["figures"])
        assert args.ids == []
        assert not args.full


#: ``option=default`` of every subcommand, as argparse holds them at
#: PR 21 (ab4f20a): refactors of cli.py may not add, drop or re-default
#: a flag.  SYSTEM_FLAGS is what ``_add_system_args`` contributes.
SYSTEM_FLAGS = (
    "--algorithm='ipp' --chop=0 --fleet-cache-size=100 "
    "--fleet-cache-spread=0.0 --fleet-clients=0 --fleet-offset-spread=0 "
    "--fleet-think-spread=0.0 --fleet-think-time=4000.0 --measure=5000 "
    "--noise=0.0 --pull-bw=0.5 --seed=0 --settle=4000 "
    "--steady-state-perc=0.95 --thresh-perc=0.0 --ttr=10.0")
PARSER_SNAPSHOT = {
    "compare": "--alpha=0.01 --format='table' --series=None "
               "--tolerance=1e-06 a=None b=None",
    "convert": "dst=None src=None",
    "figures": "--chart=False --drop-rates=False --full=False --json=None "
               "--seed=42 --trace=None --watch/--no-watch=None "
               "--workers=None ids=None",
    "fleet-sweep": "--chart=False --clients=10000 --full=False "
                   "--homogeneous=False --json=None --parity=False "
                   "--parity-clients=200 --seed=42 --think-time=None "
                   "--workers=None",
    "lint": "--format='text' --list-rules=False --no-unused-pragma=False "
            "--select=None paths=None",
    "loadgen": "--clients=200 --duration=10.0 --host='127.0.0.1' "
               "--port=None --settle-slots=0 --slot-duration=0.005 "
               "--stats-json=None --think-time=200.0 --watch=False "
               + SYSTEM_FLAGS,
    "profile": "--figure=None " + SYSTEM_FLAGS,
    "program": "--cache-size=100 --chop=0 --no-offset=False",
    "report": "--think-time=None --trace=None path=None",
    "sanitize": "--engine='both' --figure=None --format='text' "
                "--hash-seed=None --inject-divergence=None "
                "--no-hashseed=False " + SYSTEM_FLAGS,
    "sched-sweep": "--aging=1.0 --chart=False --clients=2000 "
                   "--disciplines='fifo,rxw,lwf' --full=False --json=None "
                   "--seed=42 --workers=None",
    "serve": "--clients=200 --drop-after=64 --host='127.0.0.1' --port=0 "
             "--self-test=False --send-queue=256 --slot-duration=0.005 "
             "--slots=None --stats-json=None --think-time=200.0 "
             "--watch=False " + SYSTEM_FLAGS,
    "simulate": "--metrics=False " + SYSTEM_FLAGS,
    "trace": "--engine='fast' --figure=None --out=PosixPath('trace.npy') "
             "--requests=False --reservoir=None --sample-every=None "
             + SYSTEM_FLAGS,
    "tune": "--chop='0' --loads='10,50,250' --measure=800 "
            "--objective='worst_case' --pull-bw='0.3,0.5' --replicates=1 "
            "--seed=42 --settle=500 --thresh-perc='0,0.25,0.35'",
}


class TestParserSnapshot:
    def test_no_flag_added_removed_or_redefaulted(self):
        import argparse

        [sub] = [action for action in build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction)]
        flags = {
            name: {"/".join(a.option_strings) or a.dest: repr(a.default)
                   for a in parser._actions
                   if not isinstance(a, argparse._HelpAction)}
            for name, parser in sub.choices.items()}
        expected = {
            name: dict(pair.split("=", 1) for pair in text.split())
            for name, text in PARSER_SNAPSHOT.items()}
        assert flags == expected


class TestUnknownFigureId:
    @pytest.mark.parametrize("argv", [
        ["figures", "99"],
        ["trace", "--figure", "99"],
        ["profile", "--figure", "99"],
        ["sanitize", "--figure", "99", "--no-hashseed"],
    ], ids=lambda argv: argv[0])
    def test_exits_2_with_one_line_naming_known_ids(self, argv, capsys):
        """Regression: ``--figure`` went through ``SystemExit(message)``
        — status 1, which ``sanitize`` documents as "divergence"."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"{argv[0]}: unknown figure id(s): 99")
        assert "3a, 3b, 4a, 4b, 5a, 5b, 6a, 6b, 7a, 7b, 8" in line


class TestRejectedConfigValue:
    """Regression: a value outside its field's domain was a ValueError
    traceback with status 1, which ``sanitize`` documents as
    "divergence"."""

    @pytest.mark.parametrize("command", [
        "simulate", "serve", "loadgen", "trace", "profile", "sanitize"])
    def test_exits_2_with_one_line_naming_flag_and_field(self, command,
                                                         capsys):
        extra = ["--port", "1"] if command == "loadgen" else []
        assert main([command, "--noise", "2", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"{command}: --noise: client.noise must be within [0, 1], "
            "got 2.0"]

    def test_a_cross_field_rule_names_the_flag_too(self, capsys):
        assert main(["simulate", "--algorithm", "pure-push",
                     "--chop", "5"]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("simulate: --chop: server.chop must be 0")

    def test_fleet_flags_apply_only_with_fleet_clients(self, capsys):
        """``--fleet-think-time`` is ignored without ``--fleet-clients``,
        as it always was; with a fleet its nan is a usage error."""
        argv = ["simulate", "--fleet-think-time", "nan", "--settle", "5",
                "--measure", "10"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main([*argv, "--fleet-clients", "10"]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == ("simulate: --fleet-think-time: fleet.think_time "
                        "must be finite and > 0, got nan")


def _figure_json(**series_changes):
    series = {"label": "s", "x": [1, 2], "y": [1.0, 2.0],
              "drop_rate": [0.0, 0.0], **series_changes}
    return {"figure": "x", "title": "t", "x_label": "x", "y_label": "y",
            "series": [series]}


#: Name -> text of a file no figure can be loaded from (None: no text to
#: write — the path is missing, or a directory).
BAD_FIGURE_FILES = {
    "missing_file": None,
    "directory": None,
    "not_json": '{"series": ',
    "top_level_list": "[1, 2]",
    "series_not_a_list": json.dumps({**_figure_json(), "series": 3}),
    "series_entry_not_an_object": json.dumps(
        {**_figure_json(), "series": [3]}),
    "x_not_a_list": json.dumps(_figure_json(x=3)),
    "y_not_a_list": json.dumps(_figure_json(y=3)),
    "truncated_y": json.dumps(_figure_json(y=[1.0])),
}


class TestMalformedFigureJson:
    """Regression: a traceback's exit status 1 is ``compare``'s "drift";
    a broken artifact must read as a load error (2) instead."""

    @pytest.mark.parametrize("command", ["report", "compare"])
    @pytest.mark.parametrize("bad", BAD_FIGURE_FILES)
    def test_exits_2_with_one_line(self, command, bad, tmp_path, capsys):
        from pathlib import Path

        path = tmp_path / "bad.json"
        if bad == "directory":
            path.mkdir()
        elif BAD_FIGURE_FILES[bad] is not None:
            path.write_text(BAD_FIGURE_FILES[bad])
        archived = (Path(__file__).resolve().parents[2]
                    / "results" / "figure_3a_quick_baseline.json")
        argv = (["report", str(path)] if command == "report"
                else ["compare", str(path), str(archived)])
        assert main(argv) == 2  # an uncaught exception fails here
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"{command}: ")
        assert "bad.json" in line


class TestProgramCommand:
    def test_prints_layout(self, capsys):
        assert main(["program"]) == 0
        out = capsys.readouterr().out
        assert "major cycle: 1608 slots" in out
        assert "disk 1: 100 pages" in out
        assert "disk 3: 500 pages" in out

    def test_chop_marks_pull_only_pages(self, capsys):
        assert main(["program", "--chop", "500"]) == 0
        out = capsys.readouterr().out
        assert "not broadcast (pull only)" in out

    def test_no_offset(self, capsys):
        assert main(["program", "--no-offset"]) == 0
        out = capsys.readouterr().out
        assert "hottest: 0, 1, 2" in out


class TestSimulateCommand:
    def test_emits_json_metrics(self, capsys):
        code = main(["simulate", "--algorithm", "pure-pull", "--ttr", "2",
                     "--settle", "30", "--measure", "60"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["algorithm"] == "pure-pull"
        assert data["response_miss"]["count"] > 0

    def test_ipp_with_threshold_and_chop(self, capsys):
        code = main(["simulate", "--algorithm", "ipp", "--ttr", "2",
                     "--pull-bw", "0.5", "--thresh-perc", "0.35",
                     "--chop", "500", "--settle", "30", "--measure", "40"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mc_misses"] > 0


class TestVersionFlag:
    def test_prints_version_and_exits(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro-broadcast ")
        assert out.split()[1][0].isdigit()


class TestTraceCommand:
    def test_figure_point_traces(self, tmp_path):
        """Acceptance: tracing a figure's representative sweep point
        produces a valid slot trace."""
        from repro.obs.columnar import array_to_records, load_columnar

        path = tmp_path / "fig.npy"
        code = main(["trace", "--figure", "3a", "--settle", "20",
                     "--measure", "40", "--out", str(path)])
        assert code == 0
        records = array_to_records(load_columnar(path))
        assert records
        assert {"push", "pull"} & {r.kind for r in records}

    def test_reference_engine_traces_too(self, tmp_path):
        from repro.obs.columnar import load_columnar

        path = tmp_path / "ref.npy"
        code = main(["trace", "--algorithm", "pure-push", "--ttr", "2",
                     "--settle", "20", "--measure", "40",
                     "--engine", "reference", "--out", str(path)])
        assert code == 0
        assert load_columnar(path).shape[0]

    def test_unknown_figure_id(self, tmp_path):
        assert main(["trace", "--figure", "nope",
                     "--out", str(tmp_path / "t.npy")]) == 2

    def test_requests_flag_writes_lifecycle_records(self, tmp_path, capsys):
        from repro.obs.columnar import (
            array_to_records,
            load_columnar,
            table_of,
        )

        path = tmp_path / "req.npy"
        code = main(["trace", "--requests", "--algorithm", "ipp",
                     "--ttr", "2", "--settle", "20", "--measure", "60",
                     "--out", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "request records" in out
        assert "pull queue wait" in out  # breakdown printed to terminal
        array = load_columnar(path)
        assert table_of(array) == "request"
        misses = [r for r in array_to_records(array) if not r.hit]
        assert misses
        assert all(r.served_kind in ("push", "pull") for r in misses)

    def test_requests_flag_on_reference_engine(self, tmp_path):
        from repro.obs.columnar import load_columnar

        path = tmp_path / "req_ref.npy"
        code = main(["trace", "--requests", "--algorithm", "pure-pull",
                     "--ttr", "2", "--settle", "20", "--measure", "40",
                     "--engine", "reference", "--out", str(path)])
        assert code == 0
        assert load_columnar(path).shape[0]

    def test_columnar_format_writes_npy(self, tmp_path, capsys):
        from repro.obs.columnar import load_columnar, table_of

        path = tmp_path / "slots.npy"
        code = main(["trace", "--algorithm", "pure-pull", "--ttr", "2",
                     "--settle", "20", "--measure", "40",
                     "--out", str(path)])
        assert code == 0
        array = load_columnar(path)
        assert f"{array.shape[0]} slot records" in capsys.readouterr().out
        assert table_of(array) == "slot"
        assert array["slot"].tolist() == list(range(array.shape[0]))
        assert (array["queue_depth"] >= 0).all()

    def test_non_npy_out_exits_2_naming_convert(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(["trace", "--ttr", "2", "--settle", "20",
                     "--measure", "40", "--out", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("trace:") and "convert" in err
        assert not path.exists()

    def test_format_flags_are_gone(self, capsys):
        for argv in (["trace", "--format", "columnar"],
                     ["figures", "--trace-format", "columnar"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


def pinned_export_config():
    """The run whose JSONL export is pinned below: small enough for
    tier-1, saturated enough that the request table holds hits, push-
    and pull-served misses, every pull outcome (and none), and pages
    off the push program (``predicted_push_wait`` None)."""
    from repro.core.algorithms import Algorithm
    from repro.core.config import SystemConfig

    return SystemConfig(algorithm=Algorithm.IPP).with_(
        client__think_time_ratio=100.0, client__cache_size=10,
        server__db_size=100, server__disk_sizes=(10, 40, 50),
        server__queue_size=10, server__pull_bw=0.5,
        server__thresh_perc=0.25, server__chop=20,
        run__seed=7, run__settle_accesses=30, run__measure_accesses=90)


class TestConvertCommand:
    def _request_trace(self, tmp_path, name="req.npy"):
        path = tmp_path / name
        assert main(["trace", "--requests", "--algorithm", "ipp",
                     "--ttr", "2", "--settle", "20", "--measure", "60",
                     "--out", str(path)]) == 0
        return path

    # sha256 of what the JSONL sink of commit 4f2c746 (the last tree that
    # had one) wrote for pinned_export_config(); the export must keep
    # writing those bytes.
    PINNED = {
        "slot": (5768, "fd8047195176ab4a5e2c9ab33d91b4c7"
                       "4dab2052a494da38dff19f4bf6407577"),
        "request": (135, "6e51bdf96a4e77b7c3699aed2e4570894"
                         "208f87ec5b54083d3d7337425bca015"),
    }

    @pytest.mark.parametrize("table", ["slot", "request"])
    def test_export_matches_pinned_jsonl_sink_bytes(self, tmp_path, capsys,
                                                    table):
        import hashlib

        from repro.experiments.tracing import (
            write_request_trace,
            write_slot_trace,
        )

        npy = tmp_path / f"{table}.npy"
        write = write_slot_trace if table == "slot" else write_request_trace
        write(pinned_export_config(), npy)
        out = tmp_path / "nested" / f"{table}.jsonl"
        assert main(["convert", str(npy), str(out)]) == 0
        lines, digest = self.PINNED[table]
        assert f"{lines} records" in capsys.readouterr().out
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        if table == "request":
            records = [json.loads(line)
                       for line in out.read_text().splitlines()]
            seen = {(r["served_kind"], r["pull_outcome"],
                     r["predicted_push_wait"] is None) for r in records}
            assert {("cache", None, True), ("push", None, False),
                    ("push", "dropped", False), ("pull", None, False),
                    ("pull", "enqueued", False), ("pull", "enqueued", True),
                    ("pull", "duplicate", False),
                    ("pull", "dropped", True)} <= seen

    def test_rejects_npy_destination(self, tmp_path, capsys):
        src = self._request_trace(tmp_path)
        assert main(["convert", str(src), str(tmp_path / "b.npy")]) == 2
        assert "convert:" in capsys.readouterr().err
        assert not (tmp_path / "b.npy").exists()

    def test_missing_source_reports_cleanly(self, tmp_path, capsys):
        assert main(["convert", str(tmp_path / "nope.npy"),
                     str(tmp_path / "out.jsonl")]) == 2
        assert "convert:" in capsys.readouterr().err


def _bad_trace_file(tmp_path, case):
    """One file no run could have written, per ``case``."""
    import numpy as np

    from repro.obs.columnar import SLOT_DTYPE

    path = tmp_path / "bad.npy"
    good = np.zeros(64, SLOT_DTYPE)
    if case == "garbage bytes":
        path.write_bytes(b"not an npy file at all\n" * 8)
    elif case == "empty file":
        path.write_bytes(b"")
    elif case == "text trace":
        path.write_text('{"slot":0,"kind":"push"}\n')
    elif case == "foreign dtype":
        np.save(path, np.zeros(4))
    elif case == "object dtype":
        np.save(path, np.array([{"slot": 0}, None], dtype=object),
                allow_pickle=True)
    elif case == "zip archive":
        np.savez(tmp_path / "bad", slots=good)
        (tmp_path / "bad.npz").rename(path)
    elif case in ("truncated header", "truncated payload"):
        np.save(path, good)
        raw = path.read_bytes()
        path.write_bytes(raw[:20] if case == "truncated header"
                         else raw[:-100])
    elif case == "directory":
        path.mkdir()
    else:
        good["kind"][3] = {"out-of-range enum code": 99,
                           "negative enum code": -1}[case]
        np.save(path, good)
    return path


class TestBadTraceFiles:
    @pytest.mark.parametrize("case", [
        "garbage bytes", "empty file", "text trace", "foreign dtype",
        "object dtype", "zip archive", "truncated header",
        "truncated payload", "directory", "out-of-range enum code",
        "negative enum code"])
    def test_report_and_convert_exit_2_with_one_line(self, tmp_path, capsys,
                                                     case):
        path = _bad_trace_file(tmp_path, case)
        out = tmp_path / "out.jsonl"
        for name, argv in (("report", ["report", "--trace", str(path)]),
                           ("convert", ["convert", str(path), str(out)])):
            assert main(argv) == 2  # an uncaught exception fails here
            captured = capsys.readouterr()
            assert captured.out == ""
            [line] = captured.err.splitlines()
            assert line.startswith(f"{name}: ")
            assert "bad.npy" in line


class TestReportCommand:
    def test_requires_exactly_one_input(self, tmp_path, capsys):
        assert main(["report"]) == 2
        assert "exactly one" in capsys.readouterr().err
        path = tmp_path / "fig.json"
        path.write_text("{}")
        assert main(["report", str(path), "--trace", str(path)]) == 2

    def test_figure_json_with_provenance(self, tmp_path, capsys):
        figure = run_figure(SMALL_3A, SMALL_PROFILE)
        path = tmp_path / "figure_3a.json"
        path.write_text(json.dumps(figure.to_dict()))
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Figure 3a" in out
        assert "response-time quantiles" in out
        assert "p99" in out
        assert "provenance:" in out
        assert "engine" in out

    def test_old_schema_figure_degrades_gracefully(self, capsys):
        """Acceptance: a pre-provenance archive still reports cleanly."""
        from pathlib import Path

        archived = (Path(__file__).resolve().parents[2]
                    / "results" / "figure_3a.json")
        assert main(["report", str(archived)]) == 0
        out = capsys.readouterr().out
        assert "Figure 3a" in out
        assert "no quantile data" in out
        assert "no manifest" in out

    def test_request_trace_breakdown(self, tmp_path, capsys):
        path = tmp_path / "req.npy"
        assert main(["trace", "--requests", "--algorithm", "ipp",
                     "--ttr", "2", "--settle", "20", "--measure", "60",
                     "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["report", "--trace", str(path),
                     "--think-time", "20"]) == 0
        out = capsys.readouterr().out
        assert "request trace:" in out
        assert "pull queue wait" in out
        assert "measured miss wait quantiles" in out

    def test_slot_trace_summary(self, tmp_path, capsys):
        path = tmp_path / "slots.npy"
        assert main(["trace", "--algorithm", "pure-pull", "--ttr", "2",
                     "--settle", "20", "--measure", "40",
                     "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["report", "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "slot trace:" in out
        assert "slots by kind:" in out
        assert "mean queue depth:" in out

    @staticmethod
    def _report_lines(capsys, path, *extra):
        assert main(["report", "--trace", str(path), *extra]) == 0
        return capsys.readouterr().out.replace(str(path), "PATH").splitlines()

    def test_report_of_the_pinned_run_is_the_jsonl_era_report(self, tmp_path,
                                                              capsys):
        """What commit 4f2c746 printed for a JSONL trace of the same run
        (the run TestConvertCommand pins the export of)."""
        from repro.experiments.tracing import (
            write_request_trace,
            write_slot_trace,
        )

        slots, requests = tmp_path / "slot.npy", tmp_path / "req.npy"
        write_slot_trace(pinned_export_config(), slots)
        write_request_trace(pinned_export_config(), requests)
        assert self._report_lines(capsys, slots) == [
            "slot trace: 5768 slots from PATH",
            "  slots by kind: padding=80, pull=2849, push=2839",
            "  mean queue depth: 9.07",
            "  requests dropped: 2392"]
        assert self._report_lines(capsys, requests) == [
            "request trace: 135 records (90 measured) from PATH",
            "",
            "           stage  broadcast units  share  events",
            "----------------  ---------------  -----  ------",
            "           think             0.00   0.0%      90",
            "       push wait          1,263.0  55.4%      24",
            " pull queue wait            973.0  42.7%      20",
            "service (on air)             44.0   1.9%      44",
            "accesses 90 (hits 46 / misses 44), pulls sent 24 (enqueued 9, "
            "duplicate 2, dropped 13)",
            "measured miss wait quantiles: p50=29.0  p90=92.0  p99=324.0  "
            "max=324.0"]

    def test_request_report_quantiles_are_exact_quantiles(self, tmp_path,
                                                          capsys):
        from repro.obs.columnar import array_to_records, load_columnar
        from repro.sim.monitor import exact_quantiles

        npy = tmp_path / "req.npy"
        assert main(["trace", "--requests", "--algorithm", "pure-pull",
                     "--ttr", "2", "--settle", "20", "--measure", "80",
                     "--out", str(npy)]) == 0
        capsys.readouterr()
        waits = [r.wait for r in array_to_records(load_columnar(npy))
                 if r.measured and not r.hit]
        marks = exact_quantiles(waits)
        expected = (f"measured miss wait quantiles: p50={marks['p50']:.1f}  "
                    f"p90={marks['p90']:.1f}  p99={marks['p99']:.1f}  "
                    f"max={max(waits):.1f}")
        assert expected in self._report_lines(capsys, npy)

    def test_missing_trace_reports_cleanly(self, tmp_path, capsys):
        for name in ("nope.jsonl", "nope.npy"):
            assert main(["report", "--trace", str(tmp_path / name)]) == 2
            assert "report:" in capsys.readouterr().err

    def test_empty_columnar_trace(self, tmp_path, capsys):
        from repro.obs.columnar import ColumnarSink

        path = tmp_path / "empty.npy"
        ColumnarSink(path, table="request").close()
        assert main(["report", "--trace", str(path)]) == 2
        assert "empty trace" in capsys.readouterr().out


class TestCompareCommand:
    @staticmethod
    def _write(tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return path

    @staticmethod
    def _figure_dict(mean_shift=0.0):
        from repro.experiments.base import (
            FigureResult, FigureSeries, PointStats,
        )

        def point(mean):
            return PointStats(mean=mean, stddev=1.0, replicates=5,
                              drop_rate=0.0)

        series = [
            FigureSeries("IPP", [10.0, 100.0],
                         [point(5.0 + mean_shift), point(50.0)]),
            FigureSeries("Pull", [10.0, 100.0],
                         [point(2.0), point(80.0)]),
        ]
        return FigureResult(figure_id="t", title="t", x_label="x",
                            y_label="y", series=series).to_dict()

    def test_identical_files_exit_0(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", self._figure_dict())
        b = self._write(tmp_path, "b.json", self._figure_dict())
        assert main(["compare", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "verdict: OK" in out

    def test_drifted_mean_exits_1(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", self._figure_dict())
        b = self._write(tmp_path, "b.json",
                        self._figure_dict(mean_shift=30.0))
        assert main(["compare", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "verdict: DRIFT" in out
        assert "p=" in out

    def test_alpha_knob_accepts_the_shift(self, tmp_path):
        a = self._write(tmp_path, "a.json", self._figure_dict())
        b = self._write(tmp_path, "b.json",
                        self._figure_dict(mean_shift=30.0))
        assert main(["compare", str(a), str(b), "--alpha", "1e-30"]) == 0

    def test_missing_series_exits_2(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", self._figure_dict())
        data = self._figure_dict()
        del data["series"][1]
        b = self._write(tmp_path, "b.json", data)
        assert main(["compare", str(a), str(b)]) == 2
        out = capsys.readouterr().out
        assert "verdict: STRUCTURAL" in out
        assert "'Pull' missing" in out

    def test_series_filter(self, tmp_path):
        a = self._write(tmp_path, "a.json", self._figure_dict())
        b = self._write(tmp_path, "b.json",
                        self._figure_dict(mean_shift=30.0))
        # The shift is on IPP only; restricting to Pull compares clean.
        assert main(["compare", str(a), str(b), "--series", "Pull"]) == 0
        assert main(["compare", str(a), str(b), "--series", "IPP"]) == 1

    def test_load_error_exits_2(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", self._figure_dict())
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["compare", str(a), str(bad)]) == 2
        assert "compare:" in capsys.readouterr().err
        assert main(["compare", str(a), str(tmp_path / "missing.json")]) == 2

    def test_truncated_series_exits_2(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", self._figure_dict())
        data = self._figure_dict()
        data["series"][0]["y"] = data["series"][0]["y"][:1]
        b = self._write(tmp_path, "b.json", data)
        assert main(["compare", str(a), str(b)]) == 2
        assert "field 'y'" in capsys.readouterr().err

    def test_json_format(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", self._figure_dict())
        b = self._write(tmp_path, "b.json",
                        self._figure_dict(mean_shift=30.0))
        assert main(["compare", str(a), str(b), "--format", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "DRIFT"
        assert data["series"][0]["drifts"][0]["metric"] == "mean"

    def test_v1_archive_self_compare(self, capsys):
        """Acceptance: pre-provenance archives compare via the tolerance
        fallback and report clean against themselves."""
        from pathlib import Path

        archived = (Path(__file__).resolve().parents[2]
                    / "results" / "figure_3a.json")
        assert main(["compare", str(archived), str(archived)]) == 0
        assert "verdict: OK" in capsys.readouterr().out

    def test_two_real_sweeps_same_seed_compare_clean(self, tmp_path,
                                                     capsys):
        """Acceptance: two QUICK-style runs of the same code and seed
        exit 0; a perturbed mean exits 1; a dropped series exits 2."""
        paths = []
        for name in ("a.json", "b.json"):
            figure = run_figure(SMALL_3A, SMALL_PROFILE)
            path = tmp_path / name
            path.write_text(json.dumps(figure.to_dict()))
            paths.append(path)
        assert main(["compare", str(paths[0]), str(paths[1])]) == 0
        out = capsys.readouterr().out
        assert "verdict: OK" in out

        data = json.loads(paths[1].read_text())
        data["series"][0]["y"][0] *= 1.5
        paths[1].write_text(json.dumps(data))
        assert main(["compare", str(paths[0]), str(paths[1])]) == 1

        del data["series"][0]
        paths[1].write_text(json.dumps(data))
        assert main(["compare", str(paths[0]), str(paths[1])]) == 2


class TestProfileCommand:
    def test_prints_phase_table(self, capsys):
        code = main(["profile", "--algorithm", "ipp", "--ttr", "2",
                     "--settle", "20", "--measure", "40"])
        assert code == 0
        out = capsys.readouterr().out
        for phase in ("control", "deliver", "mc_access", "server_tick",
                      "vc_arrivals", "fleet_arrivals"):
            assert phase in out
        assert "slots/sec" in out
        assert "response_miss mean" in out


class TestTuneCommand:
    def test_recommends_a_setting(self, capsys):
        code = main(["tune", "--loads", "2", "--pull-bw", "0.5",
                     "--thresh-perc", "0,0.35", "--settle", "20",
                     "--measure", "40"])
        assert code == 0
        out = capsys.readouterr().out
        assert "recommended (worst_case)" in out
        assert "ThresPerc" in out

    def test_mean_objective(self, capsys):
        code = main(["tune", "--loads", "2", "--pull-bw", "0.5",
                     "--thresh-perc", "0", "--objective", "mean",
                     "--settle", "20", "--measure", "40"])
        assert code == 0
        assert "recommended (mean)" in capsys.readouterr().out


class TestFiguresCommand:
    def test_unknown_figure_id(self, capsys):
        assert main(["figures", "nope"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_runs_one_figure_and_writes_json(self, tmp_path, capsys,
                                             monkeypatch):
        # Shrink the quick profile so the test stays fast.
        import repro.cli as cli

        monkeypatch.setattr(cli, "QUICK", SMALL_PROFILE)
        monkeypatch.setitem(cli.FIGURES, "3a", SMALL_3A)
        code = main(["figures", "3a", "--json", str(tmp_path), "--chart",
                     "--trace", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 3a" in out
        assert "legend:" in out  # the --chart flag rendered a plot
        data = json.loads((tmp_path / "figure_3a.json").read_text())
        assert data["figure"] == "3a"
        assert len(data["series"]) == 5
        # --trace wrote the figure's representative point as a .npy.
        from repro.obs.columnar import load_columnar

        assert load_columnar(tmp_path / "trace_3a.npy")["slot"][0] == 0
