"""End-to-end tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figures_defaults(self):
        args = build_parser().parse_args(["figures"])
        assert args.ids == []
        assert not args.full


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
    def test_writes_valid_jsonl(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        code = main(["trace", "--algorithm", "pure-pull", "--ttr", "2",
                     "--settle", "20", "--measure", "40",
                     "--out", str(path)])
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines
        for line in lines:
            record = json.loads(line)
            assert record["kind"] in ("push", "pull", "padding", "idle")
            assert record["queue_depth"] >= 0
        slots = [json.loads(line)["slot"] for line in lines]
        assert slots == list(range(len(slots)))
        assert f"{len(lines)} slot records" in capsys.readouterr().out

    def test_figure_point_traces(self, tmp_path):
        """Acceptance: tracing a figure's representative sweep point
        produces a valid JSONL trace."""
        path = tmp_path / "fig.jsonl"
        code = main(["trace", "--figure", "3a", "--settle", "20",
                     "--measure", "40", "--out", str(path)])
        assert code == 0
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert records
        assert {"push", "pull"} & {r["kind"] for r in records}

    def test_reference_engine_traces_too(self, tmp_path):
        path = tmp_path / "ref.jsonl"
        code = main(["trace", "--algorithm", "pure-push", "--ttr", "2",
                     "--settle", "20", "--measure", "40",
                     "--engine", "reference", "--out", str(path)])
        assert code == 0
        assert path.read_text().splitlines()

    def test_unknown_figure_id(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "--figure", "nope",
                  "--out", str(tmp_path / "t.jsonl")])

    def test_requests_flag_writes_lifecycle_records(self, tmp_path, capsys):
        path = tmp_path / "req.jsonl"
        code = main(["trace", "--requests", "--algorithm", "ipp",
                     "--ttr", "2", "--settle", "20", "--measure", "60",
                     "--out", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "request records" in out
        assert "pull queue wait" in out  # breakdown printed to terminal
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert records
        assert all("issued_at" in r for r in records)
        misses = [r for r in records if not r["hit"]]
        assert misses
        assert all(r["served_kind"] in ("push", "pull") for r in misses)

    def test_requests_flag_on_reference_engine(self, tmp_path):
        path = tmp_path / "req_ref.jsonl"
        code = main(["trace", "--requests", "--algorithm", "pure-pull",
                     "--ttr", "2", "--settle", "20", "--measure", "40",
                     "--engine", "reference", "--out", str(path)])
        assert code == 0
        assert path.read_text().splitlines()

    def test_columnar_format_writes_npy(self, tmp_path, capsys):
        from repro.obs.columnar import load_columnar, table_of

        path = tmp_path / "slots.npy"
        code = main(["trace", "--algorithm", "pure-pull", "--ttr", "2",
                     "--settle", "20", "--measure", "40",
                     "--format", "columnar", "--out", str(path)])
        assert code == 0
        assert "slot records" in capsys.readouterr().out
        array = load_columnar(path)
        assert table_of(array) == "slot"
        assert array["slot"].tolist() == list(range(array.shape[0]))

    def test_auto_format_follows_npy_suffix(self, tmp_path):
        from repro.obs.columnar import load_columnar, table_of

        path = tmp_path / "req.npy"
        code = main(["trace", "--requests", "--algorithm", "ipp",
                     "--ttr", "2", "--settle", "20", "--measure", "60",
                     "--out", str(path)])
        assert code == 0
        assert table_of(load_columnar(path)) == "request"


class TestConvertCommand:
    def _request_trace(self, tmp_path, name="req.jsonl"):
        path = tmp_path / name
        assert main(["trace", "--requests", "--algorithm", "ipp",
                     "--ttr", "2", "--settle", "20", "--measure", "60",
                     "--out", str(path)]) == 0
        return path

    def test_roundtrip_is_byte_identical(self, tmp_path, capsys):
        src = self._request_trace(tmp_path)
        npy = tmp_path / "req.npy"
        back = tmp_path / "back.jsonl"
        capsys.readouterr()
        assert main(["convert", str(src), str(npy)]) == 0
        assert main(["convert", str(npy), str(back)]) == 0
        out = capsys.readouterr().out
        assert "records" in out
        assert back.read_bytes() == src.read_bytes()

    def test_rejects_ambiguous_directions(self, tmp_path, capsys):
        src = tmp_path / "a.jsonl"
        src.write_text("{}\n")
        assert main(["convert", str(src), str(tmp_path / "b.jsonl")]) == 2
        assert "exactly one" in capsys.readouterr().err
        assert main(["convert", str(tmp_path / "a.npy"),
                     str(tmp_path / "b.npy")]) == 2

    def test_missing_source_reports_cleanly(self, tmp_path, capsys):
        assert main(["convert", str(tmp_path / "nope.jsonl"),
                     str(tmp_path / "out.npy")]) == 2
        assert "convert:" in capsys.readouterr().err

    def test_empty_source_reports_cleanly(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["convert", str(empty),
                     str(tmp_path / "out.npy")]) == 2
        assert "empty trace" in capsys.readouterr().err


class TestReportCommand:
    def test_requires_exactly_one_input(self, tmp_path, capsys):
        assert main(["report"]) == 2
        assert "exactly one" in capsys.readouterr().err
        path = tmp_path / "fig.json"
        path.write_text("{}")
        assert main(["report", str(path), "--trace", str(path)]) == 2

    def test_figure_json_with_provenance(self, tmp_path, capsys):
        from repro.experiments import figure_3a
        from repro.experiments.base import Profile

        profile = Profile(settle_accesses=20, measure_accesses=40,
                          replicates=1)
        figure = figure_3a(profile, ttrs=(2, 5))
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
        path = tmp_path / "req.jsonl"
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
        path = tmp_path / "slots.jsonl"
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
        # Drop the header line that names the trace file; everything
        # else must match between the two encodings of the same trace.
        return [line for line in capsys.readouterr().out.splitlines()
                if str(path) not in line]

    def test_request_report_identical_across_formats(self, tmp_path,
                                                     capsys):
        """Acceptance: a JSONL trace and its columnar conversion report
        identical breakdown and quantile tables."""
        jsonl = tmp_path / "req.jsonl"
        assert main(["trace", "--requests", "--algorithm", "ipp",
                     "--ttr", "2", "--settle", "20", "--measure", "60",
                     "--out", str(jsonl)]) == 0
        npy = tmp_path / "req.npy"
        assert main(["convert", str(jsonl), str(npy)]) == 0
        capsys.readouterr()
        from_jsonl = self._report_lines(capsys, jsonl,
                                        "--think-time", "20")
        from_npy = self._report_lines(capsys, npy, "--think-time", "20")
        assert from_npy == from_jsonl
        assert any("measured miss wait quantiles" in line
                   for line in from_npy)

    def test_request_report_quantiles_are_exact_quantiles(self, tmp_path,
                                                          capsys):
        from repro.obs.requests import read_requests_jsonl
        from repro.sim.monitor import exact_quantiles

        jsonl = tmp_path / "req.jsonl"
        assert main(["trace", "--requests", "--algorithm", "pure-pull",
                     "--ttr", "2", "--settle", "20", "--measure", "80",
                     "--out", str(jsonl)]) == 0
        capsys.readouterr()
        waits = [r.wait for r in read_requests_jsonl(jsonl)
                 if r.measured and not r.hit]
        marks = exact_quantiles(waits)
        expected = (f"measured miss wait quantiles: p50={marks['p50']:.1f}  "
                    f"p90={marks['p90']:.1f}  p99={marks['p99']:.1f}  "
                    f"max={max(waits):.1f}")
        assert expected in self._report_lines(capsys, jsonl)

    def test_missing_trace_reports_cleanly(self, tmp_path, capsys):
        for name in ("nope.jsonl", "nope.npy"):
            assert main(["report", "--trace", str(tmp_path / name)]) == 2
            assert "report:" in capsys.readouterr().err

    def test_slot_report_identical_across_formats(self, tmp_path, capsys):
        jsonl = tmp_path / "slots.jsonl"
        assert main(["trace", "--algorithm", "pure-pull", "--ttr", "2",
                     "--settle", "20", "--measure", "40",
                     "--out", str(jsonl)]) == 0
        npy = tmp_path / "slots.npy"
        assert main(["convert", str(jsonl), str(npy)]) == 0
        capsys.readouterr()
        assert (self._report_lines(capsys, npy)
                == self._report_lines(capsys, jsonl))

    def test_empty_columnar_trace(self, tmp_path, capsys):
        from repro.obs.columnar import ColumnarSink

        path = tmp_path / "empty.npy"
        ColumnarSink(path, table="request").close()
        assert main(["report", "--trace", str(path)]) == 2
        assert "empty trace" in capsys.readouterr().out

    def test_unrecognized_trace_records(self, tmp_path, capsys):
        path = tmp_path / "weird.jsonl"
        path.write_text('{"foo": 1}\n')
        assert main(["report", "--trace", str(path)]) == 2
        assert "unrecognized trace record" in capsys.readouterr().err

    def test_empty_trace(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
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
        from repro.experiments import figure_3a
        from repro.experiments.base import Profile

        profile = Profile(settle_accesses=20, measure_accesses=40,
                          replicates=1)
        paths = []
        for name in ("a.json", "b.json"):
            figure = figure_3a(profile, ttrs=(2, 5))
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
        from repro.experiments import figure_3a
        from repro.experiments.base import Profile

        monkeypatch.setattr(
            cli, "QUICK",
            Profile(settle_accesses=20, measure_accesses=40, replicates=1))
        monkeypatch.setattr(
            cli, "ALL_FIGURES",
            {"3a": lambda profile: figure_3a(profile, ttrs=(2, 5))})
        code = main(["figures", "3a", "--json", str(tmp_path), "--chart",
                     "--trace", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 3a" in out
        assert "legend:" in out  # the --chart flag rendered a plot
        data = json.loads((tmp_path / "figure_3a.json").read_text())
        assert data["figure"] == "3a"
        assert len(data["series"]) == 5
        # --trace wrote the figure's representative point as JSONL.
        trace_lines = (tmp_path / "trace_3a.jsonl").read_text().splitlines()
        assert trace_lines
        assert json.loads(trace_lines[0])["slot"] == 0
