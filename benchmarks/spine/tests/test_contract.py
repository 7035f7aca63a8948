"""``BENCHMARK.json`` against the driver's limits and against the code,
and the command's output against ``BENCHMARK.json``."""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from benchmarks.spine import run
from benchmarks.spine.layers import zero_layers
from benchmarks.spine.metrics import END_TO_END, PER_LAYER, contract

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def violations(data: dict) -> list[str]:
    """What in ``data`` falls outside the driver's limits (empty: fine)."""
    wrong: list[str] = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(data) != keys:
        return [f"keys {sorted(data)} != {sorted(keys)}"]
    if not (isinstance(data["run_seconds"], int)
            and 1 <= data["run_seconds"] <= 60):
        wrong.append("run_seconds is not a whole number in 1..60")
    for key, low, high in (("workloads", 2, 8), ("end_to_end", 1, 16),
                           ("per_layer", 1, 128), ("paths", 1, 16),
                           ("command", 1, 32)):
        if not low <= len(data[key]) <= high:
            wrong.append(f"{len(data[key])} {key}, allowed {low}..{high}")
    names = [entry["name"] for key in ("workloads", "end_to_end",
                                       "per_layer") for entry in data[key]]
    wrong += [f"bad name {name!r}" for name in names
              if not _NAME.match(name)]
    wrong += [f"name {name!r} used twice" for name in set(names)
              if names.count(name) > 1]
    for entry in data["workloads"]:
        if (set(entry) != {"name", "why"} or len(entry["why"]) > 200
                or "\n" in entry["why"]):
            wrong.append(f"workload {entry.get('name')!r} malformed")
    for key, fields in (("end_to_end", {"name", "unit", "better", "bound"}),
                        ("per_layer", {"name", "unit", "better"})):
        for entry in data[key]:
            if set(entry) != fields:
                wrong.append(f"{key} {entry.get('name')!r}: keys")
            elif not _UNIT.match(entry["unit"]):
                wrong.append(f"{key} {entry['name']!r}: unit")
            elif entry["better"] not in ("lower", "higher"):
                wrong.append(f"{key} {entry['name']!r}: better")
            elif not 0 <= entry.get("bound", 0) <= 0.25:
                wrong.append(f"{key} {entry['name']!r}: bound")
    setup = [e for e in data["end_to_end"] if e["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        wrong.append("setup_s (unit s, better lower) is required")
    for path in data["paths"]:
        if path.startswith("/") or ".." in path.split("/"):
            wrong.append(f"path {path!r} leaves the repo")
    for word in data["command"]:
        if len(word) > 200 or word.startswith("/") or ".." in word.split("/"):
            wrong.append(f"command word {word!r}")
    return wrong


def test_benchmark_json_round_trips_through_the_code():
    text = BENCHMARK_JSON.read_text()
    assert len(text.encode()) <= 64 * 1024
    assert json.loads(text) == json.loads(json.dumps(contract()))


def test_contract_is_inside_the_drivers_limits():
    assert violations(contract()) == []
    # The largest setup bound, as the contract asks.
    bounds = {name: bound for name, _, _, bound in END_TO_END}
    assert bounds["setup_s"] == max(bounds.values())


def test_validator_catches_what_it_should():
    good = contract()
    assert violations({**good, "extra": 1}) != []
    bad = json.loads(json.dumps(good))
    bad["per_layer"][0]["name"] = "has space"
    bad["end_to_end"][0]["bound"] = 0.5
    bad["workloads"][1]["name"] = bad["workloads"][0]["name"]
    found = violations(bad)
    assert any("bad name" in text for text in found)
    assert any("bound" in text for text in found)
    assert any("used twice" in text for text in found)


def test_metric_names_use_the_layer_prefixes():
    layers = {"workload", "broadcast", "cache", "client", "server", "core",
              "sim", "fleet", "experiments", "net", "obs", "bench"}
    for name, _unit, _better in PER_LAYER:
        assert _NAME.match(name)
        assert name.split(".", 1)[0] in layers
    assert set(zero_layers()) == {name for name, *_ in PER_LAYER}


def _files_written() -> dict[str, float]:
    return {str(path): path.stat().st_mtime
            for path in run.SPINE_DIR.rglob("*") if path.is_file()
            and "__pycache__" not in path.parts}


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_contracts_last_line(trace):
    before = _files_written()
    done = subprocess.run(
        [sys.executable, str(run.SPINE_DIR / "run.py"), "--workload",
         "ipp_light", "--seed", "9", "--seconds", "0", "--trace", str(trace),
         "--smoke"],
        capture_output=True, text=True, timeout=120, check=True)
    lines = done.stdout.strip().splitlines()
    assert lines[-2].startswith("# detail ")
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    declared = contract()["per_layer" if trace else "end_to_end"]
    assert list(last["metrics"]) == [entry["name"] for entry in declared]
    for entry in declared:
        value = last["metrics"][entry["name"]]
        assert value["unit"] == entry["unit"]
        assert isinstance(value["value"], (int, float))
    if not trace:
        assert all(value["value"] > 0 for value in last["metrics"].values())
    # --smoke writes no file.
    assert _files_written() == before
