"""tools/ab.py on canned numbers: the claim verdict (at least 10 pairs, at
least 9 of 10 won, ties won by neither side, a median gain beyond the
parent's IQR), the bound check and the seed range; a run that prints no
result line; each run's attempted count, printed per side after the table; a workload BENCHMARK.json does not name, rejected before any
run; and its imports, standard library only and never termdep."""

import argparse
import ast
import importlib.util
import json
import pathlib
import sys

import pytest

AB_PATH = pathlib.Path(__file__).parent.parent / "tools" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", AB_PATH)
ab = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = ab
_spec.loader.exec_module(ab)

# Parent runs with median 0.100 and quartiles 0.091, 0.10775: an IQR of 17%.
PARENT = [0.086, 0.088, 0.092, 0.098, 0.100, 0.100, 0.104, 0.107, 0.110, 0.112]


def scaled(factor):
    return [x * factor for x in PARENT]


def test_canned_parent_spread():
    c = ab.Comparison("lower", PARENT, PARENT)
    assert c.parent_iqr == pytest.approx(0.01675)
    assert c.wins == 0  # every pair is a tie
    assert not c.claim_met()


def test_median_drop_within_parent_iqr_is_not_met():
    # A refused claim: lower in every pair, the median 11% down, but the
    # parent's IQR is 17%.
    c = ab.Comparison("lower", PARENT, scaled(0.89))
    assert c.wins == 10
    assert c.gain == pytest.approx(0.011)
    assert not c.claim_met()


def test_median_drop_beyond_parent_iqr_in_every_pair_is_met():
    c = ab.Comparison("lower", PARENT, scaled(0.68))
    assert c.wins == 10
    assert c.gain == pytest.approx(0.032)
    assert c.claim_met()


def test_a_tie_is_won_by_neither_side():
    one_tie = scaled(0.6)
    one_tie[0] = PARENT[0]
    assert ab.Comparison("lower", PARENT, one_tie).wins == 9
    assert ab.Comparison("lower", PARENT, one_tie).claim_met()
    two_ties = list(one_tie)
    two_ties[9] = PARENT[9]
    c = ab.Comparison("lower", PARENT, two_ties)
    assert c.wins == 8
    assert c.gain > c.parent_iqr  # the pair count alone fails the claim
    assert not c.claim_met()


def test_fewer_than_ten_pairs_is_not_met():
    # Every pair won and the median far below the parent's, but too few pairs.
    for pairs in (2, 9):
        c = ab.Comparison("lower", PARENT[:pairs], [x * 0.5 for x in PARENT[:pairs]])
        assert c.wins == pairs
        assert c.gain > c.parent_iqr
        assert not c.claim_met()


def test_higher_is_better_reads_the_other_way():
    assert ab.Comparison("higher", PARENT, scaled(1.32)).claim_met()
    assert ab.Comparison("higher", PARENT, scaled(0.68)).wins == 0


def test_worse_than_bound_is_relative_to_the_parent_median():
    assert ab.Comparison("lower", PARENT, scaled(1.26)).worse_than_bound(0.25)
    assert not ab.Comparison("lower", PARENT, scaled(1.24)).worse_than_bound(0.25)
    assert not ab.Comparison("lower", PARENT, scaled(0.5)).worse_than_bound(0.25)


def test_seed_ranges():
    assert ab.parse_seeds("901-910") == list(range(901, 911))
    for bad in ("7-7", "9-1", "901", "a-b"):
        with pytest.raises(argparse.ArgumentTypeError):
            ab.parse_seeds(bad)


@pytest.mark.parametrize("code", ["pass", "print('not json')", "print([1, 2])"])
def test_a_run_without_a_result_line_stops_the_tool(code, tmp_path):
    command = [sys.executable, "-c", code]
    with pytest.raises(SystemExit) as stop:
        ab.run_once(str(tmp_path), command, "rank-modes", 7, 1)
    assert str(stop.value).splitlines()[0] == f"ab: {tmp_path} seed 7 printed no result line"


FAKE_RUN = """
import json, os, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
attempted = seed * (10 if os.path.basename(os.getcwd()) == "change" else 1)
metrics = {"total_s": {"value": 1.0 / seed, "unit": "s"}}
print("progress line")
print(json.dumps({"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}))
"""


def test_attempted_kept_per_run_and_reported_per_side(tmp_path, capsys):
    script = tmp_path / "fake_run.py"
    script.write_text(FAKE_RUN)
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side in (parent, change):
        side.mkdir()
    bench = {"command": [sys.executable, str(script)], "run_seconds": 1, "workloads": [{"name": "rank-modes"}]}
    bench["end_to_end"] = [{"name": "total_s", "unit": "s", "better": "lower", "bound": 0.25}]
    (parent / "BENCHMARK.json").write_text(json.dumps(bench))

    run = ab.run_once(str(change), bench["command"], "rank-modes", 3, 1)
    assert run == ab.Run({"total_s": pytest.approx(1.0 / 3)}, 30)
    assert ab.main([str(parent), str(change), "--workload", "rank-modes", "--seeds", "1-5"]) == 0
    out = capsys.readouterr().out.splitlines()
    # quantiles(n=4) of 1..5 are 1.5 and 4.5; of 10..50, 15 and 45.
    assert out[-2] == "attempted: parent 3.0 [1.5, 4.5], change 30.0 [15.0, 45.0]"
    assert out[-1] == "worse than bound: none"


def test_unknown_workload_rejected_before_any_run(tmp_path, monkeypatch, capsys):
    bench = {"command": ["true"], "run_seconds": 1, "workloads": [{"name": "rank-modes"}]}
    bench["end_to_end"] = [{"name": "total_s", "unit": "s", "better": "lower", "bound": 0.25}]
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench))

    def no_run(*args):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(ab, "run_once", no_run)
    with pytest.raises(SystemExit) as stop:
        ab.main([str(tmp_path), str(tmp_path), "--workload", "rank-mode", "--seeds", "1-2"])
    assert stop.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].endswith("error: --workload 'rank-mode' is not a workload of BENCHMARK.json")


def test_imports_are_stdlib_and_never_termdep():
    names = set()
    for node in ast.walk(ast.parse(AB_PATH.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add((node.module or "").split(".")[0])
    assert names <= set(sys.stdlib_module_names)
