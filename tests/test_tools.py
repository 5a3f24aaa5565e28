"""Smoke test for the benchmark scripts under tools/."""

import json
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_trees_load_imports_submodules_the_package_skips():
    # The package __init__ imports factor but not cli; load returns either.
    sys.path.insert(0, str(TOOLS))
    try:
        from trees import HERE, load
    finally:
        sys.path.remove(str(TOOLS))
    cli = load(HERE, "trees_here", "cli")
    factor = load(HERE, "trees_here", "factor")
    assert cli.__name__ == "trees_here.cli" and callable(cli.main)
    assert factor.__name__ == "trees_here.factor" and callable(factor.factorize)
    assert cli.__file__ == str(HERE / "progressio" / "cli.py")


def test_bench_sweep_writes_its_table(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(TOOLS / "bench_sweep.py"), "--rounds", "1",
                    "--out", str(out)], check=True, capture_output=True, timeout=60)
    table = json.loads(out.read_text())
    assert table["meta"]["rounds"] == 1 and table["meta"]["with_parent"] is False
    assert {"python", "cpus"} <= table["meta"].keys()
    rows = table["rows"]
    assert [(row["p"], row["n"]) for row in rows] == [(3, 8), (5, 6), (5, 7), (13, 6)]
    for row in rows:
        assert row.keys() == {"p", "a", "b", "n", "search_us", "sieve_us"}
        assert row["search_us"] > 0 and row["sieve_us"] > 0


def test_bench_factor_writes_its_table(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(TOOLS / "bench_factor.py"), "--rounds", "1",
                    "--out", str(out)], check=True, capture_output=True, timeout=120)
    table = json.loads(out.read_text())
    assert table["meta"].keys() == {"python", "cpus", "rounds", "with_parent"}
    assert table["meta"]["rounds"] == 1 and table["meta"]["with_parent"] is False
    kinds = {}
    for row in table["rows"]:
        kinds.setdefault(row["kind"], []).append(row)
        times = [v for key, v in row.items() if key.endswith("us")]
        assert times and all(t > 0 for t in times), row
    assert {(row["n"], row["p"]) for row in kinds["cell"]} == {
        (32, 5), (32, 10007), (64, 5), (32, (1 << 61) - 1), (64, 10007), (128, 5)}
    assert len(kinds["rows"]) == 24 and [row["case"] for row in kinds["split"]] == [
        "refresh", "keep"]
    for row in kinds["rows"]:  # the route follows the slot width: 4 bytes up to p = 31,
        # and at p = 101 for n = 8
        assert row.keys() == {"kind", "n", "p", "us", "chain_us", "map_us", "route"}
        chain = row["p"] <= 31 or (row["p"], row["n"]) == (101, 8)
        assert row["route"] == ("chain" if chain else "map"), row


def test_bench_euclid_writes_its_table(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(TOOLS / "bench_euclid.py"), "--rounds", "1",
                    "--out", str(out)], check=True, capture_output=True, timeout=120)
    table = json.loads(out.read_text())
    assert table["meta"].keys() == {"python", "cpus", "pairs", "rounds", "with_parent"}
    assert table["meta"]["rounds"] == 1 and table["meta"]["with_parent"] is False
    rows = table["rows"]
    keys = [(row["kernel"], row["n"], row["p"]) for row in rows]
    assert len(keys) == len(set(keys)) == 84
    assert {kernel for kernel, _, _ in keys} == {"_gcd", "_resultant", "_xgcd"}
    for row in rows:
        times = [v for key, v in row.items() if key.endswith("_us") or key == "us"]
        assert times and all(t > 0 for t in times), row
