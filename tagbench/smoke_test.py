#!/usr/bin/env python3
"""Smoke test of the benchmark at small size.

Run from the repository root:

    python3 tagbench/smoke_test.py

Checks BENCHMARK.json against the benchmark's own format rules, then
runs every workload at --size small with --trace 0 and --trace 1 and
checks that the result line carries exactly the metrics BENCHMARK.json
names for that mode, with its units, and that every output check
passed.  Takes about 15 seconds.
"""

import json
import re
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, sorted(spec)
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200, w
        names.append(w["name"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25, m
        names.append(m["name"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
        names.append(m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), m
    assert all(NAME.match(n) for n in names), names
    assert len(names) == len(set(names)), "duplicate name"
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def run(spec, workload, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", "1", "--trace", str(trace),
                             "--size", "small"]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    assert r.returncode == 0, f"{workload}: exit {r.returncode}"
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    want = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    assert set(got) == {m["name"] for m in want}, (
        sorted(set(got) ^ {m["name"] for m in want}))
    for m in want:
        v = got[m["name"]]
        assert v["unit"] == m["unit"], (m["name"], v)
        assert isinstance(v["value"], (int, float)), (m["name"], v)
        if not trace:
            assert v["value"] > 0, (m["name"], v)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    check_spec(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            run(spec, w["name"], trace)
            print(f"ok {w['name']} --trace {trace}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
