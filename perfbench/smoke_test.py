#!/usr/bin/env python3
"""Smoke test of the benchmark at toy size: two ticks per workload.

    python3 perfbench/smoke_test.py

For each workload, untraced and traced, it runs perfbench/run.py --toy and
asserts that the run is correct and that every metric BENCHMARK.json names
is emitted with its unit, plus the end-to-end figures printed as text lines
(tick_ms_p50, tick_ms_tail, change_rows_per_s, failed_share). It also asserts
that the benchmark refuses to run, with a non-zero exit, when the program
sources are absent.
"""
import json
import pathlib
import shutil
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("orders_trickle", "orders_batch", "tc_edge_updates")


def run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=900)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
                "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in WORKLOADS:
        for trace in ("0", "1"):
            before = len(problems)
            p = run(ROOT, "--workload", w, "--seed", "1", "--seconds", "1", "--trace", trace, "--toy")
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                problems.append(f"{w} trace {trace}: exit {p.returncode}\n{p.stderr[-2000:]}")
                continue
            res = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if not (res["correct"] and res["attempted"] == 2 and res["failed"] == 0):
                problems.append(f"{w} trace {trace}: {res['correct']=} {res['attempted']=} {res['failed']=}")
            if got != expected[trace]:
                problems.append(f"{w} trace {trace}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(expected[trace].keys() - got.keys())}, "
                                f"wrong unit {sorted(k for k in got if expected[trace].get(k, got[k]) != got[k])}")
            if any(not isinstance(v["value"], (int, float)) for v in res["metrics"].values()):
                problems.append(f"{w} trace {trace}: non-numeric metric value")
            if trace == "0":
                for name in ("tick_ms_p50", "tick_ms_tail", "change_rows_per_s", "failed_share"):
                    if not any(l.startswith(name) for l in lines[:-1]):
                        problems.append(f"{w}: no {name} line")
            print(f"{w} trace {trace}: {'ok' if len(problems) == before else 'FAILED'}")

    with tempfile.TemporaryDirectory() as d:
        shutil.copy(ROOT / "BENCHMARK.json", d)
        shutil.copytree(HERE, pathlib.Path(d) / "perfbench",
                        ignore=shutil.ignore_patterns("target", "__pycache__"))
        p = run(d, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
        if p.returncode == 0 or p.stdout.strip():
            problems.append("run without the program sources did not fail cleanly")

    for pr in problems:
        print("FAIL:", pr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
