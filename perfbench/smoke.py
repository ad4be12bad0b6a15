#!/usr/bin/env python3
"""Smoke test of the benchmark, at tiny sizes.

Checks that every workload in BENCHMARK.json runs untraced and traced, that
each run emits exactly the metrics BENCHMARK.json names for that mode with
their units, and that the benchmark refuses to run (nonzero exit, no result
line) in a directory that holds only BENCHMARK.json and the benchmark's
files.  Run from the root of a checkout:

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    script = os.path.join(ROOT, spec["command"][1])
    faults = []
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            argv = [sys.executable, script, "--workload", workload["name"], "--seed", "7",
                    "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            what = f"{workload['name']} trace={trace}"
            result = last_json(proc.stdout)
            if proc.returncode != 0 or result is None:
                faults.append(f"{what}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                faults.append(f"{what}: metrics differ from BENCHMARK.json: "
                              f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                              f"units {sorted(n for n in want if n in got and got[n] != want[n])}")
            if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
                faults.append(f"{what}: {result['failed']} of {result['attempted']} operations failed")
            print(f"ok {what}: {len(got)} metrics", flush=True)

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".bench_out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, spec["command"][1], "--workload",
                               spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=180)
        if proc.returncode == 0 or last_json(proc.stdout) is not None:
            faults.append("benchmark ran without the package source next to it")
        else:
            print("ok refuses to run without the package source", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for fault in faults:
        print("FAIL " + fault)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
