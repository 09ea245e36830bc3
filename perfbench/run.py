#!/usr/bin/env python3
"""Build and run the whole-system benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload honest_n128 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The first form builds perfbench/main.exe with dune and runs one workload;
the last line of its standard output is the JSON result.  --smoke is the
benchmark's own test: every workload at a small n, checking that the
metric names and units printed are the ones BENCHMARK.json declares and
that the output-digest check fires on a tampered digest.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")

# Small sizes at which the bit-budget monitor's envelope holds for the
# benchmark's fixed protocol seed (at smaller n it fires, by design).
SMOKE_N = {"honest_n128": 56, "byz_static_n64": 44, "rabin_n512": 32}


def build():
    # dune's own output goes to stderr: stdout ends with the JSON result.
    done = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    problems = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    def declared(kind):
        return [(m["name"], m["unit"]) for m in bench[kind]]

    def run(workload, trace, *extra):
        args = [EXE, "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--n", str(SMOKE_N[workload]), *extra]
        out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                             check=True).stdout.splitlines()
        result = json.loads(out[-1])
        digest = next((l.split()[1] for l in out if l.startswith("  digest ")), None)
        printed = [(k, v["unit"]) for k, v in result["metrics"].items()]
        return result, digest, printed

    check(sorted(names) == sorted(SMOKE_N), "workloads match BENCHMARK.json")
    for w in names:
        result, digest, printed = run(w, 0)
        check(result["correct"] and result["failed"] == 0, f"{w}: runs correctly")
        check(printed == declared("end_to_end"), f"{w}: end-to-end metrics match")
        if w == "byz_static_n64":
            continue  # the slowest workload: the digest checks run on the others
        result, _, _ = run(w, 0, "--expect-digest", digest)
        check(result["correct"], f"{w}: recorded digest accepted")
        tampered = digest[:-1] + ("1" if digest[-1] == "0" else "0")
        result, _, _ = run(w, 0, "--expect-digest", tampered)
        check(not result["correct"] and result["failed"] == result["attempted"],
              f"{w}: tampered digest counted as failed")
    for w in ("honest_n128", "rabin_n512"):
        result, _, printed = run(w, 1)
        check(result["correct"], f"{w}: traced run correct")
        check(printed == declared("per_layer"), f"{w}: per-layer metrics match")
    if problems:
        sys.exit(f"perfbench smoke: {len(problems)} check(s) failed")
    print("perfbench smoke: all checks passed")


def main():
    build()
    if sys.argv[1:] == ["--smoke"]:
        smoke()
        return
    sys.exit(subprocess.run([EXE, *sys.argv[1:]], cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
