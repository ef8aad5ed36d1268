#!/usr/bin/env python3
"""Build the host-time benchmark from source and run one workload.

    python3 perfbench/run.py --workload spec|lib-warm|lib-dense \\
        --seed N --seconds N --trace 0|1
    python3 perfbench/run.py --selftest

The benchmark is an OCaml executable of the dune project at the root of
the checkout; it is built into .bench_build/ there (dune's shared cache
off, so nothing is written outside the checkout).  A run prints a table
of metrics and, as its last line, one JSON result.  A traced run also
writes its spans to .bench_build/spans/.  --selftest runs the
benchmark's cross-checks and checks that its counters repeat exactly
for a given seed.  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE_DIR = os.path.join(BUILD_DIR, "default", "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(targets):
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} is missing: run this from a full checkout of the repository")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR]
    cmd += ["./perfbench/" + t for t in targets]
    try:
        # dune's own output goes to stderr: the last stdout line is the result
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune not found on PATH")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail("build failed")


def run(args, capture=False):
    """Run main.exe with [args]; subprocess.run kills it on timeout."""
    try:
        return subprocess.run([os.path.join(EXE_DIR, "main.exe")] + args,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        fail("run timed out")


def result_of(args):
    done = run(args, capture=True)
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        fail("run failed: " + " ".join(args))
    return json.loads(done.stdout.strip().splitlines()[-1])


# Counters that must repeat exactly for a given seed: simulated work,
# allocated words, pages restored, block hit rate and deopts.
DETERMINISTIC = [
    "sfi_overhead_pct", "sim_call_p99_cycles", "sim_gate_mean_cycles",
    "emulator.insns", "emulator.run.alloc_words_per_insn",
    "emulator.block_hit_rate", "emulator.deopts", "libbox.call.insns",
    "libbox.call.alloc_words", "libbox.reset.pages_restored",
    "libbox.reset.dirty_ratio", "libbox.reset.alloc_words",
    "libbox.spawn.alloc_words", "core.rewrite.guards", "core.rewrite.hoists",
    "gc.minor_words_per_req",
]


def selftest():
    build(["main.exe", "selftest.exe"])
    done = subprocess.run([os.path.join(EXE_DIR, "selftest.exe")], cwd=ROOT)
    if done.returncode != 0:
        fail("selftest failed")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = True
    for w in [x["name"] for x in spec["workloads"]]:
        runs = {}
        for trace, seed in ((0, 11), (1, 11), (1, 11)):
            args = ["--workload", w, "--seed", str(seed), "--seconds", "1",
                    "--trace", str(trace), "--spans-out",
                    os.path.join(BUILD_DIR, "selftest-spans.json")]
            res = result_of(args)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace] or not res["correct"] or res["failed"]:
                print(f"FAIL {w} trace {trace}: metrics or outputs differ from BENCHMARK.json")
                ok = False
            runs.setdefault((trace, seed), []).append(res["metrics"])
        first, again = runs[(1, 11)]
        for k in DETERMINISTIC:
            same = first[k]["value"] == again[k]["value"]
            print(f"{'ok  ' if same else 'FAIL'} {w}: {k} repeats for seed 11"
                  f" ({first[k]['value']})")
            ok = ok and same
    if not ok:
        sys.exit(1)
    print("selftest: counters repeat and every metric matches BENCHMARK.json")


def main():
    if sys.argv[1:] == ["--selftest"]:
        selftest()
        return 0
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True,
                   choices=["spec", "lib-warm", "lib-dense"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    a = p.parse_args()
    build(["main.exe"])
    spans = os.path.join(BUILD_DIR, "spans",
                         f"spans-{a.workload}-seed{a.seed}.json")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    done = run(["--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(a.trace),
                "--spans-out", spans])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
