#!/usr/bin/env python3
"""Standing benchmark of the CORUSCANT simulator.

Builds the benchmark program (perfbench/CMakeLists.txt, which compiles
the simulator from src/) into .bench_build/perfbench at the repository
root, runs one workload, checks its outputs and prints two JSON lines:
the full result record (provenance, configuration, checks, layer
report) and, last, the result line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py --workload serve_clean --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
GOLDEN = HERE / "golden.json"
BENCHMARK = ROOT / "BENCHMARK.json"

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure and build the benchmark; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
           "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (BUILD / "CMakeCache.txt").exists():
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, stdout=sys.stderr, check=True,
                   timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def run_bench(args):
    """Run the benchmark binary; returns its parsed JSON record."""
    proc = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest():
    """SHA-256 over the simulator and benchmark sources."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for p in sorted(top.rglob("*")):
            if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def git_sha():
    """Commit of the checkout, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode."""
    spec = json.loads(BENCHMARK.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def parse_outputs(text):
    return dict(line.split("=", 1) for line in text.splitlines() if line)


def check_record(record, args, problems):
    """Checks run.py adds to the binary's own; returns the count made."""
    made = 0
    names = [m["name"] for m in record["metrics"]]
    made += 1
    if sorted(names) != sorted(expected_metrics(args.trace)):
        problems.append("metric names differ from BENCHMARK.json")
    for m in record["metrics"]:
        made += 1
        if not NAME_RE.match(m["name"]) or not isinstance(
                m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"bad metric {m['name']!r}: {m['value']!r}")
    if args.seed == 1 and record["scale"] == "full":
        made += 1
        golden = json.loads(GOLDEN.read_text()).get(args.workload)
        if golden is None or record["digest"] != golden["digest"]:
            problems.append("modeled outputs differ from the pinned digest")
            if golden is not None:
                got = parse_outputs(record["outputs"])
                for key, want in golden["outputs"].items():
                    if got.get(key) != want:
                        log(f"  {key}: pinned {want}, got {got.get(key)}")
    return made


def run_once(args):
    build()
    cmd = ["run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    record = run_bench(cmd)
    problems = list(record["checks"]["failures"])
    made = check_record(record, args, problems)
    attempted = record["checks"]["attempted"] + made
    failed = record["checks"]["failed"] + (len(problems) -
                                           len(record["checks"]["failures"]))
    # The binary's failed_share counts only its own checks; restate it
    # over all of them so the metric and the result line agree.
    for m in record["metrics"]:
        if m["name"] == "failed_share":
            m["value"] = failed / attempted
    record["provenance"] = {"git_sha": git_sha(),
                            "source_sha256": source_digest(),
                            "nproc": os.cpu_count()}
    record["result_checks"] = {"attempted": attempted, "failed": failed,
                               "failures": problems}
    for p in problems:
        log("check failed:", p)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": m["value"], "unit": m["unit"]}
                    for m in record["metrics"]},
    }))
    return 0


def self_test():
    """Benchmark self-tests at tiny sizes; exits 1 on any failure."""
    build()
    failures = []

    def expect(ok, what):
        log(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    tiny = ["--scale", "tiny", "--seconds", "0", "--seed", "7"]
    threads = str(max(1, min(4, os.cpu_count() or 1)))
    one = run_bench(["run", "--workload", "serve_faults", "--threads", "1",
                      "--trace", "0"] + tiny)
    many = run_bench(["run", "--workload", "serve_faults", "--threads",
                       threads, "--trace", "0"] + tiny)
    expect(one["digest"] == many["digest"],
           f"serve_faults digest at 1 thread == at {threads} threads")

    spec = json.loads(BENCHMARK.read_text())
    listed = run_bench(["list-metrics"])
    expect([(m["name"], m["unit"]) for m in listed] ==
           [(m["name"], m["unit"]) for m in spec["per_layer"]],
           "per_layer in BENCHMARK.json == the binary's metric table")
    golden = json.loads(GOLDEN.read_text())
    expect(sorted(golden) == sorted(w["name"] for w in spec["workloads"]),
           "golden.json pins every workload")

    for w in spec["workloads"]:
        for trace in (0, 1):
            args = argparse.Namespace(workload=w["name"], seed=7,
                                      trace=trace)
            rec = run_bench(["run", "--workload", w["name"], "--trace",
                              str(trace)] + tiny)
            text = json.dumps(rec)
            expect(json.loads(text) == rec,
                   f"{w['name']} trace={trace}: record round-trips as JSON")
            problems = list(rec["checks"]["failures"])
            check_record(rec, args, problems)
            expect(not problems and rec["checks"]["attempted"] > 0,
                   f"{w['name']} trace={trace}: all checks pass"
                   + ("" if not problems else f" ({problems})"))
            if trace:
                expect(rec["layer_report"]["layers"] != [],
                       f"{w['name']}: layer report has rows")
    log("self-test:", "FAILED" if failures else "passed")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        if args.self_test:
            return self_test()
        if not args.workload:
            ap.error("--workload is required")
        return run_once(args)
    except (subprocess.SubprocessError, OSError, RuntimeError,
            ValueError, KeyError) as e:
        log(f"run.py: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
