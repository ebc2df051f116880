#!/usr/bin/env python3
"""The repository's end-to-end + per-layer benchmark (benchmark/README.md).

Builds benchmark/cavenet_bench.cpp against src/ (its own CMake project in
build-bench/), runs each workload in a fresh process, checks its outputs,
and prints every metric BENCHMARK.json names, by name with its unit. The
last stdout line is one JSON object:

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"setup_s": {"value": 0.27, "unit": "s"}, ...}}

--trace 0 reports the end-to-end metrics (no observability hooks);
--trace 1 (or a bare --trace) reports the per-layer metrics of a traced
run. Without --workload every workload runs and the metrics are keyed
"<workload>.<metric>". Exits non-zero when any check fails.

    python3 benchmark/run.py --workload scale_10k --seed 3 --seconds 25
    python3 benchmark/run.py --trace                # all workloads, traced
    python3 benchmark/run.py --smoke                # seconds, any build
"""

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED_DIR = BENCH_DIR / "expected"
WORKLOADS = ("paper_figs", "scale_10k", "olsr_1k", "serve_mixed")
# A workload run stays well under this; a hung one is killed and counted
# as failed.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build(build_dir):
    """Configures (once) and builds cavenet_bench; returns its path or None."""
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("run.py: configuring the benchmark failed")
            return None
    jobs = str(os.cpu_count() or 1)
    compile_cmd = ["cmake", "--build", str(build_dir), "--target",
                   "cavenet_bench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        log("run.py: building the benchmark failed")
        return None
    return build_dir / "cavenet_bench"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def describe(binary):
    """cavenet_bench's build descriptor plus this machine's CPU model."""
    done = subprocess.run([str(binary), "--describe"], capture_output=True,
                          text=True, timeout=60)
    if done.returncode != 0:
        raise RuntimeError("cavenet_bench --describe failed: " + done.stderr)
    descriptor = json.loads(done.stdout.strip().splitlines()[-1])
    descriptor["cpu_model"] = cpu_model()
    return descriptor


def unfit_for_timing(descriptor):
    """Why this build's timings mean nothing, or None."""
    if descriptor["build_type"] == "Debug":
        return "a Debug build"
    if "-fsanitize" in descriptor["cxx_flags"]:
        return "a sanitizer build (" + descriptor["cxx_flags"] + ")"
    return None


def expected_digest(workload, seed, smoke):
    path = EXPECTED_DIR / ("seed%d.json" % seed)
    if smoke or not path.exists():
        return None
    with open(path) as f:
        return json.load(f).get(workload)


def run_workload(binary, workload, args, trace, work_dir):
    """Runs one workload process; returns its report, or a failed stub."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(trace),
           "--work-dir", str(work_dir / workload)]
    expect = None if args.write_expected else expected_digest(
        workload, args.seed, args.smoke)
    if expect:
        cmd += ["--expect", expect]
    if args.smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "failed": 1, "metrics": {}, "info": {},
                "failures": [workload + ": timed out"], "digest": ""}
    lines = done.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = "\n".join(done.stderr.strip().splitlines()[-5:])
        return {"attempted": 1, "failed": 1, "metrics": {}, "info": {},
                "failures": ["%s: exited %d without a report\n%s" %
                             (workload, done.returncode, tail)],
                "digest": ""}
    if done.returncode != 0 and report["failed"] == 0:
        report["failed"] = 1
        report["failures"].append(
            "%s: exited %d" % (workload, done.returncode))
    return report


def score(report, declared, prefix=""):
    """The declared metrics of one report; a missing one is a failure."""
    metrics = {}
    for metric in declared:
        value = report["metrics"].get(metric["name"])
        if value is None or not math.isfinite(value):
            report["failed"] = max(report["failed"], 1)
            report["failures"].append("metric %s missing" % metric["name"])
            continue
        metrics[prefix + metric["name"]] = {"value": value,
                                            "unit": metric["unit"]}
    return metrics


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; both modes; any build type")
    parser.add_argument("--build-dir", type=Path,
                        default=ROOT / "build-bench")
    parser.add_argument("--bench-bin", type=Path,
                        help="use this cavenet_bench instead of building one")
    parser.add_argument("--work-dir", type=Path, default=None)
    parser.add_argument("--write-expected", action="store_true",
                        help="record this seed's output digests under "
                             "benchmark/expected/")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    work_dir = args.work_dir or args.build_dir / "work"

    binary = args.bench_bin or build(args.build_dir)
    if binary is None:
        return 1
    descriptor = describe(binary)
    descriptor["seed"] = args.seed
    unfit = unfit_for_timing(descriptor)
    if unfit and not args.smoke:
        log("run.py: refusing to time " + unfit +
            "; build RelWithDebInfo without sanitizers (or use --smoke)")
        return 2
    print("# build: " + json.dumps(descriptor, sort_keys=True))

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    # The smoke test runs both modes; a timed run measures one.
    modes = (0, 1) if args.smoke else (args.trace,)
    attempted = failed = 0
    metrics = {}
    digests = {}
    for workload in workloads:
        for trace in modes:
            report = run_workload(binary, workload, args, trace, work_dir)
            declared = spec["per_layer"] if trace else spec["end_to_end"]
            prefix = "" if args.workload else workload + "."
            scored = score(report, declared, prefix)
            metrics.update(scored)
            attempted += report["attempted"]
            failed += report["failed"]
            if report["digest"]:
                digests[workload] = report["digest"]
            mode = "traced" if trace else "end-to-end"
            print("## %s (%s, seed %d, digest %s)" %
                  (workload, mode, args.seed, report["digest"] or "-"))
            for name, m in scored.items():
                print("%-32s %18.6g %s" % (name, m["value"], m["unit"]))
            for name, value in report["info"].items():
                print("%-32s %18.6g (info)" % (prefix + name, value))
            for failure in report["failures"]:
                log("FAIL " + failure)

    if args.write_expected and failed == 0 and not args.smoke:
        EXPECTED_DIR.mkdir(exist_ok=True)
        path = EXPECTED_DIR / ("seed%d.json" % args.seed)
        recorded = json.loads(path.read_text()) if path.exists() else {}
        recorded.update(digests)
        path.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
        log("run.py: wrote " + str(path))

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
