#!/usr/bin/env python3
"""Runs one workload of the firzen benchmark and prints its result.

    python3 perfbench/run.py --workload <train-cold|serve-batch|serve-online|all>
                             --seed <n> --seconds <s> --trace <0|1>

Run it from anywhere inside a checkout of the repository. It builds the
benchmark (perfbench/CMakeLists.txt, Release) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), writes the serving catalog a serve-*
workload loads, runs the workload, checks its outputs, appends a record with
provenance to the history file, and prints:

  * a table of every metric with its unit and sample count, the workload's
    own end-to-end figures under their specific names, and for serve-online
    each fixed-rate phase;
  * as the last line, one JSON object: {"correct", "attempted", "failed",
    "metrics": {name: {"value", "unit"}}} with the end-to-end metrics of
    BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1).

With --trace 1 the spans are written to
$CARGO_TARGET_DIR/perfbench/traces/<workload>-<seed>.jsonl. The history is
.bench_history/perfbench.jsonl at the checkout root (PERFBENCH_HISTORY
overrides it); perfbench/compare.py compares two sets of its records.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("train-cold", "serve-batch", "serve-online")

# The whole run must end within 180 s; the first build may take longer.
BUILD_TIMEOUT_S = 840
GEN_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    """Configures (once) and builds the benchmark binary; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "eval", "serving.h")):
        raise BenchError(f"no firzen sources under {ROOT}/src")
    build_dir = os.path.join(build_root(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise BenchError(f"build step {' '.join(cmd[:2])} failed")
    return build_dir


def run_json(cmd, timeout):
    """Runs the benchmark binary and parses the JSON object on its last stdout
    line."""
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cmd[1]} did not finish within {timeout} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(cmd[:2])} exited with {done.returncode}")
    return json.loads(lines[-1])


def read_steal_ticks():
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8])  # cpu user nice system idle iowait irq softirq steal
    except (OSError, IndexError, ValueError):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def source_digest():
    """Hash of the sources the benchmark builds: identifies the code even
    where there is no git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".py", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_state():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None, None
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    if commit.returncode != 0:
        return None, None
    return commit.stdout.strip(), bool(status.stdout.strip())


def provenance(seed):
    commit, dirty = git_state()
    return {
        "commit": commit,
        "dirty": dirty,
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "firzen_num_threads": os.environ.get("FIRZEN_NUM_THREADS"),
        "firzen_simd": os.environ.get("FIRZEN_SIMD"),
        "seed": seed,
        "loadavg_start": os.getloadavg()[0],
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def history_path():
    return os.environ.get(
        "PERFBENCH_HISTORY",
        os.path.join(ROOT, ".bench_history", "perfbench.jsonl"))


def append_history(record):
    path = history_path()
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


def run_workload(spec, build_dir, workload, seed, seconds, trace):
    """Runs one workload; returns (history record, result line)."""
    binary = os.path.join(build_dir, "perfbench")
    prov = provenance(seed)
    steal_start = read_steal_ticks()
    work_dir = tempfile.mkdtemp(prefix="work-", dir=build_dir)
    try:
        cmd = [binary, "run", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--work-dir", work_dir]
        save_ms = None
        if workload != "train-cold":
            catalog = os.path.join(work_dir, "catalog.fzem")
            gen = run_json([binary, "gen", "--workload", workload,
                            "--seed", str(seed), "--out", catalog],
                           GEN_TIMEOUT_S)
            save_ms = gen["models.save_ms"]
            cmd += ["--catalog", catalog]
        if trace:
            trace_dir = os.path.join(build_dir, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            cmd += ["--trace-out",
                    os.path.join(trace_dir, f"{workload}-{seed}.jsonl")]
        out = run_json(cmd, RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    steal_end = read_steal_ticks()

    metrics = dict(out["metrics"])
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if trace and save_ms is not None:
        metrics["models.save_ms"] = {"value": save_ms, "unit": "ms",
                                     "samples": 1}
    correct = bool(out["correct"])
    notes = list(out["notes"])
    line_metrics = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            if not trace:
                raise BenchError(f"{workload} did not report {m['name']}")
            # A layer this workload never calls: no work, no time.
            got = {"value": 0.0, "unit": m["unit"], "samples": 0}
            metrics[m["name"]] = got
        if got["unit"] != m["unit"]:
            raise BenchError(f"{m['name']}: unit {got['unit']} but "
                             f"BENCHMARK.json says {m['unit']}")
        if not math.isfinite(got["value"]) or (not trace and got["value"] == 0):
            correct = False
            notes.append(f"{m['name']} is {got['value']}")
        line_metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    prov.update(simd_tier=out["simd_tier"], build_type=out["build_type"])
    if steal_start is not None and steal_end is not None:
        prov["steal_ticks"] = steal_end - steal_start
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "correct": correct, "attempted": out["attempted"],
        "failed": out["failed"], "notes": notes, "metrics": metrics,
        "details": out["details"], "phases": out["phases"],
        "provenance": prov,
    }
    line = {"correct": correct, "attempted": out["attempted"],
            "failed": out["failed"], "metrics": line_metrics}
    return record, line


def print_report(record):
    p = record["provenance"]
    print(f"== {record['workload']} seed={record['seed']} "
          f"trace={int(record['trace'])} correct={record['correct']} "
          f"attempted={record['attempted']} failed={record['failed']}")
    print(f"   host: {p['nproc']} cpus, {p['cpu_model']}, simd={p['simd_tier']}, "
          f"build={p['build_type']}, FIRZEN_NUM_THREADS={p['firzen_num_threads']}, "
          f"load={p['loadavg_start']:.2f}, steal_ticks={p.get('steal_ticks')}")
    for title, table in (("metrics", record["metrics"]),
                         ("workload figures", record["details"])):
        if not table:
            continue
        print(f"   {title}:")
        for name in sorted(table):
            m = table[name]
            print(f"     {name:36s} {m['value']:>14.6g} {m['unit']:<6s} "
                  f"n={m['samples']}")
    for ph in record["phases"]:
        flag = "meets" if ph["meets_limit"] else "misses"
        valid = "" if ph["valid"] else " INVALID(sender late)"
        print(f"     phase {ph['kind']:10s} {ph['rate_rps']:6.0f} rps  "
              f"n={ph['attempted']:<6d} p50={ph['p50_ms']:.3f} ms "
              f"p99={ph['p99_ms']:.3f} ms ({ph['windows']} windows) "
              f"served={ph['achieved_rps']:.0f}/s "
              f"gen_lag_p99={ph['gen_lag_p99_ms']:.3f} ms {flag}{valid}")
    for note in record["notes"]:
        print(f"   note: {note}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        spec = load_spec()
        build_dir = build()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        for workload in workloads:
            record, line = run_workload(spec, build_dir, workload, args.seed,
                                        args.seconds, bool(args.trace))
            append_history(record)
            print_report(record)
            print(json.dumps(line), flush=True)
    except (BenchError, KeyError, OSError, ValueError) as e:
        log(f"perfbench: {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
