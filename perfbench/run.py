#!/usr/bin/env python3
"""Benchmark of the wall-clock runtime (src/runtime).

One run:
    python3 perfbench/run.py --workload udp_egress --seed 1 --seconds 10 --trace 0

builds perfbench/ (and the library sources under src/ it links) into
$CARGO_TARGET_DIR or .bench_build, runs one workload, and prints a host and
build fingerprint line followed by the result as the last line:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and writes spans under <build dir>/spans).

Other modes:
    --self-test            short run of every workload in both modes, plus a
                           check that a delay injected into the benchmark's
                           egress decorator shows as a udp_egress regression
    --compare OLD NEW      compare two files of result lines (one run per
                           line) against the bounds in BENCHMARK.json
"""
import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Spin per packet injected into the egress decorator by --self-test: about
# three quarters of the ~4 us of worker time a udp_egress packet costs.
SELF_TEST_DELAY_NS = 3000


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds the benchmark; returns the binary path."""
    out = build_dir()
    for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "-j", "4", "--target", "perfbench_rt"]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(2)
    return os.path.join(out, "perfbench_rt")


def read_first(path, default="unknown"):
    try:
        with open(path) as f:
            return f.readline().strip() or default
    except OSError:
        return default


def commit_id():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except OSError:
        pass
    # Not a git checkout: name the tree by a hash of the sources built.
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def compiler_version(path):
    if not path:
        return "unknown"
    try:
        proc = subprocess.run([path, "--version"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        return proc.stdout.splitlines()[0] if proc.stdout else path
    except OSError:
        return path


def fingerprint():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = {}
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and not line.startswith(("//", "#")):
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":")[0]] = value
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "kernel": platform.release(),
        "governor": read_first(
            "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor", "unreadable"),
        "compiler": compiler_version(cache.get("CMAKE_CXX_COMPILER", "")),
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "cxx_flags": (cache.get("CMAKE_CXX_FLAGS", "") + " " +
                      cache.get("CMAKE_CXX_FLAGS_RELEASE", "")).strip(),
        "commit": commit_id(),
    }


def run_once(binary, workload, seed, seconds, trace, delay_ns=0, echo=True):
    """Runs one workload; returns (exit code, parsed result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--spans-dir", os.path.join(os.path.dirname(build_dir()), "spans")]
    if delay_ns:
        cmd += ["--inject-egress-delay-ns", str(delay_ns)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 3, None
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("perfbench: no result line from the benchmark binary")
        return proc.returncode or 3, None
    if echo:
        for line in lines[:-1]:
            print(line)
    return proc.returncode, result


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def worse_share(metric, old, new):
    """How much worse `new` is than `old`, as a share of `old`."""
    if old == 0:
        return 0.0
    if metric["better"] == "lower":
        return (new - old) / abs(old)
    return (old - new) / abs(old)


def compare(spec, old_runs, new_runs):
    """Compares the medians of each end-to-end metric; flags those worse
    than the metric's bound."""
    rows = []
    for m in spec["end_to_end"]:
        old = [r["metrics"][m["name"]]["value"] for r in old_runs]
        new = [r["metrics"][m["name"]]["value"] for r in new_runs]
        mo, mn = statistics.median(old), statistics.median(new)
        share = worse_share(m, mo, mn)
        rows.append({"metric": m["name"], "old": mo, "new": mn,
                     "worse_by": share, "bound": m["bound"],
                     "regression": share > m["bound"]})
    return rows


def check_result(spec, result, trace):
    """Problems with one result line: correctness, names and units."""
    problems = []
    if not result["correct"]:
        problems.append("correctness checks failed")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append("attempted < 1")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        problems.append("metric names differ: %s" %
                        sorted(set(got) ^ {m["name"] for m in wanted}))
    for m in wanted:
        if m["name"] in got and got[m["name"]]["unit"] != m["unit"]:
            problems.append("%s has unit %s, want %s" %
                            (m["name"], got[m["name"]]["unit"], m["unit"]))
    return problems


def self_test(binary):
    spec = load_spec()
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            code, result = run_once(binary, w["name"], 1, 1, trace, echo=False)
            problems = ["exit code %d" % code] if code else []
            problems += ["no result"] if result is None else check_result(spec, result, trace)
            log("self-test %-12s trace=%d: %s" %
                (w["name"], trace, "ok" if not problems else "; ".join(problems)))
            ok = ok and not problems
    # A delay inside the benchmark's own egress decorator must read as a
    # udp_egress regression through the same comparison a PR is judged by.
    base, slow = [], []
    for seed in (11, 12, 13):
        for runs, delay in ((base, 0), (slow, SELF_TEST_DELAY_NS)):
            code, result = run_once(binary, "udp_egress", seed, 2, 0, delay, echo=False)
            if code or result is None:
                log("self-test: udp_egress run failed (delay %d ns)" % delay)
                return False
            runs.append(result)
    rows = compare(spec, base, slow)
    flagged = [r["metric"] for r in rows if r["regression"]]
    for r in rows:
        log("self-test delay %d ns/packet: %-18s %14.6g -> %14.6g  worse by %+.3f "
            "(bound %.2f)%s" % (SELF_TEST_DELAY_NS, r["metric"], r["old"], r["new"],
                                r["worse_by"], r["bound"],
                                "  REGRESSION" if r["regression"] else ""))
    if "sent_pps" not in flagged:
        log("self-test: injected egress delay was not reported as a regression")
        ok = False
    log("self-test: %s" % ("passed" if ok else "FAILED"))
    return ok


def read_results(path):
    with open(path) as f:
        return [json.loads(l) for l in f if l.strip().startswith("{\"correct\"")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-egress-delay-ns", type=int, default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args()

    if args.compare:
        rows = compare(load_spec(), read_results(args.compare[0]),
                       read_results(args.compare[1]))
        for r in rows:
            print(json.dumps(r))
        return 1 if any(r["regression"] for r in rows) else 0

    binary = build()
    if args.self_test:
        return 0 if self_test(binary) else 1
    if not args.workload:
        ap.error("--workload is required")
    print(json.dumps({"fingerprint": fingerprint()}))
    code, result = run_once(binary, args.workload, args.seed, args.seconds,
                            args.trace, args.inject_egress_delay_ns)
    if result is None:
        return code or 3
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
