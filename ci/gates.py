#!/usr/bin/env python3
"""CI gates: run the tools of a build tree and assert the verdicts CI
gates on.

    python3 ci/gates.py GATE BUILD_DIR [--backend udp|uring]

GATE is one of chaos, replay, loopback, pool, scale or telemetry; ctest
registers each as `gate_<name>` (`gate_loopback_udp|uring`; the replay
gate in sanitizer builds only; tools/CMakeLists.txt), so `ctest -L soak`,
`ctest -L loopback` or `ctest -R gate_chaos` runs them locally.  Every gate writes its artifacts (the JSON reports, scrapes and
dumps) into the current directory; ctest gives each its own under
BUILD_DIR/gates/.  The gates bind fixed loopback ports, so run them one at
a time.

Exit status 0 when every check holds; an AssertionError names the first
that does not.  The uring loopback gate exits 77 (ctest: Skipped) when the
kernel denies io_uring, after printing the probe's reason.
"""
import argparse
import contextlib
import json
import shutil
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

SKIP = 77
CI_DIR = Path(__file__).resolve().parent

# Every request goes straight to the local server, never to a proxy.
_http = urllib.request.build_opener(urllib.request.ProxyHandler({}))


def http_get(port, path):
    """(status, body) of GET http://127.0.0.1:PORT/PATH; 0 if unreachable."""
    try:
        with _http.open(f"http://127.0.0.1:{port}{path}", timeout=5) as r:
            return r.status, r.read()
    except urllib.error.HTTPError as e:
        return e.code, e.read()
    except OSError:
        return 0, b""


def scrape(port, path, out=None):
    """The body of a 200 response (saved to `out` if given)."""
    code, body = http_get(port, path)
    assert code == 200, f"GET :{port}{path} answered {code}"
    if out:
        Path(out).write_bytes(body)
    return body


@contextlib.contextmanager
def spawn(cmd, out):
    """Runs `cmd` in the background with stdout to `out`; never leaks it."""
    with open(out, "w") as f:
        proc = subprocess.Popen(cmd, stdout=f)
        try:
            yield proc
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def finish(proc):
    """Waits for a spawned tool; a non-zero exit fails the gate."""
    if proc.wait() != 0:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)


def run(cmd, out):
    with open(out, "w") as f:
        subprocess.run(cmd, stdout=f, check=True)


def load(path):
    with open(path) as f:
        return json.load(f)


def conserved(r):
    """Outer conservation identity: every offered packet counted once."""
    return r["offered"] == r["dequeued"] + r["fanin_drops"] + \
        r["tail_drops"] + r["shed_drops"] + r["straggler_drops"]


# The chaos soak and its replay share the topology and the control loop.
CHAOS_LOAD = ["--flows", "64", "--ifaces", "4", "--workers", "2",
              "--rate", "50mbps", "--producers", "2", "--payload", "pooled"]
CHAOS_LOOP = ["--backpressure-bytes", "1048576", "--shed-target-p99-ms", "25"]


def chaos(b):
    """The supervised runtime rides the full ci/chaos.json plan: a link
    dies and revives, another flaps, a worker stalls and is restarted by
    the watchdog, ingress drops/dups/delays and pool exhaustion fire, and
    a sustained capacity droop (iface 0 at 0.5x for 2.5 s) exercises
    drain-rate discovery -- all under 2x+ overload with adaptive shedding
    steering toward a 25 ms p99 target and backpressure armed.  /healthz
    must go degraded and then recover, the pool books must balance, and
    every fault class must have fired, the closed loop included.  The
    healthy -> degraded edge must produce a flight dump mid-run (captured
    before the shutdown snapshot overwrites it), and stage tracing rides
    the whole plan with its reconciliation intact.  Every observed
    transition is recorded into recorded.json for the replay gate."""
    Path("flight_degraded.json").unlink(missing_ok=True)
    cmd = [b / "tools/midrr_rt", *CHAOS_LOAD,
           "--fault-plan", CI_DIR / "chaos.json", "--supervise",
           "--stage-sample", "64", "--flight-dump", "flight.json",
           *CHAOS_LOOP, "--record-faults", "recorded.json",
           "--duration", "8", "--telemetry", "9311"]
    seen_degraded = recovered = False
    with spawn(cmd, "chaos.json") as rt:
        for _ in range(200):
            code, _ = http_get(9311, "/healthz")
            if code == 503:
                seen_degraded = True
                # The degrade dump is written synchronously inside the
                # /healthz handler, so it is on disk once the 503 is seen;
                # snapshot it before shutdown overwrites the path.
                if Path("flight.json").exists():
                    shutil.copy("flight.json", "flight_degraded.json")
            if seen_degraded and code == 200:
                recovered = True
                break
            time.sleep(0.05)
        finish(rt)
    assert seen_degraded, "/healthz never degraded"
    assert recovered, "/healthz never recovered"

    r = load("chaos.json")
    fault, sup, pool = r["fault"], r["supervisor"], r["pool"]
    # Flight recorder: the degrade edge dumped mid-run, the shutdown
    # snapshot closed the run, and both are real timelines.
    assert r["flight"]["dumps"] >= 2, f"flight dumps: {r['flight']}"
    degraded = load("flight_degraded.json")
    assert degraded["reason"] == "healthz degraded", degraded["reason"]
    assert degraded["events"], "degrade dump carries no events"
    final = load("flight.json")
    assert final["reason"] == "shutdown snapshot", final["reason"]
    assert final["events"], "shutdown snapshot carries no events"
    # Stage tracing survived kills/stalls/overload with the exact
    # ring+queue+egress == e2e identity intact.
    stage = r["stage"]
    assert stage["completed"] > 0, f"no traced completions: {stage}"
    assert stage["reconciliation_error"] == 0, f"stages drift: {stage}"
    assert fault["ingress_drops"] > 0 and fault["ingress_dups"] > 0 \
        and fault["ingress_delays"] > 0, f"ingress faults idle: {fault}"
    assert fault["pool_rejects"] > 0, "pool exhaustion never fired"
    assert fault["worker_stalls"] >= 1, "worker stall never fired"
    assert fault["iface_transitions"] >= 4, f"link faults idle: {fault}"
    assert sup["link_transitions"] >= 2, f"supervisor blind: {sup}"
    assert sup["restarts_attempted"] >= 1, "watchdog never engaged"
    assert sup["clustering_violations"] == 0, f"Theorem-2 broken: {sup}"
    assert r["shed_drops"] > 0, "overload shedding never engaged"
    # The closed loop: the watermark was derived (target set, updates
    # flowing, shed engaged at least once) and the sustained iface-0
    # droop was discovered from measured drain, not configured.
    adapt = r["adapt"]
    assert adapt["target_p99_ns"] == 25_000_000, adapt
    assert adapt["updates"] > 0, f"adaptive loop never ran: {adapt}"
    assert adapt["shed_bytes"] > 0, f"no watermark derived: {adapt}"
    assert adapt["shed_engages"] >= 1, f"watermark never armed: {adapt}"
    assert adapt["droop_enters"] >= 1, \
        f"capacity droop never discovered: {adapt}"
    # Even across kills, stalls and shed episodes.
    assert conserved(r), f"conservation violated: {r}"
    assert pool["acquired"] == pool["released"], \
        f"pool leak: {pool['acquired']} != {pool['released']}"
    assert pool["outstanding"] == 0, f"outstanding {pool['outstanding']}"
    print(f"chaos soak ok: {fault}, supervisor {sup}, adapt {adapt}, "
          f"{pool['acquired']} pooled frames all returned")


def replay(b):
    """Replays the chaos gate's recorded.json (dead/revive edges, worker
    stalls, discovered droops, shed episodes) against a fresh runtime with
    the same topology: the plan must be canonical, the supervisor must
    walk the same verdict sequence, and the conservation identity must
    close exactly -- the incident is a script, not an anecdote."""
    chaos_dir = Path("../chaos")
    cmd = [b / "tools/midrr_rt", *CHAOS_LOAD,
           "--fault-plan", chaos_dir / "recorded.json", "--supervise",
           *CHAOS_LOOP, "--duration", "8", "--telemetry", "0"]
    run(cmd, "replay.json")
    recorded = (chaos_dir / "recorded.json").read_text()
    original = load(chaos_dir / "chaos.json")
    rep = load("replay.json")
    # The recorded plan must itself be canonical: events time-sorted
    # with the documented key order, so parse -> serialize is a
    # byte-level fixpoint for downstream tooling.
    plan = json.loads(recorded)
    assert plan["events"], "recorder captured no transitions"
    kinds = {e["kind"] for e in plan["events"]}
    assert "iface_down" in kinds and "iface_up" in kinds, kinds
    assert "iface_scale" in kinds, \
        f"discovered droop missing from the recording: {kinds}"
    want = original["supervisor"]["verdict_sequence"]
    got = rep["supervisor"]["verdict_sequence"]
    assert got == want, \
        f"verdict sequences diverge:\n  recorded {want}\n  replay {got}"
    assert conserved(rep), f"replay conservation violated: {rep}"
    print(f"replay ok: {len(want)} verdicts reproduced, "
          f"{len(plan['events'])} recorded events, identity exact")


# Loopback topology: 8 equal-weight flows round-robin-willing over 4
# interfaces each paced at 20 Mb/s for 10 s, so the weighted max-min ideal
# is exactly total capacity / flows per flow.
FLOWS, IFACES, RATE_BPS, SECONDS = 8, 4, 20e6, 10


def uring_denied(b):
    """Why this kernel refuses io_uring (seccomp, or the
    kernel.io_uring_disabled sysctl), or None when `--egress auto` picks
    the uring backend."""
    with open("probe.json", "w") as out, open("probe.log", "w") as err:
        subprocess.run(
            [b / "tools/midrr_rt", "--egress", "auto", "--udp-base-port",
             "19599", "--flows", "1", "--ifaces", "1", "--workers", "1",
             "--rate", "1mbps", "--duration", "1"], stdout=out, stderr=err)
    try:
        if load("probe.json")["egress"]["backend"] == "uring":
            return None
    except (OSError, ValueError, KeyError):
        pass
    return next((line.strip() for line in open("probe.log")
                 if "egress:" in line), "probe failed")


def loopback(b, backend):
    """midrr_rt drives real sockets (sendmmsg for udp, io_uring rings for
    uring) against midrr_rx over localhost, carrying pooled payloads so
    the run drains to quiescence.  The udp run is stage-traced and its
    receiver serves /metrics, which must lint clean while it idles ~2 s
    after the sender stops."""
    udp = backend == "udp"
    if not udp:
        reason = uring_denied(b)
        if reason:
            print(f"SKIP: runner denies io_uring ({reason}); "
                  "the uring loopback soak did not run")
            return SKIP
    port = "19400" if udp else "19500"
    rx_cmd = [b / "tools/midrr_rx", "--ports", "4", "--base-port", port,
              "--duration", "60", "--idle-ms", "2000",
              *(["--telemetry", "9413"] if udp else []), "--json"]
    rt_cmd = [b / "tools/midrr_rt", "--egress", backend,
              "--udp-base-port", port, "--flows", str(FLOWS),
              "--ifaces", str(IFACES), "--workers", "2",
              "--rate", f"{RATE_BPS / 1e6:g}mbps", "--payload", "pooled",
              *(["--stage-sample", "64"] if udp else []),
              "--duration", str(SECONDS)]
    with spawn(rx_cmd, "rx.json") as rx_proc:
        time.sleep(1)
        run(rt_cmd, "rt.json")
        if udp:
            scrape(9413, "/metrics", "rx_metrics.txt")
            subprocess.run([b / "tools/midrr_lint", "rx_metrics.txt"],
                           check=True)
        finish(rx_proc)
    rt, rx = load("rt.json"), load("rx.json")
    eg = rt["egress"]

    assert eg["backend"] == backend, eg
    if udp:
        # Wire-extended attribution: the sender sampled packets, stamped
        # them at egress, and the receiver decoded those trailers into
        # real cross-process latencies.
        stage = rt["stage"]
        assert stage["completed"] > 0, f"no traced completions: {stage}"
        assert stage["reconciliation_error"] == 0, f"stages drift: {stage}"
        assert rx["traced_datagrams"] > 0, "no tx-timestamp trailers seen"
        assert rx["wire_p99_ns"] > 0, f"wire latency empty: {rx}"
    assert conserved(rt), f"outer conservation violated: {rt}"
    # Egress split: dequeue is not terminal.  A completion-driven backend
    # may hold packets in flight mid-run, but at quiescence both residual
    # terms must be zero and the split must close exactly.
    assert rt["dequeued"] == eg["sent"] + eg["io_drops"] + \
        eg["io_pending"] + eg["io_inflight"], \
        f"egress split violated: {eg}"
    assert eg["io_pending"] == 0, f"stash not flushed: {eg}"
    assert eg["io_inflight"] == 0, f"ring not drained: {eg}"
    assert eg["send_errors"] == 0, f"send errors on loopback: {eg}"
    assert 0 < eg["syscalls"] < eg["sent"], f"batching not engaged: {eg}"
    if not udp:
        ur = eg["uring"]
        assert ur["cq_overflows"] == 0, f"CQ overflowed: {ur}"
        if ur["zerocopy_active"]:
            assert ur["registered_buffers"] > 0 and ur["fixed_sends"] > 0, \
                f"SEND_ZC advertised but the fixed path carried nothing: {ur}"
    # Wire ledger: delivered + gaps == sent, exactly (kernel-side receive
    # drops surface as sequence gaps, never as slack).
    assert rx["parse_errors"] == 0, f"corrupt headers: {rx}"
    assert rx["datagrams"] + rx["gaps"] == eg["sent"], \
        f"wire ledger open: rx {rx['datagrams']}+{rx['gaps']} " \
        f"!= sent {eg['sent']}"
    # Pooled frames crossed the socket; every slot must still come home.
    pool = rt["pool"]
    assert pool["acquired"] == pool["released"], f"pool leak: {pool}"
    assert pool["outstanding"] == 0, f"outstanding: {pool}"
    # Every flow's delivered bytes (credited at the wire header's
    # scheduler size) within 10% of the max-min ideal.
    ideal = IFACES * RATE_BPS / 8.0 * SECONDS / FLOWS
    by_flow = {f["flow"]: f["credited_bytes"] for f in rx["flows"]}
    assert len(by_flow) == FLOWS, f"missing flows: {sorted(by_flow)}"
    worst = 0.0
    for flow, got in sorted(by_flow.items()):
        err = abs(got - ideal) / ideal
        worst = max(worst, err)
        assert err <= 0.10, \
            f"flow {flow}: {got:.0f} B vs ideal {ideal:.0f} B ({err:.1%} off)"
    mode = ""
    if not udp:
        mode = " (zero-copy)" if eg["uring"]["zerocopy_active"] \
            else " (fallback)"
    print(f"{backend} loopback ok{mode}: {rx['datagrams']} datagrams "
          f"({rx['gaps']} gaps), {eg['sent']/eg['syscalls']:.1f} "
          f"pkts/syscall, worst per-flow error {worst:.1%}")


def pool(b):
    """Every slot acquired over a Release churn soak must be released by
    shutdown: outstanding == 0 proves the recycling loop (and the
    drain-to-quiescence path) loses nothing."""
    run([b / "tools/midrr_rt", "--flows", "256", "--ifaces", "8",
         "--workers", "2", "--shards", "2", "--producers", "2",
         "--duration", "10", "--payload", "pooled", "--churn"], "rt.json")
    p = load("rt.json")["pool"]
    assert p["acquired"] > 0, "pool never used"
    assert p["acquired"] == p["released"], \
        f"leak: acquired {p['acquired']} != released {p['released']}"
    assert p["outstanding"] == 0, f"outstanding {p['outstanding']}"
    assert p["cross_thread_returns"] > 0, "recycling path never exercised"
    print(f"pool books balance: {p['acquired']} acquired == released, "
          f"{p['cross_thread_returns']} cross-thread returns")


def scale(b):
    """Both cells intern exactly 1000 classes at 100x different flow
    counts: a registered flow costs a bounded marginal RSS, registering a
    million flows stays in single-digit seconds, and the one-member
    publish latency must not scale with flow count (the 1M/10k ratio is
    the O(classes)-snapshot claim; generous bound for noisy hosts).  The
    bounds hold only without sanitizer instrumentation."""
    run([b / "bench/rt_scale", "--out", "scale.json"], "rt_scale.log")
    r = load("scale.json")
    cells = {c["flows"]: c for c in r["scale_sweep"]}
    small, large = cells[10_000], cells[1_000_000]
    for c in (small, large):
        assert c["classes"] == 1000, f"expected 1000 classes: {c}"
        assert c["dequeued"] > 0, f"runtime moved no packets: {c}"
    assert large["rss_bytes_per_flow"] <= 1024, \
        f"per-flow RSS {large['rss_bytes_per_flow']} B > 1 KiB"
    assert large["register_s"] <= 10.0, \
        f"1M-flow registration took {large['register_s']} s"
    ratio = r["scale_publish_ratio"]
    assert 0 < ratio <= 4.0, \
        f"publish latency scaled with flows: 1M/10k ratio {ratio}"
    assert large["publish_p50_ns"] <= 5e6, \
        f"publish p50 {large['publish_p50_ns']} ns > 5 ms"
    print(f"1M flows: {large['rss_bytes_per_flow']:.0f} B/flow, "
          f"registered in {large['register_s']:.2f} s, publish p50 "
          f"{large['publish_p50_ns']/1e3:.0f} us ({ratio:.2f}x the "
          f"10k-flow cell)")


def telemetry(b):
    """Scrapes a live runtime: /healthz, /metrics, /flows and /buildinfo,
    the exposition linted off the socket, then a real workload in the
    page (>= 20 distinct series, the core counters strictly positive)
    and a non-empty chrome trace."""
    cmd = [b / "tools/midrr_rt", "--flows", "64", "--ifaces", "4",
           "--workers", "2", "--rate", "200mbps", "--duration", "12",
           "--telemetry", "9309", "--stage-sample", "64",
           "--trace-out", "trace.json"]
    with spawn(cmd, "rt.json") as rt:
        time.sleep(4)
        assert b"ok" in scrape(9309, "/healthz"), "/healthz not ok"
        scrape(9309, "/metrics", "metrics.txt")
        scrape(9309, "/flows", "flows.json")
        scrape(9309, "/buildinfo", "buildinfo.json")
        # Bad names, broken escapes, interleaved families or histogram
        # bucket regressions fail here, not in a scraper downstream.
        subprocess.run([b / "tools/midrr_lint", "--port", "9309"],
                       check=True)
        finish(rt)
    series = set()
    values = {}
    for line in open("metrics.txt"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, value = line.rsplit(" ", 1)
        series.add(name)
        values[name] = values.get(name, 0.0) + float(value)
    assert len(series) >= 20, f"only {len(series)} series"
    for prefix in ("midrr_rt_dequeued_packets_total",
                   "midrr_sched_packets_sent_total",
                   "midrr_rt_iface_sent_bytes_total",
                   "midrr_fairness_jain_index",
                   "midrr_stage_latency_ns_count",
                   "midrr_stage_e2e_ns_count",
                   "midrr_rt_build_info"):
        total = sum(v for k, v in values.items() if k.startswith(prefix))
        assert total > 0, f"{prefix} is zero"
    assert load("flows.json")["flows"], "no flows in /flows"
    binfo = load("buildinfo.json")
    assert binfo["git_sha"] and binfo["build_type"], \
        f"/buildinfo incomplete: {binfo}"
    trace = load("trace.json")
    assert trace["traceEvents"], "empty chrome trace"
    print(f"{len(series)} series, {len(trace['traceEvents'])} trace "
          "events: ok")


GATES = {"chaos": chaos, "replay": replay, "loopback": loopback,
         "pool": pool, "scale": scale, "telemetry": telemetry}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("gate", choices=GATES)
    ap.add_argument("build", type=Path, help="the CMake build tree")
    ap.add_argument("--backend", choices=["udp", "uring"],
                    help="the loopback gate's egress backend")
    args = ap.parse_args()
    if (args.gate == "loopback") != (args.backend is not None):
        ap.error("--backend goes with the loopback gate, and only with it")
    build = args.build.resolve()
    if args.backend:
        return GATES[args.gate](build, args.backend)
    return GATES[args.gate](build)


if __name__ == "__main__":
    sys.exit(main())
