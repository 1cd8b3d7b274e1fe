#!/usr/bin/env python3
"""Loopback delivery gate: midrr_rt's JSON report against midrr_rx's.

    python3 ci/loopback_gate.py rt.json rx.json --backend udp \
        --flows 8 --ifaces 4 --rate-bps 20e6 --seconds 10 [--traced]

The sender ran `--flows` equal-weight flows round-robin-willing over
`--ifaces` interfaces each paced at `--rate-bps` for `--seconds`, with
pooled payloads, into midrr_rx over loopback.  The topology is symmetric,
so the weighted max-min ideal is total capacity / flows per flow.

Checks:
  - the report's egress backend is `--backend`;
  - outer identity: offered == dequeued + every counted drop;
  - egress split: dequeued == sent + io_drops + io_pending + io_inflight,
    with io_pending == 0, io_inflight == 0 and no send errors;
  - 0 < syscalls < sent (batching engaged);
  - with egress.backend == "uring": no CQ overflow, and when SEND_ZC is
    active the registered-buffer path carried packets;
  - with --traced: traced completions, an exact stage reconciliation, and
    tx-timestamp trailers decoded into wire latencies by the receiver;
  - wire ledger: datagrams delivered + sequence gaps == sent, no corrupt
    header;
  - pool books: acquired == released, nothing outstanding;
  - every flow's delivered bytes within 10% of the max-min ideal.

Exit status 0 when every check holds; an AssertionError names the first
that does not.
"""
import argparse
import json


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("rt", help="midrr_rt's report")
    ap.add_argument("rx", help="midrr_rx's --json report")
    ap.add_argument("--backend", required=True, choices=["udp", "uring"])
    ap.add_argument("--flows", type=int, required=True)
    ap.add_argument("--ifaces", type=int, required=True)
    ap.add_argument("--rate-bps", type=float, required=True,
                    help="per-interface pacing rate")
    ap.add_argument("--seconds", type=float, required=True,
                    help="the sender's --duration")
    ap.add_argument("--traced", action="store_true",
                    help="the sender ran with --stage-sample")
    args = ap.parse_args()
    rt = json.load(open(args.rt))
    rx = json.load(open(args.rx))
    eg = rt["egress"]

    assert eg["backend"] == args.backend, eg
    if args.traced:
        # Wire-extended attribution: the sender sampled packets, stamped
        # them at egress, and the receiver must have decoded those
        # trailers into real cross-host latencies.
        stage = rt["stage"]
        assert stage["completed"] > 0, f"no traced completions: {stage}"
        assert stage["reconciliation_error"] == 0, f"stages drift: {stage}"
        assert rx["traced_datagrams"] > 0, "no tx-timestamp trailers seen"
        assert rx["wire_p99_ns"] > 0, f"wire latency empty: {rx}"
    # Outer identity: every offered packet is accounted exactly once.
    assert rt["offered"] == rt["dequeued"] + rt["fanin_drops"] + \
        rt["tail_drops"] + rt["shed_drops"] + rt["straggler_drops"], \
        f"outer conservation violated: {rt}"
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
    if eg["backend"] == "uring":
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
    # Per-flow delivery vs the max-min ideal: symmetric topology, so
    # ideal == total capacity / flows over the paced window.
    ideal = args.ifaces * args.rate_bps / 8.0 * args.seconds / args.flows
    by_flow = {f["flow"]: f["credited_bytes"] for f in rx["flows"]}
    assert len(by_flow) == args.flows, f"missing flows: {sorted(by_flow)}"
    worst = 0.0
    for flow, got in sorted(by_flow.items()):
        err = abs(got - ideal) / ideal
        worst = max(worst, err)
        assert err <= 0.10, \
            f"flow {flow}: {got:.0f} B vs ideal {ideal:.0f} B ({err:.1%} off)"
    mode = ""
    if eg["backend"] == "uring":
        mode = " (zero-copy)" if eg["uring"]["zerocopy_active"] \
            else " (fallback)"
    print(f"{eg['backend']} loopback ok{mode}: {rx['datagrams']} datagrams "
          f"({rx['gaps']} gaps), {eg['sent']/eg['syscalls']:.1f} "
          f"pkts/syscall, worst per-flow error {worst:.1%}")


if __name__ == "__main__":
    main()
