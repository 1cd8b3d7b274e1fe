#!/usr/bin/env python3
"""Loopback wire ledger: midrr_rt sends real UDP datagrams to midrr_rx,
and the receiver's ledger must close exactly against the sender's report.

    python3 tools/udp_wire_ledger.py build/tools/midrr_rx \
        build/tools/midrr_rt --base-port 19720 --seconds 2

The sender runs 8 flows over 4 interfaces at 20 Mb/s each with pooled
payloads and 1-in-64 stage tracing, so datagrams of several sizes (and
traced ones with their 8-byte trailer) share each burst.  Checks, the same
bounds as the udp-loopback CI job:

    datagrams + gaps == sent    (every sent datagram arrived or is a gap)
    parse_errors == 0
    0 < syscalls < sent         (sendmmsg batching engaged)
    send_errors == 0

Exit status 0 when every check holds, 1 otherwise.
"""
import argparse
import json
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("rx", help="path to midrr_rx")
    ap.add_argument("rt", help="path to midrr_rt")
    ap.add_argument("--base-port", type=int, required=True,
                    help="first of the 4 loopback ports")
    ap.add_argument("--seconds", type=float, default=2.0,
                    help="sender run time")
    args = ap.parse_args()
    port = str(args.base_port)

    rx = subprocess.Popen(
        [args.rx, "--ports", "4", "--base-port", port, "--duration", "60",
         "--idle-ms", "1000", "--json"],
        stdout=subprocess.PIPE, text=True)
    try:
        time.sleep(0.5)  # let the receiver bind first
        sent = subprocess.run(
            [args.rt, "--egress", "udp", "--udp-base-port", port,
             "--flows", "8", "--ifaces", "4", "--workers", "2",
             "--rate", "20mbps", "--payload", "pooled",
             "--stage-sample", "64", "--duration", str(args.seconds),
             "--json"],
            stdout=subprocess.PIPE, text=True, check=True)
        received, _ = rx.communicate(timeout=60)
    finally:
        if rx.poll() is None:
            rx.kill()
            rx.wait()
    rt = json.loads(sent.stdout)
    rxr = json.loads(received)
    eg = rt["egress"]

    failures = []
    if rxr["datagrams"] + rxr["gaps"] != eg["sent"]:
        failures.append("wire ledger open: rx %d+%d != sent %d" %
                        (rxr["datagrams"], rxr["gaps"], eg["sent"]))
    if rxr["parse_errors"] != 0:
        failures.append("corrupt headers: %d" % rxr["parse_errors"])
    if not 0 < eg["syscalls"] < eg["sent"]:
        failures.append("sendmmsg batching not engaged: %d syscalls for %d"
                        % (eg["syscalls"], eg["sent"]))
    if eg["send_errors"] != 0:
        failures.append("send errors on loopback: %d" % eg["send_errors"])
    print("sent %d datagrams in %d syscalls; rx %d + %d gaps; "
          "parse_errors %d; send_errors %d" %
          (eg["sent"], eg["syscalls"], rxr["datagrams"], rxr["gaps"],
           rxr["parse_errors"], eg["send_errors"]))
    for f in failures:
        print("FAIL: " + f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
