#!/usr/bin/env python3
"""Self-test of the repository benchmark. Run from the checkout root:

    python3 perfbench/selftest.py [--seconds N]

1. Repeatability: two invocations of each workload, untraced and traced,
   on the same seed must give identical alloc_mwords, goodput_mbps,
   digests and exact trace counts.
2. Dominant layers: on a seed that was not used while sizing the
   workloads, each workload's dominant layer must still dominate
   (see README.md, "Measured dominant layers"). On churn-catalog, where
   the engine cannot be profiled, the check is that it allocates at
   least five times testbed-udp's minor words per engine event.

Exits 0 when every check passes, 1 otherwise. Takes several minutes.
"""

import argparse
import json
import subprocess
import sys

WORKLOADS = ["testbed-udp", "testbed-tcp", "paper-flow", "churn-catalog"]
SIZING_SEED = 1
HELD_OUT_SEED = 9001

# Exact per-layer values: counts, not times.
EXACT_LAYER = [
    "engine.events", "mac.grants", "mac.collisions", "mac.drops",
    "mac.success_ratio", "datapath.deliveries", "buffers.ecn_marks",
    "lp.calls", "control.slots", "obs.trace_events", "recovery.route_deaths",
    "recovery.probes", "fault.events", "control.prices_per_tick",
]


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"selftest: {workload} seed {seed} trace {trace} exited "
                 f"{out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    digests = [l.split()[-1] if trace == 0 else l.split()[2]
               for l in lines if l.startswith("digest ")]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return result, values, digests


def dominant_failures(workload, v, udp_words_per_event):
    """The named dominant layer of each workload, from a traced run."""
    if workload == "paper-flow":
        rivals = ["control.solve_s", "routing.self_s", "topology.self_s",
                  "baselines.fluid_s"]
        return [r for r in rivals if v[r] >= v["lp.self_s"]]
    if workload == "testbed-udp":
        rivals = ["engine.mac_phy.self_s", "engine.traffic.self_s",
                  "engine.tcp.self_s", "engine.scheduler.self_s"]
        return [r for r in rivals if v[r] >= v["engine.controller.self_s"]]
    if workload == "testbed-tcp":
        share = v["engine.tcp.events"] / v["engine.events"]
        return [] if share > 0.5 else [f"tcp event share {share:.2f} <= 0.5"]
    if workload == "churn-catalog":
        # Scenario.run takes no ~prof, so observation's share cannot be
        # split from the engine's (README.md, "Measured dominant layers").
        # What can be checked: the churn catalog allocates at least five
        # times testbed-udp's minor words per engine event.
        ratio = v["words_per_event"] / udp_words_per_event
        return [] if ratio >= 5.0 else [f"words/event {ratio:.1f}x testbed-udp < 5x"]
    return [f"unknown workload {workload}"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=1)
    args = ap.parse_args()
    failures = []
    udp_words_per_event = None
    for w in WORKLOADS:
        for trace, keys in ((0, ["alloc_mwords", "goodput_mbps"]),
                            (1, EXACT_LAYER)):
            a = run(w, SIZING_SEED, args.seconds, trace)
            b = run(w, SIZING_SEED, args.seconds, trace)
            for r in (a, b):
                if not r[0]["correct"]:
                    failures.append(f"{w} trace {trace}: run not correct")
            for k in keys:
                if a[1][k] != b[1][k]:
                    failures.append(f"{w} trace {trace}: {k} {a[1][k]} != {b[1][k]}")
            if a[2] != b[2]:
                failures.append(f"{w} trace {trace}: digests {a[2]} != {b[2]}")
            print(f"{w} trace {trace}: repeatable" if not failures else
                  f"{w} trace {trace}: {len(failures)} failures so far", flush=True)
        result, values, _ = run(w, HELD_OUT_SEED, args.seconds, 1)
        e2e = run(w, HELD_OUT_SEED, args.seconds, 0)[1]
        values["words_per_event"] = e2e["alloc_mwords"] * 1e6 / values["engine.events"]
        if w == "testbed-udp":
            udp_words_per_event = values["words_per_event"]
        lost = dominant_failures(w, values, udp_words_per_event)
        if not result["correct"]:
            lost.append("run not correct")
        failures += [f"{w} seed {HELD_OUT_SEED}: {x}" for x in lost]
        print(f"{w} seed {HELD_OUT_SEED}: dominant layer "
              + ("held" if not lost else "LOST: " + "; ".join(lost)), flush=True)
    for f in failures:
        print("FAIL", f)
    print("selftest:", "ok" if not failures else f"{len(failures)} failures")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
