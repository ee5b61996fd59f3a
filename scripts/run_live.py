#!/usr/bin/env python
"""Boot a live localhost deployment of a registry-compiled protocol.

The live half of the paper's evaluation story: the same ``.mac``-generated
agents that run in simulation are booted as N OS processes exchanging real
UDP datagrams (see docs/LIVE.md).  The flags describe one ScenarioSpec in
spec seconds — a staggered join wave, then a route, multicast,
replicated-KV, or pub/sub workload over the rest of the run — which the
cluster deploys at ``time_scale`` 1, so a spec second is a wall second, and
scores with the same metric shapes the scenario runner reports.

``--kill INDEX:AT[:RESPAWN_AFTER]`` adds a ``CrashModel`` to that spec: the
coordinator SIGKILLs node INDEX's process AT seconds after the cluster clock
zero and (with RESPAWN_AFTER) recovers it that many seconds later under the
supervisor's restart-epoch machinery.  A kill naming a node outside the
cluster is refused, in the simulator's words, before any process starts.
``--min-post-fault-success`` then gates on the ratio for probes sent after
the last fault plus the settle window — the "kill a node mid-run, recover,
still route" check CI runs.

Usage::

    PYTHONPATH=src python scripts/run_live.py --nodes 8 --duration 5
    PYTHONPATH=src python scripts/run_live.py --nodes 8 --duration 12 \
        --kill 3:5.0:1.0 --min-post-fault-success 0.9

Prints one JSON document (aggregate metrics plus per-node summaries) and
exits non-zero if the workload success ratio lands below ``--min-success``,
the post-fault ratio below ``--min-post-fault-success``, any live invariant
is violated, or any node's driver swallowed callback exceptions — which is
how CI's live smoke jobs gate deployability, apart from the benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.eval import Stack  # noqa: E402
from repro.eval.scenario import (ChurnModel, CrashModel,  # noqa: E402
                                 GroupModel, ScenarioError, ScenarioSpec,
                                 WorkloadModel)
from repro.live import (LiveCluster, LiveClusterConfig,  # noqa: E402
                        LiveClusterError)

#: A pubsub workload creates its topics at ``start``, staggers every node's
#: subscription this far apart, and publishes this long after the last one
#: (``WorkloadModel._draw_pubsub``).
SUBSCRIBE_SPACING = 0.25
TREE_SETTLE = 2.0


def parse_kill(text: str) -> CrashModel:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(
            f"--kill wants INDEX:AT[:RESPAWN_AFTER], got {text!r}")
    try:
        index = int(parts[0])
        at = float(parts[1])
        respawn = float(parts[2]) if len(parts) == 3 else None
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"--kill wants numbers in INDEX:AT[:RESPAWN_AFTER], "
            f"got {text!r}") from exc
    return CrashModel(at=at, victims=(index,), recover_after=respawn)


def build_spec(args, packets: int) -> ScenarioSpec:
    """The flags as one ScenarioSpec: a staggered join wave,
    then, after the settle, the workload's measured ops on the ``(k + 1) /
    (P + 1)`` slots of the rest of the run, and a CrashModel per --kill."""
    window = args.nodes * args.join_spacing + args.settle
    models = [ChurnModel(join="staggered", join_spacing=args.join_spacing)]
    if args.workload == "multicast":
        # Node 0 creates the group as the join wave ends; everyone else
        # joins within the first half of the settle.
        models.append(GroupModel(group=1, source=0, at=window - args.settle,
                                 spacing=args.settle / (2 * args.nodes)))
    lead = (SUBSCRIBE_SPACING * (args.nodes + 1) + TREE_SETTLE
            if args.workload == "pubsub" else 0.0)
    gap = (args.duration - window - lead) / (packets + 1)
    if gap <= 0:
        raise ScenarioError(
            f"duration {args.duration}s leaves no workload window: the join "
            f"wave plus settle takes {window:.1f}s ({args.nodes} nodes x "
            f"{args.join_spacing}s + {args.settle}s)"
            + (f", and the subscriptions {lead:.2f}s more" if lead else "")
            + "; raise --duration or lower --nodes")
    # Lookups, ops and publications come from a random node each; a
    # multicast burst from node 0, which owns the group.
    models.append(WorkloadModel(
        kind=args.workload,
        source=0 if args.workload == "multicast" else -1,
        start=window + gap,
        packets=packets,
        gap=gap,
        packet_bytes=args.payload_size,
        keys=args.kv_keys,
        read_fraction=args.kv_read_fraction,
        replicas=args.kv_replicas,
        write_quorum=args.kv_write_quorum,
        read_quorum=args.kv_read_quorum,
        topics=args.topics,
    ))
    return ScenarioSpec(
        name=f"live-{args.protocol}-{args.workload}",
        agents=Stack(args.protocol), num_nodes=args.nodes,
        duration=args.duration, seed=args.seed,
        models=tuple(models) + tuple(args.kill),
        post_fault_settle=args.post_fault_settle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                     allow_abbrev=False)
    parser.add_argument("--nodes", type=int, default=8,
                        help="number of node processes (default 8)")
    parser.add_argument("--protocol", default="chord",
                        help="registry protocol to deploy (default chord)")
    parser.add_argument("--workload",
                        choices=("route", "multicast", "kv", "pubsub"),
                        default="route",
                        help="measurement workload (default route)")
    parser.add_argument("--duration", type=float, default=10.0,
                        help="measurement horizon in seconds; the join "
                             "wave, settle, and workload all fit inside it "
                             "(default 10)")
    parser.add_argument("--packets", type=int, default=None,
                        help="total workload packets "
                             "(default: 8 per node for route, 16 multicast)")
    parser.add_argument("--payload-size", type=int, default=1000,
                        help="declared payload bytes per packet (default 1000)")
    parser.add_argument("--join-spacing", type=float, default=0.15,
                        help="seconds between successive joins (default 0.15)")
    parser.add_argument("--settle", type=float, default=1.0,
                        help="seconds between the last join and the first "
                             "workload packet (default 1.0)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed for per-node RNG streams (default 1)")
    parser.add_argument("--base-port", type=int, default=47000,
                        help="first UDP port; node i binds base+i "
                             "(default 47000)")
    parser.add_argument("--startup-timeout", type=float, default=60.0,
                        help="seconds each process gets to import, compile, "
                             "and reach the start barrier (default 60)")
    parser.add_argument("--kill", type=parse_kill, action="append",
                        default=[], metavar="INDEX:AT[:RESPAWN_AFTER]",
                        help="crash node INDEX (SIGKILL) at AT seconds; "
                             "with RESPAWN_AFTER, recover it that many "
                             "seconds later (repeatable)")
    parser.add_argument("--restart-budget", type=int, default=3,
                        help="supervised respawns per node before it is "
                             "accounted down (default 3)")
    parser.add_argument("--post-fault-settle", type=float, default=2.0,
                        help="recovery window after the last fault before "
                             "probes count toward the post-fault ratio "
                             "(default 2.0)")
    parser.add_argument("--kv-keys", type=int, default=64,
                        help="kv: working-set size (default 64)")
    parser.add_argument("--kv-read-fraction", type=float, default=0.7,
                        help="kv: fraction of ops that are reads (default 0.7)")
    parser.add_argument("--kv-replicas", type=int, default=3,
                        help="kv: replication factor N (default 3)")
    parser.add_argument("--kv-write-quorum", type=int, default=2,
                        help="kv: acks to complete a put (default 2)")
    parser.add_argument("--kv-read-quorum", type=int, default=2,
                        help="kv: replies to complete a get (default 2)")
    parser.add_argument("--topics", type=int, default=4,
                        help="pubsub: topic count; every node subscribes to "
                             "every topic (default 4)")
    parser.add_argument("--min-success", type=float, default=None,
                        help="exit 1 if workload success ratio is below this")
    parser.add_argument("--min-post-fault-success", type=float, default=None,
                        help="exit 1 if the post-fault success ratio is "
                             "below this (requires --kill or other faults)")
    parser.add_argument("--per-node", action="store_true",
                        help="include full per-node reports in the output")
    args = parser.parse_args(argv)

    packets = args.packets
    if packets is None:
        packets = (8 * args.nodes if args.workload in ("route", "kv")
                   else 16)
    try:
        # A spec second is a wall second.
        config = LiveClusterConfig(
            build_spec(args, packets),
            time_scale=1.0,
            base_port=args.base_port,
            startup_timeout=args.startup_timeout,
            restart_budget=args.restart_budget,
        )
        outcome = LiveCluster(config).run()
    except (LiveClusterError, ScenarioError) as exc:
        # A bad fault row, startup diagnostics, driver callback errors, dead
        # workers: the message already names the culprit — no traceback.
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1

    from repro.eval.invariants import check_invariants
    violations = check_invariants(outcome)

    document = {
        "name": outcome.name,
        "nodes": args.nodes,
        "duration": args.duration,
        "packets": packets,
        "kills": [[kill.victims[0], kill.at, kill.recover_after]
                  for kill in args.kill],
        "metrics": outcome.metrics,
        "invariant_violations": [str(violation) for violation in violations],
    }
    if args.per_node:
        document["per_node"] = outcome.per_node
    else:
        document["per_node"] = []
        for report in outcome.per_node:
            # A node that stayed down reports no observations.
            observed = report["models"].get("workload")
            document["per_node"].append({
                "address": report["address"], "state": report["state"],
                "incarnation": report["incarnation"],
                "sent": len(observed["sent"]) if observed else 0,
                "delivered": len(observed["records"]) if observed else 0})
    print(json.dumps(document, indent=2))

    failed = False
    for violation in violations:
        print(f"FAILED: invariant {violation}", file=sys.stderr)
        failed = True
    if args.min_success is not None:
        success = outcome.metrics["workload.success_ratio"]
        if success < args.min_success:
            print(f"FAILED: workload success ratio {success:.3f} < "
                  f"required {args.min_success}", file=sys.stderr)
            failed = True
        else:
            print(f"OK: workload success ratio {success:.3f} >= "
                  f"{args.min_success}", file=sys.stderr)
    if args.min_post_fault_success is not None:
        post = outcome.metrics.get("workload.post_fault_success_ratio")
        if post is None:
            print("FAILED: no post-fault probes were sent (no faults, or "
                  "the fault horizon leaves no workload after the settle "
                  "window — lengthen --duration or kill earlier)",
                  file=sys.stderr)
            failed = True
        elif post < args.min_post_fault_success:
            print(f"FAILED: post-fault success ratio {post:.3f} < "
                  f"required {args.min_post_fault_success}", file=sys.stderr)
            failed = True
        else:
            print(f"OK: post-fault success ratio {post:.3f} >= "
                  f"{args.min_post_fault_success}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
