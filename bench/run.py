"""Benchmark driver.

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1`` (the
``BENCHMARK.json`` command) or ``python -m bench.run`` for every workload.

One invocation starts ``CHILDREN`` fresh child processes per workload, one
after the other, child *i* on sub-seed ``seed * 100 + i`` and ``seconds /
CHILDREN`` of measured work.  Every end-to-end metric is the median of the
children's values, so each invocation sets up several times and one stalled
child cannot move a result.  ``--trace 1`` instead runs sub-seed 0 twice,
untraced then traced: the pair gives the per-layer budget, the tracing
overhead, and the check that tracing changed no count.

Prints ``workload/metric value unit`` lines and the raw readings under
``info``; the last stdout line is the JSON result object.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:        # run as a script: make `bench` importable
    sys.path.insert(0, str(ROOT))

from bench import checks  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

CHILDREN = 4
CHILD_TIMEOUT_S = 40

#: name -> unit; a child's result carries each under the same name.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "ops_per_s": "1/s",
    "op_latency_p50_ms": "ms",
    "op_latency_p90_ms": "ms",
    "net_pkts_per_op": "packets",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "dsl.parse_s": "s", "codegen.compile_s": "s", "topology.build_s": "s",
    "scenario.build_s": "s", "converge.run_s": "s",
    "engine.self_s": "s", "engine.events": "count",
    "engine.us_per_event": "us",
    "emulator.self_s": "s", "emulator.sends": "count",
    "emulator.drops": "count", "emulator.us_per_send": "us",
    "router.self_s": "s", "router.plans_built": "count",
    "router.invalidations": "count",
    "transport.self_s": "s", "transport.sends": "count",
    "transport.retransmits": "count",
    "agent.self_s": "s", "agent.sends": "count",
    "dispatch.self_s": "s", "dispatch.transitions": "count",
    "dispatch.us_per_transition": "us", "timers.fired": "count",
    "apps.self_s": "s", "apps.ops": "count",
    "scenario.self_s": "s", "scenario.fault_events": "count",
    "codec.encode_s": "s", "codec.decode_s": "s", "codec.frames": "count",
    "codec.us_per_frame": "us",
    "udp.send_s": "s", "udp.recv_s": "s", "udp.frames": "count",
    "udp.fragments": "count",
    "trace.overhead_ratio": "ratio", "trace.unattributed_s": "s",
}


class BenchError(RuntimeError):
    """A child failed or an output check did not hold."""


def spawn_child(name: str, seed: int, seconds: float, scale: float,
                trace: bool) -> dict:
    """Run one fresh child; return its result (derived rates filled in)."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    completed = subprocess.run(
        [sys.executable, "-m", "bench.child", name, str(seed), repr(seconds),
         repr(scale), "1" if trace else "0"],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    if completed.returncode != 0:
        raise BenchError(f"{name} child (seed {seed}) exited "
                         f"{completed.returncode}:\n{completed.stderr[-2000:]}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    ok = result["ok"]
    result["ops_per_s"] = ok / result["run_s"]
    result["net_pkts_per_op"] = result["net_pkts"] / ok if ok else 0.0
    return result


def layer_metrics(traced: dict, untraced: dict) -> dict[str, float]:
    """The per-layer budget of one traced child (with its untraced twin)."""
    setup_s, _ = traced["layers"]["setup"]
    run_s, calls = traced["layers"]["run"]
    counts = {"engine.events": 0, "emulator.sends": 0, "emulator.drops": 0,
              "transport.retransmits": 0, "udp.frames": 0, "udp.fragments": 0,
              **traced["counts"]}

    def per(seconds: float, count: float) -> float:
        return seconds * 1e6 / count if count else 0.0

    transitions = sum(calls[f"Agent.{name}"] for name in
                      ("receive_message", "api_call", "_on_timer_expired"))
    frames = calls["WireCodec.encode_payload"]
    metrics = {
        "dsl.parse_s": setup_s["dsl"],
        "codegen.compile_s": setup_s["codegen"],
        "topology.build_s": setup_s["topology"],
        "scenario.build_s": setup_s["scenario_build"],
        "converge.run_s": traced["converge_s"],
        "engine.self_s": run_s["engine"],
        "engine.events": counts["engine.events"],
        "engine.us_per_event": per(run_s["engine"], counts["engine.events"]),
        "emulator.self_s": run_s["emulator"],
        "emulator.sends": counts["emulator.sends"],
        "emulator.drops": counts["emulator.drops"],
        "emulator.us_per_send": per(run_s["emulator"],
                                    counts["emulator.sends"]),
        "router.self_s": run_s["router"],
        "router.plans_built": calls["Router.plan"],
        "router.invalidations": calls["Router.invalidate"],
        "transport.self_s": run_s["transport"],
        "transport.sends": calls["TransportHost.send"],
        "transport.retransmits": counts["transport.retransmits"],
        "agent.self_s": run_s["agent"],
        "agent.sends": calls["Agent.send_msg"],
        "dispatch.self_s": run_s["dispatch"],
        "dispatch.transitions": transitions,
        "dispatch.us_per_transition": per(run_s["dispatch"], transitions),
        "timers.fired": calls["Agent._on_timer_expired"],
        "apps.self_s": run_s["apps"],
        "apps.ops": calls["KvStore.put"] + calls["KvStore.get"]
        + calls["PubSub.publish"],
        "scenario.self_s": run_s["scenario"],
        "scenario.fault_events": calls["OverlayExperiment.crash_node"]
        + calls["OverlayExperiment.recover_node"],
        "codec.encode_s": run_s["codec_encode"],
        "codec.decode_s": run_s["codec_decode"],
        "codec.frames": frames,
        "codec.us_per_frame": per(run_s["codec_encode"]
                                  + run_s["codec_decode"], frames),
        "udp.send_s": run_s["udp_send"],
        "udp.recv_s": run_s["udp_recv"],
        "udp.frames": counts["udp.frames"],
        "udp.fragments": counts["udp.fragments"],
        "trace.overhead_ratio": traced["run_s"] / untraced["run_s"],
        "trace.unattributed_s": traced["run_s"] - sum(run_s.values()),
    }
    if metrics.keys() != PER_LAYER_UNITS.keys():
        raise BenchError("per-layer metric names and units disagree")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0, children: int = CHILDREN) -> dict:
    """One invocation's result object for one workload."""
    share = seconds / children
    if trace:
        untraced = spawn_child(name, seed * 100, share, scale, False)
        traced = spawn_child(name, seed * 100, share, scale, True)
        results = [untraced, traced]
        problems = checks.check_pair(untraced, traced)
        values = layer_metrics(traced, untraced)
        metrics = {key: {"value": values[key], "unit": unit}
                   for key, unit in PER_LAYER_UNITS.items()}
    else:
        results = [spawn_child(name, seed * 100 + index, share, scale, False)
                   for index in range(children)]
        problems = []
        metrics = {key: {"value": statistics.median(r[key] for r in results),
                         "unit": unit}
                   for key, unit in END_TO_END.items()}
    for result in results:
        problems += checks.check_child(result)
    attempted = sum(r["attempted"] for r in results)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted - sum(r["ok"] for r in results),
        "metrics": metrics,
        "problems": problems,
        "children": results,
    }


def report(name: str, result: dict) -> None:
    """Human-readable lines: metrics first, raw readings under ``info``."""
    for key, entry in result["metrics"].items():
        print(f"{name}/{key} {entry['value']:.6g} {entry['unit']}")
    for index, child in enumerate(result["children"]):
        run = child["info"]["run"]
        setup = child["info"]["setup"]
        print(f"info {name} child {index} seed {child['seed']}: "
              f"setup wall {setup['wall_s']:.2f}s, run wall "
              f"{run['wall_s']:.2f}s cpu {run['cpu_s']:.2f}s in "
              f"{run['slices']} slices, host speed "
              f"{run['host_speed_min']:.2f}/{run['host_speed_median']:.2f}/"
              f"{run['host_speed_max']:.2f}, ops {child['ok']}/"
              f"{child['attempted']}, latency samples "
              f"{child['latency_samples']}, p99 {child['op_latency_p99_ms']:.4g} "
              f"ms, {child['extra']}")
    for problem in result["problems"]:
        print(f"CHECK FAILED {name}: {problem}")


def wire_result(result: dict) -> str:
    """The contract's last-line JSON object."""
    return json.dumps({key: result[key] for key in
                       ("correct", "attempted", "failed", "metrics")})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="raw measured seconds per invocation "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="traced pair instead of the end-to-end children")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run N times, writing one result file each")
    parser.add_argument("--out", default=None,
                        help="result file (with --repeat: FILE.1, FILE.2, ...)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("bench: src/repro not found next to bench/", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    # The "build": byte-compile once so that no child pays for it in setup_s.
    compileall.compile_dir(str(ROOT / "src"), quiet=2)
    compileall.compile_dir(str(ROOT / "bench"), quiet=2)

    names = [args.workload] if args.workload else list(WORKLOADS)
    status = 0
    for repeat in range(args.repeat):
        results = {}
        for name in names:
            try:
                result = run_workload(name, args.seed, seconds,
                                      bool(args.trace))
            except (BenchError, subprocess.TimeoutExpired) as exc:
                print(f"bench: {exc}", file=sys.stderr)
                return 1
            results[name] = result
            report(name, result)
            if not result["correct"]:
                status = 1
        if args.out:
            path = args.out if args.repeat == 1 else f"{args.out}.{repeat + 1}"
            Path(path).write_text(json.dumps(
                {"seed": args.seed, "seconds": seconds,
                 "trace": bool(args.trace), "workloads": results}, indent=1))
        print(wire_result(results[names[-1]]))
    return status


if __name__ == "__main__":
    sys.exit(main())
