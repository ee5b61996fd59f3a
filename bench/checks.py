"""Output checks, run on every invocation.

A workload records what it can see going wrong while it runs (phantom reads,
duplicate deliveries, ``sent != delivered + dropped``, decode errors, an echo
that is not field-equal to its original) under ``problems``; this module adds
the checks that need the finished result, and the traced-versus-untraced
comparison.  Any problem makes the invocation report ``correct: false`` and
exit non-zero.
"""

from __future__ import annotations

#: Largest share of ops that may fail before the run itself is suspect.  The
#: workloads are sized so that none fails; `failed` reports the exact count.
MAX_FAIL_RATIO = {
    "chord_kv_churn": 0.05,
    "scribe_pubsub": 0.05,
    "emulator_steady": 0.05,
    "emulator_flap": 0.05,
    "live_framing": 0.0,
}

#: Simulated results: identical between two runs of one seed, traced or not.
_EXACT_SIM = ("attempted", "ok", "net_pkts", "counts", "latency_samples",
              "op_latency_p50_ms", "op_latency_p90_ms", "op_latency_p99_ms")
#: live_framing's latencies are wall time; its counts are still exact.
_EXACT_LIVE = ("attempted", "ok", "net_pkts", "counts", "latency_samples")


def check_child(result: dict) -> list[str]:
    """Problems with one child's result (empty when it is sound)."""
    name = result["workload"]
    problems = [f"seed {result['seed']}: {problem}"
                for problem in result["problems"]]
    attempted, ok = result["attempted"], result["ok"]
    if attempted < 1:
        problems.append(f"seed {result['seed']}: no op attempted")
    elif (attempted - ok) / attempted > MAX_FAIL_RATIO[name]:
        problems.append(
            f"seed {result['seed']}: {attempted - ok} of {attempted} ops "
            f"failed (limit {MAX_FAIL_RATIO[name]:.0%})")
    if result["latency_samples"] != ok:
        problems.append(
            f"seed {result['seed']}: {result['latency_samples']} latency "
            f"samples for {ok} successful ops")
    return problems


def exact_keys(name: str) -> tuple[str, ...]:
    return _EXACT_LIVE if name == "live_framing" else _EXACT_SIM


def check_pair(first: dict, second: dict) -> list[str]:
    """Two runs of one workload and seed must agree on every count and every
    simulated latency (used for traced vs untraced, and for repeats)."""
    return [f"{key} differs between two runs of seed {first['seed']}: "
            f"{first[key]!r} vs {second[key]!r}"
            for key in exact_keys(first["workload"])
            if first[key] != second[key]]
