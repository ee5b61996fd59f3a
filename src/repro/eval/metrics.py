"""Overlay evaluation metrics.

MACEDON's evaluation framework extracts global topology and routing
information from the emulation substrate to compute metrics that individual
nodes cannot measure themselves: latency stretch, relative delay penalty
(RDP), link stress, and routing-table convergence.  The functions here take
the emulator (global knowledge) plus application-level observations and return
the quantities the paper's figures report.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..network.emulator import NetworkEmulator
from ..runtime.keys import KeySpace
from ..runtime.node import MacedonNode


# ------------------------------------------------------------------ stretch/RDP
@dataclass(frozen=True)
class StretchSample:
    """Stretch of one delivered packet: overlay latency over direct IP latency."""

    receiver: int
    overlay_latency: float
    direct_latency: float

    @property
    def stretch(self) -> float:
        if self.direct_latency <= 0:
            return 1.0
        return self.overlay_latency / self.direct_latency


def stretch_samples(emulator: NetworkEmulator, source: int,
                    overlay_latencies: dict[int, float]) -> list[StretchSample]:
    """Stretch per receiver given measured overlay latencies from *source*.

    ``overlay_latencies`` maps receiver host address to the measured overlay
    end-to-end latency (seconds); the direct latency comes from the emulator's
    global routing information — exactly what the paper extracts from
    ModelNet.
    """
    samples = []
    for receiver, overlay in overlay_latencies.items():
        if receiver == source:
            continue
        direct = emulator.ip_latency(source, receiver)
        samples.append(StretchSample(receiver=receiver, overlay_latency=overlay,
                                     direct_latency=direct))
    return samples


def relative_delay_penalty(samples: Iterable[StretchSample]) -> float:
    """Mean stretch across receivers (a common definition of RDP)."""
    samples = list(samples)
    if not samples:
        return 0.0
    return sum(sample.stretch for sample in samples) / len(samples)


def mean(values: Sequence[float]) -> float:
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def percentile(values: Sequence[float], fraction: float) -> float:
    """Simple nearest-rank percentile (fraction in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[index]


def group_by_site(values: dict[int, float],
                  site_of: dict[int, int]) -> dict[int, list[float]]:
    """Bucket per-receiver values by site index (Figures 8 and 9 are per-site)."""
    buckets: dict[int, list[float]] = {}
    for receiver, value in values.items():
        site = site_of.get(receiver)
        if site is None:
            continue
        buckets.setdefault(site, []).append(value)
    return buckets


# -------------------------------------------------------------------- link stress
def link_stress(emulator: NetworkEmulator) -> dict[str, float]:
    """Link-stress summary: how many times application payloads re-crossed links.

    Uses the per-link payload counters the emulator collects (tagged
    application packets).  Returns max and mean stress over links that carried
    at least one tagged payload.
    """
    stresses = []
    for stats in emulator.link_stats().values():
        stress = stats.max_stress
        if stress > 0:
            stresses.append(stress)
    if not stresses:
        return {"max": 0.0, "mean": 0.0, "links": 0}
    return {"max": float(max(stresses)), "mean": mean([float(s) for s in stresses]),
            "links": len(stresses)}


# -------------------------------------------------------- Chord convergence (Fig 10)
def correct_chord_fingers(my_key: int, membership_keys: Sequence[tuple[int, int]],
                          *, num_fingers: int = 32,
                          key_space: Optional[KeySpace] = None) -> dict[int, tuple[int, int]]:
    """The globally correct finger table for a node, given full membership.

    ``membership_keys`` is a list of (key, addr) for every node in the ring.
    Correct finger *i* is the first node whose key is ≥ my_key + 2**i (mod
    2**bits) — the same calculation the paper performs with global knowledge
    of all joining nodes.
    """
    key_space = key_space or KeySpace()
    return _fingers_on(_ring(membership_keys), my_key, num_fingers,
                       key_space.size)


def _ring(membership_keys: Iterable[tuple[int, int]]) -> tuple[list, list]:
    """The membership sorted and deduplicated, and its keys alone: built
    once per snapshot, read by every node's oracle."""
    ordered = sorted(set(membership_keys))
    return ordered, [key for key, _ in ordered]


def _fingers_on(ring: tuple[list, list], my_key: int, num_fingers: int,
                size: int) -> dict[int, tuple[int, int]]:
    ordered, keys = ring
    correct: dict[int, tuple[int, int]] = {}
    for index in range(num_fingers):
        position = bisect.bisect_left(keys, (my_key + (1 << index)) % size)
        correct[index] = ordered[position if position < len(keys) else 0]
    return correct


def _correct_entries(agent, ring: tuple[list, list], num_fingers: int) -> int:
    correct = _fingers_on(ring, agent.my_key, num_fingers, agent.key_space.size)
    return sum(1 for index, entry in agent.finger_table().items()
               if correct.get(index) == tuple(entry))


def chord_correct_entry_count(agent, membership_keys: Sequence[tuple[int, int]],
                              *, num_fingers: int = 32) -> int:
    """Number of finger-table entries of *agent* matching the correct table."""
    return _correct_entries(agent, _ring(membership_keys), num_fingers)


def average_correct_route_entries(nodes: Sequence[MacedonNode],
                                  protocol: str = "chord",
                                  *, num_fingers: int = 32) -> float:
    """Figure 10's y-axis: per-node average number of correct route entries."""
    agents = [node.agent(protocol) for node in nodes]
    ring = _ring((agent.my_key, node.address)
                 for agent, node in zip(agents, nodes))
    total = sum(_correct_entries(agent, ring, num_fingers) for agent in agents)
    return total / max(1, len(nodes))


def ring_rows(nodes: Iterable[MacedonNode]) -> list[tuple[int, int, int]]:
    """``(key, address, successor)`` of every joined, up node whose
    lowest-layer agent keeps a successor pointer: what a ring is scored on.
    The simulator files the rows of all its nodes, a live node process the
    row of its own."""
    rows = []
    for node in nodes:
        agent = node.lowest_agent
        if node.alive and node.initialized and hasattr(agent, "successor"):
            rows.append((agent.my_key, node.address, agent.successor))
    return rows


def correct_successor_fraction(rows: Sequence[tuple[int, int, int]]) -> float:
    """Fraction of *rows* (:func:`ring_rows`) whose successor pointer is
    ring-correct: the member with the next key clockwise among the rows.
    The rows are the global membership, so global knowledge lives with the
    scorer, in a live run exactly as ModelNet's does in the paper.  A
    singleton ring's correct successor is itself, so a stale pointer still
    scores 0; no rows score 0.0."""
    ordered = sorted(set(rows))
    if not ordered:
        return 0.0
    correct = sum(successor == ordered[(index + 1) % len(ordered)][1]
                  for index, (_key, _address, successor) in enumerate(ordered))
    return correct / len(ordered)


def ring_successor_correctness(nodes: Iterable[MacedonNode]) -> float:
    """:func:`correct_successor_fraction` over the joined nodes of a
    simulated ring (Figure 10's correct-route-entries metric for the
    successor pointer); 0.0 when no node is up."""
    return correct_successor_fraction(ring_rows(nodes))


# -------------------------------------------------------- application (KV) metrics
def zipf_cdf(keys: int, s: float) -> list[float]:
    """Cumulative popularity of *keys* ranks under Zipf(*s*): rank ``r`` has
    weight ``1 / (r + 1) ** s`` (``s=0`` is uniform).

    A workload draws a rank with ``bisect_left(cdf, rng.random())``; the
    last element is pinned to exactly ``1.0`` so that accumulated rounding
    can never leave a draw past the end.
    """
    weights = [1.0 / (rank + 1) ** s for rank in range(keys)]
    total_weight = sum(weights)
    cdf: list[float] = []
    acc = 0.0
    for weight in weights:
        acc += weight / total_weight
        cdf.append(acc)
    cdf[-1] = 1.0
    return cdf


def requests_per_second(completed: int, window: float) -> float:
    """Application throughput: completed client operations per second.

    ``window`` is the measurement span (workload start to scenario end) —
    the ROADMAP's north-star quantity when driven by the KV workload.
    """
    if window <= 0:
        return 0.0
    return completed / window


def quorum_staleness(reads: Iterable[tuple[int, int, float]],
                     writes: Iterable[tuple[int, int, float]]) -> int:
    """Count quorum reads that missed a write completed before they started.

    ``reads`` are completed reads as ``(key, version_returned, issued_at)``;
    ``writes`` are completed (quorum-acked) writes as ``(key, version,
    completed_at)``.  A read is *stale* when some write to its key completed
    strictly before the read was issued, yet the read returned a smaller
    version — the read-your-quorum-writes property ``R + W > N`` promises
    under stable membership.
    """
    by_key: dict[int, list[tuple[float, int]]] = {}
    for key, version, completed_at in writes:
        by_key.setdefault(key, []).append((completed_at, version))
    # Prefix-max over completion time: best[i] = max version completed at or
    # before time point i.
    prefix: dict[int, tuple[list[float], list[int]]] = {}
    for key, entries in by_key.items():
        entries.sort()
        times, best = [], []
        top = -1
        for completed_at, version in entries:
            top = max(top, version)
            times.append(completed_at)
            best.append(top)
        prefix[key] = (times, best)
    stale = 0
    for key, version, issued_at in reads:
        entry = prefix.get(key)
        if entry is None:
            continue
        times, best = entry
        position = bisect.bisect_left(times, issued_at)
        if position > 0 and version < best[position - 1]:
            stale += 1
    return stale


def phantom_reads(reads: Iterable[tuple[int, int]],
                  issued_writes: set[tuple[int, int]]) -> int:
    """Count reads returning a version that was never written to that key.

    ``reads`` are ``(key, version_returned)`` with ``-1`` meaning "not
    found" (never phantom); ``issued_writes`` is the set of ``(key,
    version)`` pairs any client ever issued.  A non-zero count means the
    store fabricated or cross-wired data — unconditionally a bug.
    """
    return sum(1 for key, version in reads
               if version >= 0 and (key, version) not in issued_writes)


def replica_coverage(stores: Sequence[dict[int, int]],
                     targets: dict[int, int], replicas: int) -> float:
    """How completely the live replica sets hold the latest acked writes.

    ``stores`` are the ``key -> version`` maps of every live node;
    ``targets`` maps each key to the highest quorum-completed version.  Each
    key scores ``min(holders, replicas) / replicas`` where a holder stores a
    version ≥ the target; the result is the mean over keys (1.0 = every
    acked write is fully N-way replicated among live nodes).
    """
    if not targets or replicas < 1:
        return 0.0
    score = 0.0
    for key, version in targets.items():
        holders = sum(1 for store in stores if store.get(key, -1) >= version)
        score += min(holders, replicas) / replicas
    return score / len(targets)


# ------------------------------------------------------------------ tree metrics
def multicast_tree_depths(nodes: Sequence[MacedonNode], protocol: str) -> dict[int, int]:
    """Depth of each node in a tree overlay (root depth 0); -1 if detached."""
    parent_of = {}
    for node in nodes:
        agent = node.agent(protocol)
        parent_of[node.address] = agent.parent_address()
    depths: dict[int, int] = {}
    for node in nodes:
        depth = 0
        current = node.address
        seen = set()
        while parent_of.get(current) is not None and current not in seen:
            seen.add(current)
            current = parent_of[current]
            depth += 1
            if depth > len(nodes):
                depth = -1
                break
        depths[node.address] = depth
    return depths
