"""Curated adversarial scenario library.

Each entry names one stress pattern the paper's evaluation (and a decade of
overlay deployments) says a protocol must survive — flash crowds, rack
failures, flapping and asymmetric partitions, bottleneck links, slow nodes,
churn storms — bound to a concrete protocol stack and tuned so that
:mod:`repro.eval.invariants` is checkable at the end (every entry leaves a
fault-free settle window before the scenario ends).

Entries are plain :class:`~repro.eval.scenario.ScenarioSpec` builders::

    from repro.eval.library import LIBRARY, library_spec

    spec = library_spec("flash-crowd")        # seed 0
    summary = ScenarioRunner(spec, seeds=[1, 2, 3]).run()

The :data:`PROTOCOLS` table names the fuzzer's and the library's protocols,
each a :class:`~repro.eval.scenario.Stack` value generated from
``specs/*.mac``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from ..runtime.failure import FailureDetectorConfig
from .scenario import (
    ChurnModel,
    CorrelatedCrashModel,
    DegradeModel,
    FlappingPartitionModel,
    FlashCrowdModel,
    GroupModel,
    ScenarioError,
    ScenarioSpec,
    Stack,
    WorkloadModel,
)


#: Protocol table: name -> :class:`Stack`.  Chord exposes a ``successor``
#: pointer, so the ring-convergence invariant is live for it; Pastry and
#: Scribe-over-Pastry (Scribe's declared base) exercise the prefix-routing
#: family where only the transport/delivery invariants apply.
PROTOCOLS: dict[str, Stack] = {
    "chord": Stack("chord"),
    "pastry": Stack("pastry"),
    "scribe-pastry": Stack("scribe"),
}


def resolve_protocol(name: str) -> Stack:
    """The stack for *name* (raises ScenarioError if unknown)."""
    try:
        return PROTOCOLS[name]
    except KeyError:
        raise ScenarioError(
            f"unknown protocol {name!r}; library protocols are "
            f"{sorted(PROTOCOLS)}") from None


#: Aggressive failure detection (the paper's f=10 s, g=4 s operating point):
#: adversarial scenarios are short, so detection must be fast enough that the
#: overlay actually reacts within the run.
FAST_FAILURE = FailureDetectorConfig(failure_timeout=10.0,
                                     heartbeat_timeout=4.0,
                                     check_interval=1.0)

#: Stub-domain uplink edges that exist in every generated transit-stub
#: topology regardless of seed: node ids are allocated deterministically
#: (transit routers 0..9, then stub domains of 4 routers from id 10), and
#: each domain's first router uplinks to its transit anchor — so (10, 0) and
#: (14, 0) are the uplinks of the first two stub domains.  Small populations
#: attach entirely to the first few domains, so these edges carry all their
#: inter-domain traffic; they are only ever degraded or cut *directionally*
#: here (a full cut would disconnect the domain outright).
STUB_UPLINK_EDGES = ((10, 0), (14, 0))


@dataclass(frozen=True)
class LibraryEntry:
    """One named adversarial scenario: metadata plus a spec builder."""

    name: str
    protocol: str
    summary: str
    build: Callable[[], ScenarioSpec]

    def spec(self, seed: int = 0) -> ScenarioSpec:
        return replace(self.build(), seed=seed)


def _base_spec(name: str, protocol: str, *, num_nodes: int, duration: float,
               models: tuple, loss: float = 0.0) -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        agents=resolve_protocol(protocol),
        num_nodes=num_nodes,
        duration=duration,
        random_loss_rate=loss,
        failure_config=FAST_FAILURE,
        models=models,
    )


# ------------------------------------------------------------------- builders
def _flash_crowd() -> ScenarioSpec:
    # A small warm core, then 8 nodes join in a Poisson burst; lookups keep
    # running through the arrival wave.  Last joins land ~26 s, leaving a
    # >100 s settle window for ring convergence.
    return _base_spec(
        "flash-crowd", "chord", num_nodes=12, duration=140.0,
        models=(
            FlashCrowdModel(core=4, core_spacing=0.5, at=25.0, burst_rate=10.0),
            WorkloadModel(kind="route", source=-1, start=15.0, packets=40,
                          gap=2.5),
        ))


def _flash_crowd_departure() -> ScenarioSpec:
    # The same burst, but the crowd leaves again after 30 s — the mass-
    # departure half of a flash crowd, which stresses failure detection.
    return _base_spec(
        "flash-crowd-departure", "chord", num_nodes=12, duration=150.0,
        models=(
            FlashCrowdModel(core=4, core_spacing=0.5, at=25.0, burst_rate=10.0,
                            stay=30.0),
            WorkloadModel(kind="route", source=-1, start=15.0, packets=40,
                          gap=2.5),
        ))


def _rack_failure() -> ScenarioSpec:
    # Two of the three failure domains power-cycle at once (a correlated
    # crash, not independent churn) and come back 25 s later.
    return _base_spec(
        "rack-failure", "chord", num_nodes=12, duration=140.0,
        models=(
            ChurnModel(join="staggered", join_spacing=0.5, churn_fraction=0.0),
            CorrelatedCrashModel(at=30.0, racks=2, recover_after=25.0),
            WorkloadModel(kind="route", source=-1, start=20.0, packets=40,
                          gap=2.5),
        ))


def _flapping_partition() -> ScenarioSpec:
    # A host partition that heals and re-cuts three times: 8 s cut / 8 s
    # healed, so the failure detector keeps being almost-right.  Last heal at
    # 30 + 2*16 + 8 = 70 s.
    return _base_spec(
        "flapping-partition", "chord", num_nodes=10, duration=140.0,
        models=(
            ChurnModel(join="staggered", join_spacing=0.5, churn_fraction=0.0),
            FlappingPartitionModel(at=30.0, period=16.0, duty=0.5, cycles=3,
                                   groups=((0, 1, 2, 3, 4), (5, 6, 7, 8, 9))),
            WorkloadModel(kind="route", source=-1, start=20.0, packets=40,
                          gap=2.5),
        ))


def _asymmetric_partition() -> ScenarioSpec:
    # One-directional blackholes on the two stub-domain uplinks: packets flow
    # one way but not the other, the failure mode that most confuses
    # heartbeat-based detectors.  Two flap cycles, last heal at 54 s.
    return _base_spec(
        "asymmetric-partition", "chord", num_nodes=10, duration=130.0,
        models=(
            ChurnModel(join="staggered", join_spacing=0.5, churn_fraction=0.0),
            FlappingPartitionModel(at=30.0, period=16.0, duty=0.5, cycles=2,
                                   links=STUB_UPLINK_EDGES, directed=True),
            WorkloadModel(kind="route", source=-1, start=20.0, packets=40,
                          gap=2.5),
        ))


def _bottleneck_links() -> ScenarioSpec:
    # Uplink congestion: the two stub-domain uplinks drop to 5% bandwidth and
    # 4x latency for 40 s, then recover.
    return _base_spec(
        "bottleneck-links", "chord", num_nodes=10, duration=130.0,
        models=(
            ChurnModel(join="staggered", join_spacing=0.5, churn_fraction=0.0),
            DegradeModel(at=25.0, restore_after=40.0, links=STUB_UPLINK_EDGES,
                         bandwidth_factor=0.05, latency_factor=4.0),
            WorkloadModel(kind="route", source=-1, start=20.0, packets=40,
                          gap=2.5),
        ))


def _slow_nodes() -> ScenarioSpec:
    # 30% of the membership gets 8x access latency and 20% bandwidth for
    # 40 s — straggler nodes, not dead ones, so the detector must not evict
    # them while the protocol limps.
    return _base_spec(
        "slow-nodes", "chord", num_nodes=12, duration=130.0,
        models=(
            ChurnModel(join="staggered", join_spacing=0.5, churn_fraction=0.0),
            DegradeModel(at=25.0, restore_after=40.0, host_fraction=0.3,
                         bandwidth_factor=0.2, latency_factor=8.0),
            WorkloadModel(kind="route", source=-1, start=20.0, packets=40,
                          gap=2.5),
        ))


def _churn_storm() -> ScenarioSpec:
    # Half the membership fail-stops and rejoins inside a 45 s window, on a
    # lossy network — the paper's churn experiment pushed to the edge.
    return _base_spec(
        "churn-storm", "chord", num_nodes=12, duration=150.0,
        loss=0.01,
        models=(
            ChurnModel(join="staggered", join_spacing=0.5, churn_fraction=0.5,
                       churn_start=25.0, churn_end=70.0, downtime=8.0),
            WorkloadModel(kind="route", source=-1, start=20.0, packets=50,
                          gap=2.0),
        ))


def _partition_under_churn() -> ScenarioSpec:
    # Churn and a 20 s host partition overlap, so some nodes crash while
    # partitioned and recover into a healed network (and vice versa).
    return _base_spec(
        "partition-under-churn", "chord", num_nodes=12, duration=150.0,
        models=(
            ChurnModel(join="staggered", join_spacing=0.5, churn_fraction=0.34,
                       churn_start=25.0, churn_end=65.0, downtime=10.0),
            FlappingPartitionModel(at=35.0, period=40.0, duty=0.5, cycles=1,
                                   groups=((0, 1, 2, 3, 4, 5),
                                           (6, 7, 8, 9, 10, 11))),
            WorkloadModel(kind="route", source=-1, start=20.0, packets=50,
                          gap=2.0),
        ))


def _scribe_flapping() -> ScenarioSpec:
    # Scribe-over-Pastry multicast through flapping directed cuts of the
    # stub-domain uplinks: the dissemination tree must survive repeated
    # rendezvous-point unreachability.  Last heal at 35 + 16 + 8 = 59 s.
    return _base_spec(
        "scribe-flapping", "scribe-pastry", num_nodes=10, duration=130.0,
        models=(
            ChurnModel(join="staggered", join_spacing=0.5, churn_fraction=0.0),
            GroupModel(group=7, source=0, at=12.0, spacing=0.5),
            FlappingPartitionModel(at=35.0, period=16.0, duty=0.5, cycles=2,
                                   links=STUB_UPLINK_EDGES, directed=True),
            WorkloadModel(kind="multicast", source=0, group=7, start=25.0,
                          packets=40, gap=1.5),
        ))


#: The curated library, in presentation order.
LIBRARY: tuple[LibraryEntry, ...] = (
    LibraryEntry("flash-crowd", "chord",
                 "Poisson burst of joins against a small warm core",
                 _flash_crowd),
    LibraryEntry("flash-crowd-departure", "chord",
                 "flash crowd arrives, stays 30 s, then mass-departs",
                 _flash_crowd_departure),
    LibraryEntry("rack-failure", "chord",
                 "two failure domains power-cycle simultaneously",
                 _rack_failure),
    LibraryEntry("flapping-partition", "chord",
                 "host partition cuts and heals three times",
                 _flapping_partition),
    LibraryEntry("asymmetric-partition", "chord",
                 "one-directional uplink blackholes, flapping",
                 _asymmetric_partition),
    LibraryEntry("bottleneck-links", "chord",
                 "stub uplinks at 5% bandwidth / 4x latency for 40 s",
                 _bottleneck_links),
    LibraryEntry("slow-nodes", "chord",
                 "30% of nodes straggle at 8x latency for 40 s",
                 _slow_nodes),
    LibraryEntry("churn-storm", "chord",
                 "half the membership churns in 45 s on a lossy network",
                 _churn_storm),
    LibraryEntry("partition-under-churn", "chord",
                 "churn overlapping a 20 s partition",
                 _partition_under_churn),
    LibraryEntry("scribe-flapping", "scribe-pastry",
                 "multicast through a flapping directed partition",
                 _scribe_flapping),
)

_BY_NAME = {entry.name: entry for entry in LIBRARY}


def library_names() -> list[str]:
    return [entry.name for entry in LIBRARY]


def library_entry(name: str) -> LibraryEntry:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ScenarioError(
            f"unknown library scenario {name!r}; "
            f"available: {library_names()}") from None


def library_spec(name: str, seed: int = 0) -> ScenarioSpec:
    """The named library scenario as a runnable spec."""
    return library_entry(name).spec(seed)
