"""Seed-pinned scenario fuzzer with shrinking and replayable artifacts.

The scenario engine makes every run a pure function of ``(spec, seed)``, and
:mod:`repro.eval.invariants` states what must hold at the end of any run.
This module closes the loop: generate random-but-valid
:class:`~repro.eval.scenario.ScenarioSpec` values from a bounded grammar,
run them across the protocol registry, and assert the invariants.  On a
violation the failing spec is *shrunk* — models dropped, intensities halved —
to a minimal spec that still violates the same invariants, and the result is
written as a JSON artifact that replays the failure deterministically::

    python scripts/run_fuzz.py --count 50 --seed 1
    python scripts/run_fuzz.py --replay artifacts/fuzz/fuzz-3417784430.json

Design constraints baked into the grammar:

* exactly one join model (churn or flash crowd) so the population always
  comes up;
* every fault ends at least ``settle`` seconds before the scenario does, so
  the ring-convergence invariant is checkable rather than vacuous;
* a route workload always runs, so the delivery invariants have traffic to
  judge;
* a KV workload always rides along, so the quorum-consistency invariants
  (phantom reads, read-your-quorum-writes, write durability) have
  observations to judge — placed after the settle window half the time,
  which arms the stable-membership consistency check;
* link faults target :data:`~repro.eval.library.STUB_UPLINK_EDGES`, which
  exist in every generated transit-stub topology, and are only ever cut
  *directionally* or degraded — never fully severed.
"""

from __future__ import annotations

import json
import random
import traceback
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

from ..runtime.failure import FailureDetectorConfig
from .invariants import InvariantViolation, check_invariants
from .library import FAST_FAILURE, PROTOCOLS, STUB_UPLINK_EDGES, resolve_protocol
from .runner import fork_map
from .scenario import (
    ChurnModel,
    CorrelatedCrashModel,
    CrashModel,
    DegradeModel,
    FlappingPartitionModel,
    FlashCrowdModel,
    GroupModel,
    PartitionModel,
    ScenarioError,
    ScenarioModel,
    ScenarioSpec,
    WorkloadModel,
)

#: Artifact schema identifier (bump on incompatible format changes).
ARTIFACT_SCHEMA = "repro.fuzz/1"

#: Model classes the grammar and the serialiser know about.
MODEL_TYPES: dict[str, type] = {
    cls.__name__: cls for cls in (
        ChurnModel, CrashModel, PartitionModel, FlashCrowdModel,
        CorrelatedCrashModel, FlappingPartitionModel, DegradeModel,
        GroupModel, WorkloadModel,
    )
}


@dataclass(frozen=True)
class FuzzConfig:
    """Bounds of the scenario grammar.

    ``protocols`` names :data:`~repro.eval.library.PROTOCOLS` rows, so every
    case runs a protocol generated from a ``.mac`` specification; the default
    is Chord, the bundled protocol ``ring_eventually_correct`` can judge.
    """

    protocols: tuple[str, ...] = ("chord",)
    min_nodes: int = 6
    max_nodes: int = 12
    min_duration: float = 150.0
    max_duration: float = 220.0
    #: Fault-free seconds guaranteed at the end of every generated scenario.
    #: It was sized to a transport that stayed wedged after a heal: a
    #: connection that lived through a long cut backed off to MAX_RTO (30 s)
    #: and waited out two such timers before a rejoin completed.  Since a
    #: backed-off connection retransmits as soon as the peer is heard from,
    #: a ring converges within seconds of the last heal, but the value stays:
    #: it is drawn into every generated case (``fault_end``, KV start), so
    #: changing it changes the cases a seed produces.
    settle: float = 80.0
    #: Fault models layered on top of the join model (0..max per spec).
    max_fault_models: int = 2
    ring_threshold: float = 0.95
    #: Shrinking budget: candidate re-runs before giving up on minimality.
    max_shrink_runs: int = 40

    def __post_init__(self) -> None:
        if not self.protocols:
            raise ScenarioError("FuzzConfig needs at least one protocol")
        for name in self.protocols:
            resolve_protocol(name)
        if self.min_nodes < 4:
            raise ScenarioError("fuzzed scenarios need at least 4 nodes")
        if self.max_nodes < self.min_nodes:
            raise ScenarioError("max_nodes < min_nodes")
        if self.min_duration <= self.settle + 40.0:
            raise ScenarioError(
                "min_duration must leave room for faults before the settle "
                "window")


DEFAULT_CONFIG = FuzzConfig()


# ------------------------------------------------------------------- grammar
def _gen_join_model(rng: random.Random, num_nodes: int,
                    fault_end: float) -> ScenarioModel:
    if rng.random() < 0.5:
        churn_fraction = rng.choice((0.0, 0.25, 0.5))
        churn_end = round(rng.uniform(50.0, fault_end), 2)
        return ChurnModel(join="staggered", join_spacing=0.5,
                          churn_fraction=churn_fraction,
                          churn_start=25.0, churn_end=churn_end,
                          downtime=round(rng.uniform(5.0, 12.0), 2))
    core = rng.randint(2, max(2, num_nodes // 3))
    stay = round(rng.uniform(20.0, 35.0), 2) if rng.random() < 0.4 else None
    # Burst joins land within a few seconds of `at`; keep `at` well clear of
    # fault_end so stragglers (and optional departures) stay inside it.
    margin = 15.0 + (stay or 0.0)
    at = round(rng.uniform(15.0, max(16.0, fault_end - margin - 10.0)), 2)
    return FlashCrowdModel(core=core, core_spacing=0.5, at=at,
                           burst_rate=round(rng.uniform(5.0, 20.0), 2),
                           stay=stay)


def _gen_fault_model(rng: random.Random, num_nodes: int,
                     fault_end: float) -> ScenarioModel:
    kind = rng.choice(("correlated-crash", "crash", "flapping", "degrade"))
    if kind == "correlated-crash":
        at = round(rng.uniform(25.0, fault_end - 35.0), 2)
        recover = round(rng.uniform(15.0, 30.0), 2)
        return CorrelatedCrashModel(at=at, racks=1, recover_after=recover)
    if kind == "crash":
        # An uncorrelated fail-stop kill of a sampled fraction — unlike the
        # rack model, this one has a live equivalent (real SIGKILLs), so it
        # keeps the differential harness supplied with runnable artifacts.
        at = round(rng.uniform(25.0, fault_end - 35.0), 2)
        recover = (round(rng.uniform(10.0, 25.0), 2)
                   if rng.random() < 0.75 else None)
        return CrashModel(at=at, fraction=rng.choice((0.2, 0.3)),
                          recover_after=recover)
    if kind == "flapping":
        period = round(rng.uniform(10.0, 18.0), 2)
        # Cap cycles so the last heal (at + cycles*period) fits before the
        # settle window even at the earliest start.
        cycles = rng.randint(1, max(1, min(3, int((fault_end - 25.0) / period))))
        at = round(rng.uniform(25.0, max(26.0, fault_end - cycles * period)), 2)
        if rng.random() < 0.5:
            split = rng.randint(2, num_nodes - 2)
            groups = (tuple(range(split)), tuple(range(split, num_nodes)))
            return FlappingPartitionModel(at=at, period=period, duty=0.5,
                                          cycles=cycles, groups=groups)
        links = STUB_UPLINK_EDGES[:rng.randint(1, len(STUB_UPLINK_EDGES))]
        return FlappingPartitionModel(at=at, period=period, duty=0.5,
                                      cycles=cycles, links=links,
                                      directed=True)
    duration_of_fault = round(rng.uniform(20.0, 40.0), 2)
    at = round(rng.uniform(25.0, max(26.0, fault_end - duration_of_fault)), 2)
    bandwidth_factor = round(rng.uniform(0.05, 0.5), 2)
    latency_factor = round(rng.uniform(2.0, 8.0), 2)
    if rng.random() < 0.5:
        return DegradeModel(at=at, restore_after=duration_of_fault,
                            host_fraction=rng.choice((0.25, 0.4)),
                            bandwidth_factor=bandwidth_factor,
                            latency_factor=latency_factor)
    links = STUB_UPLINK_EDGES[:rng.randint(1, len(STUB_UPLINK_EDGES))]
    return DegradeModel(at=at, restore_after=duration_of_fault, links=links,
                        bandwidth_factor=bandwidth_factor,
                        latency_factor=latency_factor)


def generate_spec(seed: int,
                  config: FuzzConfig = DEFAULT_CONFIG) -> ScenarioSpec:
    """One random valid spec; a pure function of ``(seed, config)``."""
    rng = random.Random(seed)
    protocol = rng.choice(config.protocols)
    num_nodes = rng.randint(config.min_nodes, config.max_nodes)
    duration = float(rng.randint(int(config.min_duration),
                                 int(config.max_duration)))
    fault_end = duration - config.settle
    models: list[ScenarioModel] = [_gen_join_model(rng, num_nodes, fault_end)]
    for _ in range(rng.randint(0, config.max_fault_models)):
        models.append(_gen_fault_model(rng, num_nodes, fault_end))
    if rng.random() < 0.2 and fault_end >= 70.0:
        # A correlated degrade+crash combo: some hosts limp (degraded access
        # links), then a kill lands mid-limp — the compound failure mode
        # where straggler mitigation and failure detection fight each other.
        degrade_at = round(rng.uniform(25.0, fault_end - 45.0), 2)
        degrade_span = round(rng.uniform(25.0, 40.0), 2)
        models.append(DegradeModel(
            at=degrade_at, restore_after=degrade_span,
            host_fraction=0.25,
            bandwidth_factor=round(rng.uniform(0.1, 0.4), 2),
            latency_factor=round(rng.uniform(3.0, 6.0), 2)))
        models.append(CrashModel(
            at=round(degrade_at + degrade_span / 2, 2), fraction=0.2,
            recover_after=round(rng.uniform(10.0, 20.0), 2)))
    models.append(WorkloadModel(kind="route", source=-1, start=15.0,
                                packets=max(10, int((duration - 20.0) / 2.5)),
                                gap=2.5))
    # The KV workload rides along for the quorum invariants: after the
    # settle window half the time (stable membership arms the
    # read-your-quorum-writes check), through the faults otherwise
    # (exercising phantom-read and durability accounting under churn).
    if rng.random() < 0.5:
        kv_start = round(fault_end + config.settle / 4, 2)
        kv_gap = 1.0
    else:
        kv_start = 20.0
        kv_gap = 2.0
    models.append(WorkloadModel(
        kind="kv", label="kv", start=kv_start,
        packets=max(10, int((duration - 10.0 - kv_start) / kv_gap)),
        gap=kv_gap, packet_bytes=100,
        keys=rng.choice((16, 64)),
        read_fraction=rng.choice((0.5, 0.7)),
        repair_gap=rng.choice((0.0, 10.0))))
    return ScenarioSpec(
        name=f"fuzz-{seed}",
        agents=resolve_protocol(protocol),
        num_nodes=num_nodes,
        duration=duration,
        seed=seed,
        random_loss_rate=rng.choice((0.0, 0.0, 0.01)),
        failure_config=FAST_FAILURE,
        models=tuple(models),
    )


# -------------------------------------------------------------- serialisation
def protocol_name_of(spec: ScenarioSpec) -> str:
    """Reverse-resolve a spec's agents callable to its registry name."""
    for name, factory in PROTOCOLS.items():
        if factory is spec.agents:
            return name
    raise ScenarioError(
        "spec's agents are not a registered protocol factory; only specs "
        "built from repro.eval.library.PROTOCOLS serialise")


def spec_to_dict(spec: ScenarioSpec) -> dict:
    """JSON-ready form of a registry-built spec (topology stays implicit)."""
    if spec.topology is not None or spec.samples or spec.configure:
        raise ScenarioError(
            "only specs with default topology and no samples/configure "
            "hooks serialise to artifacts")
    return {
        "name": spec.name,
        "protocol": protocol_name_of(spec),
        "num_nodes": spec.num_nodes,
        "duration": spec.duration,
        "seed": spec.seed,
        "random_loss_rate": spec.random_loss_rate,
        "strict_locking": spec.strict_locking,
        "failure_config": (asdict(spec.failure_config)
                           if spec.failure_config else None),
        "models": [dict(asdict(model), model=type(model).__name__)
                   for model in spec.models],
    }


def _retuple(value):
    """JSON round-trips tuples as lists; model fields are always tuples."""
    if isinstance(value, list):
        return tuple(_retuple(item) for item in value)
    return value


def model_from_dict(data: dict) -> ScenarioModel:
    data = dict(data)
    type_name = data.pop("model", None)
    try:
        cls = MODEL_TYPES[type_name]
    except KeyError:
        raise ScenarioError(f"unknown scenario model type {type_name!r}") \
            from None
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ScenarioError(
            f"{type_name} artifact has unknown fields {sorted(unknown)}")
    return cls(**{key: _retuple(value) for key, value in data.items()})


def spec_from_dict(data: dict) -> ScenarioSpec:
    failure = data.get("failure_config")
    return ScenarioSpec(
        name=data["name"],
        agents=resolve_protocol(data["protocol"]),
        num_nodes=data["num_nodes"],
        duration=data["duration"],
        seed=data["seed"],
        random_loss_rate=data.get("random_loss_rate", 0.0),
        strict_locking=data.get("strict_locking", True),
        failure_config=FailureDetectorConfig(**failure) if failure else None,
        models=tuple(model_from_dict(item) for item in data["models"]),
    )


# ------------------------------------------------------------------ execution
def run_case(spec: ScenarioSpec,
             config: FuzzConfig = DEFAULT_CONFIG) -> list[InvariantViolation]:
    """Run one spec and return its invariant violations."""
    result = spec.run()
    return check_invariants(result, ring_threshold=config.ring_threshold,
                            ring_settle=config.settle)


def _violated_names(violations: Sequence[InvariantViolation]) -> frozenset:
    return frozenset(violation.invariant for violation in violations)


def _shrink_candidates(spec: ScenarioSpec) -> "list[ScenarioSpec]":
    """Structurally smaller specs to try, most aggressive first."""
    candidates: list[ScenarioSpec] = []
    # 1. Drop whole models (never the workload: the delivery invariants need
    #    traffic, and a spec with no observations reproduces nothing).
    for index, model in enumerate(spec.models):
        if isinstance(model, WorkloadModel):
            continue
        models = spec.models[:index] + spec.models[index + 1:]
        candidates.append(replace(spec, models=models))
    # 2. Halve the population (model validation may reject out-of-range
    #    indices; the runner treats ScenarioError candidates as failures to
    #    reproduce and moves on).
    if spec.num_nodes > 4:
        candidates.append(replace(spec, num_nodes=max(4, spec.num_nodes // 2)))
    # 3. Weaken individual models.
    for index, model in enumerate(spec.models):
        for weakened in model.weakened():
            models = (spec.models[:index] + (weakened,)
                      + spec.models[index + 1:])
            candidates.append(replace(spec, models=models))
    return candidates


def shrink(spec: ScenarioSpec, violations: Sequence[InvariantViolation],
           config: FuzzConfig = DEFAULT_CONFIG,
           log: Callable[[str], None] = lambda _: None
           ) -> tuple[ScenarioSpec, list[InvariantViolation]]:
    """Greedily minimise *spec* while it violates the same invariant set.

    Returns the smallest spec found and its violations.  Every accepted
    candidate was actually re-run, so the result is always a confirmed
    reproduction, never an extrapolation.
    """
    target = _violated_names(violations)
    best, best_violations = spec, list(violations)
    runs = 0
    progress = True
    while progress and runs < config.max_shrink_runs:
        progress = False
        for candidate in _shrink_candidates(best):
            if runs >= config.max_shrink_runs:
                break
            runs += 1
            try:
                candidate_violations = run_case(candidate, config)
            except ScenarioError:
                continue  # shrank into an invalid spec; not a reproduction
            if _violated_names(candidate_violations) == target:
                log(f"  shrink: kept {len(candidate.models)} models, "
                    f"{candidate.num_nodes} nodes after {runs} runs")
                best, best_violations = candidate, candidate_violations
                progress = True
                break
    return best, best_violations


# ------------------------------------------------------------------ artifacts
def write_artifact(path: Path, *, seed: int, original: ScenarioSpec,
                   shrunk: ScenarioSpec,
                   violations: Sequence[InvariantViolation],
                   error: Optional[str] = None) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    # Tag whether the shrunk spec can also boot as a live deployment, so
    # the differential harness (scripts/run_diff.py --artifact) can pick
    # live-runnable repros without trial-compiling every file.  Tagging is
    # best-effort: a tagging failure never loses the artifact itself.
    try:
        from ..live.faults import live_runnable
        runnable, blocker = live_runnable(shrunk)
    except Exception as exc:  # pragma: no cover - defensive
        runnable, blocker = False, f"live_runnable probe failed: {exc}"
    payload = {
        "schema": ARTIFACT_SCHEMA,
        "seed": seed,
        "violations": [{"invariant": v.invariant, "detail": v.detail}
                       for v in violations],
        "spec": spec_to_dict(shrunk),
        "original_spec": spec_to_dict(original),
        "live_runnable": runnable,
        "live_blocker": blocker,
    }
    if error is not None:
        # An unhandled exception, not an invariant violation: the traceback
        # travels in the artifact so the crash replays with full context.
        payload["error"] = error
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def replay_artifact(path: Path,
                    config: FuzzConfig = DEFAULT_CONFIG
                    ) -> list[InvariantViolation]:
    """Re-run an artifact's shrunk spec; returns the violations seen now."""
    payload = json.loads(Path(path).read_text())
    if payload.get("schema") != ARTIFACT_SCHEMA:
        raise ScenarioError(
            f"artifact {path} has schema {payload.get('schema')!r}, "
            f"expected {ARTIFACT_SCHEMA!r}")
    return run_case(spec_from_dict(payload["spec"]), config)


# ----------------------------------------------------------------- the fuzzer
@dataclass
class FuzzFailure:
    """One failing case: invariant-violating (fully shrunk) or crashed."""

    case_seed: int
    violations: list[InvariantViolation]
    spec: ScenarioSpec
    artifact: Optional[Path] = None
    #: Traceback text when the case raised instead of violating an
    #: invariant.  A crashed case is a campaign failure like any other —
    #: ``FuzzReport.ok`` goes false, so the caller's exit status can never
    #: green-wash a crash.
    error: Optional[str] = None


@dataclass
class FuzzReport:
    """Outcome of one fuzzing campaign."""

    cases: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def fuzz(count: int, seed: int, *,
         config: FuzzConfig = DEFAULT_CONFIG,
         artifact_dir: Optional[Path] = None,
         jobs: int = 1,
         log: Callable[[str], None] = lambda _: None) -> FuzzReport:
    """Run *count* generated scenarios; shrink and record every violation.

    Case seeds derive from *seed* via an independent RNG, so ``fuzz(50, 1)``
    explores the same 50 cases on every machine, and any failing case replays
    as ``generate_spec(case_seed)`` with no further state.

    A case that *crashes* (any unhandled exception out of the scenario
    engine) does not abort the campaign: it is recorded as a
    :class:`FuzzFailure` carrying the traceback, the remaining cases still
    run, and the report comes back not-ok — so a crash can never be
    green-washed into a passing campaign, and one broken case cannot hide
    violations in the cases behind it.

    ``jobs > 1`` executes the cases in that many forked worker processes
    (cases are independent by construction); shrinking of failing cases
    still happens in this process, serially.
    """
    rng = random.Random(seed)
    case_seeds = [rng.randrange(2 ** 32) for _ in range(count)]

    def execute(case_seed: int):
        """('ok', violations) or ('crash', traceback) for one case."""
        spec = generate_spec(case_seed, config)
        try:
            return ("ok", run_case(spec, config))
        except Exception:
            return ("crash", traceback.format_exc())

    outcomes = None
    if jobs > 1:
        outcomes = fork_map(execute, case_seeds, jobs=jobs, label="fuzz case")

    report = FuzzReport()
    for index, case_seed in enumerate(case_seeds):
        spec = generate_spec(case_seed, config)
        protocol = protocol_name_of(spec)
        kind, payload = outcomes[index] if outcomes is not None \
            else execute(case_seed)
        report.cases += 1
        if kind == "crash":
            log(f"case {index + 1}/{count} seed={case_seed} {protocol}: "
                f"CRASH\n{payload}")
            failure = FuzzFailure(case_seed=case_seed, violations=[],
                                  spec=spec, error=payload)
            if artifact_dir is not None:
                failure.artifact = (Path(artifact_dir)
                                    / f"fuzz-{case_seed}.json")
                write_artifact(failure.artifact, seed=case_seed,
                               original=spec, shrunk=spec, violations=[],
                               error=payload)
                log(f"  artifact: {failure.artifact}")
            report.failures.append(failure)
            continue
        violations = payload
        if not violations:
            log(f"case {index + 1}/{count} seed={case_seed} "
                f"{protocol}/{spec.num_nodes}n/{spec.duration:.0f}s "
                f"{len(spec.models)} models: ok")
            continue
        log(f"case {index + 1}/{count} seed={case_seed} {protocol}: "
            f"VIOLATION {sorted(_violated_names(violations))}")
        shrunk, shrunk_violations = shrink(spec, violations, config, log)
        failure = FuzzFailure(case_seed=case_seed,
                              violations=shrunk_violations, spec=shrunk)
        if artifact_dir is not None:
            failure.artifact = Path(artifact_dir) / f"fuzz-{case_seed}.json"
            write_artifact(failure.artifact, seed=case_seed, original=spec,
                           shrunk=shrunk, violations=shrunk_violations)
            log(f"  artifact: {failure.artifact}")
        report.failures.append(failure)
    return report
