"""Timeline pin of the scenario models: no compiled event may move.

Every curated library entry (seeds 0 and 1), forty fuzzer-generated specs and
a handful of hand-written specs covering the branches neither of those reach
(plain partitions, named crash victims, Poisson joins without rejoin) are
built, and each compiled model's ``(label, [(time, kind, detail, node) …],
metrics())`` is fed to one sha256.  ``PLAN_SHA256`` is that digest as the code
*before* the fault models became drawn rows produced it — computed on the
parent commit and committed unedited — so a change that claims to move no
simulated event (same RNG consumption, same event order, same kinds, same
detail strings, same owner nodes, same compile-time metrics) must reproduce
it bit for bit.  The method is that of
``tests/transport/test_reliable_wire_pin.py`` and
``tests/runtime/test_wire_pin.py``.
"""

from __future__ import annotations

import hashlib

from repro.eval.fuzz import generate_spec
from repro.eval.library import LIBRARY, resolve_protocol
from repro.eval.scenario import (ChurnModel, CrashModel, DegradeModel,
                                 FlappingPartitionModel, PartitionModel,
                                 ScenarioSpec)

#: sha256 of :func:`plan_record`, computed on the commit before the fault
#: plane became one table of drawn rows.
PLAN_SHA256 = "8be898ca1c1afc688d29e4e6f83163859a20d0923255b710b894963c40801d9b"

FUZZ_SEEDS = range(40)


def _handwritten() -> list[ScenarioSpec]:
    """Branches the library and the fuzzer grammar do not reach."""
    def spec(name, *models, seed=7):
        return ScenarioSpec(name=name, agents=resolve_protocol("chord"),
                            num_nodes=8, duration=120.0, seed=seed,
                            models=models)

    return [
        spec("pin-partition",
             ChurnModel(join="immediate"),
             PartitionModel(at=30.0, heal_after=20.0,
                            groups=((0, 1, 2), (3, 4, -1)),
                            links=((10, 0), (14, 0))),
             PartitionModel(at=70.0, groups=((1, 2),))),
        spec("pin-crash",
             ChurnModel(join="poisson", join_rate=2.0, churn_fraction=0.5,
                        churn_start=20.0, churn_end=60.0, rejoin=False),
             CrashModel(at=40.0, victims=(2, -1), recover_after=15.0),
             CrashModel(at=80.0, fraction=0.4, exempt=(0, 1))),
        spec("pin-degrade",
             ChurnModel(churn_fraction=0.3, downtime=200.0),
             DegradeModel(at=20.0, hosts=(3, 3, -2), links=((10, 0),),
                          bandwidth_factor=0.5),
             FlappingPartitionModel(at=10.0, period=8.0, duty=0.25, cycles=2,
                                    groups=((0, 1),), links=((14, 0),))),
    ]


def pinned_specs() -> list[ScenarioSpec]:
    specs = [entry.spec(seed) for entry in LIBRARY for seed in (0, 1)]
    specs.extend(generate_spec(seed) for seed in FUZZ_SEEDS)
    specs.extend(_handwritten())
    return specs


def plan_record() -> str:
    """Every compiled model of every pinned spec, one line each."""
    lines = []
    for spec in pinned_specs():
        experiment = spec.build()
        for compiled in experiment.compiled_models:
            events = [(repr(event.time), event.kind, event.detail, event.node)
                      for event in compiled.events]
            metrics = sorted((key, repr(value))
                             for key, value in compiled.metrics().items())
            lines.append(repr((spec.name, spec.seed, compiled.label, events,
                               metrics)))
    return "\n".join(lines)


def test_compiled_timelines_match_the_parent_commit():
    digest = hashlib.sha256(plan_record().encode()).hexdigest()
    assert digest == PLAN_SHA256
