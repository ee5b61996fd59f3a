"""The bundled overlay protocol suite.

Each protocol is written in the MACEDON DSL (``specs/*.mac``) and compiled to
an :class:`~repro.runtime.agent.Agent` subclass on first use via
:mod:`repro.codegen`.  This module provides typed accessors so user code does
not need to deal with the registry directly::

    from repro.protocols import chord_agent

    ChordAgent = chord_agent()

A layered stack is a :class:`~repro.eval.scenario.Stack` value
(``Stack("scribe", base="chord")``; docs/SCENARIOS.md).
"""

from __future__ import annotations

from typing import Type

from ..codegen.registry import get_registry
from ..runtime.agent import Agent

#: Names of all protocols shipped with the reproduction (Figure 7's x-axis).
BUNDLED_PROTOCOLS = (
    "ammo",
    "bullet",
    "chord",
    "nice",
    "overcast",
    "pastry",
    "randtree",
    "scribe",
    "splitstream",
)


# --------------------------------------------------------------- single agents
def randtree_agent() -> Type[Agent]:
    return get_registry().load_protocol("randtree")


def overcast_agent() -> Type[Agent]:
    return get_registry().load_protocol("overcast")


def chord_agent() -> Type[Agent]:
    return get_registry().load_protocol("chord")


def pastry_agent() -> Type[Agent]:
    return get_registry().load_protocol("pastry")


def nice_agent() -> Type[Agent]:
    return get_registry().load_protocol("nice")


def ammo_agent() -> Type[Agent]:
    return get_registry().load_protocol("ammo")


__all__ = [
    "BUNDLED_PROTOCOLS",
    "randtree_agent",
    "overcast_agent",
    "chord_agent",
    "pastry_agent",
    "nice_agent",
    "ammo_agent",
]
