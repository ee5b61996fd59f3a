"""MACEDON runtime: event kernel, agents, layering, timers, transports glue."""

from .agent import (
    Agent,
    AgentError,
    API_NAMES,
    NBR_TYPE_CHILDREN,
    NBR_TYPE_PARENT,
    NBR_TYPE_PEERS,
    NBR_TYPE_SIBLINGS,
    StateVarSpec,
    TransitionSpec,
)
from .engine import SimulationError, Simulator
from .failure import FailureDetector, FailureDetectorConfig
from .keys import KeySpace, hash_key
from .messages import (
    FieldSpec,
    Message,
    MessageCatalog,
    MessageError,
    MessageType,
)
from .neighbors import NeighborEntry, NeighborError, NeighborFieldSpec, NeighborSet, NeighborType
from .node import MacedonNode
from .stack import ProtocolStack, StackError
from .stateexpr import StateExpr, StateExprError, parse_state_expr
from .timers import ProtocolTimer, TimerError, TimerSpec, TimerTable
from .tracing import TraceLevel, TraceRecord, Tracer

__all__ = [
    "Agent",
    "AgentError",
    "API_NAMES",
    "NBR_TYPE_CHILDREN",
    "NBR_TYPE_PARENT",
    "NBR_TYPE_PEERS",
    "NBR_TYPE_SIBLINGS",
    "StateVarSpec",
    "TransitionSpec",
    "SimulationError",
    "Simulator",
    "FailureDetector",
    "FailureDetectorConfig",
    "KeySpace",
    "hash_key",
    "FieldSpec",
    "Message",
    "MessageCatalog",
    "MessageError",
    "MessageType",
    "NeighborEntry",
    "NeighborError",
    "NeighborFieldSpec",
    "NeighborSet",
    "NeighborType",
    "MacedonNode",
    "ProtocolStack",
    "StackError",
    "StateExpr",
    "StateExprError",
    "parse_state_expr",
    "ProtocolTimer",
    "TimerError",
    "TimerSpec",
    "TimerTable",
    "TraceLevel",
    "TraceRecord",
    "Tracer",
]
