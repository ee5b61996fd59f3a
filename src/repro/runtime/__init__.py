"""MACEDON runtime: event kernel, agents, layering, timers, transports glue."""

from .._lazy import lazy_front

#: Public name -> the submodule it is imported from on first use.
_EXPORTS = {
    "Agent": ".agent",
    "AgentError": ".agent",
    "API_NAMES": ".agent",
    "NBR_TYPE_CHILDREN": ".agent",
    "NBR_TYPE_PARENT": ".agent",
    "NBR_TYPE_PEERS": ".agent",
    "NBR_TYPE_SIBLINGS": ".agent",
    "StateVarSpec": ".agent",
    "TransitionSpec": ".agent",
    "SimulationError": ".engine",
    "Simulator": ".engine",
    "FailureDetector": ".failure",
    "FailureDetectorConfig": ".failure",
    "KeySpace": ".keys",
    "hash_key": ".keys",
    "FieldSpec": ".messages",
    "Message": ".messages",
    "MessageCatalog": ".messages",
    "MessageError": ".messages",
    "MessageType": ".messages",
    "NeighborEntry": ".neighbors",
    "NeighborError": ".neighbors",
    "NeighborFieldSpec": ".neighbors",
    "NeighborSet": ".neighbors",
    "NeighborType": ".neighbors",
    "MacedonNode": ".node",
    "ProtocolStack": ".stack",
    "StackError": ".stack",
    "StateExpr": ".stateexpr",
    "StateExprError": ".stateexpr",
    "parse_state_expr": ".stateexpr",
    "ProtocolTimer": ".timers",
    "TimerError": ".timers",
    "TimerSpec": ".timers",
    "TimerTable": ".timers",
    "TraceLevel": ".tracing",
    "TraceRecord": ".tracing",
    "Tracer": ".tracing",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_front(globals(), _EXPORTS)
