"""Layer-boundary tracing from the outside.

A traced run wraps the public entry points of each ``src/repro`` layer with a
timing shim *before* the experiment is built (hot paths cache bound methods at
construction, so the class attribute has to be swapped first).  Nothing under
``src/`` knows about it.

Self time and call counts accumulate online on a span stack: a layer's self
time is its spans' duration minus the part their child spans cover.  A shim's
own cost lands in its *parent's* self time; ``trace.overhead_ratio`` prices
the total.  The first ``MAX_SPANS`` full spans are kept in memory and written
out when the child ends.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Callable

#: Self-time accumulators, one per layer boundary.
LAYERS = ("dsl", "codegen", "topology", "scenario_build", "engine", "emulator",
          "router", "transport", "agent", "dispatch", "apps", "scenario",
          "codec_encode", "codec_decode", "udp_send", "udp_recv")

MAX_SPANS = 50_000


class Tracer:
    """Span stack, per-layer self seconds (raw and calibrated), call counts."""

    def __init__(self) -> None:
        self._index = {layer: i for i, layer in enumerate(LAYERS)}
        #: Raw self seconds since the last :meth:`flush`, by layer index.
        self._raw = [0.0] * len(LAYERS)
        #: Calibrated self seconds since the last :meth:`take`.
        self._calibrated = [0.0] * len(LAYERS)
        self.counts: dict[str, int] = {}
        #: Open spans, innermost last: ``[child seconds, span id]``.
        self._stack: list[list] = []
        self.spans: list[tuple] = []
        self._next_id = 0
        self._patched: list[tuple[type, str, Callable]] = []

    # ------------------------------------------------------------- wrapping
    def shim(self, inner: Callable, layer: str, name: str) -> Callable:
        """*inner* wrapped in a span booked to *layer* and counted as *name*."""
        index = self._index[layer]
        raw = self._raw
        counts = self.counts
        stack = self._stack
        spans = self.spans
        clock = perf_counter
        counts.setdefault(name, 0)
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            frame = [0.0, span_id]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                raw[index] += elapsed - frame[0]
                counts[name] += 1
                if parent is not None:
                    parent[0] += elapsed
                if span_id < MAX_SPANS:
                    spans.append((span_id,
                                  parent[1] if parent is not None else -1,
                                  name, start, end))

        return traced

    def wrap(self, cls: type, attr: str, layer: str) -> None:
        """Swap the method ``cls.attr`` for a shim booked to *layer*."""
        inner = cls.__dict__[attr]
        self._patched.append((cls, attr, inner))
        setattr(cls, attr, self.shim(inner, layer, f"{cls.__name__}.{attr}"))

    def uninstall(self) -> None:
        for cls, attr, inner in reversed(self._patched):
            setattr(cls, attr, inner)
        self._patched.clear()

    # ----------------------------------------------------------- accounting
    def flush(self, factor: float) -> None:
        """Fold one slice's raw self seconds in as calibrated seconds
        (:class:`bench.calib.Phase` calls this after every slice)."""
        raw = self._raw
        calibrated = self._calibrated
        for i, value in enumerate(raw):
            if value:
                calibrated[i] += value * factor
                raw[i] = 0.0

    def take(self) -> tuple[dict[str, float], dict[str, int]]:
        """Calibrated self seconds and counts since the last take; resets."""
        seconds = dict(zip(LAYERS, self._calibrated))
        counts = dict(self.counts)
        self._calibrated = [0.0] * len(LAYERS)
        for key in self.counts:
            self.counts[key] = 0
        return seconds, counts

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end in self.spans:
                handle.write(json.dumps({"id": span_id, "parent": parent,
                                         "name": name, "start": start,
                                         "end": end}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of ``src/repro`` (call after importing it,
    before anything is built)."""
    from repro.apps.kv import KvStore
    from repro.apps.pubsub import PubSub
    from repro.codegen.registry import ProtocolRegistry
    from repro.eval.experiment import OverlayExperiment
    from repro.eval.scenario import ScenarioSpec
    from repro.network.emulator import NetworkEmulator
    from repro.network.router import Router
    from repro.runtime.agent import Agent
    from repro.runtime.engine import Simulator
    from repro.runtime.messages import WireCodec
    from repro.transport.demux import TransportHost
    from repro.transport.reliable import ReliableTransport
    from repro.transport.udp import SocketUdpNetwork, UdpTransport

    boundaries = {
        "dsl": [(ProtocolRegistry, "load_spec")],
        "codegen": [(ProtocolRegistry, "load_protocol")],
        "scenario_build": [(ScenarioSpec, "build")],
        "engine": [(Simulator, "run")],
        "emulator": [(NetworkEmulator, "send")],
        "router": [(Router, "plan"), (Router, "disable_edge"),
                   (Router, "enable_edge"), (Router, "reweigh_edge"),
                   (Router, "invalidate")],
        "transport": [(TransportHost, "send"),
                      (UdpTransport, "send"),
                      (UdpTransport, "handle_datagram"),
                      (UdpTransport, "handle_segment"),
                      (ReliableTransport, "send"),
                      (ReliableTransport, "handle_segment")],
        "agent": [(Agent, name) for name in sorted(vars(Agent))
                  if name in ("send_msg", "route_msg", "routeip_msg")
                  or name.startswith(("downcall_", "upcall_"))],
        "dispatch": [(Agent, "receive_message"), (Agent, "api_call"),
                     (Agent, "_on_timer_expired")],
        "apps": [(KvStore, "put"), (KvStore, "get"), (KvStore, "on_deliver"),
                 (PubSub, "publish"), (PubSub, "on_deliver")],
        "scenario": [(OverlayExperiment, "crash_node"),
                     (OverlayExperiment, "recover_node"),
                     (OverlayExperiment, "join_node")],
        "codec_encode": [(WireCodec, "encode_payload")],
        "codec_decode": [(WireCodec, "decode_payload")],
        "udp_send": [(SocketUdpNetwork, "send")],
        "udp_recv": [(SocketUdpNetwork, "datagram_received")],
    }
    for layer, targets in boundaries.items():
        for cls, attr in targets:
            tracer.wrap(cls, attr, layer)
