"""Failure detection.

The paper's runtime assumes a peer has failed "if no message has been received
from it in *f* seconds"; if communication has been quiet for *g* < *f* seconds
it first solicits traffic with a heartbeat request/response exchange.  Upon
declaring a failure the runtime invokes the protocol's ``error`` API
transition so the overlay can repair itself.

Only neighbor sets declared ``fail_detect`` are monitored.  Heartbeats are
runtime-level messages that never reach protocol transitions; any protocol or
heartbeat traffic from a peer counts as evidence of liveness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .engine import Simulator
from .timers import ProtocolTimer, TimerSpec


@dataclass
class FailureDetectorConfig:
    """Tunable parameters (the paper's *f*, *g*, and the check cadence)."""

    #: Seconds of silence after which a peer is declared failed (paper's f).
    failure_timeout: float = 20.0
    #: Seconds of silence after which a heartbeat is solicited (paper's g < f).
    heartbeat_timeout: float = 8.0
    #: How often the detector sweeps its monitored peers.
    check_interval: float = 2.0

    def __post_init__(self) -> None:
        if self.heartbeat_timeout >= self.failure_timeout:
            raise ValueError("heartbeat timeout (g) must be smaller than failure timeout (f)")
        if self.check_interval <= 0:
            raise ValueError("check interval must be positive")


@dataclass
class FailureDetectorStats:
    heartbeats_sent: int = 0
    failures_declared: int = 0
    monitored_peers: int = 0


class FailureDetector:
    """Per-node failure detector driving the ``error`` API transition.

    Parameters
    ----------
    send_heartbeat:
        Callback ``(peer_address) -> None`` that transmits a runtime heartbeat
        request to the peer (wired to the node's lowest-layer transport).
    on_failure:
        Callback ``(peer_address) -> None`` invoked when a peer is declared
        failed; the node uses it to fire ``error`` transitions and prune the
        peer from fail-detected neighbor sets.
    """

    def __init__(
        self,
        simulator: Simulator,
        send_heartbeat: Callable[[int], None],
        on_failure: Callable[[int], None],
        config: Optional[FailureDetectorConfig] = None,
    ) -> None:
        self.simulator = simulator
        self.config = config or FailureDetectorConfig()
        self._send_heartbeat = send_heartbeat
        self._on_failure = on_failure
        self._last_heard: dict[int, float] = {}
        self._monitored: dict[int, int] = {}  # peer -> reference count
        self._sweep = ProtocolTimer(
            TimerSpec("failure-detector", self.config.check_interval),
            simulator, self._check)
        self.stats = FailureDetectorStats()
        self._running = False

    # ----------------------------------------------------------------- wiring
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._schedule_check()

    def stop(self) -> None:
        self._running = False
        self._sweep.cancel()

    def reset(self) -> None:
        """Forget all monitored peers and liveness history.

        Used by the node's crash path: a fail-stop node loses its detector
        state, and the fresh agent stack built on recovery re-registers its
        monitored peers from scratch.
        """
        self._monitored.clear()
        self._last_heard.clear()
        self.stats.monitored_peers = 0

    def _schedule_check(self) -> None:
        if self._running:
            self._sweep.schedule()

    # ------------------------------------------------------------- membership
    def monitor(self, peer: int) -> None:
        """Start (or add a reference to) monitoring *peer*."""
        peer = int(peer)
        self._monitored[peer] = self._monitored.get(peer, 0) + 1
        self._last_heard.setdefault(peer, self.simulator.now)
        self.stats.monitored_peers = len(self._monitored)

    def unmonitor(self, peer: int) -> None:
        """Drop one reference to *peer*; stops monitoring at zero references."""
        peer = int(peer)
        count = self._monitored.get(peer)
        if count is None:
            return
        if count <= 1:
            del self._monitored[peer]
            self._last_heard.pop(peer, None)
        else:
            self._monitored[peer] = count - 1
        self.stats.monitored_peers = len(self._monitored)

    def heard_from(self, peer: int) -> None:
        """Record that any traffic arrived from *peer*."""
        self._last_heard[peer] = self.simulator._now

    def monitored_peers(self) -> list[int]:
        return sorted(self._monitored)

    # ------------------------------------------------------------------ sweep
    def _check(self, _timer: str) -> None:
        now = self.simulator.now
        failed: list[int] = []
        for peer in list(self._monitored):
            silence = now - self._last_heard.get(peer, now)
            if silence >= self.config.failure_timeout:
                failed.append(peer)
            elif silence >= self.config.heartbeat_timeout:
                self.stats.heartbeats_sent += 1
                self._send_heartbeat(peer)
        for peer in failed:
            self.stats.failures_declared += 1
            self._monitored.pop(peer, None)
            self._last_heard.pop(peer, None)
            self._on_failure(peer)
        self.stats.monitored_peers = len(self._monitored)
        self._schedule_check()
