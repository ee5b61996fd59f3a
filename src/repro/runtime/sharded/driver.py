"""The sharded execution driver and its parent-side coordinator.

:class:`ShardedDriver` is the third implementation of the
:class:`~repro.runtime.driver.Driver` contract, next to the discrete-event
:class:`~repro.runtime.engine.Simulator` and the wall-clock
:class:`repro.live.driver.LiveDriver`: inside one worker process it *is* the
shard's simulated clock (delegating the scheduling surface to the shard's
simulator, exactly like :class:`~repro.runtime.driver.SimDriver`), extended
with the cross-shard machinery — an egress capture buffer for packets whose
destination lives on another shard, and the conservative window loop that
alternates bounded ``run(until=barrier)`` calls with barrier exchanges over
the mailbox.

:class:`ShardCoordinator` is the parent side: it forks one worker per shard
(*after* the experiment is fully built, so workers inherit the whole object
graph copy-on-write and nothing needs pickling on the way in), then plays
post office at every barrier — reading each shard's outbound batch, routing
entries by destination shard *without* unpickling them, sorting each inbox
deterministically on ``(arrival time, src shard, seq)``, and writing the
merged batches back.  After the last barrier it collects one pickled metric
payload per shard.  Any worker exception travels back as a pickled traceback
and re-raises here as :class:`ShardWorkerError` — a crashed shard can never
silently yield a partial result.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Optional

from ..driver import SimDriver
from ..engine import Simulator
from . import mailbox
from .mailbox import Endpoint, MailboxClosed
from .partition import ShardPlan


class ShardWorkerError(RuntimeError):
    """A shard worker process failed; the message carries its traceback."""


def barrier_schedule(start: float, until: float, window: float) -> list[float]:
    """The barrier times of a conservative lockstep run.

    Computed once by the coordinator *before* forking, so parent and workers
    share the identical float sequence by construction.  Always contains at
    least the final barrier at *until*, keeping the frame protocol uniform
    even for zero-length or single-window runs.
    """
    barriers: list[float] = []
    time = start
    while time < until:
        time = until if window == float("inf") else min(time + window, until)
        barriers.append(time)
    if not barriers:
        barriers.append(until)
    return barriers


class ShardedDriver(SimDriver):
    """One shard's clock plus its cross-shard egress and window loop.

    Satisfies the driver contract by delegation to the shard's simulator
    (same bound-method rebinding as :class:`SimDriver`, so the hot paths pay
    nothing); the additions are :meth:`capture` — called by the emulator's
    egress filter with packets bound for other shards — and
    :meth:`run_windows`, the worker half of the barrier protocol.
    """

    def __init__(self, simulator: Simulator, *, shard_id: int,
                 plan: ShardPlan, endpoint: Endpoint,
                 registry: Optional[Any] = None) -> None:
        super().__init__(simulator)
        self.shard_id = shard_id
        self.plan = plan
        self.endpoint = endpoint
        #: Optional metrics registry (``repro.obs``): when present the
        #: window loop accounts barriers and cross-shard batch sizes.
        self._registry = registry
        #: Outbound cross-shard packets of the current window:
        #: (arrival_time, src_shard, dst_host, seq, packet).
        self._outbox: list[tuple[float, int, int, int, Any]] = []
        #: Per-destination-shard sequence counters; (src_shard, seq) pairs
        #: give the deterministic barrier-merge order its unique tie-break.
        self._out_seq: dict[int, int] = {}
        #: Cross-shard traffic counters (diagnostics and bench reporting).
        self.packets_exported = 0
        self.packets_imported = 0

    # ----------------------------------------------------------------- egress
    def capture(self, arrival: float, dst_shard: int, dst_host: int,
                packet: Any) -> None:
        """Buffer a packet bound for *dst_shard* until the next barrier."""
        seq = self._out_seq.get(dst_shard, 0)
        self._out_seq[dst_shard] = seq + 1
        self._outbox.append((arrival, self.shard_id, dst_host, seq, packet))
        self.packets_exported += 1

    # ------------------------------------------------------------ window loop
    def run_windows(self, barriers: list[float],
                    inject: Callable[[float, Any], None]) -> float:
        """Run the shard through every conservative window.

        At each barrier the current outbox is shipped to the coordinator and
        the merged inbox injected via *inject*\\(delay, packet) — the caller
        supplies the scheduling (``NetworkEmulator.inject_arrival``; what
        travels as *packet* is the emulator's own export item), keeping this
        loop free of network-layer knowledge.  An arrival in the
        simulated past means the lookahead guarantee was violated (it cannot
        happen while window width <= minimum cross-shard latency) and raises
        :class:`ShardWorkerError` rather than corrupting causality.
        """
        sim = self.simulator
        run_windows = getattr(sim, "run_windows", None)
        if run_windows is None:  # pragma: no cover - simulator always has it
            raise ShardWorkerError("simulator lacks windowed execution")

        registry = self._registry

        def on_barrier(barrier: float, index: int) -> None:
            outbox = self._outbox
            if registry is not None:
                registry.counter("shard.windows").inc()
                registry.histogram("shard.batch_size").observe(len(outbox))
            payload = mailbox.pack_packets(outbox)
            outbox.clear()
            self.endpoint.send(mailbox.FRAME_PACKETS, index, payload)
            frame_type, window, data = self.endpoint.recv()
            if frame_type != mailbox.FRAME_PACKETS or window != index:
                raise ShardWorkerError(
                    f"shard {self.shard_id}: unexpected frame "
                    f"(type={frame_type}, window={window}) at barrier {index}")
            now = sim._now
            for arrival, _src_shard, _dst_host, _seq, packet in \
                    mailbox.unpack_packets(data):
                delay = arrival - now
                if delay < 0.0:
                    raise ShardWorkerError(
                        f"shard {self.shard_id}: lookahead violation — "
                        f"arrival {arrival!r} is {-delay!r}s before barrier "
                        f"{barrier!r}")
                inject(delay, packet)
                self.packets_imported += 1

        return run_windows(barriers, on_barrier)


class ShardCoordinator:
    """Fork workers, referee every barrier, and gather the final payloads."""

    def __init__(self, plan: ShardPlan, *, start: float, duration: float,
                 shard_of_address: Optional[dict[int, int]] = None) -> None:
        self.plan = plan
        self.barriers = barrier_schedule(start, start + duration,
                                         plan.lookahead)
        #: Routing map for barrier exchange: captured packets address their
        #: destination by runtime *host address* (what ``packet.dst`` holds),
        #: not by topology index, so the experiment builder must hand the
        #: coordinator the address -> shard map it derived from the plan.
        self.shard_of_address = shard_of_address

    def run(self, worker_fn: Callable[[int, Endpoint, list[float]], Any],
            ) -> list[Any]:
        """Execute *worker_fn* in one forked process per shard.

        ``worker_fn(shard_id, endpoint, barriers)`` runs in the child, must
        drive the barrier protocol (one PACKETS exchange per barrier — see
        :meth:`ShardedDriver.run_windows`), and returns the shard's metric
        payload, which is pickled back.  Returns the payload list indexed by
        shard.  Raises :class:`ShardWorkerError` if any worker raises or
        dies; remaining workers are killed, never leaked.
        """
        plan = self.plan
        num_shards = plan.num_shards
        workers: list[tuple[int, Endpoint]] = []  # (pid, parent endpoint)
        try:
            for shard in range(num_shards):
                parent_ep, worker_ep = mailbox.pipe_pair()
                pid = os.fork()
                if pid == 0:
                    status = 0
                    try:
                        # The child only talks through its own endpoint.
                        parent_ep.close()
                        for _pid, other_ep in workers:
                            other_ep.close()
                        try:
                            payload = worker_fn(shard, worker_ep,
                                                self.barriers)
                            worker_ep.send(mailbox.FRAME_PAYLOAD, 0,
                                           mailbox.pack_object(payload))
                        except BaseException:
                            import traceback
                            status = 1
                            try:
                                worker_ep.send(
                                    mailbox.FRAME_ERROR, 0,
                                    mailbox.pack_object(
                                        traceback.format_exc()))
                            except OSError:
                                pass
                    finally:
                        os._exit(status)
                worker_ep.close()
                workers.append((pid, parent_ep))

            shard_of_address = self.shard_of_address or {}
            for index in range(len(self.barriers)):
                inboxes: list[list] = [[] for _ in range(num_shards)]
                for shard, (_pid, endpoint) in enumerate(workers):
                    data = self._recv(endpoint, shard, mailbox.FRAME_PACKETS,
                                      index)
                    for entry in mailbox.split_packets(data):
                        try:
                            dst_shard = shard_of_address[entry[2]]
                        except KeyError:
                            raise ShardWorkerError(
                                f"shard worker {shard} exported a packet for "
                                f"unknown address {entry[2]} — routing map "
                                f"incomplete") from None
                        inboxes[dst_shard].append(entry)
                for shard, (_pid, endpoint) in enumerate(workers):
                    inbox = inboxes[shard]
                    # Deterministic merge: (arrival, src shard, seq) is
                    # unique, so the inbox order is a pure function of the
                    # packets, not of pipe readiness.
                    inbox.sort(key=lambda entry: (entry[0], entry[1],
                                                  entry[3]))
                    endpoint.send(mailbox.FRAME_PACKETS, index,
                                  b"".join(entry[4] for entry in inbox))

            payloads = []
            for shard, (_pid, endpoint) in enumerate(workers):
                data = self._recv(endpoint, shard, mailbox.FRAME_PAYLOAD, 0)
                payloads.append(mailbox.unpack_object(data))
            return payloads
        finally:
            for pid, endpoint in workers:
                endpoint.close()
            for pid, _endpoint in workers:
                try:
                    os.kill(pid, 9)
                except OSError:
                    pass
                try:
                    os.waitpid(pid, 0)
                except (OSError, ChildProcessError):
                    pass

    @staticmethod
    def _recv(endpoint: Endpoint, shard: int, expected_type: int,
              expected_window: int) -> bytes:
        try:
            frame_type, window, data = endpoint.recv()
        except MailboxClosed as exc:
            raise ShardWorkerError(
                f"shard worker {shard} died without reporting "
                f"(window {expected_window})") from exc
        if frame_type == mailbox.FRAME_ERROR:
            raise ShardWorkerError(
                f"shard worker {shard} raised:\n"
                f"{mailbox.unpack_object(data)}")
        if frame_type != expected_type or window != expected_window:
            raise ShardWorkerError(
                f"shard worker {shard}: protocol violation — got frame "
                f"type {frame_type} window {window}, expected type "
                f"{expected_type} window {expected_window}")
        return data
