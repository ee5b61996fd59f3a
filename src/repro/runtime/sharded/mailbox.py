"""Cross-shard mailbox: pipes, binary framing, and the packet batch codec.

Workers and the coordinating parent exchange three things: per-window batches
of cross-shard packets, the final per-shard metric payloads, and error
reports.  Everything rides on plain ``os.pipe`` file descriptors with
length-prefixed binary frames — no multiprocessing queues, no threads, no
locks, so the barrier protocol stays auditable and the fork-based workers
inherit nothing they did not ask for.

Frame layout (all integers big-endian)::

    !BIQ   frame type (1B) | window index (4B) | payload length (8B)

Packet batches additionally carry one fixed header per packet::

    !dIIQI  arrival time (8B) | src shard (4B) | dst host (4B)
            | per-(src shard -> dst shard) sequence number (8B)
            | pickled-packet length (4B)

The header carries everything the deterministic barrier merge sorts on —
``(arrival_time, src_shard, seq)`` — plus the destination host, so routing
and ordering never need to unpickle a payload.  The pickled packet preserves
``size`` (and therefore ``wire_size``, the WireCodec-derived on-the-wire
byte count), so destination-shard byte accounting matches the single-process
emulator exactly.
"""

from __future__ import annotations

import os
import pickle
import struct
from typing import Any, Optional

FRAME_HEADER = struct.Struct("!BIQ")
PACKET_HEADER = struct.Struct("!dIIQI")

#: Frame types.
FRAME_PACKETS = 1   # worker -> parent, then parent -> worker, every window
FRAME_PAYLOAD = 2   # worker -> parent: final per-shard metric payload
FRAME_ERROR = 3     # worker -> parent: pickled traceback text


class MailboxClosed(ConnectionError):
    """The peer closed its end of the pipe (worker death or parent exit)."""


class Endpoint:
    """One end of a bidirectional parent<->worker pipe pair."""

    def __init__(self, read_fd: int, write_fd: int) -> None:
        self._read_fd = read_fd
        self._write_fd = write_fd

    def send(self, frame_type: int, window: int, payload: bytes) -> None:
        data = FRAME_HEADER.pack(frame_type, window, len(payload)) + payload
        view = memoryview(data)
        while view:
            written = os.write(self._write_fd, view)
            view = view[written:]

    def recv(self) -> tuple[int, int, bytes]:
        """Read one frame; raises :class:`MailboxClosed` on EOF."""
        header = self._read_exact(FRAME_HEADER.size)
        frame_type, window, length = FRAME_HEADER.unpack(header)
        payload = self._read_exact(length) if length else b""
        return frame_type, window, payload

    def _read_exact(self, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            chunk = os.read(self._read_fd, remaining)
            if not chunk:
                raise MailboxClosed("pipe closed mid-frame")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        for fd in (self._read_fd, self._write_fd):
            try:
                os.close(fd)
            except OSError:
                pass


def pipe_pair() -> tuple[Endpoint, Endpoint]:
    """Create a connected (parent_endpoint, worker_endpoint) pair.

    Each direction is its own ``os.pipe``; the caller closes the unused ends
    after forking (``Endpoint.close`` on the copy it does not keep).
    """
    parent_read, worker_write = os.pipe()
    worker_read, parent_write = os.pipe()
    return (Endpoint(parent_read, parent_write),
            Endpoint(worker_read, worker_write))


# ------------------------------------------------------------- packet batches
def pack_packets(entries: list[tuple[float, int, int, int, Any]]) -> bytes:
    """Encode ``(arrival_time, src_shard, dst_host, seq, packet)`` entries."""
    parts = []
    for arrival, src_shard, dst_host, seq, packet in entries:
        blob = pickle.dumps(packet, protocol=pickle.HIGHEST_PROTOCOL)
        parts.append(PACKET_HEADER.pack(arrival, src_shard, dst_host, seq,
                                        len(blob)))
        parts.append(blob)
    return b"".join(parts)


def unpack_packets(payload: bytes) -> list[tuple[float, int, int, int, Any]]:
    """Decode :func:`pack_packets` output, preserving entry order."""
    entries = []
    offset = 0
    size = PACKET_HEADER.size
    while offset < len(payload):
        arrival, src_shard, dst_host, seq, blob_len = PACKET_HEADER.unpack_from(
            payload, offset)
        offset += size
        packet = pickle.loads(payload[offset:offset + blob_len])
        offset += blob_len
        entries.append((arrival, src_shard, dst_host, seq, packet))
    return entries


def split_packets(payload: bytes) -> list[tuple[float, int, int, int, bytes]]:
    """Split a batch into ``(arrival, src_shard, dst_host, seq, raw)`` entries
    *without* unpickling the packets.

    ``raw`` is the complete header+blob byte span of one entry, so the
    coordinating parent can route and deterministically sort cross-shard
    packets and re-emit them by concatenation — the pickle payloads only ever
    deserialize on the destination shard.
    """
    entries = []
    offset = 0
    size = PACKET_HEADER.size
    while offset < len(payload):
        arrival, src_shard, dst_host, seq, blob_len = PACKET_HEADER.unpack_from(
            payload, offset)
        end = offset + size + blob_len
        entries.append((arrival, src_shard, dst_host, seq, payload[offset:end]))
        offset = end
    return entries


# ------------------------------------------------------------ object payloads
def pack_object(obj: Any) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def unpack_object(payload: bytes) -> Any:
    return pickle.loads(payload)


# ----------------------------------------------------------------- fork_map
def fork_map(fn, items, *, jobs: int, label: str = "worker") -> list:
    """Map *fn* over *items* in forked child processes, *jobs* at a time.

    The fork-based sibling of ``multiprocessing.Pool.map`` for callables and
    items that are not picklable (scenario specs carry lambdas): children
    inherit everything by fork and only the *results* travel back through a
    pipe.  Results are returned in item order.  A child that raises ships the
    traceback text back and :func:`fork_map` re-raises it in the parent as
    :class:`ForkWorkerError` — an unhandled worker exception is never
    silently swallowed.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    results: list = [None] * len(items)
    pending = list(enumerate(items))
    active: list[tuple[int, int, int]] = []  # (pid, index, read_fd), FIFO

    def launch(index: int, item) -> None:
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            status = 0
            try:
                try:
                    blob = pack_object(("ok", fn(item)))
                except BaseException:
                    import traceback
                    blob = pack_object(("error", traceback.format_exc()))
                    status = 1
                view = memoryview(struct.pack("!Q", len(blob)) + blob)
                while view:
                    view = view[os.write(write_fd, view):]
            finally:
                os._exit(status)
        os.close(write_fd)
        active.append((pid, index, read_fd))

    def reap_oldest() -> None:
        # Drain the pipe to EOF *before* waitpid: a child whose result
        # exceeds the pipe buffer blocks in write until we read, so waiting
        # on its exit first would deadlock.  Children finishing out of order
        # merely queue behind the oldest pipe; no cycle, no deadlock.
        pid, index, read_fd = active.pop(0)
        chunks = []
        while True:
            chunk = os.read(read_fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
        os.close(read_fd)
        os.waitpid(pid, 0)
        data = b"".join(chunks)
        if len(data) < 8:
            raise ForkWorkerError(
                f"{label} for item {index} died without reporting a result")
        (length,) = struct.unpack("!Q", data[:8])
        kind, value = unpack_object(data[8:8 + length])
        if kind == "error":
            raise ForkWorkerError(
                f"{label} for item {index} raised:\n{value}")
        results[index] = value

    try:
        while pending or active:
            while pending and len(active) < jobs:
                index, item = pending.pop(0)
                launch(index, item)
            if active:
                reap_oldest()
    finally:
        for pid, _index, read_fd in active:
            try:
                os.close(read_fd)
            except OSError:
                pass
            try:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
            except (OSError, ChildProcessError):
                pass
    return results


class ForkWorkerError(RuntimeError):
    """A forked worker process raised an unhandled exception."""


def host_provenance() -> dict[str, Any]:
    """CPU model, core count, load average, and Python version of this host.

    Recorded alongside every benchmark entry so absolute-rate swings can be
    attributed to runner hardware or contention rather than code changes.
    """
    import platform
    import sys

    cpu_model: Optional[str] = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if cpu_model is None:
        cpu_model = platform.processor() or platform.machine() or "unknown"
    try:
        load_1m = os.getloadavg()[0]
    except OSError:
        load_1m = None
    return {
        "cpu_model": cpu_model,
        "cores": os.cpu_count(),
        "load_1m": load_1m,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
    }
