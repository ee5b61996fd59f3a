"""Read/write serialization of protocol instances.

The paper's key concurrency idea is the split between *control* transitions
(which modify node state and take the protocol instance's lock for writing)
and *data* transitions (which only read node state and take the lock shared,
so many application threads can push data through the overlay in parallel).

The reproduction runs protocols on a single deterministic event loop, so the
lock cannot be contended in real time; what we preserve — and make checkable —
is the *classification*:

* every transition executes under an explicit lock mode (``read`` by
  declaration, ``write`` by default, exactly as in the grammar);
* write-primitives (``state_change``, ``neighbor_add``, assignments to state
  variables via ``set_var``…) assert that the current mode allows writing, so
  a mis-declared ``locking read`` transition is caught instead of silently
  racing (the bug class the paper's design prevents);
* acquisition counts and "would-have-blocked" statistics are recorded, which
  the locking ablation benchmark uses to estimate the parallelism a
  multi-threaded deployment would get from read/write splitting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


class LockingViolation(RuntimeError):
    """A transition declared ``locking read`` attempted to modify node state."""


@dataclass
class LockStats:
    """Counters describing how the instance lock was used."""

    read_acquisitions: int = 0
    write_acquisitions: int = 0
    #: Number of nested acquisitions (a transition invoking another transition).
    nested_acquisitions: int = 0
    #: Writes attempted while only a read lock was held (each one raised).
    violations: int = 0

    @property
    def total_acquisitions(self) -> int:
        return self.read_acquisitions + self.write_acquisitions

    def read_fraction(self) -> float:
        total = self.total_acquisitions
        if total == 0:
            return 0.0
        return self.read_acquisitions / total


class InstanceLock:
    """The per-protocol-instance read/write lock of the MACEDON runtime.

    A write primitive invoked from a read-locked transition raises
    :class:`LockingViolation`.
    """

    def __init__(self) -> None:
        self.stats = LockStats()
        self._mode_stack: list[str] = []
        # One reusable scope per mode: every transition dispatch enters a
        # lock scope, so the @contextmanager generator machinery (one
        # generator + helper object per acquisition) was measurable
        # protocol-plane overhead.  The scopes are stateless — all state
        # lives in the mode stack — so nesting reuses them safely.
        self._read_scope = _LockScope(self, "read")
        self._write_scope = _LockScope(self, "write")

    @property
    def current_mode(self) -> Optional[str]:
        """``"read"``, ``"write"``, or None when no transition is executing."""
        return self._mode_stack[-1] if self._mode_stack else None

    @property
    def held(self) -> bool:
        return bool(self._mode_stack)

    def acquire(self, mode: str) -> "_LockScope":
        """Context manager holding the lock in *mode* ("read" or "write")."""
        if mode == "write":
            return self._write_scope
        if mode == "read":
            return self._read_scope
        raise ValueError(f"unknown lock mode {mode!r}")

    def assert_writable(self, what: str) -> None:
        """Called by write primitives; enforces the declared transition class."""
        mode = self._mode_stack[-1] if self._mode_stack else None
        if mode == "read":
            self.stats.violations += 1
            raise LockingViolation(
                f"{what} attempted inside a transition declared 'locking read'")

    # Explicit primitives the paper exposes for intra-transition locking.
    def lock_write(self) -> "_LockScope":
        """The paper's ``Lock_Write()`` — explicit write lock inside a transition."""
        return self._write_scope

    def lock_read(self) -> "_LockScope":
        """The paper's ``Lock_Read()``."""
        return self._read_scope


class _LockScope:
    """Reusable ``with``-scope for one lock mode.

    Stateless between entries (the mode stack carries all state), so a single
    instance per (lock, mode) pair serves arbitrarily nested acquisitions.
    """

    __slots__ = ("_lock", "_mode")

    def __init__(self, lock: InstanceLock, mode: str) -> None:
        self._lock = lock
        self._mode = mode

    def __enter__(self) -> None:
        lock = self._lock
        stats = lock.stats
        stack = lock._mode_stack
        if stack:
            stats.nested_acquisitions += 1
        if self._mode == "read":
            stats.read_acquisitions += 1
        else:
            stats.write_acquisitions += 1
        stack.append(self._mode)

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self._lock._mode_stack.pop()
        return False
