"""Sharded parallel simulation: a multi-process conservative-lockstep kernel.

The single-process :class:`~repro.runtime.engine.Simulator` tops out around
tens of thousands of events per second, which caps the overlay populations the
evaluation can reach.  This package partitions one emulated deployment across
N worker processes along the transit-stub topology's stub-domain structure
(most overlay traffic is domain-local, so most packets stay shard-local) and
runs the shards in *conservative lockstep windows* bounded by the minimum
cross-shard link latency: inside a window no shard can possibly affect
another, so each worker burns through its own event heap at full speed and
cross-shard packets are exchanged only at window barriers.

Layout:

* :mod:`~repro.runtime.sharded.partition` — stub-domain partitioner and the
  lookahead (window width) computation.
* :mod:`~repro.runtime.sharded.mailbox` — pipe endpoints, length-prefixed
  binary framing, and the batched cross-shard packet codec.
* :mod:`~repro.runtime.sharded.driver` — :class:`ShardedDriver` (the third
  implementation of the :class:`~repro.runtime.driver.Driver` contract,
  wrapping one shard's simulator in the window/barrier loop) and
  :class:`ShardCoordinator` (the parent-side fork/barrier/merge orchestrator).

Determinism contract: ``shards=1`` is byte-identical to the single-process
kernel, and ``shards=K`` is fingerprint-stable across repeated runs and
across K — see docs/PERFORMANCE.md, "Sharded execution".
"""

from .driver import ShardCoordinator, ShardedDriver, ShardWorkerError
from .partition import ShardPlan, ShardPlanError, plan_shards, stub_domains

__all__ = [
    "ShardCoordinator",
    "ShardedDriver",
    "ShardWorkerError",
    "ShardPlan",
    "ShardPlanError",
    "plan_shards",
    "stub_domains",
]
