"""Versioned trace and metrics artifacts.

Two schemas, mirroring the existing ``repro.fuzz/1`` / ``repro.diff/1``
conventions:

* ``repro.trace/1`` — a JSONL stream.  Line one is a header object with a
  ``schema`` field; every further line is one trace record::

      {"schema": "repro.trace/1", "mode": "sim", ...}
      {"t": 12.5, "node": 3, "proto": "chord", "cat": "route_hop",
       "detail": "...", "data": {"trace_id": 7, "hop": 1, "src": 2,
                                 "latency": 0.041}}

  One :class:`TraceSink` writes it in both modes: the simulator streams
  its tracer's records as they happen, and the live coordinator writes
  the records every node's tracer shipped home (each ring bounded by
  ``max_records``), sorted by time.  ``t`` is spec seconds in both, so
  ``scripts/run_trace.py`` is mode-agnostic.

* ``repro.obs/1`` — a single JSON document holding the counters, gauges
  and histograms :func:`~repro.obs.probes.fold_snapshot` folds from the
  run's per-process reports, plus run identity (mode, name, seed,
  duration).  Key sets are structural: every mode
  emits the full canonical namespace (zeros where inapplicable), so a
  sim snapshot and a live snapshot of the same spec always share keys.

This module also owns route-path reconstruction from ``route_hop``
records — shared by the report script and the tests.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Optional

TRACE_SCHEMA = "repro.trace/1"
OBS_SCHEMA = "repro.obs/1"

_COMPACT = {"separators": (",", ":"), "default": repr}


class TraceSink:
    """Streaming JSONL writer for trace records.

    Opened lazily on first write, so metadata set after construction
    (:meth:`update_meta`) still lands in the header line.
    """

    def __init__(self, path: str, *, meta: Optional[dict] = None) -> None:
        self.path = str(path)
        self.written = 0
        self._meta = dict(meta or {})
        self._fh: Optional[IO[str]] = None

    def _open(self) -> IO[str]:
        fh = open(self.path, "w", encoding="utf-8")
        header = {"schema": TRACE_SCHEMA}
        header.update(self._meta)
        fh.write(json.dumps(header, **_COMPACT) + "\n")
        self._fh = fh
        return fh

    def update_meta(self, **fields) -> None:
        """Add header fields (mode, name, seed); only before the first write."""
        if self._fh is None:
            self._meta.update(fields)

    def write(self, record) -> None:
        fh = self._fh
        if fh is None:
            fh = self._open()
        line = {"t": record.time, "node": record.node,
                "proto": record.protocol, "cat": record.category,
                "detail": record.detail}
        if record.data:
            line["data"] = record.data
        fh.write(json.dumps(line, **_COMPACT) + "\n")
        self.written += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def load_trace(path: str) -> tuple[dict, list[dict]]:
    """Read and validate a ``repro.trace/1`` file -> (header, records)."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first:
            raise ValueError(f"{path}: empty trace file")
        header = json.loads(first)
        if not isinstance(header, dict) or header.get("schema") != TRACE_SCHEMA:
            raise ValueError(
                f"{path}: not a {TRACE_SCHEMA} file "
                f"(header schema={header.get('schema') if isinstance(header, dict) else None!r})")
        records = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            for key in ("t", "node", "cat"):
                if key not in record:
                    raise ValueError(
                        f"{path}:{lineno}: record missing {key!r}")
            records.append(record)
    return header, records


def write_obs_snapshot(path: str, snapshot: dict) -> None:
    validate_obs_snapshot(snapshot)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True, default=repr)
        fh.write("\n")


def load_obs_snapshot(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        snapshot = json.load(fh)
    validate_obs_snapshot(snapshot)
    return snapshot


def validate_obs_snapshot(snapshot: dict) -> None:
    """Raise :class:`ValueError` unless *snapshot* is a ``repro.obs/1`` doc."""
    if not isinstance(snapshot, dict):
        raise ValueError("obs snapshot must be a dict")
    if snapshot.get("schema") != OBS_SCHEMA:
        raise ValueError(f"obs snapshot schema is {snapshot.get('schema')!r}, "
                         f"expected {OBS_SCHEMA!r}")
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(snapshot.get(section), dict):
            raise ValueError(f"obs snapshot missing {section!r} section")
    for name, histogram in snapshot["histograms"].items():
        for key in ("bounds", "counts", "count", "sum"):
            if key not in histogram:
                raise ValueError(f"histogram {name!r} missing {key!r}")
        if len(histogram["counts"]) != len(histogram["bounds"]) + 1:
            raise ValueError(f"histogram {name!r}: counts/bounds mismatch")


def reconstruct_routes(records: Iterable[dict]) -> list[dict]:
    """Rebuild per-request route paths from ``route_hop`` records.

    Each causal trace id groups the hops of one message's journey; hop
    *k*'s record carries the receiving ``node``, the sending ``src``, and
    the per-hop ``latency``.  Returns one dict per trace, sorted by first
    hop time::

        {"trace_id": ..., "path": [src0, node0, node1, ...],
         "hops": k, "latencies": [...], "total_latency": ...,
         "start": t0}
    """
    by_trace: dict = {}
    for record in records:
        if record.get("cat") != "route_hop":
            continue
        data = record.get("data") or {}
        trace_id = data.get("trace_id")
        if trace_id is None:
            continue
        by_trace.setdefault(trace_id, []).append(record)
    routes = []
    for trace_id, hops in by_trace.items():
        hops.sort(key=lambda record: (record["data"].get("hop", 0),
                                      record["t"]))
        first = hops[0]["data"]
        path = [first.get("src")] + [record["node"] for record in hops]
        latencies = [record["data"].get("latency", 0.0) for record in hops]
        routes.append({
            "trace_id": trace_id,
            "path": path,
            "hops": len(hops),
            "latencies": latencies,
            "total_latency": sum(latencies),
            "start": hops[0]["t"],
        })
    routes.sort(key=lambda route: route["start"])
    return routes
