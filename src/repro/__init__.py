"""MACEDON reproduction: a methodology for automatically creating, evaluating,
and designing overlay networks (NSDI 2004), rebuilt as a Python library.

The package is organised as the paper's system is:

* :mod:`repro.dsl` — the mac specification language;
* :mod:`repro.codegen` — the code generator (mac → Python agents), which
  also proves each ``locking read`` transition read-only;
* :mod:`repro.runtime` — the shared engine: event kernel, agents, layering,
  timers, failure detection, tracing;
* :mod:`repro.network` — the emulated network substrate (the ModelNet role);
* :mod:`repro.transport` — TCP/UDP/SWP transport service classes;
* :mod:`repro.api` — the overlay-generic MACEDON API's handler types (the
  calls are :class:`~repro.runtime.node.MacedonNode`'s ``macedon_*`` methods);
* :mod:`repro.protocols` — the bundled overlay specifications (Chord, Pastry,
  Scribe, SplitStream, Overcast, NICE, Bullet, AMMO, RandTree);
* :mod:`repro.baselines` — independently written comparison implementations
  (lsd-style Chord, FreePastry-style Pastry);
* :mod:`repro.apps` — reusable applications (replicated KV, topic pub/sub)
  attached as their node's deliver handler;
* :mod:`repro.eval` — metrics and the experiment harness reproducing the
  paper's evaluation.

One front door runs any scenario in any mode (see :mod:`repro.facade`)::

    import repro
    result = repro.run(spec)                  # single-process simulation
    summary = repro.run(spec, seeds=5)        # multi-seed replication
    live = repro.run(spec, mode="live")       # real processes, real UDP
"""

from ._lazy import lazy_front

__version__ = "1.0.0"

#: Public name -> the submodule it is imported from on first use.
_EXPORTS = {
    "run": ".facade",
    "compile_mac": ".codegen",
    "get_registry": ".codegen",
    "NetworkEmulator": ".network",
    "multi_site_topology": ".network",
    "transit_stub_topology": ".network",
    "MacedonNode": ".runtime",
    "Simulator": ".runtime",
    "Tracer": ".runtime",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_front(globals(), _EXPORTS)
