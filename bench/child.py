"""One child process: one workload, set up once and measured once.

``python -m bench.child WORKLOAD SEED SECONDS SCALE TRACE`` prints one JSON
object on its last stdout line.  :mod:`bench.run` starts every child fresh
(``PYTHONHASHSEED=0``) so that imports, ``.mac`` parsing and codegen are paid
inside ``setup_s`` every time.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

from .calib import Phase
from .layers import Tracer
from .workloads import WORKLOADS, percentile

OUT_DIR = Path(__file__).resolve().parent / "out"


def run_child(name: str, seed: int, seconds: float, scale: float = 1.0,
              trace: bool = False) -> dict:
    """Generate, set up, measure and score one workload in this process."""
    tracer = Tracer() if trace else None
    on_slice = tracer.flush if tracer is not None else None
    workload = WORKLOADS[name](seed, seconds, scale, tracer)
    try:
        workload.generate()
        setup = Phase(on_slice)
        workload.setup(setup)
        setup_layers = tracer.take() if tracer is not None else None
        run = Phase(on_slice)
        workload.measure(run)
        run_layers = tracer.take() if tracer is not None else None
    finally:
        if tracer is not None:
            tracer.uninstall()
    outcome = workload.outcome()
    latencies = outcome.pop("latencies_ms")
    result = {
        "workload": name,
        "seed": seed,
        "setup_s": setup.calibrated_s,
        "run_s": run.calibrated_s,
        "converge_s": workload.converge_s,
        "op_latency_p50_ms": percentile(latencies, 0.50),
        "op_latency_p90_ms": percentile(latencies, 0.90),
        "op_latency_p99_ms": percentile(latencies, 0.99),
        "latency_samples": len(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "problems": workload.problems,
        "info": {"setup": setup.info(), "run": run.info()},
        **outcome,
    }
    if tracer is not None:
        result["layers"] = {"setup": setup_layers, "run": run_layers}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"{name}.spans.jsonl")
    return result


def main(argv: list[str]) -> int:
    name, seed, seconds, scale, trace = argv
    result = run_child(name, int(seed), float(seconds), float(scale),
                       trace == "1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
