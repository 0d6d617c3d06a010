"""One benchmark phase in its own process: set-up, or one timed operation.

    python3 perfbench/child.py setup WORKLOAD SEED REPEATS RESULT_JSON
    python3 perfbench/child.py op WORKLOAD SEED TRACE RESULT_JSON

run.py starts it with the workload's work directory as the working
directory.  The result is written as JSON to RESULT_JSON.  Peak RSS and CPU
time therefore belong to this phase alone.

The process runs on one CPU, chosen before numpy is imported so that its
BLAS sizes its threads to that CPU as well.  On a small shared host the
training pool's threads otherwise hand the GIL back and forth between
CPUs, and wall time then measures the host's scheduler more than the
program (see README.md, "Load model").
"""

import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

ALLOWED_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
if ALLOWED_CPUS:
    os.sched_setaffinity(0, {ALLOWED_CPUS[-1]})

import workloads  # noqa: E402  (after the path set-up above)

def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_setup(workload, seed: int, repeats: int) -> dict:
    """Set up `repeats` times, timing each; the last one's inputs stay."""
    import numpy
    import survmix  # noqa: F401  (imported before the clock starts)
    times = []
    for _ in range(repeats):
        shutil.rmtree("inputs", ignore_errors=True)
        t0 = time.perf_counter()
        workloads.setup(workload, seed, Path("inputs"))
        times.append(time.perf_counter() - t0)
    return {"setup_s": times,
            "machine": {"nproc": os.cpu_count(),
                        "pinned_cpu": ALLOWED_CPUS[-1] if ALLOWED_CPUS else None,
                        "python": platform.python_version(),
                        "numpy": numpy.__version__}}


def run_op(workload, seed: int, traced: bool) -> dict:
    operation = workloads.prepare(workload, seed)
    tracer = None
    if traced:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    errors = []
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            errors += operation()
        else:
            with tracer.span("bench.op"):
                errors += operation(tracer)
    except Exception:  # a crash is a failed operation, reported with its traceback
        errors.append(traceback.format_exc())
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    result = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak,
              "errors": errors or workloads.check_outputs(workload)}
    if result["errors"]:
        return result
    result["mix_auc"] = workloads.mix_auc(workload)
    result["digest"] = workloads.artifact_digest()
    if tracer is not None:
        result["layers"] = _layer_metrics(workload, tracer, wall)
        fired = {span[2] for span in tracer.spans}
        missing = [s for s in workloads.expected_spans(workload) if s not in fired]
        if missing:
            result["errors"].append(f"expected spans never fired: {missing}")
    return result


def _layer_metrics(workload, tracer, wall: float) -> dict:
    totals = tracer.totals()
    self_seconds = tracer.self_seconds()
    metrics = {}
    for name in workloads.PER_LAYER:
        if name.endswith(".self_s"):
            metrics[name] = self_seconds.get(name[:-len(".self_s")], 0.0)
        elif name.endswith(".s"):
            metrics[name] = totals.get(name[:-len(".s")], 0.0)
        else:
            metrics[name] = tracer.counts.get(name, 0)
    metrics.update(workloads.artifact_layer_metrics(workload))
    metrics["trace.wall_s"] = wall
    del metrics["trace.overhead_s"]  # run.py sets it from the untraced runs
    return metrics


def main(argv) -> int:
    phase, name, seed = argv[0], argv[1], int(argv[2])
    workload = workloads.WORKLOADS[name]
    if phase == "setup":
        result = run_setup(workload, seed, int(argv[3]))
    else:
        result = run_op(workload, seed, traced=argv[3] == "1")
    Path(argv[-1]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
