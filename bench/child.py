"""One measurement process: import, set up a workload, then time or trace passes.

Started by ``run.py`` with BLAS/OpenMP threads pinned to 1; prints one JSON
object as its last line.  Modes:

* ``setup``: import ``targetdetect`` and build the workload's inputs, then exit;
* ``time``: as ``setup``, then an untimed warm-up pass and timed passes;
* ``trace``: as ``time`` with the layer tracer installed after the import.

``setup_s`` runs from the moment the parent spawned this process (the
system-wide monotonic clock) to the end of set-up.  Set-up and each timed
pass are measured with ``hostspeed.HostSpeed``, which reports wall seconds
and seconds scaled to a fixed host speed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: least number of timed passes, however short the run
MIN_PASSES = 1


def _environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}: {blas.get('openblas configuration')}",
        "threads": {v: os.environ.get(v) for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
    }


def _run_passes(workload, seconds, host, after_pass=None):
    """Timed passes until ``seconds`` have gone by; output checks run untimed.

    Returns (scaled pass times, wall pass times, ops, failures)."""
    times, walls, ops, failures = [], [], 0, defaultdict(lambda: [0, []])
    deadline = time.monotonic() + seconds
    while len(times) < MIN_PASSES or time.monotonic() < deadline:
        host.start()
        outputs = workload.run_pass()
        wall, scaled = host.stop()
        times.append(scaled)
        walls.append(wall)
        if after_pass is not None:
            after_pass()
        for name, output in outputs:
            n, failed = workload.check(name, output)
            ops += n
            for op, reason in failed:
                failures[op][0] += 1
                if reason not in failures[op][1]:
                    failures[op][1].append(reason)
    return times, walls, ops, dict(failures)


def _combine(setup, passes, n):
    """Set-up counters plus one pass's share of the pass counters."""
    out = {}
    for key, value in setup.items():
        if isinstance(value, Counter):
            total = Counter(value)
            for k, v in passes[key].items():
                total[k] += v / n
            out[key] = total
        else:
            out[key] = value + passes[key] / n
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "time", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() in the parent just before the spawn")
    args = parser.parse_args(argv)

    import hostspeed

    with hostspeed.HostSpeed() as host:
        print(json.dumps(_measure(args, host)))


def _measure(args, host):
    host.start(at=args.spawned)
    t0 = time.perf_counter()
    import targetdetect
    import_s = time.perf_counter() - t0
    src = (ROOT / "src").resolve()
    if Path(targetdetect.__file__).resolve().parent.parent != src:
        sys.exit(f"imported targetdetect from {targetdetect.__file__}, not from {src}")

    import workloads

    tracer = None
    if args.mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    workload = workloads.setup(args.workload, args.seed)
    setup_wall_s, setup_s = host.stop()
    result = {"setup_s": setup_s, "setup_wall_s": setup_wall_s, "import_s": import_s}
    if args.mode == "setup":
        return result

    setup_counters = tracer.counters() if tracer else None
    workload.run_pass()                                     # warm-up, untimed
    if tracer:
        tracer.reset()
    times, walls, ops, failures = _run_passes(workload, args.seconds, host,
                                              tracer and tracer.end_pass)
    result.update(
        pass_s=times,
        pass_wall_s=walls,
        ops=ops,
        failures=failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=_environment(),
    )
    if tracer:
        combined = _combine(setup_counters, tracer.counters(), len(times))
        result["layers"] = tracing.layer_metrics(combined, import_s)
    elif workload.properties is not None:
        result["properties"] = workload.properties()
    return result


if __name__ == "__main__":
    main()
