"""The targetdetect benchmark: one workload, timed or traced, with output checks.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {validate,oracle_points,figures} \\
        --seed N --seconds T --trace {0,1}

Every measurement runs in a fresh single-process child (``child.py``) with
OMP/OpenBLAS/MKL threads pinned to 1 and ``src/`` first on the import path.
Times are host-speed scaled seconds (``hostspeed.py``): wall time rescaled to
a host on which a fixed probe takes a fixed time, so that other tenants of a
shared machine do not move them.  Wall times are printed as comments.

* ``--trace 0`` prints the end-to-end metrics: ``pass_s`` (median time of
  one pass, after an untimed warm-up pass), ``setup_s`` (median over
  several children of spawn-to-inputs-built time) and ``peak_rss_mb``.
* ``--trace 1`` runs an untraced child and a traced child for half of
  ``T`` each and prints the per-layer metrics of one set-up plus one pass,
  the tracing overhead (traced minus untraced ``pass_s``) and ``fail_ratio``.

The seed fixes the order of the tasks in a pass.  Lines before the last are
comments starting with ``#``: environment, pass counts, workload properties
and every failed op by name.  The last line is the JSON result.  ``correct``
is false when an op fails that is not a known defect of the seed code listed
in ``golden.json``, or fails in another way than the failure modes pinned
there for it; known defects still count in ``failed``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("validate", "oracle_points", "figures")
#: children whose set-up time enters the ``setup_s`` median
SETUP_SAMPLES = 9
#: wall-clock budget for one run, children included
RUN_BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class ChildError(RuntimeError):
    pass


def _child_env():
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def _run_child(mode, args, seconds, deadline):
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildError("run budget exhausted")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{mode} child timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _percentile_note(times):
    """The highest percentile with at least ten passes beyond it, if any."""
    for q in (99, 95, 90, 75, 50):
        if len(times) * (100 - q) / 100 >= 10:
            return f"p{q} {statistics.quantiles(times, n=100)[q - 1]:.6f} s"
    return "no percentile with ten passes beyond it"


def _is_known(defect, reasons):
    """Whether every part of every reason is one of the failure modes pinned for a known defect."""
    if defect is None:
        return False
    parts = [part for reason in reasons for part in reason.split("; ")]
    return all(any(mode in part for mode in defect["reasons"]) for part in parts)


def _comment(text):
    print(f"# {text}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    # byte-compile once so no child pays for it inside its set-up time; a tree
    # without the package fails in the child, which refuses any other copy
    compileall.compile_dir(str(ROOT / "src" / "targetdetect"), quiet=2)
    known = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))["known_failures"]

    try:
        if args.trace:
            plain = _run_child("time", args, args.seconds / 2, deadline)
            main_child = _run_child("trace", args, args.seconds / 2, deadline)
            children = [plain, main_child]
        else:
            main_child = _run_child("time", args, args.seconds, deadline)
            setups = [main_child] + [_run_child("setup", args, 0, deadline)
                                     for _ in range(SETUP_SAMPLES - 1)]
            children = [main_child]
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(c["ops"] for c in children)
    failures = {}
    for child in children:
        for op, (count, reasons) in child["failures"].items():
            entry = failures.setdefault(op, [0, []])
            entry[0] += count
            entry[1] += [r for r in reasons if r not in entry[1]]
    failed = sum(count for count, _ in failures.values())
    expected = known.get(args.workload, {})
    known_ops = {op for op, (_, reasons) in failures.items() if _is_known(expected.get(op), reasons)}
    correct = attempted >= 1 and set(failures) == known_ops

    env = main_child["env"]
    _comment(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    _comment(f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}")
    _comment(f"blas {env['blas']}")
    _comment(f"threads {env['threads']}  nproc {env['nproc']}")
    times = main_child["pass_s"]
    _comment(f"{len(times)} timed passes: median {statistics.median(times):.6f} s, "
             f"{_percentile_note(times)}; wall median "
             f"{statistics.median(main_child['pass_wall_s']):.6f} s")
    for name, props in main_child.get("properties", {}).items():
        _comment(f"pair {name}: {json.dumps(props)}")
    for op, (count, reasons) in sorted(failures.items()):
        tag = "known seed defect" if op in known_ops else "NEW FAILURE"
        _comment(f"failed {op} in {count} passes ({tag}): {' | '.join(reasons)}")

    if args.trace:
        metrics = dict(main_child["layers"])
        metrics["trace.overhead_s"] = (
            statistics.median(main_child["pass_s"]) - statistics.median(plain["pass_s"]), "s")
        metrics["fail_ratio"] = (failed / attempted if attempted else 1.0, "ratio")
    else:
        metrics = {
            "pass_s": (statistics.median(times), "s"),
            "setup_s": (statistics.median(c["setup_s"] for c in setups), "s"),
            "peak_rss_mb": (main_child["peak_rss_mb"], "MB"),
        }
        for key in ("setup_s", "setup_wall_s"):
            _comment(f"{key} samples: {', '.join(f'{c[key]:.6f}' for c in setups)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
