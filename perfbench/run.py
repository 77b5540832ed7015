"""Layered benchmark of spikefst: graph set-up, then load -> compress ->
decode -> score for ``dense`` and ``ioo_koo/max``, plus single-utterance
``decode`` calls.

    python3 perfbench/run.py --workload blank_heavy --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics of BENCHMARK.json, measured with tracing off.  ``--trace 1``
prints the per-layer metrics: half its time runs untraced and half
traced, the gap between the two is the tracing overhead, and the spans
are written to ``perfbench/out/``.  Every metric is printed by name with
its unit; the last line of standard output is one JSON object.  Any
correctness violation makes the exit code 1, and a missing package
source tree makes it 2 without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Thread-pool variables read by numpy's BLAS at import: one thread, so the
# benchmark measures the program and not the scheduler.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def import_package():
    """Import spikefst from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "spikefst" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    try:
        import spikefst
    except ImportError:
        return None
    if not Path(spikefst.__file__).resolve().is_relative_to(SRC.resolve()):
        return None
    return spikefst


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_rev": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if import_package() is None:
        print(f"perfbench: no spikefst package under {SRC}", file=sys.stderr)
        return 2
    import core
    from tracing import Tracer
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload]
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    tracer = Tracer()
    violation = None
    result = None
    try:
        files, refs = core.prepare(w, args.seed, workdir)
        if args.trace:
            result = core.run_traced(files, refs, workdir, args.seconds, tracer)
        else:
            result = core.run_untraced(files, refs, workdir, args.seconds)
    except core.GateError as exc:
        violation = str(exc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"workload": w.name, "why": w.why, "params": w.params(),
              "env": environment(args.seed), "trace": args.trace,
              "correct": violation is None, "violation": violation}
    if args.trace:
        spans = OUT / f"spans-{w.name}-seed{args.seed}.json"
        tracer.dump(spans)
        record["spans"] = str(spans.relative_to(ROOT))
    if result is not None:
        record.update(attempted=result.attempted, failed=result.failed, notes=result.notes,
                      metrics={k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()})
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2, default=str))

    print(f"# {w.name} seed={args.seed} trace={args.trace}: {w.why}")
    if result is not None:
        for name, (value, unit) in result.metrics.items():
            print(f"{name:40s} {value:14.6g} {unit}")
        for name, value in result.notes.items():
            if isinstance(value, float):
                print(f"{name:40s} {value:14.6g}")
            elif not isinstance(value, list):
                print(f"{name:40s} {value}")
    print(f"correctness gate: {'PASS' if violation is None else 'FAIL: ' + violation}")
    print(json.dumps({
        "correct": violation is None,
        "attempted": result.attempted if result else 1,
        "failed": result.failed if result else 0,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in (result.metrics.items() if result else [])},
    }))
    return 0 if violation is None else 1


if __name__ == "__main__":
    sys.exit(main())
