"""plrlab benchmark: one run of one workload, printed as one JSON line.

Usage, from the repository root::

    python3 benchmarks/run.py --workload train-c10 --seed 1 --seconds 42 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones. The last line of stdout is the result object
(``correct``, ``attempted``, ``failed``, ``metrics``); the line before it
records the machine facts and run notes. Set-up, checks and the workload
table are in workloads.py.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import subprocess
import sys

# BLAS must be single-threaded before numpy is first imported (by
# workloads.py), so each workload is one thread on a closed loop. Only this
# process's environment changes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_out")


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_facts(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_implementation() + " " + platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _fail(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "plrlab", "__init__.py")):
        _fail(f"no plrlab sources under {SRC}; run from a full checkout")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = json.load(fh)
    except (OSError, ValueError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        _fail("--seconds must be positive")

    os.makedirs(WORKDIR, exist_ok=True)
    outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), WORKDIR)

    section = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    unknown = sorted(set(outcome.metrics) - set(units))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    missing = [name for name in units if name not in outcome.metrics]
    if missing and not args.trace:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    # A layer this workload never calls reads zero: no calls, no time.
    metrics = {name: {"value": outcome.metrics.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}

    for line in outcome.problems[:50]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps({"facts": machine_facts(args.seed), "workload": args.workload,
                      "layers": workloads.WORKLOADS[args.workload].layers,
                      "trace": args.trace, "notes": outcome.notes,
                      "not_exercised": missing}))
    print(json.dumps({
        "correct": outcome.failed == 0 and all(m["value"] is not None for m in metrics.values()),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
