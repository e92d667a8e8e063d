#!/usr/bin/env python3
"""Benchmark the Cython kernel backend against the pure-Python fallback.

Times the scalar kernels directly and one end-to-end geodesic integration per
backend.  The kernel arguments are the seeded distributions of
``perfbench/kernels.py``.  The script puts the checkout's ``src`` on the
path of both processes, so it needs no install:

    python3 benchmarks/bench_backends.py
"""

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from h5geo._core import _kernels_py  # noqa: E402
from perfbench.kernels import kernel_args  # noqa: E402

try:
    from h5geo._core import _kernels_cy
except ImportError:
    _kernels_cy = None


def _time_kernel(fn, calls):
    t0 = time.perf_counter()
    for args in calls:
        fn(*args)
    return time.perf_counter() - t0


def bench_kernels(n=20000, seed=7):
    cases = kernel_args(seed, n)
    print(f"{'kernel':<16}{'python [ms]':>14}{'cython [ms]':>14}{'speedup':>10}")
    for name, calls in cases.items():
        t_py = _time_kernel(getattr(_kernels_py, name), calls)
        if _kernels_cy is None:
            print(f"{name:<16}{1e3 * t_py:>14.2f}{'n/a':>14}{'n/a':>10}")
            continue
        t_cy = _time_kernel(getattr(_kernels_cy, name), calls)
        print(
            f"{name:<16}{1e3 * t_py:>14.2f}{1e3 * t_cy:>14.2f}"
            f"{t_py / t_cy:>9.1f}x"
        )


_E2E = """
import time
import h5geo
from h5geo.reduction import ConservedCharges, state_from_charges
from h5geo.dynamics import IntegratorConfig, integrate_reduced

c = ConservedCharges(c0=1.0, c1=0.5, c2=0.3, c3=0.2, c4=0.5)
y0 = state_from_charges(c, 1.2)
cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
t0 = time.perf_counter()
for _ in range(5):
    integrate_reduced(y0, (0.0, 20.0), cfg)
print(h5geo.BACKEND_NAME, (time.perf_counter() - t0) / 5.0)
"""


def bench_end_to_end():
    print("\nend-to-end reduced integration, t in [0, 20], rel_tol 1e-10 (s/run):")
    results = {}
    for env_flag in (None, "1"):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        env.pop("H5GEO_PURE_PY", None)
        if env_flag is not None:
            env["H5GEO_PURE_PY"] = env_flag
        proc = subprocess.run(
            [sys.executable, "-c", _E2E],
            capture_output=True,
            text=True,
            env=env,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            raise SystemExit(1)
        name, secs = proc.stdout.split()
        results[name] = float(secs)
        print(f"  {name:<8} {float(secs):.4f}")
    if "cython" in results and "python" in results:
        print(f"  speedup  {results['python'] / results['cython']:.1f}x")


if __name__ == "__main__":
    bench_kernels()
    bench_end_to_end()
