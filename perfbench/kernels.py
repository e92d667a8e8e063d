"""Direct timing of the scalar ``_core`` kernels on seeded arguments.

The argument distributions are those of ``benchmarks/bench_backends.py``; this
table feeds the ``core.<kernel>.ns_per_call`` metrics of the traced run.  It is
the kernel timer to keep: ``bench_backends.py`` still carries its own copy of
the same loop and should be pointed at ``kernel_table`` rather than changed on
its own, so the kernels are timed one way only.  Run as a script from the
repository root to print the table:

    python3 perfbench/kernels.py [--seed N]
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

KERNELS = ("carlson_rf", "am_sncndn", "ellint_e_core", "hyper_rhs", "full_rhs")


def kernel_args(seed: int, n: int) -> dict[str, list[tuple]]:
    rng = random.Random(seed)
    return {
        "carlson_rf": [tuple(rng.uniform(1e-6, 10.0) for _ in range(3)) for _ in range(n)],
        "am_sncndn": [(rng.uniform(-20.0, 20.0), rng.uniform(0.0, 0.999)) for _ in range(n)],
        "ellint_e_core": [(rng.uniform(-10.0, 10.0), rng.uniform(0.0, 0.999)) for _ in range(n)],
        "hyper_rhs": [
            (rng.uniform(0.3, 2.0), rng.uniform(0.2, 1.3))
            + tuple(rng.uniform(-2.0, 2.0) for _ in range(7))
            for _ in range(n)
        ],
        "full_rhs": [
            tuple(rng.uniform(-2.0, 2.0) for _ in range(5))
            + ([rng.uniform(-2.0, 2.0) for _ in range(5)],)
            for _ in range(n)
        ],
    }


def kernel_table(seed: int, n: int = 2000, repeats: int = 5) -> dict[str, float]:
    """Median over repeats of ns per call of each kernel of the active backend."""
    from h5geo import _core

    table = {}
    for name, calls in kernel_args(seed, n).items():
        fn = getattr(_core, name)
        samples = []
        for _ in range(repeats):
            t0 = perf_counter()
            for args in calls:
                fn(*args)
            samples.append((perf_counter() - t0) / n * 1e9)
        table[name] = statistics.median(samples)
    return table


if __name__ == "__main__":
    import argparse
    import sys
    from pathlib import Path

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import h5geo

    print(f"backend {h5geo.BACKEND_NAME}")
    for name, ns in kernel_table(args.seed).items():
        print(f"{name:<16}{ns:>12.1f} ns/call")
