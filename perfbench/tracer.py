"""Span tracing of h5geo's layers from outside the package.

The tracer replaces each layer function at the names through which other
modules (and the benchmark) call it, for the duration of one op, and restores
the originals afterwards, so correctness checks are never traced.  Each span
records its name, start, end, parent span, op id and thread id.  A layer's
self time is its spans' durations minus the time their child spans cover.

Spans of every op are folded into per-layer totals when the op ends; the raw
spans of the first ``keep_ops`` ops are kept in memory and can be written out
when the run ends (one op of the dense workload makes tens of thousands of
spans, so keeping them all would cost hundreds of megabytes).
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
from collections import defaultdict
from dataclasses import dataclass
from functools import wraps
from time import perf_counter

from h5geo import cli, dynamics, elliptic, heisenberg, quadrature, reduction
from h5geo import trace as trace_module
from h5geo.quadrature import RadialSolution, Theta1Solution
from h5geo.trace import GeodesicTrace

ROOT_LAYER = "bench"  # the benchmark's own code between calls into h5geo


@dataclass(frozen=True)
class Site:
    """One name through which a layer function is called."""

    owner: object  # module or class holding the name
    attr: str
    layer: str

    @property
    def span(self) -> str:
        """The binding's own name, e.g. ``dynamics._hyper_rhs``."""
        owner = getattr(self.owner, "__qualname__", None) or self.owner.__name__.rsplit(".", 1)[-1]
        return f"{owner}.{self.attr}"


# (owner, names, layer): every name another module or the benchmark calls a
# layer through.  _core kernels are reached through the names their callers
# imported them under; the sub-layers of quadrature split its self time into
# set-up, radial inversion, the theta1 oscillator and the ambient lift.
_SITES = (
    (quadrature, ("classify", "case_tag", "profile_from_charges"), "classify"),
    (cli, ("classify", "make_profile", "profile_from_charges"), "classify"),
    (quadrature, ("invert_ratio", "jacobi_E", "jacobi_sncndn"), "elliptic"),
    (elliptic, ("am_sncndn", "am_sncndn_degenerate", "complete_k", "ellint_e_core",
                "ellint_f_core"), "core"),
    (dynamics, ("_full_rhs", "_hyper_rhs"), "core"),
    (reduction, ("_hyper_rhs_kernel", "_wsys_rhs_kernel"), "core"),
    (heisenberg, ("_full_h", "_full_rhs_kernel"), "core"),
    (quadrature, ("geodesic_quadrature",), "quadrature"),
    (cli, ("geodesic_quadrature", "tau_of_radius"), "quadrature"),
    (RadialSolution, ("__init__",), "quadrature.setup"),
    (quadrature, ("theta1_solution",), "quadrature.setup"),
    (RadialSolution, ("radius_of_time", "pr_of_time"), "quadrature.radial"),
    (Theta1Solution, ("v", "theta1", "pth1"), "quadrature.theta1"),
    (quadrature, ("reconstruct_ambient",), "quadrature.lift"),
    (cli, ("reconstruct_ambient",), "quadrature.lift"),
    (quadrature, ("brentq", "cumulative_simpson"), "scipy"),
    (dynamics, ("brentq",), "scipy"),
    (dynamics, ("integrate_reduced",), "dynamics"),
    (cli, ("integrate_reduced",), "dynamics"),
    (quadrature, ("charges_from_state", "from_reduced", "hyper_to_cart"), "reduction"),
    (cli, ("charges_from_state", "state_from_charges"), "reduction"),
    (trace_module, ("integrals",), "reduction"),
    (quadrature, ("full_rhs",), "heisenberg"),
    (cli, ("full_rhs", "horizontality_defect", "sr_speed"), "heisenberg"),
    (GeodesicTrace, ("integral_values", "state"), "trace"),
    (cli, ("main", "_sweep_one", "_dispatch", "cmd_classify", "cmd_trace",
           "cmd_quadrature", "cmd_validate", "cmd_sweep"), "cli"),
)


class Tracer:
    """Records spans around h5geo's layer boundaries while installed."""

    def __init__(self, keep_ops: int = 3):
        self.sites = [Site(o, a, layer) for o, attrs, layer in _SITES for a in attrs]
        self.keep_ops = keep_ops
        self.kept: list[tuple] = []  # raw spans of the first keep_ops ops
        self.spans: list[tuple] = []  # spans of the op in progress
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._originals: list[tuple[object, str, object]] = []
        self._op_stack: list[int] = []
        self.op_id = 0
        self.counters: dict[str, float] = defaultdict(float)

    # -- span recording -----------------------------------------------------

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, fn, site: Site, on_return=None):
        tracer = self
        span, layer = site.span, site.layer

        @wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # a pool worker's first span hangs under the op's innermost open span
            parent = stack[-1] if stack else (tracer._op_stack[-1] if tracer._op_stack else 0)
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append(
                    (sid, parent, span, layer, t0, t1, tracer.op_id, threading.get_ident())
                )
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def _count_integration(self, tr):
        n_acc = tr.diagnostics.get("n_steps", 0)
        n_rej = tr.diagnostics.get("n_rejected", 0)
        with self._lock:
            self.counters["dynamics.steps_accepted"] += n_acc
            self.counters["dynamics.steps_rejected"] += n_rej
            self.counters["dynamics.integrations"] += 1
            # DOPRI5 with FSAL: six RHS calls per attempted step, plus the
            # initial slope and the initial-step probe
            self.counters["dynamics.rhs_expected"] += 6 * (n_acc + n_rej) + 2

    def _count_samples(self, tr):
        with self._lock:
            self.counters["quadrature.samples"] += tr.times.size

    # -- installation ---------------------------------------------------------

    def install(self):
        if self._originals:
            raise RuntimeError("tracer already installed")
        for site in self.sites:
            fn = site.owner.__dict__[site.attr]
            hook = None
            if site.layer == "dynamics":
                hook = self._count_integration
            elif site.span.endswith(".geodesic_quadrature"):
                hook = self._count_samples
            self._originals.append((site.owner, site.attr, fn))
            setattr(site.owner, site.attr, self._wrap(fn, site, hook))

    def uninstall(self):
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()

    def run_op(self, op_id: int, fn, *args):
        """Run fn(*args) as one traced op under a root span of the benchmark layer."""
        self.op_id = op_id
        self.spans = []
        root = next(self._ids)
        self._op_stack = self._stack()
        self._op_stack.append(root)
        self.install()
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            self.uninstall()
            self._op_stack.pop()
            self.spans.append(
                (root, 0, "bench.op", ROOT_LAYER, t0, t1, op_id, threading.get_ident())
            )
            if len(self.kept) < self.keep_ops:
                self.kept.append(tuple(self.spans))

    def span_cost(self, n: int = 2000, repeats: int = 5) -> float:
        """Seconds one traced call adds to a plain call: the tracing overhead per span."""
        def plain():
            return None

        traced = self._wrap(plain, Site(Tracer, "span_cost", ROOT_LAYER))
        samples = []
        for _ in range(repeats):
            self.spans = []
            t0 = perf_counter()
            for _ in range(n):
                plain()
            t1 = perf_counter()
            for _ in range(n):
                traced()
            t2 = perf_counter()
            samples.append(((t2 - t1) - (t1 - t0)) / n)
        self.spans = []
        return statistics.median(samples)

    def write_spans(self, path):
        keys = ("id", "parent", "name", "layer", "start", "end", "op", "thread")
        with open(path, "w") as fh:
            for op_spans in self.kept:
                for sp in op_spans:
                    fh.write(json.dumps(dict(zip(keys, sp))) + "\n")


def _covered(intervals, lo=float("-inf"), hi=float("inf")) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for c0, c1 in sorted(intervals):
        c0, c1 = max(c0, end), min(c1, hi)
        if c1 > c0:
            total += c1 - c0
            end = c1
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, _, t0, t1, _, _ in spans:
        children[parent].append((t0, t1))
    return {sid: (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
            for sid, _, _, _, t0, t1, _, _ in spans}


def nesting_errors(spans) -> list[str]:
    """Spans that do not lie inside their parent span, or whose parent is missing."""
    bounds = {sid: (t0, t1) for sid, _, _, _, t0, t1, _, _ in spans}
    out = []
    for sid, parent, name, _, t0, t1, _, _ in spans:
        if parent == 0:
            continue
        if parent not in bounds:
            out.append(f"{name}: parent span {parent} missing")
        elif not bounds[parent][0] <= t0 <= t1 <= bounds[parent][1]:
            out.append(f"{name}: outside its parent span")
    return out


def op_summary(spans) -> dict:
    """Per-layer calls and self time (s) of one op, plus its wall and overlap.

    ``overlap`` is the time the op's spans ran concurrently in several threads
    (the sweep pool).  ``spans`` counts the op's spans, the root included.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    names: dict[str, int] = defaultdict(int)
    incl: dict[str, float] = defaultdict(float)
    root = next(sp for sp in spans if sp[2] == "bench.op")
    by_parent: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, parent, name, layer, t0, t1, _, _ in spans:
        self_s[layer] += selfs[sid]
        names[name] += 1
        incl[name] += t1 - t0
        if sid != root[0]:
            calls[layer] += 1
        by_parent[parent].append((t0, t1))
    overlap = sum(sum(c1 - c0 for c0, c1 in iv) - _covered(iv) for iv in by_parent.values())
    return {
        "wall": root[5] - root[4],
        "overlap": overlap,
        "spans": len(spans),
        "calls": dict(calls),
        "self_s": dict(self_s),
        "names": dict(names),
        "inclusive_s": dict(incl),
    }
