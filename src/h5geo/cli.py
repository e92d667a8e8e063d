"""Command-line front end.

Exit codes: 0 success, 1 validation/runtime tolerance failure, 2 malformed
input.  Numeric output uses 17 significant digits so every value round-trips
to the same double; identical flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .classify import TrajectoryKind, classify, make_profile, profile_from_charges
from .dynamics import IntegratorConfig, integrate_reduced
from .errors import (
    ChartSingularityError,
    DegenerateOrbitError,
    DomainError,
    H5GeoError,
    InfeasibleProfileError,
)
from .heisenberg import CotangentState, TangentVector, full_rhs, horizontality_defect, sr_speed
from .quadrature import RadialSolution, geodesic_quadrature, reconstruct_ambient, tau_of_radius
from .reduction import (
    ConservedCharges,
    HypersphericalState,
    charges_from_state,
    state_from_charges,
)
from .trace import GeodesicTrace

_TRACE_HEADER = (
    "t,r,theta1,theta2,theta3,p_r,p_theta1,p_theta2,p_theta3,I1,I2,I3,I4,H"
)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _meta_lines(charges: ConservedCharges | None = None, case: str | None = None):
    lines = [f"# h5geo {__version__}"]
    if charges is not None:
        lines.append(
            "# charges c0={} c1={} c2={} c3={} c4={}".format(
                *(_fmt(v) for v in (charges.c0, charges.c1, charges.c2, charges.c3, charges.c4))
            )
        )
    if case is not None:
        lines.append(f"# case {case}")
    return lines


def _add_charge_flags(p: argparse.ArgumentParser, required: bool):
    p.add_argument("--c0", type=float, required=required)
    p.add_argument("--c1", type=float, required=required)
    p.add_argument("--c2", type=float, required=required)
    p.add_argument("--c3", type=float, required=required)
    p.add_argument("--c4", type=float, default=0.5)


def _add_state_flags(p: argparse.ArgumentParser):
    for name in ("r", "theta1", "theta2", "theta3", "pr", "ptheta1", "ptheta2", "ptheta3"):
        p.add_argument(f"--{name}", type=float, default=None)


def _charges_from_args(args) -> ConservedCharges | None:
    # --c0 alone is the level constant of an initial state, not a charge set
    if all(v is None for v in (args.c1, args.c2, args.c3)):
        return None
    if any(v is None for v in (args.c0, args.c1, args.c2, args.c3)):
        raise DomainError("charges need all of --c0 --c1 --c2 --c3")
    return ConservedCharges(args.c0, args.c1, args.c2, args.c3, args.c4)


def _state_from_args(args, c0: float | None = None) -> HypersphericalState | None:
    names = ("r", "theta1", "theta2", "theta3", "pr", "ptheta1", "ptheta2", "ptheta3")
    vals = [getattr(args, n) for n in names]
    if all(v is None for v in vals):
        return None
    if any(v is None for v in vals):
        raise DomainError(f"an initial state needs all of {', '.join('--' + n for n in names)}")
    level = c0 if c0 is not None else getattr(args, "c0", None)
    if level is None:
        raise DomainError("an initial state also needs --c0")
    return HypersphericalState(*vals, level)


def _resolve_run_input(args) -> tuple[ConservedCharges, HypersphericalState]:
    """Charges + state from the flag combination the command allows."""
    state = _state_from_args(args)
    charges = _charges_from_args(args) if hasattr(args, "c1") else None
    if state is not None:
        extracted = charges_from_state(state)
        if charges is not None:
            dev = max(
                abs(extracted.c1 - charges.c1),
                abs(extracted.c2 - charges.c2),
                abs(extracted.c3 - charges.c3),
                abs(extracted.c4 - charges.c4),
            )
            if dev > 1e-9:
                raise DomainError(
                    f"given charges disagree with the initial state (deviation {dev:.3e})"
                )
        return extracted, state
    if charges is None:
        raise DomainError("give either an initial state or charges")
    r0 = getattr(args, "r0", None)
    if r0 is None:
        raise DomainError("charges without a state need --r0 (starting radius)")
    return charges, state_from_charges(charges, r0)


def _trace_rows(trace: GeodesicTrace, out, branch: bool = False):
    header = _TRACE_HEADER + (",branch" if branch else "")
    print(header, file=out)
    iv = trace.integral_values()
    for i, t in enumerate(trace.times):
        y = trace.ys[i]
        cells = [t, *y, *iv[i], iv[i][3]]
        row = ",".join(_fmt(v) for v in cells)
        if branch:
            sgn = trace.branch_signs[i] if trace.branch_signs is not None else np.sign(y[4])
            row += "," + ("+1" if sgn >= 0 else "-1")
        print(row, file=out)


def _t_grid(t_end: float, samples: int) -> np.ndarray:
    if samples < 1:
        raise DomainError("--samples must be at least 1")
    if t_end == 0.0 or samples == 1:
        return np.array([0.0])
    return np.linspace(0.0, t_end, samples)


def cmd_classify(args, out=sys.stdout) -> int:
    charges = _charges_from_args(args)
    if charges is None:
        raise DomainError("classify needs --c0 --c1 --c2 --c3")
    profile = profile_from_charges(charges)
    traj = classify(profile)  # raises on degenerate/infeasible
    roots = profile.radial_roots()
    report = {
        "A": profile.a,
        "B": profile.b,
        "C_q": profile.c_q,
        "roots": list(roots),
        "case": profile.tag.value,
        "type": traj.kind.value,
    }
    if traj.kind is TrajectoryKind.TYPE_I:
        report["r0"] = traj.r0
    else:
        report["r1"] = traj.r1
        report["r2"] = traj.r2
    if args.format == "json":
        print(json.dumps(report, sort_keys=True), file=out)
        return 0
    for line in _meta_lines(charges, profile.tag.value):
        print(line, file=out)
    print(f"A={_fmt(profile.a)} B={_fmt(profile.b)} C_q={_fmt(profile.c_q)}", file=out)
    print("roots=" + ",".join(_fmt(r) for r in roots), file=out)
    print(f"case={profile.tag.value}", file=out)
    if traj.kind is TrajectoryKind.TYPE_I:
        print(f"type=I r0={_fmt(traj.r0)}", file=out)
    else:
        print(f"type=II r1={_fmt(traj.r1)} r2={_fmt(traj.r2)}", file=out)
    return 0


def cmd_trace(args, out=sys.stdout) -> int:
    charges, state = _resolve_run_input(args)
    grid = _t_grid(args.t_end, args.samples)
    cfg = IntegratorConfig(rel_tol=args.rel_tol, abs_tol=args.abs_tol)
    trace = integrate_reduced(state, (0.0, args.t_end) if args.t_end else (0.0, 0.0), cfg, t_eval=grid)
    for line in _meta_lines(charges):
        print(line, file=out)
    _trace_rows(trace, out)
    if trace.exit_reason is not None:
        print(f"early termination: {trace.exit_reason}", file=sys.stderr)
        return 1
    return 0


def cmd_quadrature(args, out=sys.stdout) -> int:
    charges, state = _resolve_run_input(args)
    grid = _t_grid(args.t_end, args.samples)
    try:
        trace = geodesic_quadrature(charges, state, grid)
    except (DegenerateOrbitError, InfeasibleProfileError) as exc:
        profile = profile_from_charges(charges)
        print(f"unsupported profile (case report): A={_fmt(profile.a)} "
              f"B={_fmt(profile.b)} C_q={_fmt(profile.c_q)} tag={profile.tag.value}",
              file=sys.stderr)
        print(str(exc), file=sys.stderr)
        return 1
    for line in _meta_lines(charges, trace.diagnostics.get("case")):
        print(line, file=out)
    _trace_rows(trace, out, branch=True)
    if trace.exit_reason is not None:
        print(f"early termination: {trace.exit_reason}", file=sys.stderr)
        return 1
    return 0


def cmd_validate(args, out=sys.stdout) -> int:
    charges, state = _resolve_run_input(args)
    grid = _t_grid(args.t_end, args.samples)
    analytic = geodesic_quadrature(charges, state, grid)
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13)
    numeric = integrate_reduced(state, (0.0, args.t_end or 0.0), cfg, t_eval=grid)
    n = min(analytic.times.size, numeric.times.size)
    coord_dev = float(np.max(np.abs(analytic.ys[:n] - numeric.ys[:n]))) if n else float("inf")
    iv = analytic.integral_values()
    drift = float(np.max(np.abs(iv - iv[0])))
    ambient = reconstruct_ambient(analytic)
    defect = 0.0
    speed_dev = 0.0
    for yrow in ambient.ys:
        full = CotangentState.from_array(yrow)
        rhs = full_rhs(full)
        vel = TangentVector(*rhs[:5])
        defect = max(defect, abs(horizontality_defect(full.q, vel)))
        speed_dev = max(speed_dev, abs(sr_speed(full.q, vel) - np.sqrt(2.0 * charges.c4)))
    rows = {
        "max_coord_discrepancy": coord_dev,
        "integral_drift": drift,
        "horizontality_defect": defect,
        "speed_deviation": speed_dev,
    }
    for line in _meta_lines(charges):
        print(line, file=out)
    ok = all(v <= args.tol for v in rows.values())
    for k, v in rows.items():
        print(f"{k}={_fmt(v)}", file=out)
    print(f"tol={_fmt(args.tol)}", file=out)
    print(f"status={'pass' if ok else 'fail'}", file=out)
    return 0 if ok else 1


_FIG_TR_LABELS = {-1.0: "Am1", 0.0: "A0", 0.5: "A0p5", 2.0: "A2"}


def cmd_figures(args, out=sys.stdout) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.which == "fig-tr":
        for a_coef in (-1.0, 0.0, 0.5, 2.0):
            profile = make_profile(a_coef, 1.0, 0.0)
            r_max = 1.0 if a_coef < 0.0 else 3.0
            rs = np.linspace(0.0, r_max, args.samples)
            path = out_dir / f"fig_tr_{_FIG_TR_LABELS[a_coef]}.csv"
            with open(path, "w") as fh:
                for line in _meta_lines(case=profile.tag.value):
                    print(line, file=fh)
                print(f"# f(r) = {_fmt(a_coef)} r^4 + r^2", file=fh)
                print("r,t", file=fh)
                for r in rs:
                    print(f"{_fmt(r)},{_fmt(tau_of_radius(profile, r))}", file=fh)
            print(str(path), file=out)
        return 0
    if args.which == "fig-example":
        charges = ConservedCharges(2.0, 0.5, 0.25, -0.25, 0.5)
        state = state_from_charges(charges, 1.0 + 1e-13)
        grid = np.linspace(0.0, args.t_end, args.samples)
        trace = geodesic_quadrature(charges, state, grid)
        path = out_dir / "fig_example.csv"
        with open(path, "w") as fh:
            for line in _meta_lines(charges, trace.diagnostics.get("case")):
                print(line, file=fh)
            print("# f(r) = r^2/2 - 1/2", file=fh)
            print("t,r,theta1", file=fh)
            for i, t in enumerate(trace.times):
                print(f"{_fmt(t)},{_fmt(trace.ys[i, 0])},{_fmt(trace.ys[i, 1])}", file=fh)
        print(str(path), file=out)
        return 0
    raise DomainError(f"unknown figure tag {args.which!r}")


def _sweep_one(i: int, run: dict, out_dir: Path) -> dict:
    mode = run.get("mode")
    # one token per flag: argparse reads a separate "-3.5e-18" as an option name
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in run.items() if k != "mode"]
    path = out_dir / f"run_{i:04d}.{ 'json' if mode == 'classify' else 'csv' }"
    argv = [mode, *flags]
    if mode == "classify":
        argv += ["--format", "json"]
    try:
        with open(path, "w") as fh:
            code = _dispatch(_build_parser().parse_args(argv), out=fh)
    except H5GeoError as exc:
        path.write_text(f"# error: {exc}\n")
        code = 2
    except SystemExit as exc:  # malformed run entry rejected by the parser
        path.write_text(f"# error: invalid run configuration {run!r}\n")
        code = int(exc.code or 0) or 2
    return {"run": i, "mode": mode, "output": path.name, "exit_code": code}


def cmd_sweep(args, out=sys.stdout) -> int:
    with open(args.config) as fh:
        config = json.load(fh)
    runs = config.get("runs", [])
    out_dir = Path(args.out_dir or config.get("out_dir", "sweep_out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    results = [_sweep_one(i, run, out_dir) for i, run in enumerate(runs)]
    index = {"version": __version__, "results": results}
    index_path = out_dir / "index.json"
    index_path.write_text(json.dumps(index, sort_keys=True, indent=2) + "\n")
    print(str(index_path), file=out)
    return 0 if all(r["exit_code"] == 0 for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="h5geo",
        description="Geodesic flow of the sub-Riemannian LR metric on the 5-dim Heisenberg group",
    )
    parser.add_argument("--version", action="version", version=f"h5geo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a charge set")
    _add_charge_flags(p, required=False)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_classify)

    for name, fn in (("trace", cmd_trace), ("quadrature", cmd_quadrature)):
        p = sub.add_parser(name, help=f"{name} a geodesic")
        _add_charge_flags(p, required=False)
        _add_state_flags(p)
        p.add_argument("--r0", type=float, default=None, help="starting radius when only charges are given")
        p.add_argument("--t-end", type=float, default=10.0)
        p.add_argument("--samples", type=int, default=200)
        p.add_argument("--rel-tol", type=float, default=1e-12)
        p.add_argument("--abs-tol", type=float, default=1e-13)
        p.set_defaults(func=fn)

    p = sub.add_parser("validate", help="cross-validate the two pipelines")
    _add_charge_flags(p, required=False)
    _add_state_flags(p)
    p.add_argument("--r0", type=float, default=None)
    p.add_argument("--t-end", type=float, default=10.0)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("figures", help="emit figure-reproduction data")
    p.add_argument("--which", required=True)
    p.add_argument("--out-dir", default="figures_out")
    p.add_argument("--t-end", type=float, default=10.0)
    p.add_argument("--samples", type=int, default=401)
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("sweep", help="run a batch of configurations from a JSON file")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_sweep)
    return parser


def _dispatch(args, out=None) -> int:
    # the stream is looked up per call, so a redirected sys.stdout is honoured
    return args.func(args, out=sys.stdout if out is None else out)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad flags and 0 on --help/--version
        return 0 if exc.code in (0, None) else 2
    try:
        return _dispatch(args)
    except ChartSingularityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except H5GeoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1


if __name__ == "__main__":
    sys.exit(main())
