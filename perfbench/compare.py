#!/usr/bin/env python3
"""Summarise benchmark records and compare two summaries.

Records are the files ``run.py --out`` writes.  From the repository root:

    python3 perfbench/compare.py summary rec1.json rec2.json ... [--out summary.json]
    python3 perfbench/compare.py diff perfbench/baseline.json summary.json

``summary`` gives, per workload and end-to-end metric (per-layer metric for
traced runs), the median, the quartiles and their spread as a share of the
median.  ``diff`` compares two summaries metric by metric against the bounds
in BENCHMARK.json.  Both refuse to mix results whose backend or CPU count
differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# what must match before two results may be compared
COMPARABLE = ("backend", "cpu_count", "affinity_cpus", "sweep_pool_width")


class Refused(Exception):
    pass


def _machine(env: dict) -> dict:
    return {k: env[k] for k in COMPARABLE}


def summarize(records: list[dict]) -> dict:
    machines = {json.dumps(_machine(r["environment"]), sort_keys=True) for r in records}
    if len(machines) != 1:
        raise Refused(f"records come from different backends or CPU counts: {sorted(machines)}")
    env = dict(json.loads(machines.pop()))
    env.update({k: sorted({r["environment"][k] for r in records}) for k in ("python", "numpy", "scipy")})
    out = {"environment": env, "workloads": {}}
    groups: dict[str, list[dict]] = {}
    for r in records:  # traced runs carry the per-layer metrics instead
        groups.setdefault(r["workload"] + (" traced" if r["trace"] else ""), []).append(r)
    for name, recs in sorted(groups.items()):
        section = "per_layer" if recs[0]["trace"] else "end_to_end"
        metrics = {}
        for key in recs[0][section]:
            vals = [r[section][key]["value"] for r in recs if key in r[section]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            metrics[key] = {
                "unit": recs[0][section][key]["unit"],
                "n": len(vals),
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
            }
        out["workloads"][name] = {
            "runs": len(recs),
            "seeds": sorted(r["environment"]["seed"] for r in recs),
            "seconds": recs[0]["seconds"],
            "commit": recs[0]["environment"]["commit"],
            "inputs": recs[0]["inputs"]["grid"],
            "metrics": metrics,
        }
    return out


def diff(base: dict, new: dict, bench: dict) -> list[str]:
    if _machine(base["environment"]) != _machine(new["environment"]):
        raise Refused(
            f"backend or CPU count differ: {_machine(base['environment'])} "
            f"vs {_machine(new['environment'])}"
        )
    gated = {m["name"]: m for m in bench["end_to_end"]}
    lines = [f"{'workload':<18}{'metric':<14}{'base':>12}{'new':>12}{'change':>9}  verdict"]
    for wl, b in base["workloads"].items():
        n = new["workloads"].get(wl)
        if n is None:
            continue
        for key, bm in b["metrics"].items():
            if key not in gated or key not in n["metrics"]:
                continue
            nm = n["metrics"][key]
            change = (nm["median"] - bm["median"]) / bm["median"]
            worse = -change if gated[key]["better"] == "higher" else change
            if max(bm["spread"], nm["spread"]) > gated[key]["bound"]:
                verdict = "unresolved (spread above bound)"
            elif worse > gated[key]["bound"]:
                verdict = "REGRESSION"
            else:
                verdict = "within bound"
            lines.append(f"{wl:<18}{key:<14}{bm['median']:>12.5g}{nm['median']:>12.5g}"
                         f"{100 * change:>8.1f}%  {verdict}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("summary")
    s.add_argument("records", nargs="+", type=Path)
    s.add_argument("--out", type=Path)
    d = sub.add_parser("diff")
    d.add_argument("base", type=Path)
    d.add_argument("new", type=Path)
    args = ap.parse_args(argv)
    try:
        if args.cmd == "summary":
            records = []
            for p in args.records:  # a file holds one record, or a list from --workload all
                rec = json.loads(p.read_text())
                records += rec if isinstance(rec, list) else [rec]
            summ = summarize(records)
            for wl, w in summ["workloads"].items():
                for key, m in w["metrics"].items():
                    print(f"{wl:<24}{key:<36}{m['median']:>14.6g} {m['unit']:<13}"
                          f"IQR/median {m['spread']:.4f}  (n={m['n']})")
            if args.out:
                args.out.write_text(json.dumps(summ, indent=1, sort_keys=True) + "\n")
        else:
            bench = json.loads((ROOT / "BENCHMARK.json").read_text())
            base, new = (json.loads(p.read_text()) for p in (args.base, args.new))
            print("\n".join(diff(base, new, bench)))
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
