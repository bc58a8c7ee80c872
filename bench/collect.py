"""Collect run records into one BENCH_<label>.json.

    python3 bench/collect.py --label seed --out bench/BENCH_seed.json DIR [DIR ...]

Each DIR holds the records ``run.py`` wrote to ``.bench_out/`` for one set of
runs (``<workload>-seed<N>-trace<T>.json``).  For every workload and set the
output keeps each untraced run's metrics and samples, plus the median,
quartiles and spread (IQR/median) of each end-to-end metric, and for every
traced record the per-layer sums and per-config metrics (without spans).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / median}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--label", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("dirs", nargs="+")
    args = ap.parse_args()

    out = {"label": args.label, "context": None, "workloads": {}}
    for d in args.dirs:
        for path in sorted(glob.glob(os.path.join(d, "*-seed*-trace*.json"))):
            with open(path) as fh:
                rec = json.load(fh)
            ctx = dict(rec["context"])
            seed = ctx.pop("seed")
            out["context"] = out["context"] or ctx
            entry = out["workloads"].setdefault(rec["workload"], {"untraced": {}, "traced": []})
            if rec["trace"]:
                entry["traced"].append({
                    "seed": seed, "attempted": rec["attempted"], "failed": rec["failed"],
                    "metrics": rec["metrics"],
                    "per_config": {c: {k: v[k] for k in ("untraced_wall_s", "traced_wall_s",
                                                         "metrics")}
                                   for c, v in rec["per_config"].items()}})
            else:
                entry["slots"] = rec["slots"]
                runs = entry["untraced"].setdefault(d, [])
                runs.append({"seed": seed, "attempted": rec["attempted"],
                             "failed": rec["failed"], "byte_drift_runs": rec["byte_drift_runs"],
                             "metrics": rec["metrics"], "run_samples": rec["run_samples"],
                             "setup_samples": rec["setup_samples"]})
    for entry in out["workloads"].values():
        sets = []
        for runs in entry["untraced"].values():
            runs.sort(key=lambda r: r["seed"])
            sets.append({"seeds": [r["seed"] for r in runs],
                         "attempted": sum(r["attempted"] for r in runs),
                         "failed": sum(r["failed"] for r in runs),
                         "byte_drift_runs": sum(r["byte_drift_runs"] for r in runs),
                         "spread": {m: spread([r["metrics"][m] for r in runs])
                                    for m in runs[0]["metrics"]} if len(runs) > 1 else {},
                         "runs": runs})
        entry["untraced"] = sets
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
