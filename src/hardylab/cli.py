"""Batch front-end: parse a JSON run configuration, dispatch, emit reports.

Exit codes: 0 = all checks pass, 1 = a verified violation beyond tolerance
(re-checked once at halved spacing before being reported), 2 = usage or
configuration error.  CSV output uses '.' decimals, LF line endings and a
header row; identical config and seed give byte-identical output.  The
``HARDYLAB_THREADS`` environment variable sets the corpus thread count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import inequalities as ineq
from .catalog import GeometrySpec, Weight, make_geometry, make_weight
from .conditions import check_curvature, check_suffcond, qcond_report
from .errors import PreconditionError, UsageError
from .fields import ComposeField, power_map
from .grid import default_grid
from .testfunctions import bump_corpus, polynomial_bump_corpus

SCHEMA_VERSION = 1
RATIO_TOL = 1e-6

OPERATIONS = ("qcond", "suffcond", "curvature", "hardy", "log-hardy",
              "weighted-log-hardy", "radial", "dilation", "homo-norm",
              "funcineq", "funcineq-general", "best-constant", "evolve",
              "subcommutation")

_CATALOG_LINES = (
    "geometries:",
    "  euclidean(m): coordinate frame, Lebesgue measure, Q_hom = m",
    "  halfspace-euclidean(m): euclidean frame on {x_m > 0}",
    "  heisenberg(m): sublaplacian frame on R^(2m+1), Q_hom = 2m+2",
    "  hyperbolic(m): half-space Laplace-Beltrami, density x_m^-m",
    "  grushin(n): frame d_x_i and x_i d_y, Q_hom = n+2",
    "  convex-domain(m): euclidean frame inside a convex polytope",
    "  euclidean-radial(m): 1D radial model, density r^(m-1)",
    "  logradial(m): radial model in u = log r, density e^(m u)",
    "weights:",
    "  euclid-norm: |x|, Q = m",
    "  horizontal-norm: |x_0'| over n_0 horizontal coordinates, Q = n_0",
    "  koranyi-gauge: Q = Q(G)",
    "  coordinate(j): |x_j|, Q = 1",
    "  hyperbolic(m): weight x_m, Q = 3-m",
    "  grushin-gauge: Q = n+2",
    "  boundary-distance: one-sided upper, Q = 2",
    "  log-of(weight, branch): +-log psi, Q = 1",
    "  power-of(weight, p): psi^p, Q -> (Q-2)/p + 2",
    "  shifted(|x_0|+eps N): one-sided lower, Q = n_0 + o(eps)",
    "inequalities (constant):",
    "  hardy: (2/(Q+alpha-2))^2",
    "  log-hardy, weighted-log-hardy: (2/(alpha-1))^2",
    "  radial: (2/(Q+alpha-2))^2 against Gamma(psi,f)^2",
    "  dilation: (2/(Q_hom+alpha))^2",
    "  homo-norm: min(4, (2/(n_0-2)))^2 kappa^2(|x_0|) kappa^2(rho)",
    "  funcineq: 2 int W^2 Gamma(f) - 2 gamma int W^2 f^2",
)


def list_catalog() -> str:
    """Deterministic text listing of geometries, weights and constants."""
    return "\n".join(_CATALOG_LINES) + "\n"


@dataclass
class RunConfig:
    """Validated run configuration (see the README for the JSON schema)."""

    geometry: dict
    operation: str
    weight: dict | None = None
    parameters: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    corpus: dict = field(default_factory=dict)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as e:
            raise UsageError(f"config is not valid JSON: {e}") from e
        if not isinstance(raw, dict):
            raise UsageError("config must be a JSON object")
        if raw.get("schema") != SCHEMA_VERSION:
            raise UsageError(f"config schema must be {SCHEMA_VERSION}")
        op = raw.get("operation")
        if op not in OPERATIONS:
            raise UsageError(f"unknown operation {op!r}; expected one of {OPERATIONS}")
        for section in ("geometry", "weight", "parameters", "grid", "corpus"):
            if raw.get(section) is not None and not isinstance(raw[section], dict):
                raise UsageError(f"config {section} must be a JSON object")
        if "geometry" not in raw or "name" not in raw["geometry"]:
            raise UsageError("config requires geometry.name")
        cfg = cls(geometry=raw["geometry"], operation=op, weight=raw.get("weight"),
                  parameters=raw.get("parameters", {}), grid=raw.get("grid", {}),
                  corpus=raw.get("corpus", {}))
        cfg._check_values()
        return cfg

    def _check_values(self) -> None:
        """Reject parameter, grid and corpus values of the wrong type or range."""
        for key, value in self.parameters.items():
            # Q may be null for the operations that do not use it
            if key in _NUMBER_PARAMETERS and not (key == "Q" and value is None):
                _require(_is_number(value), f"parameters.{key} must be a finite number",
                         value)
        psi_range = self.parameters.get("psi_range")
        if psi_range is not None:
            _require(isinstance(psi_range, list) and len(psi_range) == 2
                     and all(_is_number(v) for v in psi_range),
                     "parameters.psi_range must be a list of two finite numbers", psi_range)
        n = self.grid.get("n")
        if n is not None:
            counts = n if isinstance(n, list) else [n]
            _require(len(counts) > 0 and all(_is_count(k, 1) for k in counts),
                     "grid.n must be a positive integer or a list of them", n)
        for key, least in (("size", 1), ("seed", 0)):
            if key in self.corpus:
                _require(_is_count(self.corpus[key], least),
                         f"corpus.{key} must be an integer >= {least}", self.corpus[key])


# operations whose constant is built from Q
_NEEDS_Q = ("hardy", "weighted-log-hardy", "radial", "best-constant")

# parameters read as floats by some operation
_NUMBER_PARAMETERS = ("alpha", "beta", "gamma", "p", "Q", "eps", "tol", "t_max", "dt",
                      "C1", "C2")


def _is_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _is_count(value, least: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _require(ok: bool, message: str, value) -> None:
    if not ok:
        raise UsageError(f"{message}, got {value!r}")


def _resolve_weight(geo: GeometrySpec, spec: dict) -> Weight:
    params = dict(spec.get("params", {}))
    name = spec["name"]
    if name in ("log-of", "power-of"):
        params["weight"] = _resolve_weight(geo, params.pop("base"))
    return make_weight(geo, name, **params)


def _build_grid(geo: GeometrySpec, weight, grid_cfg: dict, psi_range, refine: int = 1):
    bounds = grid_cfg.get("bounds")
    if bounds is None:
        hi = 2.0 * (psi_range[1] if psi_range else 1.0)
        lo_last = 0.02 * hi if geo.name in ("hyperbolic", "halfspace-euclidean",
                                            "euclidean-radial") else -hi
        bounds = [(-hi, hi)] * (geo.dim - 1) + [(lo_last, hi)]
        if geo.dim == 1:
            bounds = [(lo_last, hi)]
    n = grid_cfg.get("n")
    if n is None:
        n = 64 if geo.dim <= 2 else 48
    if np.isscalar(n):
        n = (int(n),) * geo.dim
    n = tuple(int(k) * refine for k in n)
    return default_grid(geo, weight=weight, bounds=bounds, n=n,
                        excision_radius=grid_cfg.get("excision_radius"))


def _multiplier(weight: Weight, params: dict):
    """The multiplier W: psi, or psi^p when the parameters give p."""
    if "p" in params:
        return ComposeField(power_map(float(params["p"])), weight.psi)
    return weight.psi


def _default_psi_range(weight, grid):
    vals = weight.psi.value_at(grid.points)
    lo, hi = float(np.min(vals)), float(np.max(vals))
    span = hi - lo
    return (lo + 0.15 * span, hi - 0.15 * span)


def _thread_map(fn, items):
    """[fn(x) for x in items], on HARDYLAB_THREADS workers.  The first item
    runs alone, so the workers share the per-(grid, weight) terms it caches
    instead of each computing them at once."""
    threads = int(os.environ.get("HARDYLAB_THREADS", "1"))
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    first = fn(items[0])
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return [first, *pool.map(fn, items[1:])]


@dataclass
class RunResult:
    exit_code: int
    summary: dict
    rows: list


def _corpus_sweep(cfg: RunConfig, geo, weight, grid, make_report):
    seed = int(cfg.corpus.get("seed", 0))
    size = int(cfg.corpus.get("size", 20))
    psi_range = cfg.parameters.get("psi_range")
    if psi_range is None:
        psi_range = _default_psi_range(weight, grid)
    corpus = bump_corpus(weight.psi, grid, size, seed, tuple(psi_range))
    reports = _thread_map(make_report, corpus)
    rows = []
    worst = -np.inf
    for i, rep in enumerate(reports):
        row = {"index": i, **rep.row()}
        rows.append(row)
        if rep.ratio is not None:
            worst = max(worst, rep.ratio)
    return rows, (None if worst == -np.inf else worst), reports


def _dispatch(cfg: RunConfig, refine: int = 1) -> RunResult:
    geo = make_geometry(cfg.geometry["name"], **cfg.geometry.get("params", {}))
    weight = _resolve_weight(geo, cfg.weight) if cfg.weight else None
    p = cfg.parameters
    op = cfg.operation

    if weight is None:
        raise UsageError(f"operation {op!r} requires a weight")
    Q = p.get("Q", weight.claimed_Q)
    if Q is None and op in _NEEDS_Q:
        raise UsageError(f"operation {op!r} needs parameters.Q; "
                         f"weight {weight.name!r} claims none")

    grid = _build_grid(geo, weight, cfg.grid, p.get("psi_range"), refine)
    diff = geo.diffusion
    # one multiplier per run, so its field memo and weight-side terms are
    # computed once for the whole corpus
    W = _multiplier(weight, p)

    if op == "qcond":
        rep = qcond_report(diff, weight, grid, tol=float(p.get("tol", 1e-8)))
        ok_verdicts = {"exact": ("exact",),
                       "lower": ("exact", "lower-bound"),
                       "upper": ("exact", "upper-bound")}[weight.comparison]
        passed = rep.verdict in ok_verdicts
        rows = [{"index": 0, **rep.summary()}]
        return RunResult(0 if passed else 1,
                         {"operation": op, "verdict": rep.verdict,
                          "Q_estimate": rep.Q_estimate, "max_defect": rep.max_defect},
                         rows)

    if op == "suffcond":
        gam = float(p.get("gamma", 0.0))
        passed, inf_val = check_suffcond(diff, W, grid, gam)
        return RunResult(0 if passed else 1,
                         {"operation": op, "gamma": gam, "inf_value": inf_val,
                          "verdict": "pass" if passed else "violation"},
                         [{"index": 0, "inf_value": inf_val, "passed": passed}])

    if op == "curvature":
        gam = float(p.get("gamma", 0.0))
        corpus = polynomial_bump_corpus(grid, int(cfg.corpus.get("size", 20)),
                                        int(cfg.corpus.get("seed", 0)))
        defects = _thread_map(lambda f: check_curvature(diff, W, f, gam, grid), corpus)
        rows = [{"index": i, "min_defect": d} for i, d in enumerate(defects)]
        worst = min(defects)
        tol = float(p.get("tol", 1e-8))
        return RunResult(0 if worst >= -tol else 1,
                         {"operation": op, "gamma": gam, "worst_defect": worst,
                          "verdict": "pass" if worst >= -tol else "violation"},
                         rows)

    if op in ("hardy", "log-hardy", "weighted-log-hardy", "radial", "dilation",
              "homo-norm", "funcineq", "funcineq-general"):
        alpha = float(p.get("alpha", 0.0))
        Q = None if Q is None else float(Q)

        def make_report(f):
            if op == "hardy":
                return ineq.hardy_report(geo, weight, Q, alpha, f, grid)
            if op == "log-hardy":
                return ineq.log_hardy_report(geo, weight, alpha, f, grid)
            if op == "weighted-log-hardy":
                return ineq.weighted_log_hardy_report(geo, weight, Q, alpha, f, grid)
            if op == "radial":
                return ineq.radial_hardy_report(geo, weight, Q, alpha, f, grid)
            if op == "dilation":
                return ineq.dilation_hardy_report(geo, weight, alpha, f, grid)
            if op == "homo-norm":
                return ineq.homogeneous_norm_report(geo, weight, f, grid,
                                                    eps=float(p.get("eps", 1e-3)))
            if op == "funcineq":
                return ineq.funcineq_report(diff, W, float(p.get("gamma", 0.0)), f, grid)
            return ineq.funcineqgeneral_report(diff, W, float(p.get("beta", 0.0)), f, grid)

        rows, worst, reports = _corpus_sweep(cfg, geo, weight, grid, make_report)
        passed = worst is None or worst <= 1.0 + RATIO_TOL
        return RunResult(0 if passed else 1,
                         {"operation": op, "alpha": alpha, "Q": Q,
                          "inequality": reports[0].inequality_id,
                          "constant": reports[0].constant_used,
                          "worst_ratio": worst,
                          "verdict": "pass" if passed else "violation"},
                         rows)

    if op == "best-constant":
        alpha = float(p.get("alpha", 0.0))
        sup_ratio, best = ineq.estimate_best_constant(geo, weight, alpha, grid=grid)
        const = (2.0 / (float(Q) + alpha - 2.0)) ** 2
        passed = sup_ratio <= const * (1.0 + RATIO_TOL)
        return RunResult(0 if passed else 1,
                         {"operation": op, "sup_ratio": sup_ratio,
                          "constant": const, "best_params": best,
                          "verdict": "pass" if passed else "violation"},
                         [{"index": 0, "sup_ratio": sup_ratio, **best}])

    if op == "evolve":
        from .semigroup import evolve  # imports scipy, only for these two operations
        psi_range = p.get("psi_range") or _default_psi_range(weight, grid)
        f0 = bump_corpus(weight.psi, grid, 1, int(cfg.corpus.get("seed", 0)),
                         tuple(psi_range))[0]
        times, states = evolve(diff, f0, grid, float(p.get("t_max", 0.1)),
                               float(p.get("dt", 1e-3)))
        w = grid.weights
        rows = [{"t": float(t), "l2_norm": float(np.sqrt(np.sum(w * s ** 2))),
                 "mass": float(np.sum(w * s))}
                for t, s in zip(times, states)]
        return RunResult(0, {"operation": op, "samples": len(rows),
                             "verdict": "pass"}, rows)

    if op == "subcommutation":
        from .semigroup import subcommutation_check  # imports scipy
        psi_range = p.get("psi_range") or _default_psi_range(weight, grid)
        f0 = bump_corpus(weight.psi, grid, 1, int(cfg.corpus.get("seed", 0)),
                         tuple(psi_range))[0]
        t = float(p.get("t_max", 0.05))
        dt = float(p.get("dt", 1e-3))
        defect = subcommutation_check(diff, W, f0, grid, t, dt,
                                      gamma=float(p.get("gamma", 0.0)))
        h2 = float(np.max(grid.spacing)) ** 2
        scale = float(np.max(W.value_at(grid.points) ** 2 * f0.value_at(grid.points) ** 2))
        c1 = float(p.get("C1", 10.0))
        c2 = float(p.get("C2", 10.0))
        threshold = -(c1 * h2 + c2 * dt) * max(scale, 1e-300)
        passed = defect >= threshold
        return RunResult(0 if passed else 1,
                         {"operation": op, "min_defect": defect,
                          "threshold": threshold,
                          "verdict": "pass" if passed else "violation"},
                         [{"index": 0, "min_defect": defect, "threshold": threshold}])

    raise UsageError(f"unknown operation {op!r}")


def run(cfg: RunConfig, refine: bool = False) -> RunResult:
    """Execute a config; violations are re-checked once at halved spacing."""
    result = _dispatch(cfg, refine=2 if refine else 1)
    if result.exit_code == 1 and not refine:
        rechecked = _dispatch(cfg, refine=2)
        if rechecked.exit_code == 0:
            rechecked.summary["note"] = "violation resolved at halved spacing"
            return rechecked
        result.summary["note"] = "violation persists at halved spacing"
        return result
    return result


def _format_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".12g")
    if isinstance(v, dict):
        return json.dumps(v, sort_keys=True)
    return str(v)


def write_rows(rows, path: str, fmt: str = "csv") -> None:
    if not rows:
        with open(path, "w", newline="\n") as fh:
            fh.write("")
        return
    if fmt == "csv":
        keys = list(rows[0].keys())
        lines = [",".join(keys)]
        for row in rows:
            lines.append(",".join(_format_cell(row.get(k, "")) for k in keys))
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    elif fmt == "json-lines":
        with open(path, "w", newline="\n") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
    else:
        raise UsageError(f"unknown output format {fmt!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hardylab",
                                     description="Diffusion/Hardy-inequality laboratory")
    sub = parser.add_subparsers(dest="command")
    runp = sub.add_parser("run", help="execute a JSON run configuration")
    runp.add_argument("--config", required=True, help="path to the config file")
    runp.add_argument("--out", default=None, help="report output path")
    runp.add_argument("--format", choices=("csv", "json-lines"), default="csv")
    runp.add_argument("--seed", type=int, default=None, help="override corpus seed")
    runp.add_argument("--refine", action="store_true", help="halve h and rerun")
    sub.add_parser("list", help="list geometries, weights and constants")
    args = parser.parse_args(argv)

    if args.command == "list":
        sys.stdout.write(list_catalog())
        return 0
    if args.command != "run":
        parser.print_help()
        return 2

    try:
        with open(args.config) as fh:
            cfg = RunConfig.from_json(fh.read())
        if args.seed is not None:
            cfg.corpus["seed"] = args.seed
        result = run(cfg, refine=args.refine)
    except (UsageError, PreconditionError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    if args.out:
        write_rows(result.rows, args.out, args.format)
    print(json.dumps(result.summary, sort_keys=True, default=str))
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
