"""Batch front-end: parse a JSON run configuration, run its operation, emit reports.

Exit codes: 0 = all checks pass, 1 = a verified violation beyond tolerance
(re-checked once at halved spacing before being reported), 2 = usage or
configuration error.  CSV output uses '.' decimals, LF line endings and a
header row; identical config and seed give byte-identical output.  The
``HARDYLAB_THREADS`` environment variable sets the corpus thread count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import inequalities as ineq
from .catalog import (GEOMETRIES, WEIGHTS, GeometrySpec, Weight, _is_bounds, _is_count,
                      _is_number, make_geometry, make_weight)
from .conditions import check_curvature, check_suffcond, qcond_report
from .errors import DegenerateInputError, NumericError, PreconditionError, UsageError
from .fields import ComposeField, ScalarField, power_map
from .grid import Grid, default_grid
from .testfunctions import bump_corpus, polynomial_bump_corpus

SCHEMA_VERSION = 1
RATIO_TOL = 1e-6

_CATALOG_LINES = (
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
    lines = ["geometries:", *(f"  {entry[-1]}" for entry in GEOMETRIES.values()),
             "weights:", *(f"  {entry[-1]}" for entry in WEIGHTS.values()), *_CATALOG_LINES]
    return "\n".join(lines) + "\n"


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
        if "name" not in (raw.get("geometry") or {}):
            raise UsageError("config requires geometry.name")
        cfg = cls(geometry=raw["geometry"], operation=op, weight=raw.get("weight"),
                  parameters=raw.get("parameters", {}), grid=raw.get("grid", {}),
                  corpus=raw.get("corpus", {}))
        cfg._check_values()
        return cfg

    def _check_values(self) -> None:
        """Reject config values of the wrong type or range."""
        _require(isinstance(self.geometry.get("params", {}), dict),
                 "geometry.params must be a JSON object", self.geometry.get("params"))
        if self.weight:
            _check_weight_spec(self.weight, "weight")
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
        bounds = self.grid.get("bounds")
        _require(bounds is None or _is_bounds(bounds),
                 "grid.bounds must be a list of [lo, hi] pairs with lo < hi", bounds)
        radius = self.grid.get("excision_radius")
        _require(radius is None or _is_number(radius) and radius >= 0,
                 "grid.excision_radius must be a finite number >= 0", radius)
        for key, least in (("size", 1), ("seed", 0)):
            if key in self.corpus:
                _require(_is_count(self.corpus[key], least),
                         f"corpus.{key} must be an integer >= {least}", self.corpus[key])


def _check_weight_spec(spec, where: str) -> None:
    """A weight is {"name", "params"}; log-of and power-of name their base
    weight, itself a weight, in params.base."""
    _require(isinstance(spec, dict) and "name" in spec,
             f"{where} must be a JSON object with a name", spec)
    params = spec.get("params", {})
    _require(isinstance(params, dict), f"{where}.params must be a JSON object", params)
    if spec["name"] in ("log-of", "power-of"):
        _require("base" in params, f"{where}.params.base must give the weight {spec['name']} "
                 "is built on", params)
        _check_weight_spec(params["base"], f"{where}.params.base")


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


def _thread_map(fn, items, threads: int):
    """[fn(x) for x in items], on ``threads`` workers.  The first item runs
    alone, so the workers share the per-(grid, weight) terms it caches
    instead of each computing them at once."""
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


@dataclass
class _Context:
    """What an operation handler reads: the config, the objects built from
    it, and the operation's parameters with their defaults filled in."""

    cfg: RunConfig
    geo: GeometrySpec
    weight: Weight
    grid: Grid
    W: ScalarField  # the multiplier, built once per run so its memos serve the corpus
    Q: float | None
    params: dict
    seed: int
    size: int
    threads: int  # HARDYLAB_THREADS, read once per run

    def bumps(self, size: int):
        """Corpus bumps in parameters.psi_range, by default the middle 70% of
        psi's range on the grid."""
        psi_range = self.cfg.parameters.get("psi_range")
        if psi_range is None:
            vals = self.weight.psi.value_at(self.grid.points)
            lo, hi = float(np.min(vals)), float(np.max(vals))
            span = hi - lo
            psi_range = (lo + 0.15 * span, hi - 0.15 * span)
        return bump_corpus(self.weight.psi, self.grid, size, self.seed, tuple(psi_range))


# Each handler returns (passed, summary, rows); _dispatch puts the operation
# first in the summary and, unless the handler gave one, the verdict last.

def _qcond(ctx: _Context):
    rep = qcond_report(ctx.geo, ctx.weight, ctx.grid, tol=ctx.params["tol"])
    ok_verdicts = {"exact": ("exact",),
                   "lower": ("exact", "lower-bound"),
                   "upper": ("exact", "upper-bound")}[ctx.weight.comparison]
    return (rep.verdict in ok_verdicts,
            {"verdict": rep.verdict, "Q_estimate": rep.Q_estimate, "max_defect": rep.max_defect},
            [{"index": 0, **rep.summary()}])


def _suffcond(ctx: _Context):
    gam = ctx.params["gamma"]
    passed, inf_val = check_suffcond(ctx.geo, ctx.W, ctx.grid, gam)
    return (passed, {"gamma": gam, "inf_value": inf_val},
            [{"index": 0, "inf_value": inf_val, "passed": passed}])


def _curvature(ctx: _Context):
    gam = ctx.params["gamma"]
    corpus = polynomial_bump_corpus(ctx.grid, ctx.size, ctx.seed)
    defects = _thread_map(lambda f: check_curvature(ctx.geo, ctx.W, f, gam, ctx.grid), corpus,
                          ctx.threads)
    worst = min(defects)
    return (worst >= -ctx.params["tol"], {"gamma": gam, "worst_defect": worst},
            [{"index": i, "min_defect": d} for i, d in enumerate(defects)])


def _sweep(report: str, on_multiplier: bool = False):
    """Handler running ``ineq.<report>`` on every corpus bump, with (geo, weight)
    or, ``on_multiplier``, (geo, W) first and the parameters by name.  The
    report is looked up when the handler runs, not when the table is built."""

    def handler(ctx: _Context):
        make = getattr(ineq, report)
        lead = (ctx.geo, ctx.W if on_multiplier else ctx.weight)
        reports = _thread_map(lambda f: make(*lead, f=f, grid=ctx.grid, **ctx.params),
                              ctx.bumps(ctx.size), ctx.threads)
        ratios = [rep.ratio for rep in reports if rep.ratio is not None]
        worst = max(ratios) if ratios else None
        return (worst is None or worst <= 1.0 + RATIO_TOL,
                {"alpha": float(ctx.cfg.parameters.get("alpha", 0.0)), "Q": ctx.Q,
                 "inequality": reports[0].inequality_id,
                 "constant": reports[0].constant_used, "worst_ratio": worst},
                [{"index": i, **rep.row()} for i, rep in enumerate(reports)])

    return handler


def _best_constant(ctx: _Context):
    alpha = ctx.params["alpha"]
    const = ineq._hardy_constant(ctx.params["Q"], alpha, "log-hardy or weighted-log-hardy")
    sup_ratio, best = ineq.estimate_best_constant(ctx.geo, ctx.weight, alpha, grid=ctx.grid)
    return (sup_ratio <= const * (1.0 + RATIO_TOL),
            {"sup_ratio": sup_ratio, "constant": const, "best_params": best},
            [{"index": 0, "sup_ratio": sup_ratio, **best}])


def _evolve(ctx: _Context):
    from .semigroup import evolve  # imports scipy, only for the two semigroup operations
    times, states = evolve(ctx.geo, ctx.bumps(1)[0], ctx.grid,
                           ctx.params["t_max"], ctx.params["dt"])
    w = ctx.grid.weights
    rows = [{"t": float(t), "l2_norm": float(np.sqrt(np.sum(w * s ** 2))),
             "mass": float(np.sum(w * s))}
            for t, s in zip(times, states)]
    return True, {"samples": len(rows)}, rows


def _subcommutation(ctx: _Context):
    from .semigroup import subcommutation_check  # imports scipy
    grid, W, p = ctx.grid, ctx.W, ctx.params
    f0 = ctx.bumps(1)[0]
    defect = subcommutation_check(ctx.geo, W, f0, grid, p["t_max"], p["dt"],
                                  gamma=p["gamma"])
    h2 = float(np.max(grid.spacing)) ** 2
    scale = float(np.max(W.value_at(grid.points) ** 2 * f0.value_at(grid.points) ** 2))
    threshold = -(p["C1"] * h2 + p["C2"] * p["dt"]) * max(scale, 1e-300)
    return (defect >= threshold, {"min_defect": defect, "threshold": threshold},
            [{"index": 0, "min_defect": defect, "threshold": threshold}])


@dataclass(frozen=True)
class _Operation:
    """One operation: its handler, the parameters it reads with their
    defaults (None: no default), and whether it needs Q, which defaults to
    the weight's claimed Q."""

    handler: Callable
    parameters: dict
    needs_Q: bool = False


_OPERATIONS = {
    "qcond": _Operation(_qcond, {"tol": 1e-8}),
    "suffcond": _Operation(_suffcond, {"gamma": 0.0, "p": None}),
    "curvature": _Operation(_curvature, {"gamma": 0.0, "tol": 1e-8, "p": None}),
    "hardy": _Operation(_sweep("hardy_report"), {"alpha": 0.0}, needs_Q=True),
    "log-hardy": _Operation(_sweep("log_hardy_report"), {"alpha": 0.0}),
    "weighted-log-hardy": _Operation(_sweep("weighted_log_hardy_report"), {"alpha": 0.0},
                                     needs_Q=True),
    "radial": _Operation(_sweep("radial_hardy_report"), {"alpha": 0.0}, needs_Q=True),
    "dilation": _Operation(_sweep("dilation_hardy_report"), {"alpha": 0.0}),
    "homo-norm": _Operation(_sweep("homogeneous_norm_report"), {"eps": 1e-3}),
    "funcineq": _Operation(_sweep("funcineq_report", on_multiplier=True),
                           {"gamma": 0.0, "p": None}),
    "funcineq-general": _Operation(_sweep("funcineqgeneral_report", on_multiplier=True),
                                   {"beta": 0.0, "p": None}),
    "best-constant": _Operation(_best_constant, {"alpha": 0.0}, needs_Q=True),
    "evolve": _Operation(_evolve, {"t_max": 0.1, "dt": 1e-3}),
    "subcommutation": _Operation(_subcommutation, {"t_max": 0.05, "dt": 1e-3, "gamma": 0.0,
                                                   "p": None, "C1": 10.0, "C2": 10.0}),
}
OPERATIONS = tuple(_OPERATIONS)
# parameters read as floats by some operation; Q may be null where it is not needed
_NUMBER_PARAMETERS = {"Q", *(name for entry in _OPERATIONS.values() for name in entry.parameters)}


def _dispatch(cfg: RunConfig, refine: int = 1, threads: int = 1) -> RunResult:
    op = cfg.operation
    if op not in _OPERATIONS:
        raise UsageError(f"unknown operation {op!r}")
    entry = _OPERATIONS[op]
    geo = make_geometry(cfg.geometry["name"], **cfg.geometry.get("params", {}))
    weight = _resolve_weight(geo, cfg.weight) if cfg.weight else None
    p = cfg.parameters

    if weight is None:
        raise UsageError(f"operation {op!r} requires a weight")
    Q = p.get("Q", weight.claimed_Q)
    if Q is None and entry.needs_Q:
        raise UsageError(f"operation {op!r} needs parameters.Q; "
                         f"weight {weight.name!r} claims none")
    Q = None if Q is None else float(Q)

    grid = _build_grid(geo, weight, cfg.grid, p.get("psi_range"), refine)
    params = {name: None if p.get(name, d) is None else float(p.get(name, d))
              for name, d in entry.parameters.items()}
    # the multiplier W: psi, or psi^p when the parameters give p; the
    # handlers read p only through W
    p_exp = params.pop("p", None)
    W = weight.psi if p_exp is None else ComposeField(power_map(p_exp), weight.psi)
    if entry.needs_Q:
        params["Q"] = Q
    ctx = _Context(cfg, geo, weight, grid, W, Q, params, int(cfg.corpus.get("seed", 0)),
                   int(cfg.corpus.get("size", 20)), threads)
    passed, summary, rows = entry.handler(ctx)
    summary = {"operation": op, **summary}
    summary.setdefault("verdict", "pass" if passed else "violation")
    return RunResult(0 if passed else 1, summary, rows)


def run(cfg: RunConfig, refine: bool = False) -> RunResult:
    """Execute a config; violations are re-checked once at halved spacing."""
    value = os.environ.get("HARDYLAB_THREADS", "1")
    try:
        threads = int(value)
    except ValueError:
        raise UsageError(f"HARDYLAB_THREADS must be an integer, got {value!r}") from None
    result = _dispatch(cfg, refine=2 if refine else 1, threads=threads)
    if result.exit_code == 1 and not refine:
        rechecked = _dispatch(cfg, refine=2, threads=threads)
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
        if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise UsageError(f"the directory of --out {args.out!r} does not exist")
        with open(args.config) as fh:
            cfg = RunConfig.from_json(fh.read())
        if args.seed is not None:
            cfg.corpus["seed"] = args.seed
            cfg._check_values()
        result = run(cfg, refine=args.refine)
    except (UsageError, PreconditionError, DegenerateInputError, NumericError,
            FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    if args.out:
        write_rows(result.rows, args.out, args.format)
    print(json.dumps(result.summary, sort_keys=True, default=str))
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
