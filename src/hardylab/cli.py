"""Batch front-end: parse a JSON run configuration, run its operation, emit reports.

Exit codes: 0 = all checks pass, 1 = a verified violation beyond tolerance
(re-checked once at halved spacing on the violating test functions
themselves), 2 = usage or configuration error.  CSV output uses '.' decimals,
LF line endings and a header row; identical config and seed give
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import inequalities as ineq
from .catalog import (GEOMETRIES, WEIGHTS, GeometrySpec, Weight, _is_bounds, _is_count,
                      _is_number, make_geometry, make_weight)
from .conditions import check_curvature, check_suffcond, qcond_report
from .errors import DegenerateInputError, NumericError, PreconditionError, UsageError
from .fields import ComposeField, ScalarField, SupportedField, power_map, value_in_blocks
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
    weight: dict
    parameters: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    corpus: dict = field(default_factory=dict)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as e:
            raise UsageError(f"config is not valid JSON: {e}") from e
        _require(isinstance(raw, dict), "config must be a JSON object", raw)
        # a required key left out is null, which its check rejects
        raw = {**dict.fromkeys(("schema", "operation", "geometry", "weight")), **raw}
        _check_section("config", raw, _SECTIONS["config"])
        cfg = cls(**{key: value for key, value in raw.items() if key != "schema"})
        cfg._check_values()
        return cfg

    def _check_values(self) -> None:
        """Reject keys no section reads and values of the wrong type or range."""
        _check_section("geometry", self.geometry, _SECTIONS["geometry"])
        _check_weight_spec(self.weight, "weight")
        _check_section("parameters", self.parameters,
                       {**dict.fromkeys(_OPERATIONS[self.operation].parameters, _NUMBER),
                        **_SECTIONS["parameters"]})
        _check_section("grid", self.grid, _SECTIONS["grid"])
        _check_section("corpus", self.corpus, _SECTIONS["corpus"])


def _check_section(where: str, section: dict, keys: dict) -> None:
    """A UsageError for a key that ``keys`` does not list or a value failing its check."""
    for key, value in section.items():
        if key not in keys:
            raise UsageError(f"{where} reads no key {key!r}; it reads {', '.join(keys)}")
        ok, what = keys[key]
        _require(ok(value), f"{where}.{key} must be {what}", value)


def _check_weight_spec(spec: dict, where: str) -> None:
    """A weight has the keys of a geometry; log-of and power-of name their
    base weight, itself checked as a weight, in params.base only."""
    _check_section(where, spec, _SECTIONS["geometry"])
    params = spec.get("params", {})
    if spec["name"] in ("log-of", "power-of"):
        is_spec, what = _SPEC
        _require(is_spec(params.get("base")) and "weight" not in params,
                 f"{where}.params must give base, {what}, and no weight", params)
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


def _memory_bytes() -> int:
    """Physical memory, or no bound where the platform does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return np.iinfo(np.intp).max


def _build_grid(geo: GeometrySpec, weight, grid_cfg: dict, psi_range, refine: int = 1):
    bounds = grid_cfg.get("bounds")
    if bounds is None:
        hi = 2.0 * (psi_range[1] if psi_range else 1.0)
        lo_last = 0.02 * hi if geo.name in ("hyperbolic", "halfspace-euclidean",
                                            "euclidean-radial") else -hi
        bounds = [(-hi, hi)] * (geo.dim - 1) + [(lo_last, hi)]
    n = grid_cfg.get("n")
    if n is None:
        n = 64 if geo.dim <= 2 else 48
    if np.isscalar(n):
        n = (int(n),) * geo.dim
    n = tuple(int(k) * refine for k in n)
    nodes = math.prod(n)
    # the nodes' coordinates are one array of 8-byte floats, whose size in
    # bytes must fit an index and the machine's memory
    if nodes * geo.dim * 8 > min(np.iinfo(np.intp).max, _memory_bytes()):
        raise UsageError(f"grid.n gives {nodes} nodes, whose coordinates alone need "
                         f"more than the machine's memory")
    try:
        return default_grid(geo, weight=weight, bounds=bounds, n=n,
                            excision_radius=grid_cfg.get("excision_radius"))
    except MemoryError:
        raise UsageError(f"grid.n gives {nodes} nodes, more than memory holds") from None
    except FloatingPointError as e:
        # the domain mask, excisions or density overflow on far-out nodes
        raise UsageError(f"grid.bounds {bounds!r} are too large to build the grid on: "
                         f"{e}") from None


@dataclass
class RunResult:
    exit_code: int
    summary: dict
    rows: list
    # (index, base field) of each violating bump, which run's re-check re-measures
    violators: list = field(default_factory=list, repr=False)


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
    paired: list | None = None  # in a re-check, the bumps to measure again (see _dispatch)
    violators: list = field(default_factory=list)  # (index, base field) of each failing bump

    def bumps(self, size: int, polynomial: bool = False):
        """(index, bump) pairs in index order.  A first pass draws ``size``
        corpus bumps, polynomial ones or bumps in parameters.psi_range (by
        default the middle 70% of psi's range on the grid), and takes each
        out of the list as it hands it on, so a bump, its sub-array and every
        memo entry on that array go once the caller drops it after its check.
        A re-check draws none: it rebuilds the ``paired`` bumps on its grid,
        in order, up to the first that a handler adds to ``violators``."""
        if self.paired is not None:
            for i, base in self.paired:
                f = SupportedField(base)
                if not self.grid.supports(f):
                    raise PreconditionError(f"violating bump {i} touches the grid boundary "
                                            f"or an excised region at halved spacing")
                yield i, f
                if self.violators:  # a handler found it failing again
                    return
            return
        if polynomial:
            corpus = polynomial_bump_corpus(self.grid, size, self.seed)
        else:
            psi_range = self.cfg.parameters.get("psi_range")
            if psi_range is None:
                vals = value_in_blocks(self.weight.psi, self.grid.points)
                lo, hi = float(np.min(vals)), float(np.max(vals))
                span = hi - lo
                psi_range = (lo + 0.15 * span, hi - 0.15 * span)
            corpus = bump_corpus(self.weight.psi, self.grid, size, self.seed, tuple(psi_range))
        corpus.reverse()
        for i in range(len(corpus)):
            yield i, corpus.pop()


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
    gam, tol = ctx.params["gamma"], ctx.params["tol"]
    rows = []
    for i, f in ctx.bumps(ctx.size, polynomial=True):
        rows.append({"index": i, "min_defect": check_curvature(ctx.geo, ctx.W, f, gam, ctx.grid)})
        if rows[-1]["min_defect"] < -tol:
            ctx.violators.append((i, f.base))
    worst = min(row["min_defect"] for row in rows)
    return worst >= -tol, {"gamma": gam, "worst_defect": worst}, rows


def _sweep(report: str, on_multiplier: bool = False):
    """Handler running ``ineq.<report>`` on every corpus bump, with (geo, weight)
    or, ``on_multiplier``, (geo, W) first and the parameters by name.  The
    report is looked up when the handler runs, not when the table is built."""

    def handler(ctx: _Context):
        make = getattr(ineq, report)
        lead = (ctx.geo, ctx.W if on_multiplier else ctx.weight)
        reports, rows = [], []
        for i, f in ctx.bumps(ctx.size):
            reports.append(make(*lead, f=f, grid=ctx.grid, **ctx.params))
            rows.append({"index": i, **reports[-1].row()})
            if not reports[-1].passes(RATIO_TOL):
                ctx.violators.append((i, f.base))
        ratios = [rep.ratio for rep in reports if rep.ratio is not None]
        worst = max(ratios) if ratios else None
        return (not ctx.violators,
                {"alpha": float(ctx.cfg.parameters.get("alpha", 0.0)), "Q": ctx.Q,
                 "inequality": reports[0].inequality_id,
                 "constant": reports[0].constant_used, "worst_ratio": worst}, rows)

    return handler


def _best_constant(ctx: _Context):
    alpha = ctx.params["alpha"]
    const = ineq._hardy_constant(ctx.params["Q"], alpha, "log-hardy or weighted-log-hardy")
    sup_ratio, best = ineq.estimate_best_constant(ctx.geo, ctx.weight, alpha, grid=ctx.grid)
    return (sup_ratio <= const * (1.0 + RATIO_TOL),
            {"sup_ratio": sup_ratio, "constant": const, "best_params": best},
            [{"index": 0, "sup_ratio": sup_ratio, **best}])


def _evolve(ctx: _Context):
    from .semigroup import trajectory  # imports scipy, only for the two semigroup operations
    w = ctx.grid.weights
    # one row per sample as it arrives: no trajectory array is ever held
    rows = [{"t": float(t), "l2_norm": float(np.sqrt(np.sum(w * s ** 2))),
             "mass": float(np.sum(w * s))}
            for t, s in trajectory(ctx.geo, next(ctx.bumps(1))[1], ctx.grid,
                                   ctx.params["t_max"], ctx.params["dt"])]
    return True, {"samples": len(rows)}, rows


def _subcommutation(ctx: _Context):
    from .semigroup import subcommutation_check  # imports scipy
    grid, W, p = ctx.grid, ctx.W, ctx.params
    i, f0 = next(ctx.bumps(1))
    defect = subcommutation_check(ctx.geo, W, f0, grid, p["t_max"], p["dt"],
                                  gamma=p["gamma"])
    h2 = float(np.max(grid.spacing)) ** 2
    scale = float(np.max(W.value_at(grid.points) ** 2 * f0.value_at(grid.points) ** 2))
    threshold = -(p["C1"] * h2 + p["C2"] * p["dt"]) * max(scale, 1e-300)
    if defect < threshold:
        ctx.violators.append((i, f0.base))
    return (defect >= threshold, {"min_defect": defect, "threshold": threshold},
            [{"index": i, "min_defect": defect, "threshold": threshold}])


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
    "homo-norm": _Operation(_sweep("homogeneous_norm_report"), {}),
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

# The keys each config section reads, each with its check and what its value
# must be.  A weight reads a geometry's keys; the operation adds parameters.
_NUMBER = (_is_number, "a finite number")
_OBJECT = (lambda v: isinstance(v, dict), "a JSON object")
_SPEC = (lambda v: isinstance(v, dict) and "name" in v, "a JSON object with a name")
_SECTIONS = {
    "config": {"schema": (lambda v: _is_count(v, 1) and v == SCHEMA_VERSION,
                          f"the integer {SCHEMA_VERSION}"),
               "geometry": _SPEC, "weight": _SPEC,
               "operation": (lambda v: v in OPERATIONS, f"one of {', '.join(OPERATIONS)}"),
               "parameters": _OBJECT, "grid": _OBJECT, "corpus": _OBJECT},
    "geometry": {"name": (lambda v: isinstance(v, str), "a string"), "params": _OBJECT},
    "parameters": {"Q": (lambda v: v is None or _is_number(v), "a finite number or null"),
                   "psi_range": (lambda v: isinstance(v, list) and len(v) == 2
                                 and all(map(_is_number, v)) and 0 <= v[0] < v[1],
                                 "a list of two finite numbers lo, hi with 0 <= lo < hi")},
    "grid": {"bounds": (_is_bounds, "a list of [lo, hi] pairs with lo < hi"),
             "n": (lambda v: _is_count(v, 1) or isinstance(v, list) and v != []
                   and all(_is_count(k, 1) for k in v), "a positive integer or a list of them"),
             "excision_radius": (lambda v: _is_number(v) and v >= 0, "a finite number >= 0")},
    "corpus": {"seed": (lambda v: _is_count(v, 0), "an integer >= 0"),
               "size": (lambda v: _is_count(v, 1), "an integer >= 1")},
}


def _dispatch(cfg: RunConfig, refine: int = 1, paired: list | None = None) -> RunResult:
    """One pass of ``cfg`` on its grid refined ``refine`` times.  Given
    ``paired``, a first pass's ``violators``, the pass draws no corpus: it
    measures those bumps again on its grid, in index order, up to the first
    that still fails, and its summary and rows cover only those it checked."""
    op = cfg.operation
    entry = _OPERATIONS[op]
    geo = make_geometry(cfg.geometry["name"], **cfg.geometry.get("params", {}))
    weight = _resolve_weight(geo, cfg.weight)
    p = cfg.parameters

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
                   int(cfg.corpus.get("size", 20)), paired)
    passed, summary, rows = entry.handler(ctx)
    summary = {"operation": op, **summary}
    summary.setdefault("verdict", "pass" if passed else "violation")
    return RunResult(0 if passed else 1, summary, rows, ctx.violators)


def run(cfg: RunConfig, refine: bool = False) -> RunResult:
    """Execute a config; a violation is re-checked once at halved spacing on
    the first pass's violators (see _dispatch; an operation without bumps
    simply runs again).  A re-check that passes is returned, its rows the
    violators' under their first-pass indices; one that fails returns the
    first pass with a note.  A float overflow or invalid value raises
    ``FloatingPointError`` rather than printing a numpy warning; code that
    expects one sets its own ``np.errstate``."""
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        result = _dispatch(cfg, refine=2 if refine else 1)
        if result.exit_code == 1 and not refine:
            rechecked = _dispatch(cfg, refine=2, paired=result.violators)
            if rechecked.exit_code == 0:
                rechecked.summary["note"] = "violation resolved at halved spacing"
                return rechecked
            result.summary["note"] = "violation persists at halved spacing"
    return result


def _format_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def write_rows(rows, path: str, fmt: str = "csv") -> None:
    """Write a run's rows, of which there is at least one, as CSV under the
    first row's keys, or as JSON lines."""
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
        if args.out and os.path.isdir(args.out):
            raise UsageError(f"--out {args.out!r} is a directory")
        with open(args.config, encoding="utf-8") as fh:
            cfg = RunConfig.from_json(fh.read())
        if args.seed is not None:
            cfg.corpus["seed"] = args.seed
            cfg._check_values()
        result = run(cfg, refine=args.refine)
        if args.out:
            write_rows(result.rows, args.out, args.format)
    except (UsageError, PreconditionError, DegenerateInputError, NumericError,
            FloatingPointError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    print(json.dumps(result.summary, sort_keys=True, default=str))
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
