r"""Ready-made geometries and weights with their comparison constants.

``GEOMETRIES`` and ``WEIGHTS`` declare every name once: its builder, the
parameters it reads and its ``hardylab list`` line; a weight also names the
geometries it is defined on.

Weights carry the comparison constant Q they satisfy in the generalized
Laplacian comparison psi L psi = (Q - 1) Gamma(psi), one-sided weights
carry the direction instead; all constants here are re-verified numerically
by the qcond test suite rather than taken on faith.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .calculus import FrameDiffusion
from .errors import DegenerateInputError, UsageError
from .fields import (AffineField, ComposeField, ConstField, CoordinateField,
                     NormField, ScalarField, SquareNormField, VectorField,
                     blockwise, coordinate_frame, exp_map, log_map, power_map)


class GeometrySpec(FrameDiffusion):
    """A named diffusion plus optional stratification data.

    A geometry is a ``FrameDiffusion``: frame, drift, measure density,
    dimension and domain mask are the diffusion's own.  It hashes by
    identity, which the per-(grid, weight) memo keys that hold it rely on."""

    def __init__(self, name: str, dim: int, frame, drift: VectorField | None,
                 measure_density: ScalarField, stratification: tuple[int, ...] | None = None,
                 domain_mask: Callable | None = None, params: dict | None = None):
        super().__init__(frame, drift, measure_density, dim, domain_mask=domain_mask)
        if stratification is not None and len(stratification) != self.dim:
            raise UsageError("stratification must assign a stratum to every coordinate")
        self.name = name
        self.stratification = stratification
        self.Q_hom = None if stratification is None else float(sum(k + 1 for k in stratification))
        self.params = {} if params is None else params


@dataclass
class Weight:
    """A nonnegative weight with its claimed comparison constant.

    ``comparison`` is 'exact' when psi L psi = (Q-1) Gamma(psi) holds as an
    identity, 'lower'/'upper' for the one-sided variants.
    """

    name: str
    psi: ScalarField
    claimed_Q: float | None
    comparison: str = "exact"
    extra_excised: Callable | None = None
    base_weight: "Weight | None" = None
    has_singular_set: bool = True

    def excised(self, pts, radius: float):
        """Nodes to drop: a radius-neighborhood of the singular set (the
        weight itself is the distance proxy) plus any weight-specific set."""
        bad = ~self.psi._mask(pts)
        if self.has_singular_set:
            bad |= self.psi.value_at(pts) < radius
        if self.extra_excised is not None:
            bad |= np.asarray(self.extra_excised(pts), dtype=bool)
        return bad


# ---------------------------------------------------------------------------
# Geometries
# ---------------------------------------------------------------------------

def _euclidean(m: int, domain_mask=None, name: str = "euclidean", **params) -> GeometrySpec:
    return GeometrySpec(name=name, dim=m, frame=tuple(coordinate_frame(m)),
                        drift=None, measure_density=ConstField(1.0),
                        stratification=tuple([0] * m), domain_mask=domain_mask,
                        params={"m": m, **params})


def _heisenberg(m: int) -> GeometrySpec:
    dim = 2 * m + 1
    zi = dim - 1
    frames = []
    for i in range(m):
        cx = [ConstField(0.0)] * dim
        cx[i] = ConstField(1.0)
        cx[zi] = AffineField([0.0] * (m + i) + [-0.5])
        frames.append(VectorField(cx))
    for i in range(m):
        cy = [ConstField(0.0)] * dim
        cy[m + i] = ConstField(1.0)
        cy[zi] = AffineField([0.0] * i + [0.5])
        frames.append(VectorField(cy))
    strat = tuple([0] * (2 * m) + [1])
    return GeometrySpec(name="heisenberg", dim=dim, frame=tuple(frames), drift=None,
                        measure_density=ConstField(1.0), stratification=strat,
                        params={"m": m})


def _hyperbolic(m: int) -> GeometrySpec:
    if m < 2:
        raise UsageError("hyperbolic half-space needs m >= 2")
    xm = CoordinateField(m - 1)
    frames = []
    for i in range(m):
        c = [ConstField(0.0)] * m
        c[i] = xm
        frames.append(VectorField(c))
    dcoef = [ConstField(0.0)] * m
    dcoef[m - 1] = -(m - 1.0) * xm
    density = ComposeField(power_map(-m), xm)

    def mask(pts):
        return pts[:, m - 1] > 0

    return GeometrySpec(name="hyperbolic", dim=m, frame=tuple(frames),
                        drift=VectorField(dcoef), measure_density=density,
                        domain_mask=mask, params={"m": m})


def _grushin(n: int) -> GeometrySpec:
    dim = n + 1
    frames = []
    for i in range(n):
        c = [ConstField(0.0)] * dim
        c[i] = ConstField(1.0)
        frames.append(VectorField(c))
    for i in range(n):
        c = [ConstField(0.0)] * dim
        c[dim - 1] = CoordinateField(i)
        frames.append(VectorField(c))
    # x-block is stratum 0, the y coordinate counts with weight 2
    strat = tuple([0] * n + [1])
    return GeometrySpec(name="grushin", dim=dim, frame=tuple(frames), drift=None,
                        measure_density=ConstField(1.0), stratification=strat,
                        params={"n": n})


def _convex_domain(m: int, **params) -> GeometrySpec:
    where = "geometry 'convex-domain'"
    if "facets" in params and "box" in params:
        raise UsageError("convex-domain takes facets= or box=, not both")
    if "facets" in params:
        facets = _param(params, "facets", where, lambda v: _is_facets(v, m),
                        f"a non-empty list of [normal, offset] pairs with {m}-number normals")
    elif "box" in params:
        facets = box_facets(_param(params, "box", where, lambda v: _is_bounds(v) and len(v) == m,
                                   f"{m} [lo, hi] pairs with lo < hi"))
    else:
        raise UsageError("convex-domain requires facets= or box=")
    facets = [(np.asarray(a, dtype=float), float(b)) for a, b in facets]
    for a, _ in facets:
        if abs(np.linalg.norm(a) - 1.0) > 1e-12:
            raise UsageError("facet normals must be unit vectors")

    def mask(pts):
        ok = np.ones(len(pts), dtype=bool)
        for a, b in facets:
            ok &= pts @ a < b
        return ok

    return _euclidean(m, domain_mask=mask, name="convex-domain", facets=facets)


def box_facets(bounds):
    """Halfspace description a.x <= b of an axis-aligned box."""
    out = []
    m = len(bounds)
    for i, (lo, hi) in enumerate(bounds):
        a = np.zeros(m)
        a[i] = 1.0
        out.append((a.copy(), float(hi)))
        out.append((-a, -float(lo)))
    return out


def _euclidean_radial(m: int) -> GeometrySpec:
    r = CoordinateField(0)
    frames = [VectorField([ConstField(1.0)])]
    drift = VectorField([(m - 1.0) * ComposeField(power_map(-1.0), r)]) if m != 1 else None
    density = ComposeField(power_map(float(m - 1)), r) if m != 1 else ConstField(1.0)

    def mask(pts):
        return pts[:, 0] > 0

    return GeometrySpec(name="euclidean-radial", dim=1, frame=tuple(frames),
                        drift=drift, measure_density=density, domain_mask=mask,
                        params={"m": m})


def _logradial(m: int) -> GeometrySpec:
    u = CoordinateField(0)
    eu = ComposeField(exp_map(), -u)
    frames = [VectorField([eu])]
    drift = None
    if m != 1:
        e2u = ComposeField(exp_map(), -2.0 * u)
        drift = VectorField([(m - 1.0) * e2u])
    density = ComposeField(exp_map(), float(m) * u)
    return GeometrySpec(name="logradial", dim=1, frame=tuple(frames), drift=drift,
                        measure_density=density, params={"m": m})


def _is_number(value) -> bool:
    """A finite real number that is not a bool; an integer too large for a
    float is not one."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _is_count(value, least: int) -> bool:
    """An integer >= ``least`` that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least


def _is_bounds(value) -> bool:
    """A non-empty list of [lo, hi] pairs of finite numbers with lo < hi."""
    return (isinstance(value, (list, tuple)) and len(value) > 0
            and all(isinstance(b, (list, tuple)) and len(b) == 2 and all(map(_is_number, b))
                    and b[0] < b[1] for b in value))


def _is_facets(value, m: int) -> bool:
    """A non-empty list of [normal, offset] pairs: m finite numbers, then one."""
    def is_normal(a):
        return ((isinstance(a, (list, tuple)) or isinstance(a, np.ndarray) and a.ndim == 1)
                and len(a) == m and all(map(_is_number, a)))

    return (isinstance(value, (list, tuple)) and len(value) > 0
            and all(isinstance(f, (list, tuple)) and len(f) == 2 and is_normal(f[0])
                    and _is_number(f[1]) for f in value))


def _param(params: dict, key: str, where: str, ok, what: str, default=None):
    """``params[key]``, or ``default`` when absent; a UsageError unless ``ok``."""
    value = params.get(key, default)
    if not ok(value):
        raise UsageError(f"{where} parameter {key!r} must be {what}, got {value!r}")
    return value


def _entry(table: dict, kind: str, name, params: dict) -> tuple:
    """The ``table`` entry for ``name``; a UsageError for an unknown name or
    for a parameter the entry does not read."""
    if not isinstance(name, str) or name not in table:
        raise UsageError(f"unknown {kind} {name!r}")
    entry = table[name]
    for key in params:
        if key not in entry[1]:
            raise UsageError(f"{kind} {name!r} reads no parameter {key!r}; "
                             f"it reads {', '.join(entry[1]) or 'none'}")
    return entry


# name: (builder, the parameters it reads with the size first, its `hardylab list` line)
GEOMETRIES = {
    "euclidean": (_euclidean, ("m",),
                  "euclidean(m): coordinate frame, Lebesgue measure, Q_hom = m"),
    "halfspace-euclidean": (lambda m: _euclidean(m, domain_mask=lambda pts: pts[:, m - 1] > 0,
                                                 name="halfspace-euclidean"),
                            ("m",), "halfspace-euclidean(m): euclidean frame on {x_m > 0}"),
    "heisenberg": (_heisenberg, ("m",),
                   "heisenberg(m): sublaplacian frame on R^(2m+1), Q_hom = 2m+2"),
    "hyperbolic": (_hyperbolic, ("m",),
                   "hyperbolic(m): half-space Laplace-Beltrami, density x_m^-m"),
    "grushin": (_grushin, ("n",), "grushin(n): frame d_x_i and x_i d_y, Q_hom = n+2"),
    "convex-domain": (_convex_domain, ("m", "facets", "box"),
                      "convex-domain(m): euclidean frame inside a convex polytope"),
    "euclidean-radial": (_euclidean_radial, ("m",),
                         "euclidean-radial(m): 1D radial model, density r^(m-1)"),
    "logradial": (_logradial, ("m",),
                  "logradial(m): radial model in u = log r, density e^(m u)"),
}


def make_geometry(name: str, /, **params) -> GeometrySpec:
    """Build the catalog geometry ``name``; ``GEOMETRIES`` lists the names
    and the parameters each one reads."""
    build, reads, _ = _entry(GEOMETRIES, "geometry", name, params)
    size = _param(params, reads[0], f"geometry {name!r}", lambda v: _is_count(v, 1),
                  "a positive integer")
    return build(int(size), **{key: v for key, v in params.items() if key != reads[0]})


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

def _horizontal_indices(geo: GeometrySpec):
    if geo.stratification is None:
        raise UsageError(f"geometry {geo.name!r} has no horizontal stratum")
    return [i for i, s in enumerate(geo.stratification) if s == 0]


def koranyi_gauge_field(geo: GeometrySpec) -> ScalarField:
    """(|x_0|^4 + 16 z^2)^{1/4} on a Heisenberg geometry (frame convention
    with the +-1/2 vertical coefficients; the constant 16 is pinned by the
    qcond suite)."""
    hor = _horizontal_indices(geo)
    zi = geo.dim - 1
    s2 = SquareNormField(hor)
    inner = ComposeField(power_map(2), s2) + 16.0 * SquareNormField([zi])
    return ComposeField(power_map(0.25), inner)


def grushin_gauge_field(geo: GeometrySpec) -> ScalarField:
    """(|x|^4 + 4 y^2)^{1/4} on a Grushin geometry."""
    n = geo.params["n"]
    s2 = SquareNormField(list(range(n)))
    inner = ComposeField(power_map(2), s2) + 4.0 * SquareNormField([n])
    return ComposeField(power_map(0.25), inner)


def boundary_distance_field(geo: GeometrySpec, corner_tube: float = 0.0):
    """Distance to the boundary of a convex polytope (piecewise affine)."""
    facets = geo.params["facets"]

    def slacks(pts):
        return np.stack([b - pts @ a for a, b in facets], axis=1)

    def fn(pts):
        return np.min(slacks(pts), axis=1)

    def grad_fn(pts):
        s = slacks(pts)
        idx = np.argmin(s, axis=1)
        normals = np.stack([a for a, _ in facets], axis=0)
        return -normals[idx]

    def hess_fn(pts):
        m = pts.shape[1]
        return np.zeros((len(pts), m, m))

    def near_corner(pts):
        s = np.sort(slacks(pts), axis=1)
        return (s[:, 1] - s[:, 0]) < corner_tube

    from .fields import FuncField
    f = FuncField(fn, grad_fn=grad_fn, hess_fn=hess_fn)
    return f, near_corner


def log_weight(base: Weight, branch: str) -> Weight:
    """Phi = -log psi on {psi <= 1} (branch 'lower') or +log psi on
    {psi >= 1} (branch 'upper'); verifies the comparison with Q = 1."""
    if branch not in ("lower", "upper"):
        raise UsageError("branch must be 'lower' or 'upper'")
    sign = -1.0 if branch == "lower" else 1.0
    phi = sign * ComposeField(log_map(), base.psi)

    def off_branch(pts):
        v = base.psi.value_at(pts)
        return v <= 1.0 if branch == "upper" else v >= 1.0

    return Weight(name=f"log-of-{base.name}[{branch}]", psi=phi, claimed_Q=1.0,
                  comparison=base.comparison, extra_excised=off_branch,
                  base_weight=base)


def power_weight(base: Weight, p: float) -> Weight:
    """psi^p; an exact constant Q transforms to (Q - 2)/p + 2."""
    if p == 0:
        raise UsageError("power-of with p = 0 is the constant weight")
    q = None if base.claimed_Q is None else (base.claimed_Q - 2.0) / p + 2.0
    comparison = base.comparison
    if p < 0 and comparison != "exact":
        comparison = {"lower": "upper", "upper": "lower"}[comparison]
    return Weight(name=f"{base.name}^{p}", psi=ComposeField(power_map(p), base.psi),
                  claimed_Q=q, comparison=comparison, base_weight=base)


def _euclid_norm(geo: GeometrySpec) -> Weight:
    if geo.name == "euclidean-radial":
        return Weight("euclid-norm", CoordinateField(0), float(geo.params["m"]))
    if geo.name == "logradial":
        # the radius e^u is positive in log coordinates: no singular set
        psi = ComposeField(exp_map(), CoordinateField(0))
        return Weight("euclid-norm", psi, float(geo.params["m"]), has_singular_set=False)
    return Weight("euclid-norm", NormField(), float(geo.dim))


def _horizontal_norm(geo: GeometrySpec, **params) -> Weight:
    idx = _param(params, "indices", "weight 'horizontal-norm'", lambda v: v is None or (
        isinstance(v, (list, tuple)) and all(_is_count(k, 0) for k in v)), "a list of indices")
    if idx is None:
        idx = _horizontal_indices(geo)
    elif not idx or len(set(idx)) < len(idx) or not set(idx) <= set(_horizontal_indices(geo)):
        raise UsageError("horizontal-norm indices must be distinct horizontal coordinates")
    return Weight("horizontal-norm", NormField(idx), float(len(idx)))


def _coordinate(geo: GeometrySpec, **params) -> Weight:
    j = int(_param(params, "index", "weight 'coordinate'", lambda v: _is_count(v, 0),
                   "an integer >= 0"))
    if not 0 <= j < geo.dim:
        raise UsageError("coordinate index out of range")
    return Weight(f"coordinate({j})", NormField([j]), 1.0)


def _boundary_distance(geo: GeometrySpec, **params) -> Weight:
    tube = float(_param(params, "corner_tube", "weight 'boundary-distance'", _is_number,
                        "a finite number", 0.0))
    f, near_corner = boundary_distance_field(geo, tube)
    return Weight("boundary-distance", f, 2.0, comparison="upper",
                  extra_excised=near_corner if tube > 0 else None)


def _base_weight(params: dict, name: str) -> Weight:
    """The weight a derived weight is built on."""
    return _param(params, "weight", f"weight {name!r}", lambda v: isinstance(v, Weight),
                  "a Weight")


def _log_of(geo: GeometrySpec, **params) -> Weight:
    return log_weight(_base_weight(params, "log-of"), params.get("branch"))


def _power_of(geo: GeometrySpec, **params) -> Weight:
    base = _base_weight(params, "power-of")
    p = _param(params, "p", "weight 'power-of'", _is_number, "a finite number")
    return power_weight(base, float(p))


def _shifted(geo: GeometrySpec, **params) -> Weight:
    eps = float(_param(params, "eps", "weight 'shifted'", _is_number, "a finite number", 1e-3))
    hor = _horizontal_indices(geo)
    psi = NormField(hor) + eps * koranyi_gauge_field(geo)
    return Weight(f"shifted(|x_0|+{eps}N)", psi, float(len(hor)), comparison="lower")


# name: (builder, the parameters it reads, the geometries it is defined on
# (None: any), its `hardylab list` line)
WEIGHTS = {
    "euclid-norm": (_euclid_norm, (), ("euclidean", "halfspace-euclidean", "convex-domain",
                                       "euclidean-radial", "logradial"),
                    "euclid-norm: |x|, Q = m"),
    "horizontal-norm": (_horizontal_norm, ("indices",), None,
                        "horizontal-norm: |x_0'| over n_0 horizontal coordinates, Q = n_0"),
    "koranyi-gauge": (lambda geo: Weight("koranyi-gauge", koranyi_gauge_field(geo),
                                         float(geo.Q_hom)),
                      (), ("heisenberg",), "koranyi-gauge: Q = Q(G)"),
    "coordinate": (_coordinate, ("index",), None, "coordinate(j): |x_j|, Q = 1"),
    "hyperbolic-height": (lambda geo: Weight("hyperbolic-height", CoordinateField(geo.dim - 1),
                                             3.0 - geo.dim),
                          (), ("hyperbolic",), "hyperbolic(m): weight x_m, Q = 3-m"),
    "grushin-gauge": (lambda geo: Weight("grushin-gauge", grushin_gauge_field(geo),
                                         float(geo.params["n"] + 2)),
                      (), ("grushin",), "grushin-gauge: Q = n+2"),
    "boundary-distance": (_boundary_distance, ("corner_tube",), ("convex-domain",),
                          "boundary-distance: one-sided upper, Q = 2"),
    "log-of": (_log_of, ("weight", "branch"), None,
               "log-of(weight, branch): +-log psi, Q = 1"),
    "power-of": (_power_of, ("weight", "p"), None,
                 "power-of(weight, p): psi^p, Q -> (Q-2)/p + 2"),
    "shifted": (_shifted, ("eps",), ("heisenberg",),
                "shifted(|x_0|+eps N): one-sided lower, Q = n_0 + o(eps)"),
}


def make_weight(geo: GeometrySpec, name: str, /, **params) -> Weight:
    """Build the catalog weight ``name`` on ``geo``; ``WEIGHTS`` lists the
    names, the parameters each one reads and the geometries it is defined on."""
    build, _, on, _ = _entry(WEIGHTS, "weight", name, params)
    if on is not None and geo.name not in on:
        raise UsageError(f"{name} is not defined on {geo.name!r}")
    return build(geo, **params)


def estimate_kappa(rho: Weight, N: Weight, grid) -> float:
    """Grid estimate of kappa(rho) = inf{tau : rho <= tau N}: the sup of
    rho/N over retained nodes.  Reported as a grid value, with no claim of
    being the true constant."""
    nvals, rvals = blockwise(lambda p: (N.psi.value_at(p), rho.psi.value_at(p)),
                             grid.points)
    ok = nvals > 0
    if not np.any(ok):
        raise DegenerateInputError("no retained nodes with N > 0")
    return float(np.max(rvals[ok] / nvals[ok]))
