r"""Ready-made geometries and weights with their comparison constants.

Geometries
----------
``euclidean(m)``            coordinate frame, Lebesgue measure
``halfspace-euclidean(m)``  same, restricted to {x_m > 0}
``heisenberg(m)``           frame X_i = d_{x_i} - (y_i/2) d_z,
                            Y_i = d_{y_i} + (x_i/2) d_z on R^{2m+1}
``hyperbolic(m)``           half-space model: frame x_m d_i,
                            drift -(m-1) x_m d_m, density x_m^{-m}
``grushin(n)``              frame d_{x_i} and x_i d_y on R^{n+1}
``convex-domain(m)``        Euclidean frame inside a convex polytope
``euclidean-radial(m)``     1D radial model d_rr + ((m-1)/r) d_r,
                            density r^{m-1} on r > 0
``logradial(m)``            the same model in u = log r coordinates:
                            frame e^{-u} d_u, drift (m-1) e^{-2u} d_u,
                            density e^{mu}; resolves huge radius ranges
                            on a uniform lattice

Weights carry the comparison constant Q they satisfy in the generalized
Laplacian comparison psi L psi = (Q - 1) Gamma(psi), one-sided weights
carry the direction instead; all constants here are re-verified numerically
by the qcond test suite rather than taken on faith.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .calculus import FrameDiffusion
from .errors import DegenerateInputError, UsageError
from .fields import (AffineField, ComposeField, ConstField, CoordinateField,
                     NormField, ScalarField, SquareNormField, VectorField,
                     coordinate_frame, exp_map, log_map, power_map)


class GeometrySpec(FrameDiffusion):
    """A named diffusion plus optional stratification data.

    A geometry is a ``FrameDiffusion``: frame, drift, measure density,
    dimension and domain mask are the diffusion's own, and its ``kind`` is
    its name.  It hashes by identity, which the per-(grid, weight) memo keys
    that hold it rely on."""

    def __init__(self, name: str, dim: int, frame, drift: VectorField | None,
                 measure_density: ScalarField, stratification: tuple[int, ...] | None = None,
                 Q_hom: float | None = None, domain_mask: Callable | None = None,
                 params: dict | None = None):
        super().__init__(frame, drift, measure_density, dim, domain_mask=domain_mask,
                         kind=name)
        if stratification is not None:
            if len(stratification) != self.dim:
                raise UsageError("stratification must assign a stratum to every coordinate")
            q = sum(k + 1 for k in stratification)
            if Q_hom is None:
                Q_hom = float(q)
            elif abs(Q_hom - q) > 1e-12:
                raise UsageError("Q_hom inconsistent with the stratification")
        self.name = name
        self.stratification = stratification
        self.Q_hom = Q_hom
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
    singular_set: str
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
        w = np.zeros(dim)
        w[m + i] = -0.5
        cx[zi] = AffineField(w)
        frames.append(VectorField(cx))
    for i in range(m):
        cy = [ConstField(0.0)] * dim
        cy[m + i] = ConstField(1.0)
        w = np.zeros(dim)
        w[i] = 0.5
        cy[zi] = AffineField(w)
        frames.append(VectorField(cy))
    strat = tuple([0] * (2 * m) + [1])
    return GeometrySpec(name="heisenberg", dim=dim, frame=tuple(frames), drift=None,
                        measure_density=ConstField(1.0), stratification=strat,
                        params={"m": m})


def _hyperbolic(m: int) -> GeometrySpec:
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


def _convex_domain(m: int, facets) -> GeometrySpec:
    facets = [(np.asarray(a, dtype=float), float(b)) for a, b in facets]
    for a, _ in facets:
        if abs(np.linalg.norm(a) - 1.0) > 1e-12:
            raise UsageError("facet normals must be unit vectors")

    def mask(pts):
        ok = np.ones(len(pts), dtype=bool)
        for a, b in facets:
            ok &= pts @ a < b
        return ok

    g = _euclidean(m, domain_mask=mask, name="convex-domain")
    g.params["facets"] = facets
    return g


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


def _positive_int(params: dict, key: str, geometry: str) -> int:
    """The positive integer parameter ``key`` of a geometry."""
    value = params.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise UsageError(f"geometry {geometry!r} needs a positive integer "
                         f"parameter {key!r}, got {value!r}")
    return int(value)


def make_geometry(name: str, **params) -> GeometrySpec:
    """Build a catalog geometry by name.

    Known names: euclidean(m), halfspace-euclidean(m), heisenberg(m),
    hyperbolic(m), grushin(n), convex-domain(m, facets=... | box=...),
    euclidean-radial(m), logradial(m).
    """
    if name == "euclidean":
        return _euclidean(_positive_int(params, "m", name))
    if name == "halfspace-euclidean":
        m = _positive_int(params, "m", name)

        def mask(pts):
            return pts[:, m - 1] > 0

        return _euclidean(m, domain_mask=mask, name="halfspace-euclidean")
    if name == "heisenberg":
        return _heisenberg(_positive_int(params, "m", name))
    if name == "hyperbolic":
        m = _positive_int(params, "m", name)
        if m < 2:
            raise UsageError("hyperbolic half-space needs m >= 2")
        return _hyperbolic(m)
    if name == "grushin":
        return _grushin(_positive_int(params, "n", name))
    if name == "convex-domain":
        m = _positive_int(params, "m", name)
        if "facets" in params:
            facets = params["facets"]
        elif "box" in params:
            facets = box_facets(params["box"])
        else:
            raise UsageError("convex-domain requires facets= or box=")
        return _convex_domain(m, facets)
    if name == "euclidean-radial":
        return _euclidean_radial(_positive_int(params, "m", name))
    if name == "logradial":
        return _logradial(_positive_int(params, "m", name))
    raise UsageError(f"unknown geometry {name!r}")


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
    f = FuncField(fn, grad_fn=grad_fn, hess_fn=hess_fn, name="dist-to-boundary")
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
                  singular_set=base.singular_set + " and {psi = 1}",
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
                  claimed_Q=q, singular_set=base.singular_set, comparison=comparison,
                  base_weight=base)


def make_weight(geo: GeometrySpec, name: str, **params) -> Weight:
    """Build a catalog weight by name for the given geometry.

    Known names: euclid-norm, horizontal-norm, koranyi-gauge, coordinate,
    hyperbolic-height, grushin-gauge, boundary-distance, log-of, power-of,
    shifted.
    """
    if name == "euclid-norm":
        if geo.name == "euclidean-radial":
            return Weight("euclid-norm", CoordinateField(0), float(geo.params["m"]),
                          singular_set="{r = 0}")
        if geo.name == "logradial":
            psi = ComposeField(exp_map(), CoordinateField(0))
            return Weight("euclid-norm", psi, float(geo.params["m"]),
                          singular_set="none (the radius is positive in log coordinates)",
                          has_singular_set=False)
        if geo.name not in ("euclidean", "halfspace-euclidean", "convex-domain"):
            raise UsageError(f"euclid-norm is not defined on {geo.name!r}")
        return Weight("euclid-norm", NormField(), float(geo.dim), singular_set="{0}")

    if name == "horizontal-norm":
        idx = params.get("indices")
        if idx is None:
            idx = _horizontal_indices(geo)
        else:
            hor = set(_horizontal_indices(geo))
            if not set(idx) <= hor:
                raise UsageError("horizontal-norm indices must be horizontal coordinates")
        return Weight("horizontal-norm", NormField(idx), float(len(idx)),
                      singular_set="{|x_0'| = 0}")

    if name == "koranyi-gauge":
        if geo.name != "heisenberg":
            raise UsageError(f"koranyi-gauge is not defined on {geo.name!r}")
        return Weight("koranyi-gauge", koranyi_gauge_field(geo), float(geo.Q_hom),
                      singular_set="{0}")

    if name == "coordinate":
        j = int(params["index"])
        if not 0 <= j < geo.dim:
            raise UsageError("coordinate index out of range")
        return Weight(f"coordinate({j})", NormField([j]), 1.0,
                      singular_set=f"{{x_{j} = 0}}")

    if name == "hyperbolic-height":
        if geo.name != "hyperbolic":
            raise UsageError(f"hyperbolic-height is not defined on {geo.name!r}")
        m = geo.params["m"]
        return Weight("hyperbolic-height", CoordinateField(m - 1), 3.0 - m,
                      singular_set="{x_m = 0} (the boundary at infinity)")

    if name == "grushin-gauge":
        if geo.name != "grushin":
            raise UsageError(f"grushin-gauge is not defined on {geo.name!r}")
        return Weight("grushin-gauge", grushin_gauge_field(geo),
                      float(geo.params["n"] + 2), singular_set="{0}")

    if name == "boundary-distance":
        if geo.name != "convex-domain":
            raise UsageError("boundary-distance needs a convex-domain geometry")
        tube = float(params.get("corner_tube", 0.0))
        f, near_corner = boundary_distance_field(geo, tube)
        return Weight("boundary-distance", f, 2.0,
                      singular_set="the boundary and facet intersections",
                      comparison="upper",
                      extra_excised=near_corner if tube > 0 else None)

    if name == "log-of":
        return log_weight(params["weight"], params["branch"])

    if name == "power-of":
        return power_weight(params["weight"], float(params["p"]))

    if name == "shifted":
        eps = float(params.get("eps", 1e-3))
        hor = _horizontal_indices(geo)
        if geo.name != "heisenberg":
            raise UsageError("shifted |x_0| + eps N is defined on Heisenberg geometries")
        psi = NormField(hor) + eps * koranyi_gauge_field(geo)
        n0 = float(len(hor))
        return Weight(f"shifted(|x_0|+{eps}N)", psi, n0,
                      singular_set="{|x_0| = 0}", comparison="lower")

    raise UsageError(f"unknown weight {name!r}")


def estimate_kappa(rho: Weight, N: Weight, grid) -> float:
    """Grid estimate of kappa(rho) = inf{tau : rho <= tau N}: the sup of
    rho/N over retained nodes.  Reported as a grid value, with no claim of
    being the true constant."""
    pts = grid.points
    nvals = N.psi.value_at(pts)
    ok = nvals > 0
    if not np.any(ok):
        raise DegenerateInputError("no retained nodes with N > 0")
    return float(np.max(rho.psi.value_at(pts)[ok] / nvals[ok]))
