"""The drift a frame diffusion derives from its frame and measure density
equals the hand-written drift of each model.

L x_k = sum_j X_j c_{j,k} + b_k, so b_k = L x_k - sum_j X_j c_{j,k} is read
off ``apply_L``.  The references are the closed forms the catalog and the
derived operators once supplied by hand; each is checked on 200 random points
in [0.3, 1.7]^m, within 1e-12 of the largest term."""

import numpy as np
import pytest

import hardylab as hl
from hardylab.fields import ComposeField, CoordinateField, log_map
from hardylab.operators import dilation_operator, drifted_operator, radial_operator
from hardylab.testfunctions import random_polynomial

REL_TOL = 1e-12
DRIFT_FREE = [("euclidean", {"m": 3}), ("halfspace-euclidean", {"m": 2}),
              ("heisenberg", {"m": 1}), ("heisenberg", {"m": 2}), ("grushin", {"n": 2}),
              ("convex-domain", {"m": 2, "box": [[0.0, 2.0]] * 2}),
              ("euclidean-radial", {"m": 1}), ("logradial", {"m": 1})]


def _points(dim: int, seed: int = 0):
    return np.random.default_rng(seed).uniform(0.3, 1.7, size=(200, dim))


def _drift_defect(diff, reference, pts) -> tuple[float, float]:
    """max |L x_k - sum_j X_j c_{j,k} - reference_k| over points and k, and
    the largest of the three terms."""
    defect, scale = 0.0, 1.0
    for k in range(diff.dim):
        lx = diff.apply_L(CoordinateField(k), pts)
        second = sum(X.apply(X.coeffs[k], pts) for X in diff.frame)
        ref = reference[:, k]
        defect = max(defect, float(np.max(np.abs(lx - second - ref))))
        scale = max(scale, *(float(np.max(np.abs(t))) for t in (lx, second, ref)))
    return defect, scale


def _hyperbolic_drift(m: int, pts):
    """-(m - 1) x_m on the last axis."""
    ref = np.zeros(pts.shape)
    ref[:, m - 1] = -(m - 1.0) * pts[:, m - 1]
    return ref


def _gamma_drift(base, sigma, pts):
    """Z = Gamma(sigma, .) in coordinates: z_k = Gamma(sigma, x_k)."""
    return np.stack([base.gamma(sigma, CoordinateField(k), pts) for k in range(base.dim)],
                    axis=1)


def _geometry_case(name, params, reference):
    geo = hl.make_geometry(name, **params)
    pts = _points(geo.dim)
    return geo, reference(pts), pts


def _radial_case(name, params, weight):
    # L_psi = Z^2 + (L psi) Z
    geo = hl.make_geometry(name, **params)
    psi = hl.make_weight(geo, weight).psi
    pts = _points(geo.dim)
    return (radial_operator(geo, psi),
            geo.apply_L(psi, pts)[:, None] * _gamma_drift(geo, psi, pts), pts)


def _drifted_case(name, params, weight, kind):
    # L_s = L + Gamma(s, .): the base drift plus Z = Gamma(s, .)
    geo = hl.make_geometry(name, **params)
    pts = _points(geo.dim)
    if kind == "log":
        sigma = 0.5 * ComposeField(log_map(), hl.make_weight(geo, weight).psi)
    else:
        sigma = random_polynomial(geo.dim, 2, np.random.default_rng(1))
    base = _hyperbolic_drift(geo.dim, pts) if name == "hyperbolic" else np.zeros(pts.shape)
    return drifted_operator(geo, sigma), base + _gamma_drift(geo, sigma, pts), pts


def _dilation_case(name, params):
    # D^2 + Q_hom D with D = sum_k (s_k + 1) y_k d_k
    geo = hl.make_geometry(name, **params)
    pts = _points(geo.dim)
    weights = np.array(geo.stratification, dtype=float) + 1.0
    return dilation_operator(geo), geo.Q_hom * weights * pts, pts


BASES = [("heisenberg", {"m": 1}, "koranyi-gauge"), ("euclidean", {"m": 3}, "euclid-norm"),
         ("hyperbolic", {"m": 3}, "hyperbolic-height")]
CASES = {
    **{f"{name}-{list(params.values())[0]}": (_geometry_case, name, params, np.zeros_like)
       for name, params in DRIFT_FREE},
    **{f"hyperbolic-{m}": (_geometry_case, "hyperbolic", {"m": m},
                           lambda pts, m=m: _hyperbolic_drift(m, pts)) for m in (2, 3)},
    **{f"euclidean-radial-{m}": (_geometry_case, "euclidean-radial", {"m": m},
                                 lambda pts, m=m: (m - 1.0) / pts) for m in (2, 3, 5)},
    **{f"logradial-{m}": (_geometry_case, "logradial", {"m": m},
                          lambda pts, m=m: (m - 1.0) * np.exp(-2.0 * pts)) for m in (2, 3, 5)},
    **{f"radial-{base[0]}": (_radial_case, *base) for base in BASES},
    **{f"drifted-{kind}-{base[0]}": (_drifted_case, *base, kind)
       for base in BASES for kind in ("log", "poly")},
    **{f"dilation-{name}": (_dilation_case, name, params)
       for name, params in (("heisenberg", {"m": 1}), ("euclidean", {"m": 3}),
                            ("grushin", {"n": 1}))},
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_derived_drift_equals_the_hand_written_one(case):
    build, *args = CASES[case]
    diff, reference, pts = build(*args)
    defect, scale = _drift_defect(diff, reference, pts)
    assert defect <= REL_TOL * scale, (defect, scale)
