"""Compactly supported C^2 test functions and the seeded bump corpus.

Everything is built from the polynomial bump u -> (1 - u^2)^3 on |u| <= 1
and the quintic smoothstep, so supports are exact (identically zero outside
the stated sets) and first/second derivatives are closed form.

``bump_corpus`` and ``polynomial_bump_corpus`` return
:class:`~hardylab.fields.SupportedField` bumps.  On a points array their rows
are a superset of the points where the value, gradient or Hessian is
non-zero (the ``|u| < 1`` tests of the bump maps themselves).  The
expression tree runs on those rows only, and every array handed back is
full-size with exact zeros elsewhere, so full-grid sums see the same values.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError
from .fields import (ComposeField, PolyField, ProductField, ScalarField,
                     CoordinateField, SupportedField, bump_window_map,
                     smoothed_power_profile)


def radial_bump(psi: ScalarField, a: float, b: float) -> ScalarField:
    """Bump in the level sets of psi, supported exactly on {a <= psi <= b}."""
    if not 0 <= a < b:
        raise UsageError("radial bump needs 0 <= a < b")
    return ComposeField(bump_window_map(a, b), psi, positive_domain=False)


def tensor_bump(box) -> ScalarField:
    """Product of per-axis bumps; support is exactly the closed box."""
    f = None
    for i, (lo, hi) in enumerate(box):
        factor = ComposeField(bump_window_map(float(lo), float(hi)),
                              CoordinateField(i), positive_domain=False)
        f = factor if f is None else ProductField(f, factor)
    if f is None:
        raise UsageError("tensor bump needs at least one axis")
    return f


def smoothed_power(psi: ScalarField, eps: float, a: float, b: float,
                   base_exponent: float = -0.5, ramp_factor: float = 2.0) -> ScalarField:
    """psi^(base_exponent + eps), ramped to zero outside {a <= psi <= b}.

    Equals the pure power exactly on {ramp_factor*a <= psi <= b/ramp_factor}.
    """
    prof = smoothed_power_profile(base_exponent + eps, a, b, ramp_factor)
    return ComposeField(prof, psi, positive_domain=False)


def make_test_function(kind: str, **params) -> ScalarField:
    """Named constructors: radial-bump(psi, a, b), tensor-bump(box),
    smoothed-power(psi, eps, a, b[, base_exponent, ramp_factor])."""
    if kind == "radial-bump":
        return radial_bump(params["psi"], float(params["a"]), float(params["b"]))
    if kind == "tensor-bump":
        return tensor_bump(params["box"])
    if kind == "smoothed-power":
        return smoothed_power(params["psi"], float(params["eps"]), float(params["a"]),
                              float(params["b"]),
                              float(params.get("base_exponent", -0.5)),
                              float(params.get("ramp_factor", 2.0)))
    raise UsageError(f"unknown test function kind {kind!r}")


def bump_corpus(psi: ScalarField, grid, n: int, seed: int,
                psi_range: tuple[float, float], min_rel_width: float = 0.15):
    """Deterministic corpus of n bumps supported in {psi_range} inside the grid.

    Each entry is a psi-annulus bump times a tensor bump in a random interior
    sub-box, so supports respect the weight's branch/singularity constraints
    by construction.  Candidates whose support misses the retained nodes are
    rejected and redrawn, keeping the corpus deterministic for a given seed.
    """
    rng = np.random.default_rng(seed)
    lo_psi, hi_psi = float(psi_range[0]), float(psi_range[1])
    if not 0 <= lo_psi < hi_psi:
        raise UsageError("psi_range must satisfy 0 <= lo < hi")
    out = []
    attempts = 0
    while len(out) < n:
        attempts += 1
        if attempts > 50 * n:
            raise UsageError("could not place the requested corpus inside the grid")
        width = hi_psi - lo_psi
        w = width * (min_rel_width + (1.0 - min_rel_width) * rng.random())
        a = lo_psi + (width - w) * rng.random()
        box = _interior_box(grid, rng)
        f = SupportedField(ProductField(radial_bump(psi, a, a + w), tensor_bump(box)))
        vals = np.abs(f.value_at(grid.points))
        if vals.max() > 1e-6 and grid.supports(f):
            out.append(f)
    return out


def _interior_box(grid, rng):
    """Random box staying clear of the grid's support-check fringe."""
    box = []
    for (lo, hi), h in zip(grid.bounds, grid.spacing):
        span = hi - lo
        margin = max(0.06 * span, 3.5 * h)
        c = lo + margin + (span - 2 * margin) * rng.random()
        half = span * (0.15 + 0.25 * rng.random())
        box.append((max(lo + margin, c - half), min(hi - margin, c + half)))
    return box


def random_polynomial(dim: int, degree: int, rng) -> PolyField:
    """Random dense polynomial with standard-normal coefficients."""
    terms = []

    def rec(prefix, remaining):
        if len(prefix) == dim:
            terms.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e)

    rec([], degree)
    return PolyField([(rng.standard_normal(), exps) for exps in terms])


def polynomial_bump_corpus(grid, n: int, seed: int, degree: int = 2):
    """Random polynomial times tensor-bump corpus (for curvature checks)."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        box = _interior_box(grid, rng)
        f = SupportedField(ProductField(random_polynomial(len(grid.bounds), degree, rng),
                                        tensor_bump(box)))
        if np.abs(f.value_at(grid.points)).max() > 1e-9 and grid.supports(f):
            out.append(f)
    return out
