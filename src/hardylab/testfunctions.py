"""Compactly supported C^2 test functions and the seeded bump corpus.

Everything is built from the polynomial bump u -> (1 - u^2)^3 on |u| <= 1
and the quintic smoothstep, so supports are exact (identically zero outside
the stated sets) and first/second derivatives are closed form.

``bump_corpus`` and ``polynomial_bump_corpus`` return lists of
:class:`~hardylab.fields.SupportedField` bumps; ``iter_bump_corpus`` and
``iter_polynomial_bump_corpus`` yield the same bumps one at a time, each
drawn only when the caller asks for it, so a caller that stops early draws
no more.  On a points array a bump's rows are a superset of the points where
the value, gradient or Hessian is non-zero (the ``|u| < 1`` tests of the
bump maps themselves).  The expression tree runs on those rows only, and
every array handed back is full-size with exact zeros elsewhere, so
full-grid sums see the same values.

A candidate's rows are the retained nodes near its tensor box
(``Grid.box_rows``), narrowed by the bump maps' own predicates, and its
floor test and support check read its values on those rows only.  An
accepted bump holds its support rows, their sub-array of the grid's points,
its tree's values there and its ``grid.supports`` verdict, and no array of
the grid's size; all four are memo entries on the bump or its sub-array
(:func:`~hardylab.fields.memo`), so they go with the bump.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError
from .fields import (ComposeField, PolyField, ProductField, ScalarField,
                     CoordinateField, SupportedField, bump_window_map,
                     smoothed_power_profile, support)


def radial_bump(psi: ScalarField, a: float, b: float) -> ScalarField:
    """Bump in the level sets of psi, supported exactly on {a <= psi <= b}."""
    if not 0 <= a < b:
        raise UsageError("radial bump needs 0 <= a < b")
    return ComposeField(bump_window_map(a, b), psi)


def tensor_bump(box) -> ScalarField:
    """Product of per-axis bumps; support is exactly the closed box."""
    f = None
    for i, (lo, hi) in enumerate(box):
        factor = ComposeField(bump_window_map(float(lo), float(hi)),
                              CoordinateField(i))
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
    return ComposeField(prof, psi)


_MIN_REL_WIDTH = 0.15  # a corpus bump's narrowest psi-width, as a share of psi_range


def bump_corpus(psi: ScalarField, grid, n: int, seed: int, psi_range: tuple[float, float]):
    """Deterministic corpus of n bumps supported in {psi_range} inside the grid.

    Each entry is a psi-annulus bump times a tensor bump in a random interior
    sub-box, so supports respect the weight's branch/singularity constraints
    by construction.  Candidates whose support misses the retained nodes are
    rejected and redrawn, keeping the corpus deterministic for a given seed.
    """
    return list(iter_bump_corpus(psi, grid, n, seed, psi_range))


def iter_bump_corpus(psi: ScalarField, grid, n: int, seed: int,
                     psi_range: tuple[float, float]):
    """``bump_corpus``'s bumps, yielded as each is accepted; psi_range is
    checked when this is called, not at the first draw."""
    lo_psi, hi_psi = float(psi_range[0]), float(psi_range[1])
    if not 0 <= lo_psi < hi_psi:
        raise UsageError("psi_range must satisfy 0 <= lo < hi")

    def draw(rng):
        width = hi_psi - lo_psi
        w = width * (_MIN_REL_WIDTH + (1.0 - _MIN_REL_WIDTH) * rng.random())
        a = lo_psi + (width - w) * rng.random()
        radial = radial_bump(psi, a, a + w)
        box = _interior_box(grid, rng)
        return ProductField(radial, tensor_bump(box)), box

    return _corpus(grid, n, seed, draw, 1e-6)


def _corpus(grid, n: int, seed: int, draw, floor: float):
    """Yield n fields from ``draw(rng)`` (a field and its tensor factor's
    box), each redrawn until it exceeds ``floor`` on the grid and the grid
    supports it; a UsageError at the draw after the 50 n-th."""
    rng = np.random.default_rng(seed)
    accepted = attempts = 0
    while accepted < n:
        attempts += 1
        if attempts > 50 * n:
            raise UsageError("could not place the requested corpus inside the grid")
        base, box = draw(rng)
        f = SupportedField(base)
        f.rows_at(grid.points, within=grid.box_rows(box))
        on = support(f, grid.points)
        vals = np.abs(on.tree.value_at(on.sub))
        if len(vals) and vals.max() > floor and grid.supports(f):
            accepted += 1
            yield f


def _interior_box(grid, rng):
    """Random box staying clear of the grid's support-check fringe."""
    box = []
    for (lo, hi), h in zip(grid.bounds, grid.spacing):
        span = hi - lo
        margin = max(0.06 * span, 3.5 * h)
        if span <= 2 * margin:
            raise UsageError("could not place the requested corpus inside the grid")
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


def polynomial_bump_corpus(grid, n: int, seed: int):
    """Random polynomial of degree <= 2 times tensor-bump corpus (for curvature checks)."""
    return list(iter_polynomial_bump_corpus(grid, n, seed))


def iter_polynomial_bump_corpus(grid, n: int, seed: int):
    """``polynomial_bump_corpus``'s bumps, yielded as each is accepted."""

    def draw(rng):
        box = _interior_box(grid, rng)
        return ProductField(random_polynomial(len(grid.bounds), 2, rng), tensor_bump(box)), box

    return _corpus(grid, n, seed, draw, 1e-9)
