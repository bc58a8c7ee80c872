"""Property tests: the carre du champ matches its definition
Gamma(f, g) = (1/2)(L(fg) - f Lg - g Lf), L obeys the chain rule
L(phi(f)) = phi'(f) Lf + phi''(f) Gamma(f), and the curvature defect has the
exact pointwise form

    Gamma^W(f) - gamma W^2 f^2 = (s - gamma) W^2 f^2 + sum_j (W X_j f + 2 f X_j W)^2

with s = LW/W - 3 Gamma(W)/W^2, for random polynomial fields on every
catalog geometry."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import hardylab as hl  # noqa: E402
from hardylab.calculus import chain_rule_defect, gamma_definition_defect, gamma_w  # noqa: E402
from hardylab.catalog import GEOMETRIES  # noqa: E402
from hardylab.conditions import suffcond_values  # noqa: E402
from hardylab.fields import ComposeField, exp_map, power_map  # noqa: E402
from hardylab.testfunctions import random_polynomial  # noqa: E402

# the size parameter 2 for each geometry; the box holds the points below
PARAMS = {name: {reads[0]: 2} for name, (_, reads, _) in GEOMETRIES.items()}
PARAMS["convex-domain"]["box"] = [[0.0, 2.0]] * 2
REL_TOL = 1e-12


def _scale(*terms) -> float:
    return max(float(np.max(np.abs(t))) for t in terms)


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_gamma_definition_and_chain_rule_defects_vanish(name, deg_f, deg_g, seed):
    geo = hl.make_geometry(name, **PARAMS[name])
    rng = np.random.default_rng(seed)
    f = random_polynomial(geo.dim, deg_f, rng)
    g = random_polynomial(geo.dim, deg_g, rng)
    pts = rng.uniform(0.3, 1.7, size=(20, geo.dim))

    lf, lg = geo.apply_L(f, pts), geo.apply_L(g, pts)
    scale = _scale(geo.gamma(f, g, pts), 0.5 * geo.apply_L(f * g, pts),
                   0.5 * f.value_at(pts) * lg, 0.5 * g.value_at(pts) * lf)
    assert gamma_definition_defect(geo, f, g, pts) <= REL_TOL * scale

    for phi, h in ((power_map(3), f), (exp_map(), 0.3 * f)):
        u, lh = h.value_at(pts), geo.apply_L(h, pts)
        scale = _scale(geo.apply_L(ComposeField(phi, h), pts), phi.d1(u) * lh,
                       phi.d2(u) * geo.gamma(h, h, pts))
        assert chain_rule_defect(geo, phi, h, pts) <= REL_TOL * scale


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
@settings(max_examples=10, deadline=None, database=None, derandomize=True)
@given(st.integers(1, 3), st.floats(-2.0, 2.0), st.integers(0, 2 ** 32 - 1))
def test_curvature_defect_equals_its_pointwise_form(name, deg_f, gam, seed):
    geo = hl.make_geometry(name, **PARAMS[name])
    rng = np.random.default_rng(seed)
    f = random_polynomial(geo.dim, deg_f, rng)
    W = ComposeField(exp_map(), 0.3 * random_polynomial(geo.dim, 2, rng))  # W > 0
    pts = rng.uniform(0.3, 1.7, size=(20, geo.dim))

    C = geo.frame_values(pts)
    fv, wv = f.value_at(pts), W.value_at(pts)
    xf = np.einsum("jni,ni->jn", C, f.grad_at(pts))
    xw = np.einsum("jni,ni->jn", C, W.grad_at(pts))
    lhs = gamma_w(geo, W, f, pts) - gam * wv ** 2 * fv ** 2
    shift = (suffcond_values(geo, W, pts) - gam) * wv ** 2 * fv ** 2
    squares = np.sum((wv * xf + 2.0 * fv * xw) ** 2, axis=0)
    scale = _scale(lhs, shift, squares)
    assert float(np.max(np.abs(lhs - shift - squares))) <= REL_TOL * scale
