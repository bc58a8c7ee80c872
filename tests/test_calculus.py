import numpy as np
import pytest

import hardylab as hl
from hardylab.calculus import (FrameDiffusion, chain_rule_defect, eval_L, gamma,
                               gamma_chain_rule_defect,
                               gamma_definition_defect, gamma_w, ibp_defect)
from hardylab.errors import DomainError, PreconditionError
from hardylab.fields import (ComposeField, ConstField, CoordinateField,
                             NormField, PolyField, SquareNormField, coordinate_frame,
                             identity_map, power_map, with_fd)
from hardylab.operators import dilation_operator, drifted_operator, radial_operator
from hardylab.testfunctions import radial_bump, random_polynomial

from conftest import (central_difference_grad, coefficient_matrix,
                      coefficient_matrix_grad, sample_points)


# ---------------------------------------------------------------------------
# eval_L
# ---------------------------------------------------------------------------

def test_eval_L_euclidean_norm_squared(eu3):
    geo, _, _ = eu3
    f = SquareNormField()
    pts = sample_points(np.random.default_rng(0), 20, [(-2, 2)] * 3)
    assert np.allclose(eval_L(geo, f, pts), 6.0, atol=1e-12)


def test_eval_L_heisenberg_annihilates_vertical(h1):
    geo, _, _ = h1
    z = CoordinateField(2)
    pts = sample_points(np.random.default_rng(1), 20, [(-2, 2)] * 3)
    assert np.allclose(eval_L(geo, z, pts), 0.0, atol=1e-14)


def test_eval_L_hyperbolic_height(hyp3):
    # Laplace-Beltrami in half-space coordinates gives L x_m = -(m-2) x_m
    geo, w, _ = hyp3
    p = np.array([0.3, -0.2, 2.0])
    assert eval_L(geo, w.psi, p) == pytest.approx(-2.0, abs=1e-12)
    fd = with_fd(w.psi, 1e-4)
    assert eval_L(geo, fd, p) == pytest.approx(-2.0, abs=1e-6)


def test_eval_L_domain_and_numeric_errors(hyp3):
    geo, w, _ = hyp3
    with pytest.raises(DomainError):
        eval_L(geo, w.psi, np.array([0.0, 0.0, -1.0]))


# ---------------------------------------------------------------------------
# drift_free: which frames let apply_L skip the first-order terms
# ---------------------------------------------------------------------------

BOX2 = {"box": [[0.0, 2.0]] * 2}
DRIFT_FREE = [("heisenberg", {"m": 1}), ("heisenberg", {"m": 2}), ("euclidean", {"m": 1}),
              ("euclidean", {"m": 3}), ("halfspace-euclidean", {"m": 2}),
              ("convex-domain", {"m": 2, **BOX2}), ("grushin", {"n": 1}),
              ("grushin", {"n": 2}), ("euclidean-radial", {"m": 1})]
# logradial(1) has zero drift only as a sum of nonzero terms
NOT_DRIFT_FREE = [("hyperbolic", {"m": 2}), ("hyperbolic", {"m": 3}), ("logradial", {"m": 1}),
                  ("logradial", {"m": 3}), ("euclidean-radial", {"m": 2}),
                  ("euclidean-radial", {"m": 3})]


def _ids(cases):
    return [f"{name}-{next(iter(params.values()))}" for name, params in cases]


@pytest.mark.parametrize("name,params", DRIFT_FREE, ids=_ids(DRIFT_FREE))
def test_drift_free_catalog_frames(name, params):
    assert hl.make_geometry(name, **params).drift_free is True


@pytest.mark.parametrize("name,params", NOT_DRIFT_FREE, ids=_ids(NOT_DRIFT_FREE))
def test_drift_free_false_for_other_catalog_frames(name, params):
    assert hl.make_geometry(name, **params).drift_free is False


@pytest.mark.parametrize("name", ["euclidean", "heisenberg"])
def test_drift_free_false_for_derived_operators(name):
    geo = hl.make_geometry(name, m=1)
    psi = hl.make_weight(geo, "euclid-norm" if name == "euclidean" else "koranyi-gauge").psi
    for diff in (dilation_operator(geo), radial_operator(geo, psi),
                 drifted_operator(geo, CoordinateField(0))):
        assert diff.drift_free is False


def test_drift_free_needs_a_positive_constant_density():
    frame = coordinate_frame(2)
    assert FrameDiffusion(frame, PolyField([(0.5, ()), (0.25, (0, 0))]), 2).drift_free
    for rho in (PolyField([(1.0, ()), (0.5, (0, 2))]), ConstField(-1.0), ConstField(0.0),
                ComposeField(power_map(2.0), CoordinateField(0) + 2.0)):
        assert FrameDiffusion(frame, rho, 2).drift_free is False


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------

def test_gamma_euclidean_norm(eu3):
    geo, w, _ = eu3
    pts = sample_points(np.random.default_rng(2), 20, [(-2, 2)] * 3)
    assert np.allclose(gamma(geo, w.psi, w.psi, pts), 1.0, atol=1e-12)


def test_gamma_heisenberg_horizontal_norm(h1):
    # the subgradient coincides with the euclidean gradient on horizontal functions
    geo, _, _ = h1
    x0 = NormField([0, 1])
    pts = sample_points(np.random.default_rng(3), 20, [(-2, 2)] * 3, indices=(0, 1))
    assert np.allclose(gamma(geo, x0, x0, pts), 1.0, atol=1e-12)


def test_gamma_koranyi_gauge_formula(h1):
    # H-type identity: Gamma(N) = |x_0|^2 / N^2
    geo, w, _ = h1
    pts = sample_points(np.random.default_rng(4), 50, [(-2, 2)] * 3, indices=(0, 1))
    got = gamma(geo, w.psi, w.psi, pts)
    x0sq = pts[:, 0] ** 2 + pts[:, 1] ** 2
    expected = x0sq / w.psi._value(pts) ** 2
    assert np.allclose(got, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# gamma_w
# ---------------------------------------------------------------------------

def test_gamma_w_unit_multiplier_reduces_to_gamma(eu3):
    geo, _, _ = eu3
    f = random_polynomial(3, 2, np.random.default_rng(5))
    pts = sample_points(np.random.default_rng(6), 20, [(-2, 2)] * 3)
    got = gamma_w(geo, ConstField(1.0), f, pts)
    assert np.allclose(got, gamma(geo, f, f, pts), atol=1e-10)


def test_gamma_w_constant_function_gives_half_LW2(eu3):
    geo, w, _ = eu3
    W = ComposeField(power_map(0.5), w.psi)
    pts = sample_points(np.random.default_rng(7), 20, [(-2, 2)] * 3)
    got = gamma_w(geo, W, ConstField(1.0), pts)
    W2 = W * W
    assert np.allclose(got, 0.5 * eval_L(geo, W2, pts), atol=1e-12)


def test_gamma_w_matches_bruteforce_expansion(eu3):
    # compose the independent eval_L / gamma code paths on product fields
    geo, w, _ = eu3
    W = ComposeField(power_map(0.5), w.psi)
    f = random_polynomial(3, 2, np.random.default_rng(8))
    pts = sample_points(np.random.default_rng(9), 30, [(-2, 2)] * 3)
    W2 = W * W
    f2 = f * f
    brute = 0.5 * (eval_L(geo, W2, pts) * f._value(pts) ** 2
                   + 2.0 * gamma(geo, W2, f2, pts)
                   + 2.0 * W2._value(pts) * gamma(geo, f, f, pts))
    assert np.max(np.abs(gamma_w(geo, W, f, pts) - brute)) < 1e-10


# ---------------------------------------------------------------------------
# chain rules
# ---------------------------------------------------------------------------

def test_chain_rule_identity_map(eu3):
    geo, w, _ = eu3
    pts = sample_points(np.random.default_rng(10), 20, [(-2, 2)] * 3)
    assert chain_rule_defect(geo, identity_map(), w.psi, pts) == 0.0


def test_chain_rule_square_polynomial(eu3):
    geo, _, _ = eu3
    x1 = CoordinateField(0)
    pts = sample_points(np.random.default_rng(11), 20, [(-2, 2)] * 3)
    assert chain_rule_defect(geo, power_map(2), x1, pts) < 1e-10


def test_chain_rule_fd_slope_heisenberg(h1):
    # difference oracles converge at O(h^2): fitted slope ~ 2
    geo, w, _ = h1
    pts = sample_points(np.random.default_rng(12), 10, [(-1.5, 1.5)] * 3,
                        min_radius=0.8, indices=(0, 1))
    steps = (0.02, 0.01, 0.005)
    defects = [chain_rule_defect(geo, power_map(3), with_fd(w.psi, h), pts)
               for h in steps]
    slopes = [np.log2(defects[i] / defects[i + 1]) for i in range(len(steps) - 1)]
    for s in slopes:
        assert 1.8 <= s <= 2.2, (defects, slopes)


# ---------------------------------------------------------------------------
# integration by parts
# ---------------------------------------------------------------------------

def test_ibp_zero_function(eu3):
    geo, w, grid = eu3
    assert ibp_defect(geo, ConstField(0.0), w.psi, grid) == 0.0


def test_ibp_refinement_euclidean(eu3):
    # fixed excision radius so refinement only halves the spacing
    geo, w, _ = eu3
    f = radial_bump(w.psi, 1.0, 1.4)
    defects = []
    for n in (16, 32):
        grid = hl.default_grid(geo, w, bounds=[(-2, 2)] * 3, n=n, excision_radius=0.45)
        defects.append(ibp_defect(geo, f, w.psi, grid))
    assert defects[1] < 0.35 * defects[0]


def test_ibp_refinement_heisenberg(h1):
    geo, _, _ = h1
    x0 = NormField([0, 1])
    w = hl.make_weight(geo, "horizontal-norm")
    f = radial_bump(x0, 0.95, 1.35) * radial_bump(NormField([2]), 0.0, 1.2)
    defects = []
    for n in (16, 32):
        grid = hl.default_grid(geo, w, bounds=[(-2, 2)] * 3, n=n, excision_radius=0.4)
        defects.append(ibp_defect(geo, f, x0, grid))
    assert defects[1] < 0.35 * defects[0]


def test_ibp_rejects_boundary_support(eu3):
    geo, w, grid = eu3
    wide = radial_bump(w.psi, 0.5, 5.0)  # reaches past the box corner
    with pytest.raises(PreconditionError):
        ibp_defect(geo, wide, w.psi, grid)


# ---------------------------------------------------------------------------
# algebraic identity properties (closed-form oracles, random fields/points)
# ---------------------------------------------------------------------------

GEOM_FIXTURES = ["eu3", "eu2", "h1", "hyp3", "gru1"]


@pytest.fixture(params=GEOM_FIXTURES)
def any_geometry(request):
    return request.getfixturevalue(request.param)


def _random_fields_and_points(geo, n_pts=1000, seed=13):
    rng = np.random.default_rng(seed)
    m = geo.dim
    bounds = [(0.4, 1.6)] * m  # positive box avoids all catalog singular sets
    pts = np.stack([rng.uniform(lo, hi, size=n_pts) for lo, hi in bounds], axis=1)
    f = random_polynomial(m, 2, rng)
    g = random_polynomial(m, 2, rng)
    h = random_polynomial(m, 1, rng)
    return f, g, h, pts


def test_gamma_positivity_and_cauchy_schwarz(any_geometry):
    geo, _, _ = any_geometry
    f, g, _, pts = _random_fields_and_points(geo)
    d = geo
    gf = d.gamma(f, f, pts)
    gg = d.gamma(g, g, pts)
    fg = d.gamma(f, g, pts)
    assert np.min(gf) >= -1e-12
    assert np.max(fg ** 2 - gf * gg) <= 1e-10 * max(1.0, np.max(np.abs(gf * gg)))


def test_gamma_is_a_derivation(any_geometry):
    geo, _, _ = any_geometry
    f, g, h, pts = _random_fields_and_points(geo)
    d = geo
    lhs = d.gamma(f * g, h, pts)
    rhs = f._value(pts) * d.gamma(g, h, pts) + g._value(pts) * d.gamma(f, h, pts)
    scale = max(1.0, np.max(np.abs(rhs)))
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale


def test_gamma_chain_rule(any_geometry):
    geo, _, _ = any_geometry
    f, g, _, pts = _random_fields_and_points(geo)
    shifted = f * f + 1.0  # positive, so fractional powers are smooth
    defect = gamma_chain_rule_defect(geo, power_map(1.5), shifted, g, pts)
    assert defect < 1e-9


def test_gamma_matches_definition(any_geometry):
    geo, _, _ = any_geometry
    f, g, _, pts = _random_fields_and_points(geo)
    assert gamma_definition_defect(geo, f, g, pts) < 1e-9


def test_coefficient_matrix_positive_semidefinite(any_geometry):
    geo, _, _ = any_geometry
    _, _, _, pts = _random_fields_and_points(geo, n_pts=50)
    A = coefficient_matrix(geo, pts)
    eigs = np.linalg.eigvalsh(A)
    assert np.min(eigs) >= -1e-12


@pytest.mark.parametrize("same", [False, True], ids=["f-g", "f-f"])
def test_gamma_field_gradient(any_geometry, same):
    # through each frame field, it matches central differences of Gamma's own
    # values and the coefficient-matrix formula d_l [a_ik d_i f d_k g]
    geo, _, _ = any_geometry
    f, g, _, pts = _random_fields_and_points(geo, n_pts=200)
    g = f if same else g
    grad = geo.gamma_field(f, g).grad_at(pts)
    scale = np.max(np.abs(grad))
    fd = central_difference_grad(geo.gamma_field(f, g), pts)
    assert np.max(np.abs(grad - fd)) < 1e-7 * scale
    A = coefficient_matrix(geo, pts)
    gf, hf, gg, hg = f.grad_at(pts), f.hess_at(pts), g.grad_at(pts), g.hess_at(pts)
    old = (np.einsum("nlik,ni,nk->nl", coefficient_matrix_grad(geo, pts), gf, gg)
           + np.einsum("nik,nil,nk->nl", A, hf, gg) + np.einsum("nik,ni,nkl->nl", A, gf, hg))
    assert np.max(np.abs(grad - old)) <= 1e-12 * scale
