import numpy as np
import pytest

import hardylab as hl
from hardylab.conditions import qcond_ratios
from hardylab.errors import PreconditionError, UsageError
from hardylab.fields import (ComposeField, ConstField, CoordinateField,
                             NormField, log_map, power_map)
from hardylab.grid import integrate
from hardylab.operators import (dilation_operator, drifted_operator,
                                radial_operator, weighted_operator)
from hardylab.testfunctions import radial_bump, random_polynomial

from conftest import (central_difference_grad, coefficient_matrix,
                      coefficient_matrix_grad, sample_points)


def test_weighted_unit_weight_is_base(eu3):
    geo, w, _ = eu3
    lw = weighted_operator(geo, ConstField(1.0))
    pts = sample_points(np.random.default_rng(0), 20, [(-2, 2)] * 3)
    f = random_polynomial(3, 2, np.random.default_rng(1))
    assert np.allclose(lw.apply_L(f, pts), geo.apply_L(f, pts), atol=1e-13)
    assert np.allclose(lw.gamma(f, f, pts), geo.gamma(f, f, pts), atol=1e-13)


@pytest.mark.parametrize("alpha", [-1.0, 0.5, 2.0])
def test_weighted_power_shifts_comparison_constant(eu3, alpha):
    geo, w, _ = eu3
    omega = ComposeField(power_map(alpha), w.psi)
    lw = weighted_operator(geo, omega)
    pts = sample_points(np.random.default_rng(2), 200, [(-2, 2)] * 3)
    ratios, _ = qcond_ratios(lw, w.psi, pts)
    assert np.max(np.abs(ratios - (3.0 + alpha - 1.0))) < 1e-8


def test_weighted_horizontal_power_on_gauge(h1):
    # omega = |x_0|^alpha shifts the gauge's constant by exactly alpha
    geo, w, _ = h1
    alpha = 1.5
    omega = ComposeField(power_map(alpha), NormField([0, 1]))
    lw = weighted_operator(geo, omega)
    pts = sample_points(np.random.default_rng(3), 200, [(-2, 2)] * 3, indices=(0, 1))
    ratios, _ = qcond_ratios(lw, w.psi, pts)
    assert np.max(np.abs(ratios - (geo.Q_hom + alpha - 1.0))) < 1e-8


@pytest.mark.parametrize("fixture", ["eu3", "h1", "hyp3", "gru1"])
def test_shift_law_on_catalog_pairs(request, fixture):
    # omega = psi^alpha and sigma = alpha log psi both move the constant to
    # Q + alpha, on every catalog pair with an exact constant
    geo, w, grid = request.getfixturevalue(fixture)
    alpha = 0.75
    pts = grid.points[::17]
    omega = ComposeField(power_map(alpha), w.psi)
    sigma = alpha * ComposeField(log_map(), w.psi)
    for derived in (weighted_operator(geo, omega),
                    drifted_operator(geo, sigma)):
        ratios, _ = qcond_ratios(derived, w.psi, pts)
        assert np.max(np.abs(ratios - (w.claimed_Q + alpha - 1.0))) < 1e-8, \
            (fixture, type(derived).__name__)


def test_weighted_rejects_negative_weight(eu3):
    geo, _, _ = eu3
    lw = weighted_operator(geo, CoordinateField(0))
    with pytest.raises(PreconditionError):
        lw.apply_L(NormField(), np.array([[-1.0, 0.0, 0.0]]))


def test_drifted_zero_drift_is_base(eu3):
    geo, _, _ = eu3
    ld = drifted_operator(geo, ConstField(0.0))
    pts = sample_points(np.random.default_rng(4), 20, [(-2, 2)] * 3)
    f = random_polynomial(3, 2, np.random.default_rng(5))
    assert np.allclose(ld.apply_L(f, pts), geo.apply_L(f, pts), atol=1e-13)
    assert np.allclose(ld.measure_density._value(pts), 1.0, atol=1e-13)


@pytest.mark.parametrize("alpha", [-1.0, 2.0])
def test_drifted_log_power_shifts_comparison_constant(eu3, alpha):
    geo, w, _ = eu3
    sigma = alpha * ComposeField(log_map(), w.psi)
    ld = drifted_operator(geo, sigma)
    pts = sample_points(np.random.default_rng(6), 200, [(-2, 2)] * 3)
    ratios, _ = qcond_ratios(ld, w.psi, pts)
    assert np.max(np.abs(ratios - (3.0 + alpha - 1.0))) < 1e-8


def test_drifted_reversibility_quadrature(eu3):
    # int f L_s g dmu_s = int g L_s f dmu_s at O(h^2)
    geo, w, _ = eu3
    sigma = 0.5 * ComposeField(log_map(), w.psi)
    ld = drifted_operator(geo, sigma)
    f = radial_bump(w.psi, 0.7, 1.55)
    g = radial_bump(w.psi, 0.8, 1.5)
    defects = []
    for n in (24, 48):
        grid = hl.make_grid(ld, [(-2, 2)] * 3, n=n,
                            excisions=[lambda p: np.sum(p ** 2, axis=1) < 0.3 ** 2])
        lhs = integrate(grid, f._value(grid.points) * ld.apply_L(g, grid.points))
        rhs = integrate(grid, g._value(grid.points) * ld.apply_L(f, grid.points))
        defects.append(abs(lhs - rhs))
    assert defects[1] < 0.35 * defects[0]


# ---------------------------------------------------------------------------
# radial operator
# ---------------------------------------------------------------------------

def test_radial_gamma_is_squared_radial_derivative(eu3):
    geo, w, _ = eu3
    rad = radial_operator(geo, w.psi)
    f = random_polynomial(3, 2, np.random.default_rng(7))
    pts = sample_points(np.random.default_rng(8), 30, [(-2, 2)] * 3)
    dr_f = np.einsum("ni,ni->n", w.psi._grad(pts), f._grad(pts))
    assert np.allclose(rad.gamma(f, f, pts), dr_f ** 2, atol=1e-12)


def test_radial_operator_on_its_own_weight(eu3):
    # L_psi psi = Gamma(psi, Gamma(psi)) + (L psi) Gamma(psi) = 0 + (2/r) * 1
    geo, w, _ = eu3
    rad = radial_operator(geo, w.psi)
    p = np.array([2.0, 0.0, 0.0])
    assert hl.eval_L(rad, w.psi, p) == pytest.approx(1.0, abs=1e-12)


def test_radial_secondary_condition_gate(h1):
    geo, w, _ = h1
    pts = sample_points(np.random.default_rng(9), 200, [(-2, 2)] * 3, indices=(0, 1))
    gfield = geo.gamma_field(w.psi, w.psi)
    defect = np.max(np.abs(geo.gamma(w.psi, gfield, pts)))
    assert defect < 1e-8


def test_radial_preserves_comparison_constant(h1):
    geo, w, _ = h1
    rad = radial_operator(geo, w.psi)
    pts = sample_points(np.random.default_rng(10), 200, [(-2, 2)] * 3, indices=(0, 1))
    ratios, _ = qcond_ratios(rad, w.psi, pts)
    assert np.max(np.abs(ratios - (geo.Q_hom - 1.0))) < 1e-8


@pytest.mark.parametrize("operator", ["radial"])
def test_z_coefficient_gradient(h1, operator):
    # z_k = Gamma(psi, x_k) = sum_j (X_j psi) c_jk, differentiated through each
    # frame field, matches central differences of z_k and the formula
    # sum_i d_l a_ik d_i psi + a_ik d_i d_l psi
    geo, w, _ = h1
    psi = w.psi
    zc = radial_operator(geo, psi).frame[0].coeffs
    pts = sample_points(np.random.default_rng(13), 100, [(-2, 2)] * 3, indices=(0, 1))
    A = coefficient_matrix(geo, pts)
    dA = coefficient_matrix_grad(geo, pts)
    for k, z in enumerate(zc):
        value = np.einsum("ni,ni->n", A[:, :, k], psi.grad_at(pts))
        assert np.max(np.abs(z.value_at(pts) - value)) <= 1e-12 * np.max(np.abs(value))
        grad = z.grad_at(pts)
        scale = np.max(np.abs(grad))
        assert np.max(np.abs(grad - central_difference_grad(z, pts))) < 1e-7 * scale
        old = (np.einsum("nli,ni->nl", dA[:, :, :, k], psi.grad_at(pts))
               + np.einsum("ni,nil->nl", A[:, :, k], psi.hess_at(pts)))
        assert np.max(np.abs(grad - old)) <= 1e-12 * scale


def test_radial_requires_frame_base(eu3):
    geo, w, _ = eu3
    lw = weighted_operator(geo, ConstField(1.0))
    with pytest.raises(UsageError):
        radial_operator(lw, w.psi)
    with pytest.raises(UsageError):
        drifted_operator(lw, w.psi)


# ---------------------------------------------------------------------------
# dilation operator
# ---------------------------------------------------------------------------

def test_dilation_euclidean_is_euler_field(eu3):
    geo, w, _ = eu3
    dil = dilation_operator(geo)
    assert dil.Q_hom == 3.0
    pts = sample_points(np.random.default_rng(11), 30, [(-2, 2)] * 3)
    # Euler identity for the 1-homogeneous |x|
    assert np.allclose(dil.dilation.apply(w.psi, pts), w.psi._value(pts), atol=1e-12)
    f = random_polynomial(3, 2, np.random.default_rng(12))
    euler = np.einsum("ni,ni->n", pts, f._grad(pts))
    assert np.allclose(dil.dilation.apply(f, pts), euler, atol=1e-12)


def test_dilation_heisenberg_gauge_euler_identity(h1):
    geo, w, _ = h1
    dil = dilation_operator(geo)
    assert dil.Q_hom == 4.0
    pts = sample_points(np.random.default_rng(13), 100, [(-2, 2)] * 3, indices=(0, 1))
    assert np.max(np.abs(dil.dilation.apply(w.psi, pts) - w.psi._value(pts))) < 1e-8


def test_dilation_comparison_constants(eu3, h1):
    geo_e, w_e, _ = eu3
    pts = sample_points(np.random.default_rng(14), 100, [(-2, 2)] * 3)
    re_, _ = qcond_ratios(dilation_operator(geo_e), w_e.psi, pts)
    assert np.max(np.abs(re_ - (geo_e.Q_hom + 1.0))) < 1e-10
    geo_h, w_h, _ = h1
    pts_h = sample_points(np.random.default_rng(15), 100, [(-2, 2)] * 3, indices=(0, 1))
    rh, _ = qcond_ratios(dilation_operator(geo_h), w_h.psi, pts_h)
    assert np.max(np.abs(rh - (geo_h.Q_hom + 1.0))) < 1e-10


def test_dilation_adjoint_identity_refinement(h1):
    # |int g Df + int f Dg + Q int f g| -> 0 at O(h^2)
    geo, w, _ = h1
    dil = dilation_operator(geo)
    f = radial_bump(w.psi, 0.7, 1.5)
    g = radial_bump(w.psi, 0.9, 1.7)
    defects = []
    for n in (16, 32):
        grid = hl.default_grid(geo, w, bounds=[(-2, 2)] * 3, n=n, excision_radius=0.3)
        pts = grid.points
        val = integrate(grid, g._value(pts) * dil.dilation.apply(f, pts)) \
            + integrate(grid, f._value(pts) * dil.dilation.apply(g, pts)) \
            + dil.Q_hom * integrate(grid, f._value(pts) * g._value(pts))
        defects.append(abs(val))
    assert defects[1] < 0.35 * defects[0]


def test_dilation_requires_stratification(hyp3):
    geo, _, _ = hyp3
    with pytest.raises(PreconditionError):
        dilation_operator(geo)


def test_derived_symmetry_quadrature(eu3):
    # each derived diffusion stays symmetric against its own measure
    geo, w, _ = eu3
    f = radial_bump(w.psi, 0.7, 1.55)
    g = radial_bump(w.psi, 0.8, 1.5)
    derived = [
        weighted_operator(geo, ComposeField(power_map(1.0), w.psi)),
        drifted_operator(geo, ComposeField(log_map(), w.psi)),
        radial_operator(geo, w.psi),
        dilation_operator(geo),
    ]
    for diff in derived:
        defects = []
        for n in (24, 48):
            grid = hl.make_grid(diff, [(-2, 2)] * 3, n=n,
                                excisions=[lambda p: np.sum(p ** 2, axis=1) < 0.3 ** 2])
            lhs = integrate(grid, f._value(grid.points) * diff.apply_L(g, grid.points))
            rhs = integrate(grid, g._value(grid.points) * diff.apply_L(f, grid.points))
            defects.append(abs(lhs - rhs))
        assert defects[1] < 0.5 * defects[0] + 1e-12, type(diff).__name__
