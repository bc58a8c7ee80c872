import numpy as np
import pytest

import hardylab as hl
from hardylab.conditions import (check_curvature, check_suffcond,
                                 interior_powers, power_range, qcond_report,
                                 suffcond_values)
from hardylab.errors import DegenerateInputError, PreconditionError
from hardylab.fields import ComposeField, ConstField, SquareNormField, power_map
from hardylab.testfunctions import polynomial_bump_corpus


def test_qcond_report_euclidean(eu3):
    geo, w, grid = eu3
    rep = qcond_report(geo, w, grid)
    assert rep.verdict == "exact"
    assert rep.Q_estimate == pytest.approx(3.0, abs=1e-10)
    assert rep.max_defect < 1e-10
    assert rep.inf_ratio <= rep.Q_estimate - 1.0 <= rep.sup_ratio + 1e-12


def test_qcond_report_gauge_skips_degenerate_nodes(h1):
    geo, w, _ = h1
    # force nodes onto the center line {x_0 = 0} where Gamma(N) vanishes
    grid = hl.make_grid(geo, [(-2, 2), (-2, 2), (-2, 2)], n=(5, 5, 4),
                        excisions=[lambda p: np.sum(p ** 2, axis=1) < 0.2 ** 2])
    # odd node counts put lattice midpoints exactly on the axis
    assert np.any((grid.points[:, 0] == 0) & (grid.points[:, 1] == 0))
    rep = qcond_report(geo, w, grid)
    assert rep.skipped > 0
    assert rep.verdict == "exact"
    assert rep.Q_estimate == pytest.approx(4.0, abs=1e-8)


def test_qcond_difference_oracle_tolerance(eu3):
    # difference-oracle mode passes at the 10 h^2 verdict tolerance
    geo, w, _ = eu3
    step = 0.01
    grid = hl.default_grid(geo, w, bounds=[(-2, 2)] * 3, n=24, excision_radius=0.4)
    fd_weight = hl.Weight("fd-norm", hl.with_fd(w.psi, step), 3.0)
    rep = qcond_report(geo, fd_weight, grid, tol=10.0 * step ** 2)
    assert rep.verdict == "exact"
    assert rep.max_defect <= 10.0 * step ** 2
    assert rep.max_defect > 1e-10  # genuinely running on differences


def test_qcond_degenerate_everywhere_raises(eu3):
    geo, _, grid = eu3
    flat = hl.Weight("flat", ConstField(1.0), None)
    with pytest.raises(DegenerateInputError):
        qcond_report(geo, flat, grid)


def test_suffcond_trivial_multiplier(eu3):
    geo, _, grid = eu3
    passed, inf_val = check_suffcond(geo, ConstField(1.0), grid, 0.0)
    assert passed and inf_val == pytest.approx(0.0, abs=1e-14)


def test_suffcond_smoothed_horizontal_closed_form(eu3):
    # (eps + |x|^2)^((n0-2)/4) on R^3: value is eps n0 (n0-2)/2 (eps+|x|^2)^-2
    geo, _, _ = eu3
    rng = np.random.default_rng(21)
    pts = rng.uniform(-2.0, 2.0, size=(1000, 3))
    n0, eps = 3.0, 0.37
    W = ComposeField(power_map((n0 - 2.0) / 4.0), SquareNormField() + eps)
    got = suffcond_values(geo, W, pts)
    expected = eps * n0 * (n0 - 2.0) / 2.0 * (eps + np.sum(pts ** 2, axis=1)) ** -2
    assert np.max(np.abs(got - expected)) < 1e-8
    assert np.min(got) >= 0.0


def test_suffcond_boundary_power(eu3):
    geo, w, grid = eu3
    W = ComposeField(power_map(0.5), w.psi)
    passed, inf_val = check_suffcond(geo, W, grid, 0.0)
    assert inf_val >= -1e-10
    assert passed


def test_power_range_values():
    lo, hi = power_range(3.0)
    assert (lo, hi) == (0.0, 0.5)
    for p in (lo, hi):
        assert p * (p + 1.0) - 3.0 * p ** 2 == pytest.approx(0.0, abs=1e-15)
    assert power_range(2.0) == (0.0, 0.0)
    assert power_range(0.0) == (-1.0, 0.0)
    assert interior_powers(2.0) == []
    assert all(0.0 < p < 0.5 for p in interior_powers(3.0))


def test_curvature_zero_function(eu3):
    geo, w, grid = eu3
    W = ComposeField(power_map(0.5), w.psi)
    assert check_curvature(geo, W, ConstField(0.0), 0.0, grid) == 0.0


def test_suffcond_implies_curvature_on_corpus(eu3):
    geo, w, grid = eu3
    W = ComposeField(power_map(0.5), w.psi)
    passed, s = check_suffcond(geo, W, grid, 0.0)
    assert passed
    corpus = polynomial_bump_corpus(grid, 20, seed=5)
    for f in corpus:
        md = check_curvature(geo, W, f, 0.0, grid)
        assert md >= -1e-8


def test_curvature_lower_bound_from_suffcond_inf(eu3):
    # Gamma^W(f) - gamma W^2 f^2 >= (s - gamma) min(W^2 f^2) when s >= gamma
    geo, _, grid = eu3
    eps = 0.5
    W = ComposeField(power_map(0.25), SquareNormField() + eps)
    _, s = check_suffcond(geo, W, grid, 0.0)
    assert s > 0
    corpus = polynomial_bump_corpus(grid, 5, seed=6)
    gamma_target = 0.5 * s
    for f in corpus:
        md = check_curvature(geo, W, f, gamma_target, grid)
        floor = (s - gamma_target) * np.min(
            (W._value(grid.points) * f._value(grid.points)) ** 2)
        assert md >= floor - 1e-8


@pytest.mark.parametrize("fixture,Q", [("eu3", 3.0), ("h1", 4.0), ("hyp3", 0.0),
                                       ("gru1", 3.0)])
def test_interior_powers_pass_suffcond(request, fixture, Q):
    geo, w, grid = request.getfixturevalue(fixture)
    for p in interior_powers(Q, 5):
        W = ComposeField(power_map(p), w.psi)
        passed, inf_val = check_suffcond(geo, W, grid, 0.0)
        assert passed, (fixture, p, inf_val)


def test_log_branch_q2_weights(eu2):
    # Phi = -+log psi satisfies the comparison with Q = 1 when psi has Q = 2
    geo, w, _ = eu2
    lower = hl.make_weight(geo, "log-of", weight=w, branch="lower")
    grid_lo = hl.default_grid(geo, lower, bounds=[(-1.5, 1.5)] * 2, n=128,
                              excision_radius=0.08)
    rep = qcond_report(geo, lower, grid_lo)
    assert rep.Q_estimate == pytest.approx(1.0, abs=1e-8)
    assert rep.max_defect < 1e-8
    upper = hl.make_weight(geo, "log-of", weight=w, branch="upper")
    grid_up = hl.default_grid(geo, upper, bounds=[(-4, 4)] * 2, n=128,
                              excision_radius=0.08)
    rep_up = qcond_report(geo, upper, grid_up)
    assert rep_up.Q_estimate == pytest.approx(1.0, abs=1e-8)


def test_suffcond_rejects_nonpositive_multiplier(eu3):
    geo, _, grid = eu3
    from hardylab.fields import CoordinateField
    with pytest.raises(PreconditionError):
        check_suffcond(geo, CoordinateField(0), grid, 0.0)
