import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import hardylab as hl
from hardylab.errors import PreconditionError, UsageError
from hardylab.fields import (ComposeField, QuotientField, SquareNormField,
                             poly_bump_map, power_map)
from hardylab.inequalities import (PowerTrialFamily, dilation_hardy_report,
                                   dilation_log_hardy_report,
                                   estimate_best_constant, funcineq_report,
                                   funcineqgeneral_report, hardy_report,
                                   homogeneous_norm_report, log_hardy_report,
                                   radial_hardy_report, radial_log_hardy_report,
                                   rayleigh_ratio, weighted_log_hardy_report)
from hardylab.testfunctions import bump_corpus, radial_bump

# Frozen 1D quadrature oracles (scipy.integrate.quad on the closed-form
# radial integrands, accurate to ~1e-12).
EU3_BUMP_LHS = 4 * np.pi * 0.340992340992341          # int f^2/r^2 dx, bump on [1,2]
EU3_BUMP_RHS_INT = 4 * np.pi * 12.275724275724283     # int |grad f|^2 dx
HALF_LINE_LHS = 0.155034768812399
HALF_LINE_RHS_INT = 5.319480519480522
EU2_LOG_UP_LHS = 2.345890003085278                    # bump on r in [1.5, 2.5]
EU2_LOG_UP_RHS_INT = 66.846563683656086
EU2_LOG_LO_LHS = 1.684210143333958                    # bump on r in [0.2, 0.5]
EU2_LOG_LO_RHS_INT = 38.993828815466038
EU3_WLOG_LHS = 2.085658502396620                      # bump on r in [2, 3]
EU3_WLOG_RHS_INT = 167.116409209140187
EU3_DIL_LHS = 4 * np.pi * 0.772915972915973
EU3_DIL_RHS_INT = 4 * np.pi * 31.098501498501513


def test_hardy_zero_function_flags_undefined_ratio(eu3):
    geo, w, grid = eu3
    from hardylab.fields import ConstField
    rep = hardy_report(geo, w, 3.0, 0.0, ConstField(0.0), grid)
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.ratio is None
    assert rep.passes()


def test_hardy_euclidean_matches_radial_oracle(eu3):
    geo, w, grid = eu3
    f = radial_bump(w.psi, 1.0, 2.0)
    # the support only just fits [-2,2]^3: use a slightly larger box
    grid = hl.default_grid(geo, w, bounds=[(-2.6, 2.6)] * 3, n=48,
                           excision_radius=0.3)
    rep = hardy_report(geo, w, 3.0, 0.0, f, grid)
    assert rep.constant_used == 4.0
    assert rep.lhs == pytest.approx(EU3_BUMP_LHS, rel=2e-2)
    assert rep.rhs == pytest.approx(4.0 * EU3_BUMP_RHS_INT, rel=2e-2)
    assert rep.ratio <= 1.0


def test_hardy_half_line_classical_constant():
    geo = hl.make_geometry("halfspace-euclidean", m=1)
    w = hl.make_weight(geo, "coordinate", index=0)
    grid = hl.make_grid(geo, [(0.0, 3.0)], n=1024)
    f = radial_bump(w.psi, 1.0, 2.0)
    rep = hardy_report(geo, w, 1.0, 0.0, f, grid)
    assert rep.constant_used == 4.0
    assert rep.lhs == pytest.approx(HALF_LINE_LHS, rel=1e-3)
    assert rep.rhs == pytest.approx(4.0 * HALF_LINE_RHS_INT, rel=1e-3)
    assert rep.ratio <= 1.0


def test_hardy_excluded_case_names_log_variant(eu3):
    geo, w, grid = eu3
    f = radial_bump(w.psi, 1.0, 1.5)
    with pytest.raises(UsageError, match="log"):
        hardy_report(geo, w, 3.0, -1.0, f, grid)


def test_log_hardy_both_branches(eu2):
    geo, w, _ = eu2
    grid = hl.default_grid(geo, w, bounds=[(-3, 3)] * 2, n=300, excision_radius=0.05)
    up = radial_bump(w.psi, 1.5, 2.5)
    rep = log_hardy_report(geo, w, 0.0, up, grid)
    assert rep.constant_used == 4.0
    assert rep.lhs == pytest.approx(EU2_LOG_UP_LHS, rel=2e-2)
    assert rep.rhs == pytest.approx(4.0 * EU2_LOG_UP_RHS_INT, rel=2e-2)
    assert rep.ratio <= 1.0
    lo = radial_bump(w.psi, 0.2, 0.5)
    rep_lo = log_hardy_report(geo, w, 0.0, lo, grid)
    assert rep_lo.lhs == pytest.approx(EU2_LOG_LO_LHS, rel=2e-2)
    assert rep_lo.rhs == pytest.approx(4.0 * EU2_LOG_LO_RHS_INT, rel=2e-2)
    assert rep_lo.ratio <= 1.0


def test_log_hardy_negative_power_stays_finite(eu2):
    # |log psi|^alpha with alpha < 0 blows up on {psi = 1}; the integrands
    # must meet the test function's exact zeros there, not produce nan
    geo, w, _ = eu2
    grid = hl.make_grid(geo, [(-3, 3)] * 2, n=256,
                        excisions=[lambda p: np.sum(p ** 2, axis=1) < 0.1 ** 2])
    assert np.any(np.abs(w.psi.value_at(grid.points) - 1.0) < 2e-2)
    f = radial_bump(w.psi, 1.5, 2.5)
    rep = log_hardy_report(geo, w, -1.0, f, grid)
    assert np.isfinite(rep.lhs) and np.isfinite(rep.rhs)
    assert rep.ratio <= 1.0


def test_log_hardy_rejects_crossing_support(eu2):
    geo, w, _ = eu2
    grid = hl.make_grid(geo, [(-3, 3)] * 2, n=300,
                        excisions=[lambda p: np.sum(p ** 2, axis=1) < 0.1 ** 2])
    crossing = radial_bump(w.psi, 0.5, 1.5)
    with pytest.raises(PreconditionError):
        log_hardy_report(geo, w, 0.0, crossing, grid)
    with pytest.raises(UsageError):
        log_hardy_report(geo, w, 1.0, radial_bump(w.psi, 1.5, 2.5), grid)


def test_weighted_log_hardy_oracle_and_gauge(eu3, h1):
    geo, w, _ = eu3
    grid = hl.default_grid(geo, w, bounds=[(-3.6, 3.6)] * 3, n=64,
                           excision_radius=0.3)
    f = radial_bump(w.psi, 2.0, 3.0)
    rep = weighted_log_hardy_report(geo, w, 3.0, 0.0, f, grid)
    assert rep.lhs == pytest.approx(EU3_WLOG_LHS, rel=2e-2)
    assert rep.rhs == pytest.approx(4.0 * EU3_WLOG_RHS_INT, rel=2e-2)
    assert rep.ratio <= 1.0
    geo_h, w_h, grid_h = h1
    f_h = radial_bump(w_h.psi, 1.2, 1.8)
    rep_h = weighted_log_hardy_report(geo_h, w_h, 4.0, 2.0, f_h, grid_h)
    assert rep_h.ratio is not None and rep_h.ratio <= 1.0


def test_radial_hardy_euclidean_and_gauge(eu3, h1):
    geo, w, grid = eu3
    f = radial_bump(w.psi, 0.8, 1.6)
    rep = radial_hardy_report(geo, w, 3.0, 0.0, f, grid)
    assert rep.ratio <= 1.0
    geo_h, w_h, grid_h = h1
    f_h = radial_bump(w_h.psi, 0.8, 1.6)
    rep_h = radial_hardy_report(geo_h, w_h, 4.0, 0.0, f_h, grid_h)
    assert rep_h.ratio <= 1.0


def test_radial_lhs_weight_matches_gauge_formula(h1):
    # the left weight Gamma(N)^2/N^2 equals |x_0|^4 / N^6 on the gauge
    geo, w, _ = h1
    pts = np.array([[0.7, -0.4, 0.3], [1.2, 0.5, -0.8]])
    gpsi = geo.gamma(w.psi, w.psi, pts)
    nv = w.psi.value_at(pts)
    x0sq = pts[:, 0] ** 2 + pts[:, 1] ** 2
    assert np.allclose(gpsi ** 2 / nv ** 2, x0sq ** 2 / nv ** 6, atol=1e-14)


def test_radial_hardy_rejects_failing_secondary_condition():
    geo = hl.make_geometry("euclidean", m=2)
    aniso = ComposeField(power_map(0.5), SquareNormField([0]) + 4.0 * SquareNormField([1]))
    w = hl.Weight("aniso", aniso, None)
    grid = hl.default_grid(geo, w, bounds=[(-2, 2)] * 2, n=64, excision_radius=0.2)
    f = radial_bump(aniso, 0.8, 1.5)
    # the defect is computed once per grid, but every call checks it
    for _ in range(3):
        with pytest.raises(PreconditionError, match="Gamma"):
            radial_hardy_report(geo, w, 2.5, 0.0, f, grid)
        with pytest.raises(PreconditionError, match="Gamma"):
            radial_log_hardy_report(geo, w, 2.5, 0.0, f, grid)
    # against its own tolerance
    assert radial_hardy_report(geo, w, 2.5, 0.0, f, grid, secondary_tol=1e3).lhs > 0
    with pytest.raises(PreconditionError):
        radial_hardy_report(geo, w, 2.5, 0.0, f, grid)


def test_radial_log_hardy_runs(eu3):
    geo, w, _ = eu3
    grid = hl.default_grid(geo, w, bounds=[(-3.6, 3.6)] * 3, n=64,
                           excision_radius=0.3)
    f = radial_bump(w.psi, 2.0, 3.0)
    rep = radial_log_hardy_report(geo, w, 3.0, 0.0, f, grid)
    assert rep.ratio is not None and rep.ratio <= 1.0


def test_dilation_hardy_oracle_and_exclusions(eu3):
    geo, w, _ = eu3
    grid = hl.default_grid(geo, w, bounds=[(-2.6, 2.6)] * 3, n=48,
                           excision_radius=0.3)
    f = radial_bump(w.psi, 1.0, 2.0)
    rep = dilation_hardy_report(geo, w, 0.0, f, grid)
    assert rep.constant_used == pytest.approx((2.0 / 3.0) ** 2)
    assert rep.lhs == pytest.approx(EU3_DIL_LHS, rel=2e-2)
    assert rep.rhs == pytest.approx((2.0 / 3.0) ** 2 * EU3_DIL_RHS_INT, rel=2e-2)
    assert rep.ratio <= 1.0
    with pytest.raises(UsageError):
        dilation_hardy_report(geo, w, -3.0, f, grid)
    not_homogeneous = hl.Weight("r2", SquareNormField(), None)
    g = radial_bump(SquareNormField(), 1.0, 2.0)
    for _ in range(2):
        with pytest.raises(PreconditionError):
            dilation_hardy_report(geo, not_homogeneous, 0.0, g, grid)
    assert dilation_hardy_report(geo, not_homogeneous, 0.0, g, grid, euler_tol=1e3).lhs > 0


def test_dilation_hardy_heisenberg(h1):
    geo, w, grid = h1
    f = radial_bump(w.psi, 0.8, 1.6)
    rep = dilation_hardy_report(geo, w, 0.0, f, grid)
    assert rep.constant_used == pytest.approx(0.25)
    assert rep.ratio <= 1.0


def test_dilation_specializes_to_radial_on_euclidean(eu3):
    # (D f)^2 = |x|^2 (grad|x| . grad f)^2 makes the two families coincide
    geo, w, grid = eu3
    f = radial_bump(w.psi, 0.8, 1.6)
    alpha = 0.5
    dil = dilation_hardy_report(geo, w, alpha, f, grid)
    rad = radial_hardy_report(geo, w, 3.0, alpha + 2.0, f, grid)
    assert dil.lhs == pytest.approx(rad.lhs, rel=1e-12)
    assert dil.rhs == pytest.approx(rad.rhs, rel=1e-12)


def test_hardy_constant_consistency_with_contraction_form(eu3):
    geo, w, grid = eu3
    f = radial_bump(w.psi, 0.8, 1.6)
    Q = 3.0
    rep = hardy_report(geo, w, Q, Q - 2.0, f, grid)
    assert rep.constant_used == pytest.approx((1.0 / (Q - 2.0)) ** 2)


def test_funcineq_trivial_and_corpus(eu3):
    geo, w, grid = eu3
    from hardylab.fields import ConstField
    f = radial_bump(w.psi, 0.8, 1.6)
    rep = funcineq_report(geo, ConstField(1.0), 0.0, f, grid)
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs > 0
    W = ComposeField(power_map(0.5), w.psi)
    for f in bump_corpus(w.psi, grid, 10, seed=2, psi_range=(0.5, 1.7)):
        assert funcineq_report(geo, W, 0.0, f, grid).ratio <= 1.0


def test_funcineq_transformation_identity(eu3):
    # substituting f -> f/W turns the multiplier inequality into
    # int (Gamma(W)/W^2) f^2 <= int Gamma(f), up to one integration by parts
    geo, w, _ = eu3
    grid = hl.default_grid(geo, w, bounds=[(-2, 2)] * 3, n=48, excision_radius=0.3)
    W = ComposeField(power_map(0.5), w.psi)
    f = radial_bump(w.psi, 0.8, 1.6)
    g = QuotientField(f, W)
    rep = funcineq_report(geo, W, 0.0, g, grid)
    d1 = rep.rhs - rep.lhs
    pts = grid.points
    gw = geo.gamma(W, W, pts)
    gf = geo.gamma(f, f, pts)
    fv = f.value_at(pts)
    d2 = 2.0 * (hl.integrate(grid, gf) - hl.integrate(grid, gw / W.value_at(pts) ** 2 * fv ** 2))
    assert d1 == pytest.approx(d2, rel=2e-3)


def test_funcineqgeneral_specializations(eu3):
    geo, w, grid = eu3
    W = ComposeField(power_map(0.5), w.psi)
    f = radial_bump(w.psi, 0.8, 1.6)
    from hardylab.fields import ConstField
    # W == 1: left side vanishes
    triv = funcineqgeneral_report(geo, ConstField(1.0), 2.0, f, grid)
    assert triv.lhs == pytest.approx(0.0, abs=1e-12)
    # beta = 0 is half the multiplier inequality at gamma = 0
    base = funcineq_report(geo, W, 0.0, f, grid)
    gen = funcineqgeneral_report(geo, W, 0.0, f, grid)
    assert gen.lhs == pytest.approx(base.lhs / 2.0, rel=1e-10)
    assert gen.rhs == pytest.approx(base.rhs / 2.0, rel=1e-10)
    for beta in (-1.0, 2.0):
        rep = funcineqgeneral_report(geo, W, beta, f, grid)
        assert rep.passes(1e-8)


def test_homogeneous_norm_report(eu3, h1):
    geo, w, grid = eu3
    f = radial_bump(w.psi, 0.8, 1.6)
    rep = homogeneous_norm_report(geo, w, f, grid)
    # kappa's are 1 on euclidean: the classical constant 4
    assert rep.constant_used == pytest.approx(4.0, rel=1e-10)
    assert rep.ratio <= 1.0
    geo_h, w_h, grid_h = h1
    f_h = radial_bump(w_h.psi, 0.8, 1.6)
    rep_h = homogeneous_norm_report(geo_h, w_h, f_h, grid_h)
    assert rep_h.params["n0"] == 2
    assert rep_h.ratio <= 1.0
    # rho -> 2 rho scales the bound through kappa^2(rho)
    two = hl.Weight("2N", 2.0 * w_h.psi, None)
    rep_2 = homogeneous_norm_report(geo_h, two, f_h, grid_h)
    assert rep_2.constant_used == pytest.approx(4.0 * rep_h.constant_used, rel=1e-10)
    assert rep_2.lhs == pytest.approx(rep_h.lhs / 4.0, rel=1e-12)


def test_single_bump_rayleigh_never_beats_the_constant(eu3):
    geo, w, grid = eu3
    f = radial_bump(w.psi, 0.8, 1.6)
    assert rayleigh_ratio(geo, w, 0.0, f, grid) <= 4.0 + 1e-6


def test_report_refinement_convergence(eu3):
    geo, w, _ = eu3
    f = radial_bump(w.psi, 1.0, 2.0)
    errs = []
    for n in (24, 48):
        grid = hl.default_grid(geo, w, bounds=[(-2.6, 2.6)] * 3, n=n,
                               excision_radius=0.3)
        rep = hardy_report(geo, w, 3.0, 0.0, f, grid)
        errs.append(abs(rep.lhs - EU3_BUMP_LHS) + abs(rep.rhs - 4 * EU3_BUMP_RHS_INT))
    assert errs[1] < 0.35 * errs[0]


def test_estimate_best_constant_monotone_in_family(eu3):
    geo = hl.make_geometry("logradial", m=3)
    w = hl.make_weight(geo, "euclid-norm")
    grid = hl.make_grid(geo, [(-20.0, 2.0)], n=3000)
    pv = w.psi.value_at(grid.points)
    lo, hi = pv.min() * 1.05, pv.max() / 1.05
    L = np.log(hi / lo)
    sups = []
    for eps_list in ((0.3,), (0.3, 0.03), (0.3, 0.03, 0.003)):
        fam = PowerTrialFamily(w.psi, 3.0, 0.0, ((lo, hi),), eps_list,
                               (2.0, float(np.exp(L / 5))))
        sup, _ = estimate_best_constant(geo, w, 0.0, trial_family=fam,
                                        grid=grid, refine=False)
        sups.append(sup)
    assert sups == sorted(sups)
    assert sups[-1] <= 4.0 + 1e-9


def _dilation_log_oracle(a, b, alpha, n=200000):
    """Both integrals of the dilation-log family on euclidean(3) for the
    radial bump on r in [a, b], as 1D midpoint sums in s = log r, where
    psi^-3 dx = 4 pi ds and D f = dg/ds."""
    B = poly_bump_map()
    c, rho = 0.5 * (a + b), 0.5 * (b - a)
    h = np.log(b / a) / n
    s = np.log(a) + h * (np.arange(n) + 0.5)
    u = (np.exp(s) - c) / rho
    g, dg = B.f(u), B.d1(u) * np.exp(s) / rho
    lhs = 4 * np.pi * h * np.sum(np.abs(s) ** (alpha - 2.0) * g ** 2)
    rhs_int = 4 * np.pi * h * np.sum(np.abs(s) ** alpha * dg ** 2)
    return lhs, rhs_int


def test_dilation_log_hardy_matches_radial_oracle(eu3):
    geo, w, _ = eu3
    grid = hl.default_grid(geo, w, bounds=[(-2.1, 2.1)] * 3, n=56,
                           excision_radius=0.2)
    rep = dilation_log_hardy_report(geo, w, 0.0, radial_bump(w.psi, 1.2, 1.9), grid)
    lhs, rhs_int = _dilation_log_oracle(1.2, 1.9, 0.0)
    assert rep.inequality_id == "dilation-log"
    assert rep.constant_used == 4.0
    assert rep.lhs == pytest.approx(lhs, rel=1e-3)
    assert rep.rhs == pytest.approx(4.0 * rhs_int, rel=1e-3)
    assert rep.ratio <= 1.0
    lower = dilation_log_hardy_report(geo, w, 3.0, radial_bump(w.psi, 0.4, 0.8), grid)
    assert lower.constant_used == 1.0 and lower.ratio <= 1.0
    with pytest.raises(PreconditionError, match="psi = 1"):
        dilation_log_hardy_report(geo, w, 0.0, radial_bump(w.psi, 0.8, 1.6), grid)
    with pytest.raises(UsageError):
        dilation_log_hardy_report(geo, w, 1.0, radial_bump(w.psi, 1.2, 1.9), grid)
    not_homogeneous = hl.Weight("r2", SquareNormField(), None)
    with pytest.raises(PreconditionError, match="Euler"):
        dilation_log_hardy_report(geo, not_homogeneous, 0.0,
                                  radial_bump(SquareNormField(), 1.5, 2.5), grid)


def _report_values(geo, w, W, grid, f, alpha):
    reps = [hardy_report(geo, w, 2.5, alpha, f, grid),
            radial_hardy_report(geo, w, 2.5, alpha, f, grid),
            dilation_hardy_report(geo, w, alpha, f, grid),
            rayleigh_ratio(geo, w, alpha, f, grid),
            weighted_log_hardy_report(geo, w, 3.5 + alpha, 0.0, f, grid),
            funcineqgeneral_report(geo, W, alpha, f, grid)]
    return [r if isinstance(r, float) else (r.lhs, r.rhs, r.ratio) for r in reps]


def test_weight_side_cache_keys_every_parameter(eu3):
    geo, w, _ = eu3

    def build():
        return hl.default_grid(geo, w, bounds=[(-2, 2)] * 3, n=20,
                               excision_radius=0.3)

    grid = build()
    f = radial_bump(w.psi, 1.05, 1.45)
    W = ComposeField(power_map(0.5), w.psi)
    shared = {a: _report_values(geo, w, W, grid, f, a) for a in (-1.0, 0.0, 2.0)}
    for a in (2.0, -1.0, 0.0):
        assert shared[a] == _report_values(geo, w, W, build(), f, a)
    assert shared[0.0] != shared[2.0]


def test_weight_side_cache_follows_the_grid(eu3):
    geo, w, _ = eu3
    grid = hl.default_grid(geo, w, bounds=[(-2, 2)] * 3, n=16, excision_radius=0.3)
    fine = grid.refined()
    f = radial_bump(w.psi, 1.05, 1.45)
    W = ComposeField(power_map(0.5), w.psi)
    cached = [_report_values(geo, w, W, g, f, 0.5) for g in (grid, fine, grid)]
    fresh = []
    for g in (grid, fine, grid):
        # new weight objects start with empty caches
        w_new = hl.make_weight(geo, "euclid-norm")
        fresh.append(_report_values(geo, w_new, ComposeField(power_map(0.5), w_new.psi),
                                    g, f, 0.5))
    assert cached == fresh
    assert cached[0] == cached[2] != cached[1]


def test_weight_side_cache_keys_the_diffusion(eu3, h1):
    # one weight and one points array, two diffusions with different Gamma
    geo, w, _ = eu3
    geo_h = h1[0]

    def build():
        return hl.default_grid(geo, w, bounds=[(-2, 2)] * 3, n=16,
                               excision_radius=0.3)

    W = ComposeField(power_map(0.5), w.psi)

    def values(g, grid):
        return [(r.lhs, r.rhs) for r in (
            hardy_report(g, w, 2.5, 0.5, f, grid),
            funcineq_report(g, W, 0.0, f, grid))]

    grid = build()
    f = radial_bump(w.psi, 1.05, 1.45)
    shared = [values(g, grid) for g in (geo, geo_h)]
    assert shared == [values(g, build()) for g in (geo, geo_h)]
    assert shared[0] != shared[1]
    # |x| is homogeneous for the euclidean dilations only
    assert dilation_hardy_report(geo, w, 0.5, f, grid).ratio <= 1.0
    with pytest.raises(PreconditionError, match="Euler"):
        dilation_hardy_report(geo_h, w, 0.5, f, grid)


def test_weight_side_cache_under_concurrent_grids(eu3):
    # workers sharing one weight while alternating between two points arrays
    # keep swapping its cache slot; every report must still see its own grid
    geo, _, _ = eu3
    w = hl.make_weight(geo, "euclid-norm")
    coarse = hl.default_grid(geo, w, bounds=[(-2.5, 2.5)] * 3, n=16,
                             excision_radius=0.3)
    grids = (coarse, coarse.refined())
    f = radial_bump(w.psi, 1.05, 1.45)
    W = ComposeField(power_map(0.5), w.psi)
    want = [_report_values(geo, w, W, g, f, 0.5) for g in grids]

    def job(k):
        return [(i % 2, _report_values(geo, w, W, grids[i % 2], f, 0.5))
                for i in range(k, k + 3)]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(job, k) for k in range(6)]
            results = [fut.result(timeout=120) for fut in futures]
    finally:
        sys.setswitchinterval(old)
    for got in results:
        for which, values in got:
            assert values == want[which]
