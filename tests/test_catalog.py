import numpy as np
import pytest

import hardylab as hl
from hardylab.catalog import box_facets, make_geometry, make_weight
from hardylab.conditions import qcond_ratios
from hardylab.errors import UsageError

from conftest import sample_points


def test_euclidean_spec():
    geo = make_geometry("euclidean", m=3)
    assert geo.dim == 3 and geo.Q_hom == 3.0
    pts = np.array([[0.3, -1.0, 2.0]])
    C = geo.frame_values(pts)
    assert np.allclose(C[:, 0, :], np.eye(3))


def test_heisenberg_spec():
    geo = make_geometry("heisenberg", m=1)
    assert geo.dim == 3 and geo.Q_hom == 4.0
    geo2 = make_geometry("heisenberg", m=2)
    assert geo2.dim == 5 and geo2.Q_hom == 6.0


def test_grushin_homogeneous_dimension_verified_by_ratio(gru1):
    geo, w, grid = gru1
    assert geo.Q_hom == 3.0
    rep = hl.qcond_report(geo, w, grid)
    assert rep.Q_estimate == pytest.approx(3.0, abs=1e-8)


def test_unknown_names_raise():
    with pytest.raises(UsageError):
        make_geometry("minkowski", m=4)
    geo = make_geometry("euclidean", m=3)
    with pytest.raises(UsageError):
        make_weight(geo, "koranyi-gauge")
    with pytest.raises(UsageError):
        make_weight(geo, "no-such-weight")


def test_weight_claimed_constants(eu3, h1, hyp3, gru1):
    assert eu3[1].claimed_Q == 3.0
    assert h1[1].claimed_Q == 4.0
    assert hyp3[1].claimed_Q == 0.0
    assert gru1[1].claimed_Q == 3.0
    assert make_weight(h1[0], "coordinate", index=2).claimed_Q == 1.0
    assert make_weight(h1[0], "horizontal-norm").claimed_Q == 2.0


def test_power_weight_transforms_constant(eu3):
    geo, w, _ = eu3
    w2 = make_weight(geo, "power-of", weight=w, p=2.0)
    # L psi^2 ratio: (Q-2)/p + 2 = 2.5
    assert w2.claimed_Q == pytest.approx(2.5)
    pts = sample_points(np.random.default_rng(0), 50, [(-2, 2)] * 3)
    ratios, _ = qcond_ratios(geo, w2.psi, pts)
    assert np.max(np.abs(ratios - 1.5)) < 1e-10


def test_qcond_scaling_invariance(h1):
    # the ratio psi L psi / Gamma(psi) is invariant under psi -> lambda psi
    geo, w, _ = h1
    pts = sample_points(np.random.default_rng(1), 100, [(-2, 2)] * 3, indices=(0, 1))
    r1, _ = qcond_ratios(geo, w.psi, pts)
    r2, _ = qcond_ratios(geo, 7.5 * w.psi, pts)
    assert np.max(np.abs(r1 - r2)) < 1e-10


def test_estimate_kappa(h1):
    geo, N, grid = h1
    assert hl.estimate_kappa(N, N, grid) == pytest.approx(1.0, abs=1e-12)
    two_n = hl.Weight("2N", 2.0 * N.psi, None, "{0}")
    assert hl.estimate_kappa(two_n, N, grid) == pytest.approx(2.0, abs=1e-12)
    # |x_0|^4 <= |x_0|^4 + 16 z^2 with equality on {z = 0}: the grid sup
    # approaches 1 from below
    x0 = make_weight(geo, "horizontal-norm")
    k = hl.estimate_kappa(x0, N, grid)
    assert 0.99 <= k <= 1.0 + 1e-12


def test_boundary_distance_upper_bound():
    geo = make_geometry("convex-domain", m=2, box=[(-1, 1), (-1, 1)])
    w = make_weight(geo, "boundary-distance", corner_tube=0.1)
    grid = hl.default_grid(geo, w, bounds=[(-1, 1), (-1, 1)], n=64,
                           excision_radius=0.05)
    rep = hl.qcond_report(geo, w, grid, tol=1e-10)
    assert rep.verdict == "upper-bound"
    assert rep.sup_ratio <= 1.0 + 1e-10


def test_shifted_weight_lower_bound(h1):
    geo, _, _ = h1
    eps = 1e-3
    w = make_weight(geo, "shifted", eps=eps)
    assert w.comparison == "lower"
    grid = hl.default_grid(geo, w, bounds=[(-2, 2)] * 3, n=24, excision_radius=0.2)
    rep = hl.qcond_report(geo, w, grid, tol=1e-8)
    n0 = 2.0
    assert rep.inf_ratio >= n0 - 1.0 - 10.0 * eps
    assert rep.verdict in ("lower-bound", "exact")


def test_heisenberg_m2_gauge_and_subcoordinate_norm():
    geo = hl.make_geometry("heisenberg", m=2)
    N = hl.make_weight(geo, "koranyi-gauge")
    assert N.claimed_Q == 6.0
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1.5, 1.5, size=(300, 5))
    pts = pts[np.sqrt(np.sum(pts[:, :4] ** 2, axis=1)) > 0.4]
    ratios, _ = qcond_ratios(geo, N.psi, pts)
    assert np.max(np.abs(ratios - 5.0)) < 1e-8
    # subcoordinate horizontal norm over 3 of the 4 horizontal coordinates
    sub = make_weight(geo, "horizontal-norm", indices=(0, 1, 2))
    assert sub.claimed_Q == 3.0
    ratios_s, _ = qcond_ratios(geo, sub.psi, pts)
    assert np.max(np.abs(ratios_s - 2.0)) < 1e-8
    with pytest.raises(UsageError):
        make_weight(geo, "horizontal-norm", indices=(0, 4))  # 4 is the vertical


def test_hyperbolic_requires_m_at_least_2():
    with pytest.raises(UsageError):
        make_geometry("hyperbolic", m=1)


def test_box_facets_and_domain():
    geo = make_geometry("convex-domain", m=2, facets=box_facets([(-1, 1), (0, 2)]))
    inside = geo.mask(np.array([[0.0, 1.0]]))
    outside = geo.mask(np.array([[0.0, 2.5]]))
    assert inside and not outside


@pytest.mark.parametrize("name, params", [
    ("log-of", {"branch": "upper"}),
    ("power-of", {"p": 2.0}),
    ("log-of", {"weight": "euclid-norm", "branch": "upper"}),
    ("power-of", {"weight": None, "p": 2.0}),
])
def test_derived_weight_without_a_base_weight_is_a_usage_error(name, params):
    geo = make_geometry("euclidean", m=2)
    with pytest.raises(UsageError, match="'weight'"):
        make_weight(geo, name, **params)


def test_log_weight_branches(eu2):
    geo, w, _ = eu2
    lower = make_weight(geo, "log-of", weight=w, branch="lower")
    assert lower.claimed_Q == 1.0
    # Phi = -log psi is positive on {psi < 1}
    p = np.array([[0.3, 0.0]])
    assert lower.psi.value(p[0]) > 0
    upper = make_weight(geo, "log-of", weight=w, branch="upper")
    assert upper.psi.value(np.array([2.0, 0.0])) == pytest.approx(np.log(2.0))
    with pytest.raises(UsageError):
        make_weight(geo, "log-of", weight=w, branch="sideways")


def test_halfspace_and_radial_models():
    hs = make_geometry("halfspace-euclidean", m=1)
    assert not hs.mask(np.array([[-0.5]]))
    rad = make_geometry("euclidean-radial", m=3)
    w = make_weight(rad, "euclid-norm")
    pts = np.linspace(0.5, 3.0, 7)[:, None]
    ratios, _ = qcond_ratios(rad, w.psi, pts)
    assert np.allclose(ratios, 2.0, atol=1e-12)
    logr = make_geometry("logradial", m=3)
    wl = make_weight(logr, "euclid-norm")
    upts = np.linspace(-3.0, 2.0, 9)[:, None]
    lr, _ = qcond_ratios(logr, wl.psi, upts)
    assert np.allclose(lr, 2.0, atol=1e-10)
