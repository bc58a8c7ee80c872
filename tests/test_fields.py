import numpy as np
import pytest

from hardylab.errors import DomainError
from hardylab.fields import (AffineField, ComposeField, ConstField,
                             CoordinateField, NormField, PolyField,
                             ProductField, SquareNormField, SupportedField,
                             VectorField, as_points, bump_window_map, exp_map,
                             log_map, power_map, poly_bump_map,
                             smoothed_power_profile, smoothstep_map, squared,
                             with_fd)

RNG = np.random.default_rng(42)


def fd_check(field, pts, tol_grad=5e-7, tol_hess=5e-5):
    """Closed-form derivatives must agree with the central-difference oracle
    (relative to the derivative's own scale)."""
    fd = with_fd(field, 1e-4)
    g = field._grad(pts)
    h = field._hess(pts)
    assert np.max(np.abs(g - fd._grad(pts))) < tol_grad * max(1.0, np.max(np.abs(g)))
    assert np.max(np.abs(h - fd._hess(pts))) < tol_hess * max(1.0, np.max(np.abs(h)))


def test_leaf_fields_match_difference_oracle():
    pts = RNG.uniform(0.5, 2.0, size=(40, 3))
    fd_check(NormField(), pts)
    fd_check(NormField([0, 2]), pts)
    fd_check(SquareNormField(), pts)
    fd_check(AffineField([1.0, -2.0, 0.5], 3.0), pts)
    fd_check(PolyField([(1.5, (2, 0, 1)), (-0.7, (0, 3, 0)), (2.0, (1, 1, 1))]), pts)


def test_composite_fields_match_difference_oracle():
    pts = RNG.uniform(0.5, 2.0, size=(40, 3))
    r = NormField()
    s = SquareNormField()
    fd_check(r + s, pts)
    fd_check(r * s, pts)
    fd_check(r / s, pts)
    fd_check(2.5 * r - 1.0, pts)
    fd_check(ComposeField(power_map(0.25), s + 1.0), pts)
    fd_check(ComposeField(log_map(), r), pts)
    fd_check(ComposeField(exp_map(), -0.5 * s), pts, tol_hess=2e-4)
    fd_check(r ** 1.5, pts)
    fd_check(s ** 3, pts)


def test_quotient_and_power_masks():
    r = NormField()
    f = r / (r - 1.0)
    pts = np.array([[1.0, 0.0], [0.6, 0.8], [2.0, 0.0]])
    assert list(f.mask(pts)) == [False, False, True]
    g = ComposeField(log_map(), CoordinateField(0))
    assert list(g.mask(np.array([[2.0, 0.0], [-1.0, 0.0]]))) == [True, False]


def test_bump_map_is_c2_with_exact_support():
    B = poly_bump_map()
    edge = np.array([-1.0, 1.0])
    assert np.allclose(B.f(edge), 0.0)
    assert np.allclose(B.d1(edge), 0.0)
    assert np.allclose(B.d2(edge), 0.0)
    assert B.f(np.array([0.0]))[0] == 1.0
    assert np.all(B.f(np.array([-1.5, 1.5])) == 0.0)
    w = bump_window_map(1.0, 2.0)
    assert w.f(np.array([1.0, 2.0, 0.9, 2.1])).tolist() == [0.0, 0.0, 0.0, 0.0]
    assert w.f(np.array([1.5]))[0] == 1.0


def test_smoothstep_endpoints():
    s = smoothstep_map()
    u = np.array([0.0, 1.0])
    assert np.allclose(s.f(u), [0.0, 1.0])
    assert np.allclose(s.d1(u), 0.0)
    assert np.allclose(s.d2(u), 0.0)
    assert np.all(np.diff(s.f(np.linspace(0, 1, 50))) >= 0)


def test_smoothed_power_profile_plateau_and_smoothness():
    prof = smoothed_power_profile(-0.4, 1.0, 10.0)
    u = np.array([2.0, 3.5, 5.0])
    assert np.allclose(prof.f(u), u ** -0.4, rtol=0, atol=0)
    # C2: derivative formulas agree with differences across the ramps
    uu = np.linspace(1.01, 9.99, 400)
    h = 1e-5
    d_num = (prof.f(uu + h) - prof.f(uu - h)) / (2 * h)
    assert np.max(np.abs(prof.d1(uu) - d_num)) < 1e-5
    d2_num = (prof.d1(uu + h) - prof.d1(uu - h)) / (2 * h)
    assert np.max(np.abs(prof.d2(uu) - d2_num)) < 1e-4
    assert prof.f(np.array([0.5, 11.0])).tolist() == [0.0, 0.0]


def test_vector_field_recovers_coefficients():
    # applying sum c_i d_i to the coordinate x_j returns c_j
    coeffs = [ConstField(1.0), AffineField([0.0, 0.0, -0.5]), CoordinateField(0)]
    V = VectorField(coeffs)
    pts = RNG.uniform(-1, 1, size=(20, 3))
    for j in range(3):
        got = V.apply(CoordinateField(j), pts)
        assert np.allclose(got, coeffs[j]._value(pts), atol=1e-12)


def test_as_points_validation():
    pts, single = as_points(np.array([1.0, 2.0]))
    assert pts.shape == (1, 2) and single
    with pytest.raises(DomainError):
        as_points(np.zeros((2, 3, 1)))
    with pytest.raises(DomainError):
        as_points(np.zeros((5, 3)), dim=2)


def test_fd_field_drops_closed_forms():
    r = NormField()
    fd = with_fd(r, 1e-3)
    assert not fd.has_closed_grad()
    pts = RNG.uniform(0.5, 1.5, size=(10, 3))
    assert np.max(np.abs(fd._grad(pts) - r._grad(pts))) < 1e-6


def _unmasked_bump(u):
    """The bump map's formulas evaluated everywhere, then masked."""
    t = 1.0 - u ** 2
    inside = np.abs(u) < 1.0
    return (np.where(inside, t ** 3, 0.0),
            np.where(inside, -6.0 * u * t ** 2, 0.0),
            np.where(inside, t * (30.0 * u ** 2 - 6.0), 0.0))


def test_masked_bump_map_is_bitwise_the_unmasked_formula():
    B = poly_bump_map()
    vectors = [np.array([-1.5, -1.0, -0.3, 0.0, 0.7, 1.0, 2.0]),
               RNG.uniform(-1.3, 1.3, size=5000)]
    for u in vectors:
        for got, want in zip((B.f(u), B.d1(u), B.d2(u)), _unmasked_bump(u)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def test_masked_bump_map_on_0d_inputs():
    # a 0-d input takes the vector path: the same bits as the unmasked
    # formula on a one-element vector.  numpy's scalar ** (and its 0-d
    # loop) may round differently, by up to ~100 ulp of (1 - u^2)^3 near
    # |u| = 1, so the formula is not applied to the 0-d value itself.
    B = poly_bump_map()
    for u in [np.float64(0.226), np.array(0.705), -0.986, np.float64(0.3), 1.0, -1.5]:
        vec = _unmasked_bump(np.array([float(u)]))
        for got, want in zip((B.f(u), B.d1(u), B.d2(u)), vec):
            got = np.asarray(got)
            assert got.shape == () and got.dtype == want.dtype
            assert got.tobytes() == want[0].tobytes()


def _supported_bump():
    """psi-window bump times a two-axis box bump, as the corpora build them."""
    axis = [ComposeField(bump_window_map(lo, hi), CoordinateField(i))
            for i, (lo, hi) in ((0, (-1.0, 1.2)), (2, (-0.5, 1.5)))]
    return SupportedField(ProductField(ComposeField(bump_window_map(0.8, 1.6), NormField()),
                                       ProductField(*axis)))


def test_supported_field_equals_its_full_tree():
    # np.array_equal: off the rows the full tree may give -0.0, the scatter +0.0
    f = _supported_bump()
    edges = np.array([[0.8, 0.0, 0.0], [1.6, 0.0, 0.0], [1.0, 0.0, -0.5], [1.2, 0.0, 0.5]])
    pts = np.concatenate([RNG.uniform(-2, 2, size=(400, 3)), edges])
    rows, sub = f.rows_at(pts)
    assert 0 < len(rows) < len(pts) and np.array_equal(sub, pts[rows])
    assert not np.isin(np.arange(400, 404), rows).any()
    for name in ("value_at", "grad_at", "hess_at"):
        got, want = getattr(f, name)(pts), getattr(f.base, name)(pts)
        assert got.shape == want.shape and np.array_equal(got, want)
    for x in pts[::23]:
        assert f.value(x) == f.base.value(x)
        assert np.array_equal(f.grad(x), f.base.grad(x))
        assert np.array_equal(f.hess(x), f.base.hess(x))
    fd, fd_full = with_fd(f, 1e-4), with_fd(f.base, 1e-4)
    assert np.array_equal(fd._grad(pts), fd_full._grad(pts))
    assert np.array_equal(fd._hess(pts), fd_full._hess(pts))


def test_supported_field_off_its_support_is_zero():
    f = _supported_bump()
    far = np.array([[3.0, 0.0, 0.0], [0.0, 1.0, 1.9], [0.3, 0.3, 0.3]])
    assert f.rows_at(far)[0].size == 0
    assert np.array_equal(f.value_at(far), np.zeros(3))
    assert np.array_equal(f.grad_at(far), np.zeros((3, 3)))
    assert np.array_equal(f.hess_at(far), np.zeros((3, 3, 3)))


def test_square_of_supported_field_shares_its_rows():
    f = _supported_bump()
    sq = squared(f)
    assert isinstance(sq, SupportedField) and squared(f) is sq
    pts = RNG.uniform(-2, 2, size=(300, 3))
    assert sq.rows_at(pts) is f.rows_at(pts)
    plain = ProductField(f.base, f.base)
    for name in ("value_at", "grad_at", "hess_at"):
        assert np.array_equal(getattr(sq, name)(pts), getattr(plain, name)(pts))


def test_field_without_support_predicate_keeps_every_row():
    f = SupportedField(ProductField(PolyField([(1.0, (1, 1, 0))]), NormField()))
    pts = RNG.uniform(-2, 2, size=(50, 3))
    assert np.array_equal(f.rows_at(pts)[0], np.arange(50))
    assert np.array_equal(f.grad_at(pts), f.base.grad_at(pts))
