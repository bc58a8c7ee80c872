import numpy as np
import pytest

from hardylab.errors import UsageError
from hardylab.fields import NormField, ProductField, SupportedField
from hardylab.testfunctions import (bump_corpus, make_test_function,
                                    polynomial_bump_corpus, radial_bump,
                                    smoothed_power, tensor_bump)


def test_radial_bump_vanishes_at_support_edges():
    psi = NormField()
    f = radial_bump(psi, 1.0, 2.0)
    edge = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [2.0 / np.sqrt(2), 2.0 / np.sqrt(2), 0.0]])
    assert np.allclose(f.value_at(edge), 0.0)
    assert np.allclose(f.grad_at(edge), 0.0)
    inside = np.array([[1.5, 0.0, 0.0]])
    assert f.value_at(inside)[0] == 1.0
    outside = np.array([[0.5, 0.0, 0.0], [3.0, 0.0, 0.0]])
    assert np.all(f.value_at(outside) == 0.0)


def test_tensor_bump_support_is_box():
    f = tensor_bump([(0.0, 1.0), (-1.0, 1.0)])
    assert f.value_at(np.array([[0.5, 0.0]]))[0] > 0
    assert f.value_at(np.array([[1.0, 0.0]]))[0] == 0.0
    assert f.value_at(np.array([[0.5, -1.0]]))[0] == 0.0
    assert f.value_at(np.array([[1.5, 0.0]]))[0] == 0.0


def test_smoothed_power_exact_on_plateau():
    psi = NormField()
    f = smoothed_power(psi, 0.1, 1.0, 10.0)
    pts = np.array([[2.0, 0.0, 0.0], [0.0, 3.3, 0.0], [0.0, 0.0, 5.0]])
    r = np.sqrt(np.sum(pts ** 2, axis=1))
    assert np.allclose(f.value_at(pts), r ** -0.4, atol=0.0)
    gone = np.array([[0.9, 0.0, 0.0], [10.5, 0.0, 0.0]])
    assert np.all(f.value_at(gone) == 0.0)


def test_make_test_function_dispatch():
    psi = NormField()
    f = make_test_function("radial-bump", psi=psi, a=1.0, b=2.0)
    assert f.value_at(np.array([[1.5, 0, 0]]))[0] == 1.0
    g = make_test_function("tensor-bump", box=[(0, 1), (0, 1)])
    assert g.value_at(np.array([[0.5, 0.5]]))[0] == 1.0
    h = make_test_function("smoothed-power", psi=psi, eps=0.1, a=1.0, b=10.0)
    assert h.value_at(np.array([[3.0, 0, 0]]))[0] == pytest.approx(3.0 ** -0.4)
    with pytest.raises(UsageError):
        make_test_function("spline", psi=psi)
    with pytest.raises(UsageError):
        make_test_function("radial-bump", psi=psi, a=2.0, b=1.0)


def test_bump_corpus_is_deterministic_and_valid(eu3):
    geo, w, grid = eu3
    c1 = bump_corpus(w.psi, grid, 8, seed=3, psi_range=(0.5, 1.8))
    c2 = bump_corpus(w.psi, grid, 8, seed=3, psi_range=(0.5, 1.8))
    assert len(c1) == 8
    probe = grid.points[::97]
    for f, g in zip(c1, c2):
        assert np.array_equal(f.value_at(probe), g.value_at(probe))
        assert grid.supports(f)
        psi_on_support = w.psi.value_at(grid.points)[np.abs(f.value_at(grid.points)) > 0]
        assert psi_on_support.min() >= 0.5 and psi_on_support.max() <= 1.8


def test_polynomial_bump_corpus(eu3):
    _, _, grid = eu3
    corpus = polynomial_bump_corpus(grid, 5, seed=11)
    assert len(corpus) == 5
    for f in corpus:
        assert grid.supports(f)


def _edge_bump(w, grid):
    """A supported bump whose psi-window starts at the smallest psi on the
    retained nodes, i.e. at the edge of the excision."""
    pv = w.psi.value_at(grid.points)
    lo, hi = float(pv.min()), float(pv.max())
    box = [(a + 0.1 * (b - a), b - 0.1 * (b - a)) for a, b in grid.bounds]
    return SupportedField(ProductField(radial_bump(w.psi, lo, lo + 0.5 * (hi - lo)),
                                       tensor_bump(box)))


@pytest.mark.parametrize("setup", ["eu3", "h1"])
def test_supported_corpus_bumps_equal_their_full_trees(setup, request):
    # off the rows the full tree may give -0.0 where the scatter gives +0.0,
    # which np.array_equal counts as equal
    geo, w, grid = request.getfixturevalue(setup)
    pts = grid.points
    pv = w.psi.value_at(pts)
    corpus = (bump_corpus(w.psi, grid, 4, seed=5, psi_range=(float(pv.min()), float(pv.max())))
              + polynomial_bump_corpus(grid, 2, seed=5) + [_edge_bump(w, grid)])
    diff = geo
    for f in corpus:
        assert isinstance(f, SupportedField)
        rows, sub = f.rows_at(pts)
        assert 0 < len(rows) < 0.5 * grid.n_nodes
        assert sub.shape == (len(rows), grid.dim)
        got = [f.value_at(pts), f.grad_at(pts), f.hess_at(pts),
               diff.gamma(f, f, pts), diff.gamma(w.psi, f, pts), diff.gamma(f, w.psi, pts)]
        full = f.base
        want = [full.value_at(pts), full.grad_at(pts), full.hess_at(pts),
                diff.gamma(full, full, pts), diff.gamma(w.psi, full, pts),
                diff.gamma(full, w.psi, pts)]
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a, b)


def test_supported_bump_feeds_gamma_w_unchanged(h1):
    from hardylab.calculus import gamma_w
    geo, w, grid = h1
    f = polynomial_bump_corpus(grid, 1, seed=2)[0]
    W = w.psi ** 0.5
    got = gamma_w(geo, W, f, grid.points)
    assert np.array_equal(got, gamma_w(geo, W, f.base, grid.points))


def test_gamma_on_a_one_row_support(eu3):
    # einsum reduces a single row in another order, so this case runs on
    # the full grid
    geo, w, grid = eu3
    x, h = grid.points[grid.n_nodes // 2], grid.spacing
    f = SupportedField(tensor_bump([(c - 0.75 * s, c + 0.75 * s) for c, s in zip(x, h)]))
    pts = grid.points
    assert len(f.rows_at(pts)[0]) == 1
    diff = geo
    assert np.array_equal(diff.gamma(f, f, pts), diff.gamma(f.base, f.base, pts))
    assert np.array_equal(diff.gamma(w.psi, f, pts), diff.gamma(w.psi, f.base, pts))
