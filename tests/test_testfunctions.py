import numpy as np
import pytest

from hardylab import testfunctions
from hardylab.errors import UsageError
from hardylab.grid import default_grid
from hardylab.fields import NormField, ProductField, SupportedField, support, value_in_blocks
from hardylab.testfunctions import (_corpus, bump_corpus, iter_bump_corpus,
                                    iter_polynomial_bump_corpus, polynomial_bump_corpus,
                                    radial_bump, smoothed_power, tensor_bump)


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


def test_constructors_peak_where_expected_and_reject_a_reversed_range():
    psi = NormField()
    f = radial_bump(psi, 1.0, 2.0)
    assert f.value_at(np.array([[1.5, 0, 0]]))[0] == 1.0
    g = tensor_bump([(0, 1), (0, 1)])
    assert g.value_at(np.array([[0.5, 0.5]]))[0] == 1.0
    h = smoothed_power(psi, 0.1, 1.0, 10.0)
    assert h.value_at(np.array([[3.0, 0, 0]]))[0] == pytest.approx(3.0 ** -0.4)
    with pytest.raises(UsageError):
        radial_bump(psi, 2.0, 1.0)


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
    # einsum sums a one-row array in another order than a longer one, so a
    # lone support row is computed twice in a two-row sub-array, and neither
    # the frame coefficients nor any tree keeps an entry on the grid's points
    geo, w, _ = eu3
    grid = default_grid(geo, w, bounds=[(-2, 2)] * 3, n=32)  # no other test's entries
    x, h = grid.points[grid.n_nodes // 2], grid.spacing
    f = SupportedField(tensor_bump([(c - 0.75 * s, c + 0.75 * s) for c, s in zip(x, h)]))
    pts = grid.points
    assert len(f.rows_at(pts)[0]) == 1
    diff = geo
    got = [diff.gamma(f, f, pts), diff.gamma(w.psi, f, pts)]
    coefficient_fields = [c for X in diff.frame for c in X.coeffs]
    for node in [diff, w.psi, f.base, *coefficient_fields]:
        assert all(ref() is not pts for ref, _ in vars(node).get("_memo", {}).values()), node
    want = [diff.gamma(f.base, f.base, pts), diff.gamma(w.psi, f.base, pts)]
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# The corpus drawn one bump at a time
# ---------------------------------------------------------------------------

def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _middle_psi_range(w, grid):
    pv = value_in_blocks(w.psi, grid.points)
    lo, hi = float(pv.min()), float(pv.max())
    return lo + 0.15 * (hi - lo), hi - 0.15 * (hi - lo)


@pytest.fixture
def draws(monkeypatch):
    """The number of candidates drawn so far: one sub-box per candidate."""
    drawn = []
    box = testfunctions._interior_box
    monkeypatch.setattr(testfunctions, "_interior_box",
                        lambda grid, rng: drawn.append(1) or box(grid, rng))
    return drawn


@pytest.mark.parametrize("setup", ["eu2", "eu3", "h1"])
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_the_iterated_corpus_yields_the_listed_bumps_bit_for_bit(setup, seed, request):
    _, w, grid = request.getfixturevalue(setup)
    pts = grid.points
    psi_range = _middle_psi_range(w, grid)
    for listed, drawn in [(bump_corpus(w.psi, grid, 5, seed, psi_range),
                           iter_bump_corpus(w.psi, grid, 5, seed, psi_range)),
                          (polynomial_bump_corpus(grid, 3, seed),
                           iter_polynomial_bump_corpus(grid, 3, seed))]:
        assert isinstance(listed, list) and iter(drawn) is drawn
        drawn = list(drawn)
        assert len(drawn) == len(listed) > 0
        for f, g in zip(listed, drawn):
            on_f, on_g = support(f, pts), support(g, pts)
            assert _same_bits(on_f.rows, on_g.rows) and _same_bits(on_f.sub, on_g.sub)
            assert _same_bits(on_f.tree.value_at(on_f.sub), on_g.tree.value_at(on_g.sub))
            assert _same_bits(on_f.tree.grad_at(on_f.sub), on_g.tree.grad_at(on_g.sub))


def test_the_iterated_corpus_draws_only_as_far_as_it_is_taken(eu2, draws):
    _, w, grid = eu2
    psi_range = _middle_psi_range(w, grid)
    bump_corpus(w.psi, grid, 6, 3, psi_range)
    listed = len(draws)
    draws.clear()
    bumps = iter_bump_corpus(w.psi, grid, 6, 3, psi_range)
    assert draws == []
    next(bumps)
    first = len(draws)
    assert 0 < first < listed
    assert len(list(bumps)) == 5 and len(draws) == listed


def test_the_iterated_corpus_checks_psi_range_when_called():
    with pytest.raises(UsageError, match="psi_range"):
        iter_bump_corpus(NormField(), None, 1, 0, (2.0, 1.0))


@pytest.mark.parametrize("n", [1, 3])
def test_both_corpora_give_up_at_the_same_draw(eu2, draws, n):
    # no retained node has psi in (50, 60), so every candidate is rejected
    _, w, grid = eu2
    for build in (bump_corpus, lambda *a: list(iter_bump_corpus(*a))):
        draws.clear()
        with pytest.raises(UsageError, match="could not place"):
            build(w.psi, grid, n, 7, (50.0, 60.0))
        assert len(draws) == 50 * n


def test_a_corpus_out_of_draws_has_yielded_what_it_placed(eu2):
    # the first two candidates fit the grid (away from the excised origin);
    # every later one lies outside it
    _, _, grid = eu2
    inside, outside = [(1.0, 2.0), (1.0, 2.5)], [(10.0, 11.0), (10.0, 11.0)]
    drawn = []

    def draw(rng):
        drawn.append(1)
        box = inside if len(drawn) <= 2 else outside
        return tensor_bump(box), box

    bumps = _corpus(grid, 3, 0, draw, 1e-6)
    assert [isinstance(next(bumps), SupportedField) for _ in range(2)] == [True, True]
    assert len(drawn) == 2
    with pytest.raises(UsageError, match="could not place"):
        next(bumps)
    assert len(drawn) == 150
