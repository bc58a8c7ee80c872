import tracemalloc

import numpy as np
import pytest

import hardylab as hl
from hardylab.catalog import log_weight
from hardylab.errors import DegenerateInputError, NumericError, PreconditionError
from hardylab.fields import ConstField, FuncField
from hardylab.grid import (Grid, ball_excision, integrate, level_tube_excision,
                           make_grid, weight_excision)
from hardylab.testfunctions import radial_bump


def test_integrate_zero_field(eu3):
    _, _, grid = eu3
    assert integrate(grid, ConstField(0.0)) == 0.0


def test_integrate_unit_interval():
    geo = hl.make_geometry("euclidean", m=1)
    for n in (16, 64, 256):
        grid = make_grid(geo, [(0.0, 1.0)], n=n)
        got = integrate(grid, ConstField(1.0))
        assert abs(got - 1.0) <= 1.0 / n + 1e-12


def test_integrate_hyperbolic_band_refinement():
    # int over x1 in [0,1], x2 in [1,2] of the density x2^-2 equals 1/2
    geo = hl.make_geometry("hyperbolic", m=2)
    errs = []
    for n in (32, 64):
        grid = make_grid(geo, [(0.0, 1.0), (1.0, 2.0)], n=n)
        errs.append(abs(integrate(grid, ConstField(1.0)) - 0.5))
    assert errs[1] < 0.3 * errs[0]


def test_integrate_rejects_non_finite(eu3):
    _, _, grid = eu3
    bad = FuncField(lambda p: np.where(p[:, 0] > 0, np.inf, 1.0))
    with pytest.raises(NumericError):
        integrate(grid, bad)


def test_excisions_remove_nodes(eu3):
    geo, w, _ = eu3
    grid = make_grid(geo, [(-2, 2)] * 3, n=16,
                     excisions=[ball_excision([0, 0, 0], 0.5)])
    r = np.sqrt(np.sum(grid.points ** 2, axis=1))
    assert np.min(r) >= 0.5
    grid2 = make_grid(geo, [(-2, 2)] * 3, n=16,
                      excisions=[weight_excision(w, 0.4),
                                 level_tube_excision(w.psi, 1.0, 0.2)])
    rv = w.psi.value_at(grid2.points)
    assert np.min(rv) >= 0.4
    assert np.min(np.abs(rv - 1.0)) >= 0.2


def test_grid_weights_positive_and_measure_weighted(hyp3):
    geo, _, grid = hyp3
    assert np.all(grid.weights > 0)
    cell = float(np.prod(grid.spacing))
    dens = geo.measure_density.value_at(grid.points)
    assert np.allclose(grid.weights, cell * dens)


def test_empty_grid_raises():
    geo = hl.make_geometry("euclidean", m=2)
    with pytest.raises(DegenerateInputError):
        make_grid(geo, [(-1, 1)] * 2, n=8,
                  excisions=[lambda p: np.ones(len(p), dtype=bool)])


def test_supports_margin(eu3):
    geo, w, grid = eu3
    inside = radial_bump(w.psi, 0.8, 1.4)
    assert grid.supports(inside)
    touching = radial_bump(w.psi, 0.8, 3.5)
    assert not grid.supports(touching)


def test_refined_grid_halves_spacing(eu3):
    geo, w, _ = eu3
    grid = hl.default_grid(geo, w, bounds=[(-2, 2)] * 3, n=16, excision_radius=0.3)
    fine = grid.refined(2)
    assert np.allclose(fine.spacing, grid.spacing / 2)
    assert fine.bounds == grid.bounds


def test_neighbor_rows_roundtrip(eu3):
    _, _, grid = eu3
    rows = grid.neighbor_rows(0, 1)
    ok = rows >= 0
    # neighbor of the neighbor in the opposite direction is the node itself
    back = grid.neighbor_rows(0, -1)
    assert np.all(back[rows[ok]] == np.arange(grid.n_nodes)[ok])


def test_bounds_dim_mismatch():
    geo = hl.make_geometry("euclidean", m=3)
    with pytest.raises(PreconditionError):
        make_grid(geo, [(-1, 1)] * 2, n=8)


@pytest.mark.parametrize("setup", ["eu3", "h1", "eu2", "hyp3"])
def test_interior_depth_counts_intact_neighbor_layers(setup, request):
    _, _, grid = request.getfixturevalue(setup)
    for layers in (1, 2, 3):
        # reference: a node's depth is the last layer before a missing neighbor
        depth = np.full(grid.n_nodes, layers)
        for layer in range(layers, 0, -1):
            missing = np.zeros(grid.n_nodes, dtype=bool)
            for ax in range(grid.dim):
                for s in (-layer, layer):
                    missing |= grid.neighbor_rows(ax, s) < 0
            depth[missing] = layer - 1
        got = grid.interior_depth(layers)
        assert got.dtype == np.int64 and np.array_equal(got, depth)


def test_supports_verdict_is_memoized_per_grid(eu3):
    geo, w, _ = eu3
    grid = hl.default_grid(geo, w, bounds=[(-2, 2)] * 3, n=16, excision_radius=0.3)
    fine = grid.refined(2)
    checks = []
    for g in (grid, fine):
        g.fringe_mask = lambda g=g: checks.append(g) or Grid.fringe_mask(g)
    f = radial_bump(w.psi, 0.8, 1.4)
    assert grid.supports(f) and grid.supports(f)
    assert checks == [grid]
    # another grid checks again
    assert fine.supports(f) and checks == [grid, fine]
    touching = radial_bump(w.psi, 0.8, 3.5)
    assert not grid.supports(touching) and not grid.supports(touching)
    assert len(checks) == 3


def _meshgrid_reference(geo, bounds, n, excisions):
    """The grid as it is built from a whole-box meshgrid: (points, weights,
    index_map, lattice), the last holding each retained node's per-axis
    integer coordinates."""
    spacing = np.array([(hi - lo) / k for (lo, hi), k in zip(bounds, n)])
    axes = [lo + (np.arange(k) + 0.5) * h for (lo, _), k, h in zip(bounds, n, spacing)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=1)
    keep = geo.mask(pts)
    for exc in excisions:
        keep &= ~np.asarray(exc(pts), dtype=bool)
    rows = np.nonzero(keep)[0]
    index_map = np.full(int(np.prod(n)), -1, dtype=np.int64)
    index_map[rows] = np.arange(len(rows))
    points = pts[keep]
    weights = float(np.prod(spacing)) * geo.measure_density.value_at(points)
    return points, weights, index_map, np.stack(np.unravel_index(rows, n), axis=1)


def _reference_neighbors(lattice, index_map, shape, axis, step):
    nb = lattice.copy()
    nb[:, axis] += step
    valid = (nb[:, axis] >= 0) & (nb[:, axis] < shape[axis])
    rows = np.full(len(lattice), -1, dtype=np.int64)
    rows[valid] = index_map[np.ravel_multi_index(tuple(nb[valid].T), shape)]
    return rows


def _euclidean2():
    geo = hl.make_geometry("euclidean", m=2)
    w = hl.make_weight(geo, "euclid-norm")
    return geo, [(-2.0, 2.0)] * 2, [weight_excision(w, 0.3), ball_excision([1.0, 0.5], 0.4)]


def _heisenberg1():
    geo = hl.make_geometry("heisenberg", m=1)
    w = hl.make_weight(geo, "koranyi-gauge")
    return geo, [(-2.0, 2.0)] * 3, [weight_excision(w, 0.3),
                                    level_tube_excision(w.psi, 1.0, 0.1)]


def _logradial3():
    geo = hl.make_geometry("logradial", m=3)
    w = log_weight(hl.make_weight(geo, "euclid-norm"), "upper")
    return geo, [(-3.0, 3.0)], [weight_excision(w, 0.2), ball_excision([1.5], 0.25)]


# the box sizes 16,385 and 16,386: a last block of 1 row joins the block
# before it, and one of 2 rows stands alone
@pytest.mark.parametrize("setup,n", [
    pytest.param(_euclidean2, (40, 40), id="euclidean2-one-block"),
    pytest.param(_euclidean2, (5, 3277), id="euclidean2-16385"),
    pytest.param(_euclidean2, (2, 8193), id="euclidean2-16386"),
    pytest.param(_euclidean2, (64, 520), id="euclidean2-three-blocks"),
    pytest.param(_heisenberg1, (5, 29, 113), id="heisenberg1-16385"),
    pytest.param(_heisenberg1, (2, 3, 2731), id="heisenberg1-16386"),
    pytest.param(_heisenberg1, (34, 34, 34), id="heisenberg1-three-blocks"),
    pytest.param(_logradial3, (16385,), id="logradial3-16385"),
    pytest.param(_logradial3, (16386,), id="logradial3-16386"),
    pytest.param(_logradial3, (40000,), id="logradial3-three-blocks"),
])
def test_make_grid_equals_a_meshgrid_reference_bit_for_bit(setup, n):
    geo, bounds, excisions = setup()
    grid = make_grid(geo, bounds, n=n, excisions=excisions)
    geo, bounds, excisions = setup()
    points, weights, index_map, lattice = _meshgrid_reference(geo, bounds, n, excisions)
    assert 0 < len(points) < np.prod(n)
    for got, want in ((grid.points, points), (grid.weights, weights),
                      (grid.index_map, index_map)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.c_contiguous and got.tobytes() == want.tobytes()
    for axis in range(grid.dim):
        for step in (-1, 1):
            want = _reference_neighbors(lattice, index_map, grid.shape, axis, step)
            assert np.array_equal(grid.neighbor_rows(axis, step), want)


def test_make_grid_peaks_below_twice_what_the_grid_keeps():
    """The box's coordinates are filled in place and dropped once the kept
    rows are gathered, and the excisions run on row blocks of the box, so
    building a grid needs less than twice what the grid keeps."""
    geo = hl.make_geometry("heisenberg", m=1)
    w = hl.make_weight(geo, "koranyi-gauge")
    hl.default_grid(geo, w, bounds=[(-2, 2)] * 3, n=8)  # the fields' one-off caches
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        grid = hl.default_grid(geo, w, bounds=[(-2, 2)] * 3, n=48)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    kept = sum(v.nbytes for v in vars(grid).values() if isinstance(v, np.ndarray))
    assert grid.n_nodes > 0.9 * 48 ** 3
    assert peak - start <= 2 * kept, (peak - start) / kept
