import numpy as np
import pytest

import hardylab as hl
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


def test_supports_verdict_is_memoized_per_grid_and_tolerances(eu3):
    geo, w, _ = eu3
    grid = hl.default_grid(geo, w, bounds=[(-2, 2)] * 3, n=16, excision_radius=0.3)
    fine = grid.refined(2)
    checks = []
    for g in (grid, fine):
        g.fringe_mask = lambda layers, g=g: checks.append(g) or Grid.fringe_mask(g, layers)
    f = radial_bump(w.psi, 0.8, 1.4)
    assert grid.supports(f) and grid.supports(f)
    assert checks == [grid]
    # other tolerances and other grids check again
    assert grid.supports(f, rel_tol=1e-9) and checks == [grid, grid]
    assert fine.supports(f) and checks == [grid, grid, fine]
    touching = radial_bump(w.psi, 0.8, 3.5)
    assert not grid.supports(touching) and not grid.supports(touching)
    assert len(checks) == 4
