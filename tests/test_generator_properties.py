"""Property tests: the assembled generator is symmetric positive semidefinite
on random small grids."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import hardylab as hl  # noqa: E402
from hardylab.semigroup import assemble_generator, symmetry_defect  # noqa: E402

GEOMETRIES = (("euclidean", {"m": 2}, "euclid-norm"),
              ("euclidean", {"m": 3}, "euclid-norm"),
              ("heisenberg", {"m": 1}, "koranyi-gauge"))


@st.composite
def small_grids(draw):
    name, params, weight = draw(st.sampled_from(GEOMETRIES))
    geo = hl.make_geometry(name, **params)
    dim = geo.dim
    n = draw(st.lists(st.integers(4, 10), min_size=dim, max_size=dim))
    half = draw(st.lists(st.floats(1.0, 3.0), min_size=dim, max_size=dim))
    shift = draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim))
    bounds = [(c - h, c + h) for c, h in zip(shift, half)]
    # an excised ball around the weight's singular set cuts a hole in the
    # stencil when it holds a node
    radius = draw(st.floats(0.0, 0.8))
    grid = hl.default_grid(geo, hl.make_weight(geo, weight), bounds=bounds, n=n,
                           excision_radius=radius)
    return geo, grid


@settings(max_examples=15, deadline=None, database=None)
@given(small_grids(), st.integers(0, 2 ** 16))
def test_generator_is_symmetric_positive_semidefinite(case, seed):
    geo, grid = case
    assert symmetry_defect(geo, grid, n_trials=3, seed=seed) < 1e-12
    _, A = assemble_generator(geo, grid)
    dense = A.toarray()
    scale = max(float(np.max(np.abs(dense))), 1.0)
    assert np.max(np.abs(dense - dense.T)) <= 1e-12 * scale
    assert np.linalg.eigvalsh(dense)[0] >= -1e-10 * scale
