import gc

import numpy as np
import pytest

import hardylab as hl


@pytest.fixture
def no_cyclic_gc():
    """Memo entries and corpus bumps must go by reference counting alone."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


@pytest.fixture(scope="session")
def eu3():
    geo = hl.make_geometry("euclidean", m=3)
    w = hl.make_weight(geo, "euclid-norm")
    grid = hl.default_grid(geo, w, bounds=[(-2, 2)] * 3, n=32)
    return geo, w, grid


@pytest.fixture(scope="session")
def eu2():
    geo = hl.make_geometry("euclidean", m=2)
    w = hl.make_weight(geo, "euclid-norm")
    grid = hl.default_grid(geo, w, bounds=[(-4, 4)] * 2, n=200)
    return geo, w, grid


@pytest.fixture(scope="session")
def h1():
    geo = hl.make_geometry("heisenberg", m=1)
    w = hl.make_weight(geo, "koranyi-gauge")
    grid = hl.default_grid(geo, w, bounds=[(-2, 2)] * 3, n=32)
    return geo, w, grid


@pytest.fixture(scope="session")
def hyp3():
    geo = hl.make_geometry("hyperbolic", m=3)
    w = hl.make_weight(geo, "hyperbolic-height")
    grid = hl.default_grid(geo, w, bounds=[(-1, 1), (-1, 1), (0.5, 2.5)], n=32)
    return geo, w, grid


@pytest.fixture(scope="session")
def gru1():
    geo = hl.make_geometry("grushin", n=1)
    w = hl.make_weight(geo, "grushin-gauge")
    grid = hl.default_grid(geo, w, bounds=[(-2, 2)] * 2, n=200)
    return geo, w, grid


@pytest.fixture(scope="session")
def radial3():
    geo = hl.make_geometry("euclidean-radial", m=3)
    w = hl.make_weight(geo, "euclid-norm")
    grid = hl.make_grid(geo, [(0.2, 6.0)], n=512)
    return geo, w, grid


def sample_points(rng, n, bounds, min_radius=0.3, indices=None):
    """Random points in a box, bounded away from the coordinate origin of the
    selected index subset (where catalog weights are singular)."""
    m = len(bounds)
    pts = np.empty((n, m))
    got = 0
    while got < n:
        cand = np.stack([rng.uniform(lo, hi, size=2 * n) for lo, hi in bounds], axis=1)
        sel = cand if indices is None else cand[:, list(indices)]
        ok = np.sqrt(np.sum(sel ** 2, axis=1)) > min_radius
        take = cand[ok][: n - got]
        pts[got:got + len(take)] = take
        got += len(take)
    return pts


def central_difference_grad(field, pts, h=1e-5):
    """Central differences of ``field``'s own values, one coordinate at a time."""
    out = np.empty(pts.shape)
    for a in range(pts.shape[1]):
        e = np.zeros(pts.shape[1])
        e[a] = h
        out[:, a] = (field._value(pts + e) - field._value(pts - e)) / (2.0 * h)
    return out


def coefficient_matrix(diff, pts):
    """a = sum_j X_j X_j^T, shape (n, i, k), from the frame coefficients."""
    C = diff.frame_values(pts)
    return np.einsum("jni,jnk->nik", C, C)


def coefficient_matrix_grad(diff, pts):
    """d_l a_ik, shape (n, l, i, k), of a = sum_j X_j X_j^T from the frame
    coefficients c_ji and their gradients G[j, n, i, l] = d_l c_ji:
    d_l a_ik = sum_j (d_l c_ji) c_jk + c_ji (d_l c_jk)."""
    dA = np.einsum("jnil,jnk->nlik", diff.frame_grads(pts), diff.frame_values(pts))
    return dA + np.swapaxes(dA, 2, 3)
