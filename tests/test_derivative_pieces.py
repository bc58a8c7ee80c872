"""Derivative pieces are computed once, and identically zero terms are skipped,
with the same bits as computing every piece every time.

``smoothed_power_profile`` memoizes the pieces its orders share on the
argument array.  Against the all-pieces profile kept below as a reference,
its value and both derivatives must agree bit for bit in every region of u,
in every call order, on two arrays with equal values, and on the log-radial
default trial family; the shared entry must go with u and with the profile.

``FrameDiffusion.frame_derivatives`` and ``FrameDiffusion.apply_L`` skip the
frame gradients of a constant frame.  With ``constant_frame`` forced off on
the instance they take the general path, which must give the same bits,
signed zeros included."""

import gc
import weakref

import numpy as np
import pytest

import hardylab as hl
from hardylab.calculus import FrameDiffusion
from hardylab.fields import (ComposeField, ConstField, PolyField, VectorField, SmoothMap, smoothed_power_profile,
                             smoothstep_map)
from hardylab.inequalities import default_trial_family
from hardylab.testfunctions import random_polynomial


def reference_profile(exponent, a, b, ramp_factor=2.0) -> SmoothMap:
    """The profile computing all ten pieces on every call of every order."""
    step = smoothstep_map()
    w = np.log(ramp_factor)

    def pieces(u):
        u = np.asarray(u, dtype=float)
        safe = np.clip(u, a, b)
        pw = np.power(safe, exponent)
        pw1 = exponent * np.power(safe, exponent - 1.0)
        pw2 = exponent * (exponent - 1.0) * np.power(safe, exponent - 2.0)
        xa = np.log(safe / a) / w
        xb = np.log(b / safe) / w
        up = step.f(xa)
        up1 = step.d1(xa) / (w * safe)
        up2 = (step.d2(xa) / w - step.d1(xa)) / (w * safe ** 2)
        dn = step.f(xb)
        dn1 = -step.d1(xb) / (w * safe)
        dn2 = (step.d2(xb) / w + step.d1(xb)) / (w * safe ** 2)
        out = (u > a) & (u < b)
        return out, pw, pw1, pw2, up, up1, up2, dn, dn1, dn2

    def f(u):
        out, pw, _, _, up, _, _, dn, _, _ = pieces(u)
        return np.where(out, pw * up * dn, 0.0)

    def d1(u):
        out, pw, pw1, _, up, up1, _, dn, dn1, _ = pieces(u)
        return np.where(out, pw1 * up * dn + pw * (up1 * dn + up * dn1), 0.0)

    def d2(u):
        out, pw, pw1, pw2, up, up1, up2, dn, dn1, dn2 = pieces(u)
        val = (pw2 * up * dn + 2.0 * pw1 * (up1 * dn + up * dn1)
               + pw * (up2 * dn + 2.0 * up1 * dn1 + up * dn2))
        return np.where(out, val, 0.0)

    return SmoothMap(f, d1, d2, "reference")


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _regions(a, b, ramp, n=40):
    """u below a, at a, in both ramps, on the plateau, at b and above b."""
    rng = np.random.default_rng(5)
    parts = [np.linspace(0.1 * a, a, n), np.geomspace(a, ramp * a, n),
             np.geomspace(ramp * a, b / ramp, n), np.geomspace(b / ramp, b, n),
             np.linspace(b, 3.0 * b, n), a * np.exp(rng.uniform(0.0, np.log(b / a), n))]
    return np.concatenate(parts)


PROFILES = [(-0.4, 1.0, 10.0, 2.0), (-1.47, 0.003, 7.5, 3.1), (0.5, 2e-5, 1.0, 2.0),
            (-0.5 + 0.01, 1e-14, 20.0, 40.0)]

ORDERS = [("f", "d1", "d2"), ("d2",), ("d2", "d1", "f"), ("d1", "f"), ("f",), ("d1", "d2")]


@pytest.mark.parametrize("exponent,a,b,ramp", PROFILES)
@pytest.mark.parametrize("order", ORDERS, ids="-".join)
def test_profile_equals_all_pieces_reference_in_every_call_order(exponent, a, b, ramp,
                                                                 order):
    prof = smoothed_power_profile(exponent, a, b, ramp)
    ref = reference_profile(exponent, a, b, ramp)
    u = _regions(a, b, ramp)
    for name in order:
        assert _same_bits(getattr(prof, name)(u), getattr(ref, name)(u)), name
        # asked again, the memoized pieces answer with the same bits
        assert _same_bits(getattr(prof, name)(u), getattr(ref, name)(u)), name


@pytest.mark.parametrize("exponent,a,b,ramp", PROFILES)
def test_profile_on_two_equal_valued_arrays(exponent, a, b, ramp):
    prof = smoothed_power_profile(exponent, a, b, ramp)
    ref = reference_profile(exponent, a, b, ramp)
    u = _regions(a, b, ramp)
    v = u.copy()
    assert _same_bits(prof.f(u), ref.f(u))
    # a second array of the same values has its own entry, and a changed
    # one shares nothing with the first's
    w = u * 1.5
    for name in ("d2", "d1", "f"):
        assert _same_bits(getattr(prof, name)(v), getattr(ref, name)(u))
        assert _same_bits(getattr(prof, name)(w), getattr(ref, name)(w))
        assert _same_bits(getattr(prof, name)(u), getattr(ref, name)(u))


def test_profile_on_scalars_and_lists():
    prof, ref = smoothed_power_profile(-0.4, 1.0, 10.0), reference_profile(-0.4, 1.0, 10.0)
    for u in (0.5, 1.5, 3.0, 9.0, 11.0, [1.5, 3.0, 9.0]):
        for name in ("f", "d1", "d2"):
            assert _same_bits(getattr(prof, name)(u), getattr(ref, name)(u))


def _memo_table(prof: SmoothMap) -> dict:
    """The memo table of the profile's shared pieces, found through the
    closures of its value function."""
    cells = [c.cell_contents for c in prof.f.__closure__]
    while cells:
        obj = cells.pop()
        if callable(obj) and "_memo" in getattr(obj, "__dict__", {}):
            return obj.__dict__["_memo"]
        cells.extend(c.cell_contents for c in getattr(obj, "__closure__", None) or ())
    raise AssertionError("no memo table in the profile's closures")


def test_shared_entry_goes_with_u():
    prof = smoothed_power_profile(-0.4, 1.0, 10.0)
    u = np.linspace(0.5, 12.0, 200)
    prof.f(u)
    prof.d1(u)
    prof.d2(u)
    table = _memo_table(prof)
    assert len(table) == 1
    v = u.copy()
    prof.d1(v)
    assert len(table) == 2
    del u
    assert len(table) == 1
    del v
    assert table == {}


def test_shared_entry_goes_with_the_profile():
    prof = smoothed_power_profile(-0.4, 1.0, 10.0)
    u = np.linspace(0.5, 12.0, 200)
    prof.f(u)
    (entry,) = _memo_table(prof).values()
    pieces = weakref.ref(entry[1]["pieces"][1])  # the clipped argument
    del entry
    gc.collect()
    gc.disable()
    try:
        del prof
        assert pieces() is None  # freed by reference counting alone
    finally:
        gc.enable()


def test_composition_shares_the_memoized_u():
    # value and gradient of phi(psi) pass psi's one memoized value to phi
    psi = PolyField([(1.0, (2,)), (0.5, ())])
    prof = smoothed_power_profile(-0.4, 1.0, 10.0)
    comp = ComposeField(prof, psi)
    pts = np.linspace(-4.0, 4.0, 101)[:, None]
    comp.value_at(pts)
    comp.grad_at(pts)
    comp.hess_at(pts)
    assert len(_memo_table(prof)) == 1


def test_log_radial_default_trial_family_equals_reference():
    geo = hl.make_geometry("logradial", m=3)
    weight = hl.make_weight(geo, "euclid-norm")
    grid = hl.default_grid(geo, weight=weight, bounds=[(-34.0, 3.0)], n=(600,))
    family = default_trial_family(weight, weight.claimed_Q, 0.0, grid)
    pts = grid.points
    count = 0
    for cand in family.candidates():
        f = family.make(cand["eps"], cand["a"], cand["b"], cand["ramp"])
        ref = ComposeField(reference_profile(family.base_exponent + cand["eps"], cand["a"],
                                             cand["b"], cand["ramp"]), family.psi)
        with np.errstate(over="ignore", invalid="ignore"):
            for name in ("hess_at", "value_at", "grad_at"):
                assert _same_bits(getattr(f, name)(pts), getattr(ref, name)(pts)), (cand, name)
        count += 1
    assert count >= 40


# ---------------------------------------------------------------------------
# constant_frame: frame_derivatives without frame gradients
# ---------------------------------------------------------------------------

CONSTANT = [("euclidean", {"m": 1}), ("euclidean", {"m": 2}), ("euclidean", {"m": 3}),
            ("halfspace-euclidean", {"m": 2}),
            ("convex-domain", {"m": 2, "box": [[0.0, 2.0]] * 2}),
            ("euclidean-radial", {"m": 1}), ("euclidean-radial", {"m": 3})]
NOT_CONSTANT = [("heisenberg", {"m": 1}), ("heisenberg", {"m": 2}), ("grushin", {"n": 1}),
                ("grushin", {"n": 2}), ("hyperbolic", {"m": 2}), ("logradial", {"m": 1}),
                ("logradial", {"m": 3})]


def _ids(cases):
    return [f"{name}-{next(iter(params.values()))}" for name, params in cases]


@pytest.mark.parametrize("name,params", CONSTANT, ids=_ids(CONSTANT))
def test_constant_frame_catalog_frames(name, params):
    assert hl.make_geometry(name, **params).constant_frame is True


@pytest.mark.parametrize("name,params", NOT_CONSTANT, ids=_ids(NOT_CONSTANT))
def test_constant_frame_false_for_other_catalog_frames(name, params):
    assert hl.make_geometry(name, **params).constant_frame is False


def test_constant_frame_covers_every_catalog_geometry():
    assert {name for name, _ in CONSTANT + NOT_CONSTANT} == set(hl.catalog.GEOMETRIES)


def _both_paths(diff, f, pts):
    """frame_derivatives on the short path, then on the general path for a
    copy of f (the result is memoized per field)."""
    short = diff.frame_derivatives(f, pts)
    diff.constant_frame = False  # the instance attribute hides the cached flag
    try:
        return short, diff.frame_derivatives(PolyField(f.terms), pts)
    finally:
        del diff.constant_frame


@pytest.mark.parametrize("name,params", [("euclidean", {"m": 2}), ("euclidean", {"m": 3}),
                                         ("euclidean-radial", {"m": 3})],
                         ids=["euclidean-2", "euclidean-3", "euclidean-radial-3"])
@pytest.mark.parametrize("seed", range(40))
def test_constant_frame_path_equals_general_path_bit_for_bit(name, params, seed):
    geo = hl.make_geometry(name, **params)
    rng = np.random.default_rng(seed)
    f = random_polynomial(geo.dim, int(rng.integers(1, 4)), rng)
    pts = rng.uniform(-2.0, 2.0, size=(int(rng.integers(2, 40)), geo.dim))
    # exact zeros of both signs, where products and sums of zeros meet
    pts[rng.random(pts.shape) < 0.2] = 0.0
    pts[rng.random(pts.shape) < 0.1] = -0.0
    (xs, dxs), (xg, dxg) = _both_paths(geo, f, pts)
    assert _same_bits(xs, xg) and _same_bits(dxs, dxg)


def test_constant_frame_path_builds_no_frame_gradients():
    geo = hl.make_geometry("euclidean", m=3)
    pts = np.random.default_rng(1).uniform(-1.0, 1.0, size=(30, 3))
    geo.frame_derivatives(random_polynomial(3, 3, np.random.default_rng(2)), pts)
    (entry,) = geo.__dict__["_memo"].values()
    assert set(entry[1]) == {"C"}


def test_non_finite_gradient_takes_the_general_path():
    # x^3 at x = 1e160: the gradient overflows while the Hessian stays
    # finite; the general path's 0 * inf makes grad X f NaN on that row
    geo = hl.make_geometry("euclidean", m=2)
    f = PolyField([(1.0, (3,)), (1.0, (0, 2))])
    pts = np.array([[1e160, 0.5], [0.5, -0.3]])
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(f.grad_at(pts)[0]).all()
        assert np.isfinite(f.hess_at(pts)).all()
        (xs, dxs), (xg, dxg) = _both_paths(geo, f, pts)
    assert np.isnan(dxs[:, 0]).any() and np.isfinite(dxs[:, 1]).all()
    assert _same_bits(xs, xg) and _same_bits(dxs, dxg)


# ---------------------------------------------------------------------------
# constant_frame: apply_L without frame gradients when rho is not constant
# ---------------------------------------------------------------------------

def _random_constant_frame(seed, sign=1.0):
    """A constant frame with zero, negative and positive coefficients on
    R^m, against the density 1 + x_0^2 + x_{m-1}^2 / 2, or with ``sign``
    -1.0 the density 2 - x_0^2 - x_{m-1}^2 / 2, positive on [-1, 1]^m."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    frame = [VectorField([ConstField(float(c)) for c in
                          rng.choice([0.0, -1.5, -1.0, 0.5, 2.0], size=m)])
             for _ in range(int(rng.integers(1, 4)))]
    rho = PolyField([(1.5 - 0.5 * sign, ()), (sign, (2,)), (0.5 * sign, (0,) * (m - 1) + (2,))])
    return FrameDiffusion(frame, rho, m)


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("case", ["euclidean-radial-2", "euclidean-radial-3",
                                  "euclidean-radial-5", "random-constant-frame",
                                  "negative-zero-density-gradient"])
def test_apply_L_on_a_constant_frame_equals_the_general_path_bit_for_bit(case, seed):
    rng = np.random.default_rng(1000 + seed)
    if case == "random-constant-frame":
        diff = _random_constant_frame(seed)
        pts = rng.uniform(-2.0, 2.0, size=(int(rng.integers(2, 40)), diff.dim))
        # exact zeros of both signs, where products and sums of zeros meet
        pts[rng.random(pts.shape) < 0.2] = 0.0
        pts[rng.random(pts.shape) < 0.1] = -0.0
    elif case == "negative-zero-density-gradient":
        # d(-x^2) = -2x is -0.0 at x = +0.0, where the general path adds
        # +0.0 to X_j rho / rho and to the drift and the short path does not
        diff = _random_constant_frame(seed, sign=-1.0)
        pts = rng.uniform(-1.0, 1.0, size=(int(rng.integers(2, 40)), diff.dim))
        pts[rng.random(pts.shape) < 0.3] = 0.0
        pts[0] = 0.0
        grad_rho = diff.measure_density.grad_at(pts)
        assert np.any((grad_rho == 0.0) & np.signbit(grad_rho))
    else:
        diff = hl.make_geometry("euclidean-radial", m=int(case.rsplit("-", 1)[1]))
        pts = rng.uniform(0.1, 2.0, size=(int(rng.integers(2, 40)), 1))
    assert diff.constant_frame and not diff.drift_free
    f = random_polynomial(diff.dim, int(rng.integers(1, 4)), rng)
    short = diff.apply_L(f, pts)
    (entry,) = diff.__dict__["_memo"].values()
    assert set(entry[1]) == {"C"}  # no frame gradients were built
    diff.constant_frame = False  # the instance attribute hides the cached flag
    try:
        general = diff.apply_L(f, pts)
    finally:
        del diff.constant_frame
    assert set(entry[1]) == {"C", "G"}
    assert _same_bits(short, general)

