"""The two paths of ``FrameDiffusion.apply_L`` give the same bits.

When ``drift_free`` holds, ``apply_L`` returns the second-order sum and never
builds the frame gradients.  With the flag forced off on the instance it
takes the full path, which adds the first-order terms.  On random polynomial
frames with random zero patterns, the flag must be set exactly when the
construction says so, and then both paths must agree bit for bit, sign bits
of zeros included.  A row whose gradient is not finite takes the full path,
so L f is non-finite there on both paths.  Last, two runs through the CLI
give the same stdout and CSV bytes with the flag forced off.

``FrameDiffusion.gamma`` of a supported field takes the frame coefficients
on the field's support sub-array.  On the same random frames, and on the
hyperbolic and logradial frames, it must give the bits of the support rows
taken out of the whole array's coefficients."""

import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import hardylab as hl  # noqa: E402
from hardylab.calculus import FrameDiffusion, _frame_gamma  # noqa: E402
from hardylab.cli import main  # noqa: E402
from hardylab.fields import (ComposeField, ConstField, PolyField,  # noqa: E402
                             ProductField, SupportedField, VectorField, exp_map,
                             unsupported)
from hardylab.testfunctions import random_polynomial, tensor_bump  # noqa: E402


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _both_paths(diff, f, pts):
    short = diff.apply_L(f, pts)
    diff.drift_free = False  # the instance attribute hides the cached flag
    try:
        return short, diff.apply_L(f, pts)
    finally:
        del diff.drift_free


def _poly_in(variables, m, rng) -> PolyField:
    """A random polynomial of degree <= 2 in the given coordinates only; its
    constant term makes it nonzero."""
    p = random_polynomial(m, 2, rng)
    return PolyField([(c, e) for c, e in p.terms
                      if all(k == 0 or i in variables for i, k in enumerate(e))])


# density, and whether it allows the short path
DENSITIES = [(ConstField(1.0), True), (ConstField(2.5), True),
             (PolyField([(0.5, ()), (0.25, (0,))]), True),
             (ConstField(-1.0), False), (PolyField([(1.0, ()), (0.5, (2,))]), False),
             (ComposeField(exp_map(), PolyField([(0.1, (1,))])), False)]


@st.composite
def frame_diffusions(draw):
    """(diffusion, expected flag, m, seed).  Each frame field has a random set
    of nonzero coefficients, each a polynomial in the coordinates whose
    coefficient is zero; a draw may add a term in one more coordinate or
    make a coefficient non-polynomial."""
    m = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    rho, expected = draw(st.sampled_from(DENSITIES))
    frame = []
    for _ in range(draw(st.integers(1, 3))):
        nonzero = sorted(draw(st.sets(st.integers(0, m - 1))))
        free = {i for i in range(m) if i not in nonzero}
        coeffs = [ConstField(0.0)] * m
        for k in nonzero:
            coeffs[k] = _poly_in(free, m, rng)
        if nonzero:
            extra = draw(st.none() | st.integers(0, m - 1))
            k = nonzero[0]
            if extra is not None:
                exps = (0,) * extra + (1,)
                coeffs[k] = PolyField(coeffs[k].terms + [(rng.standard_normal(), exps)])
                expected &= extra not in nonzero
            if draw(st.integers(0, 3)) == 0:
                coeffs[k] = ComposeField(exp_map(), coeffs[k])
                expected = False
        frame.append(VectorField(coeffs))
    return FrameDiffusion(frame, rho, m), expected, m, seed


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(frame_diffusions(), st.integers(1, 3), st.integers(2, 40))
def test_short_path_equals_full_path_bit_for_bit(case, degree, n):
    diff, expected, m, seed = case
    assert diff.drift_free is expected
    rng = np.random.default_rng(seed + 1)
    f = random_polynomial(m, degree, rng)
    pts = rng.uniform(-2.0, 2.0, size=(n, m))
    # exact zeros of both signs, where products and sums of zeros meet
    pts[rng.random(pts.shape) < 0.2] = 0.0
    pts[rng.random(pts.shape) < 0.1] = -0.0
    short, full = _both_paths(diff, f, pts)
    assert _same_bits(short, full)
    assert diff.drift_free is expected


def test_non_finite_gradient_row_takes_the_full_path():
    # z^3 at z = 1e160: the gradient overflows, while the frame coefficients
    # and the second-order sum stay finite; the full path's 0 * inf makes
    # L f NaN on that row
    geo = hl.make_geometry("heisenberg", m=1)
    assert geo.drift_free
    f = PolyField([(1.0, (0, 0, 3))])
    pts = np.array([[0.5, 0.3, 1e160], [0.5, 0.7, -0.3]])
    C = geo.frame_values(pts)
    assert np.isfinite(np.einsum("jni,jnk,nik->n", C, C, f.hess_at(pts))).all()
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(f.grad_at(pts)[0]).all()
        short, full = _both_paths(geo, f, pts)
    assert not np.isfinite(short[0]) and not np.isfinite(full[0])
    assert np.isfinite(short[1])
    assert _same_bits(short, full)


def _gamma_from_the_whole_array(diff, f, g, pts):
    """Gamma of a supported f from the frame coefficients on the whole
    array, with the support rows taken out by ``np.take`` (one row takes
    the whole array's path)."""
    rows, sub = f.rows_at(pts)
    if len(rows) == 1:
        return _frame_gamma(diff.frame_values(pts), f, g, pts)
    val = np.zeros(len(pts))
    val[rows] = _frame_gamma(np.take(diff.frame_values(pts), rows, axis=1),
                             unsupported(f), unsupported(g), sub)
    return val


CATALOG_FRAMES = [("hyperbolic", {"m": 2}), ("hyperbolic", {"m": 3}), ("logradial", {"m": 1}),
                  ("logradial", {"m": 3})]


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(frame_diffusions() | st.sampled_from(CATALOG_FRAMES), st.integers(0, 2 ** 32 - 1),
       st.integers(2, 60), st.sampled_from(["f", "poly", "bump"]))
def test_gamma_of_a_supported_field_equals_the_whole_array_rows_bit_for_bit(case, seed, n,
                                                                           other):
    if isinstance(case, tuple) and isinstance(case[0], str):
        diff = hl.make_geometry(case[0], **case[1])
    else:
        diff = case[0]
    m = diff.dim
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.1, 2.0, size=(n, m))
    pts[rng.random(pts.shape) < 0.1] = 0.0
    pts[rng.random(pts.shape) < 0.1] = -0.0

    def bump():
        lo = rng.uniform(-0.5, 1.0, size=m)
        box = [(a, a + w) for a, w in zip(lo, rng.uniform(1.0, 2.5, size=m))]
        return SupportedField(ProductField(random_polynomial(m, 2, rng), tensor_bump(box)))

    f = bump()
    g = {"f": f, "poly": random_polynomial(m, 2, rng), "bump": bump()}[other]
    got = diff.gamma(f, g, pts)
    assert _same_bits(got, _gamma_from_the_whole_array(diff, f, g, pts))


CLI_CONFIGS = {
    "grushin-curvature": {
        "schema": 1, "geometry": {"name": "grushin", "params": {"n": 1}},
        "weight": {"name": "grushin-gauge"}, "operation": "curvature",
        "parameters": {"p": 1.2, "gamma": 0.0},
        "grid": {"bounds": [[-2, 2], [-2, 2]], "n": 64}, "corpus": {"seed": 7, "size": 5}},
    "heisenberg2-qcond": {
        "schema": 1, "geometry": {"name": "heisenberg", "params": {"m": 2}},
        "weight": {"name": "koranyi-gauge"}, "operation": "qcond",
        "parameters": {"tol": 1e-8}, "grid": {"bounds": [[-2, 2]] * 5, "n": 8}},
}


# p = 1.2 lies outside power_range(3), so the curvature rows are negative
# numbers, and the violation is re-checked on a second grid
@pytest.mark.parametrize("name", sorted(CLI_CONFIGS))
def test_cli_bytes_do_not_depend_on_the_path(name, tmp_path, capsys, monkeypatch):
    geo = CLI_CONFIGS[name]["geometry"]
    assert hl.make_geometry(geo["name"], **geo["params"]).drift_free
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CLI_CONFIGS[name]))
    outputs = []
    for forced_off in (False, True):
        if forced_off:
            monkeypatch.setattr(FrameDiffusion, "drift_free", False)
        out = tmp_path / f"{forced_off}.csv"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        outputs.append((code, capsys.readouterr(), out.read_bytes()))
    assert outputs[0] == outputs[1]
    _, streams, csv = outputs[0]
    assert streams.err == "" and csv.count(b"\n") > 1
