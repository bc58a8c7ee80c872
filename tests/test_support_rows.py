"""Reports and curvature checks on a bump's support rows equal the whole grid.

``inequalities._form`` and ``conditions.check_curvature`` compute a
supported test function's terms on its support rows, gather the weight-side
terms there and sum (or take the minimum of) one full-length array, zero off
the rows.  Each test here rebuilds the same quantity the way the whole-grid
code did: every integrand over all nodes, from the full-size arrays a
supported field scatters, then ``grid.integrate`` (or ``np.min``).  lhs, rhs,
ratio and defect must match byte for byte (``tobytes``, so the sign of a zero
counts), and an error must be the same error.

The corpus half checks that a candidate's rows, found from its tensor box
through the grid's index map, are the rows the bump maps' predicates pick on
the whole grid, and that the corpus builders accept the same bumps after the
same number of draws as a whole-grid acceptance loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hardylab as hl
from hardylab import conditions, testfunctions
from hardylab import inequalities as ineq
from hardylab.errors import NumericError, PreconditionError, UsageError
from hardylab.fields import SupportedField, bump_window_map, squared
from hardylab.grid import ball_excision, integrate, make_grid
from hardylab.operators import dilation_operator
from hardylab.testfunctions import bump_corpus, polynomial_bump_corpus, tensor_bump


def _setup(geometry, params, weight, radius=None):
    geo = hl.make_geometry(geometry, **params)
    w = hl.make_weight(geo, weight)
    return geo, w, hl.default_grid(geo, w, bounds=[(-2, 2)] * geo.dim, n=20,
                                   excision_radius=radius)


SETUPS = {"heisenberg": _setup("heisenberg", {"m": 1}, "koranyi-gauge"),
          "euclidean": _setup("euclidean", {"m": 3}, "euclid-norm", 0.25)}
# psi-ranges on either side of {psi = 1}, clear of the excision's fringe
LOG_RANGES = {"heisenberg": ((0.4, 0.95), (1.05, 1.8)),
              "euclidean": ((0.7, 0.97), (1.05, 1.8))}


def _one_row_bump(grid, pv, level):
    """A tensor bump whose support holds the one node nearest psi = level
    that is at least 3 layers from any missing neighbor, off its centre."""
    far = grid.interior_depth(3) >= 3
    row = int(np.argmin(np.abs(pv - level) + 10.0 * ~far))
    x, h = grid.points[row], grid.spacing
    f = SupportedField(tensor_bump([(c - 0.9 * s, c + 0.6 * s) for c, s in zip(x, h)]))
    assert list(f.rows_at(grid.points)[0]) == [row]
    return f


def _bumps(name, psi_range, size=3, seed=5):
    """Corpus bumps in psi_range, the one-row bump and a bump touching the
    grid's boundary."""
    geo, w, grid = SETUPS[name]
    pv = w.psi.value_at(grid.points)
    bumps = bump_corpus(w.psi, grid, size, seed, psi_range)
    bumps.append(_one_row_bump(grid, pv, 0.5 * (psi_range[0] + psi_range[1])))
    bumps.append(SupportedField(tensor_bump([(-2.0, -0.5), (-1.0, 1.0), (-1.0, 1.0)])))
    return bumps


def _sides_of(rep):
    return rep.lhs, rep.rhs, rep.ratio


def _outcome(run):
    """The bytes of a report's lhs, rhs and ratio (or of a defect), or the
    error's type and message."""
    try:
        result = run()
    except (NumericError, PreconditionError, UsageError) as exc:
        return type(exc), str(exc)
    values = result if isinstance(result, tuple) else (result,)
    return tuple(None if v is None else np.float64(v).tobytes() for v in values)


def _whole_supports(grid, f, rel_tol=1e-12):
    """Grid.supports from f's full-size values on every node."""
    vals = np.abs(f.value_at(grid.points))
    scale = float(np.max(vals))
    return scale == 0.0 or bool(np.all(vals[grid.fringe_mask()] <= rel_tol * scale))


def _whole_form(grid, f, sides):
    """The whole-grid core: every integrand on all nodes, then integrate."""
    if not _whole_supports(grid, f):
        raise PreconditionError("test function support touches the grid boundary "
                                "or an excised region")
    pts = grid.points
    fv = f.value_at(pts)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs_terms, rhs_terms = sides(pts, fv)
        lhs = _sum(grid, [(a, ineq._masked_product(fv ** 2, v)) for a, v in lhs_terms])
        rhs = _sum(grid, rhs_terms)
    return lhs, rhs, lhs / rhs if rhs > 0 else None


def _sum(grid, terms):
    values = [c * integrate(grid, vals) for c, vals in terms]
    return sum(values[1:], values[0])


def _log_terms(const, alpha, pv, w, num, den, energy, fv):
    nz = fv != 0.0
    if np.any(pv[nz] < 1.0) and np.any(pv[nz] > 1.0):
        raise PreconditionError("support crosses the level set {psi = 1}")
    logs = ineq._masked_log(fv, pv)
    lhs = w * np.abs(logs) ** alpha * num / (den * logs ** 2)
    rhs = ineq._masked_product(energy, w * np.abs(ineq._masked_log(energy, pv)) ** alpha)
    return [(1.0, lhs)], [(const, rhs)]


def _cases(name):
    """(family, psi_range, report(f), whole-grid reference(f)) on one setup."""
    geo, w, grid = SETUPS[name]
    psi, Q = w.psi, w.claimed_Q
    dil = dilation_operator(geo)
    W = psi ** 0.5
    gam = lambda f, g, pts: geo.gamma(f, g, pts)  # noqa: E731
    cases = []

    def add(family, psi_range, report, sides):
        cases.append((family, psi_range, lambda f: _sides_of(report(f)),
                      lambda f: _whole_form(grid, f, lambda pts, fv: sides(f, pts, fv))))

    for alpha in (0.0, 0.5):
        const = ineq._hardy_constant(Q, alpha, "")

        def hardy(f, pts, fv, alpha=alpha, const=const):
            pv = psi.value_at(pts)
            pa = pv ** alpha
            return ([(1.0, pa * gam(psi, psi, pts) / pv ** 2)],
                    [(const, pa * gam(f, f, pts))])

        add(f"hardy-{alpha}", (0.6, 1.8),
            lambda f, alpha=alpha: hl.hardy_report(geo, w, Q, alpha, f, grid), hardy)

    alpha = 0.5
    log_const = ineq._log_constant(alpha)
    for lo_hi in LOG_RANGES[name]:
        def log_hardy(f, pts, fv):
            pv = psi.value_at(pts)
            return _log_terms(log_const, alpha, pv, 1.0, gam(psi, psi, pts), pv ** 2,
                              gam(f, f, pts), fv)

        def weighted_log(f, pts, fv):
            pv = psi.value_at(pts)
            return _log_terms(log_const, alpha, pv, pv ** (2.0 - Q), gam(psi, psi, pts),
                              pv ** 2, gam(f, f, pts), fv)

        def dilation_log(f, pts, fv):
            ineq._require_euler(geo, dil, psi, pts)
            pv = psi.value_at(pts)
            return _log_terms(log_const, alpha, pv, pv ** (-dil.Q_hom), 1.0, 1.0,
                              dil.dilation.apply(f, pts) ** 2, fv)

        add(f"log-hardy{lo_hi}", lo_hi,
            lambda f: hl.log_hardy_report(geo, w, alpha, f, grid), log_hardy)
        add(f"weighted-log-hardy{lo_hi}", lo_hi,
            lambda f: hl.weighted_log_hardy_report(geo, w, Q, alpha, f, grid), weighted_log)
        add(f"dilation-log{lo_hi}", lo_hi,
            lambda f: hl.dilation_log_hardy_report(geo, w, alpha, f, grid), dilation_log)
        if name == "euclidean":
            def radial_log(f, pts, fv):
                pv = psi.value_at(pts)
                return _log_terms(log_const, alpha, pv, pv ** (2.0 - Q),
                                  gam(psi, psi, pts) ** 2, pv ** 2, gam(psi, f, pts) ** 2, fv)

            add(f"radial-log{lo_hi}", lo_hi,
                lambda f: hl.radial_log_hardy_report(geo, w, Q, alpha, f, grid), radial_log)

    radial_const = ineq._hardy_constant(Q, 0.5, "")

    def radial(f, pts, fv):
        ineq._require_secondary(geo, psi, pts)
        pv = psi.value_at(pts)
        pa = pv ** 0.5
        return ([(1.0, pa * gam(psi, psi, pts) ** 2 / pv ** 2)],
                [(radial_const, pa * gam(psi, f, pts) ** 2)])

    add("radial", (0.6, 1.8), lambda f: hl.radial_hardy_report(geo, w, Q, 0.5, f, grid),
        radial)

    dconst = (2.0 / (dil.Q_hom + 0.5)) ** 2

    def dilation(f, pts, fv):
        ineq._require_euler(geo, dil, psi, pts)
        pa = psi.value_at(pts) ** 0.5
        return [(1.0, pa)], [(dconst, pa * dil.dilation.apply(f, pts) ** 2)]

    add("dilation", (0.6, 1.8), lambda f: hl.dilation_hardy_report(geo, w, 0.5, f, grid),
        dilation)

    def homo_norm(f, pts, fv):
        # the kappa estimates are the report's own, memoized on the weight
        hconst = hl.homogeneous_norm_report(geo, w, f, grid).constant_used
        return [(1.0, 1.0 / psi.value_at(pts) ** 2)], [(hconst, gam(f, f, pts))]

    add("homo-norm", (0.6, 1.8), lambda f: hl.homogeneous_norm_report(geo, w, f, grid),
        homo_norm)

    def funcineq(f, pts, fv, gamma=0.3):
        wv2 = W.value_at(pts) ** 2
        return ([(1.0, geo.apply_L(squared(W), pts))],
                [(2.0, wv2 * gam(f, f, pts)),
                 (-2.0 * gamma, ineq._masked_product(fv ** 2, wv2))])

    add("funcineq", (0.6, 1.8), lambda f: hl.funcineq_report(geo, W, 0.3, f, grid),
        funcineq)

    def funcineq_general(f, pts, fv, beta=0.3):
        wv = W.value_at(pts)
        return ([(1.0 - beta, wv ** (1.0 - 2.0 * beta) * geo.apply_L(W, pts)),
                 (beta ** 2 - beta + 1.0, wv ** (-2.0 * beta) * gam(W, W, pts))],
                [(1.0, ineq._masked_product(gam(f, f, pts), wv ** (2.0 - 2.0 * beta)))])

    add("funcineq-general", (0.6, 1.8),
        lambda f: hl.funcineqgeneral_report(geo, W, 0.3, f, grid), funcineq_general)

    # an unsupported test function runs the same path on every row
    def unsupported(f, pts, fv):
        return hardy(f, pts, fv, 0.0, ineq._hardy_constant(Q, 0.0, ""))

    cases.append(("hardy-unsupported", (0.6, 1.8),
                  lambda f: _sides_of(hl.hardy_report(geo, w, Q, 0.0, f.base, grid)),
                  lambda f: _whole_form(grid, f.base, lambda pts, fv: unsupported(
                      f.base, pts, fv))))
    return cases


CASES = [pytest.param(name, *case, id=f"{name}-{case[0]}")
         for name in SETUPS for case in _cases(name)]


@pytest.mark.parametrize("name,family,psi_range,report,reference", CASES)
def test_a_report_on_support_rows_equals_the_whole_grid_byte_for_byte(
        name, family, psi_range, report, reference):
    outcomes = [(_outcome(lambda: report(f)), _outcome(lambda: reference(f)))
                for f in _bumps(name, psi_range)]
    for got, want in outcomes:
        assert got == want
    # the boundary bump fails its support check in both
    assert outcomes[-1][0] == (PreconditionError, "test function support touches "
                               "the grid boundary or an excised region")
    if family.startswith(("hardy", "funcineq", "log", "weighted")):
        assert all(isinstance(got[0], bytes) for got, _ in outcomes[:-1])


def test_one_row_supports_give_the_whole_arrays_values_at_many_nodes():
    """A lone support row is computed twice in a two-row sub-array: einsum
    sums the three squares of a one-row array in another order, which
    changes the last bit at some of these nodes."""
    geo, w, grid = SETUPS["euclidean"]
    pts, h = grid.points, grid.spacing
    rng = np.random.default_rng(1)
    rows = rng.choice(np.flatnonzero(grid.interior_depth(3) >= 3), 40, replace=False)
    const = ineq._hardy_constant(3.0, 0.5, "")

    def hardy(f, pts, fv):
        pa = w.psi.value_at(pts) ** 0.5
        return ([(1.0, pa * geo.gamma(w.psi, w.psi, pts) / w.psi.value_at(pts) ** 2)],
                [(const, pa * geo.gamma(f, f, pts))])

    for row in rows:
        lo, hi = rng.uniform(0.55, 0.95, 3), rng.uniform(0.55, 0.95, 3)
        f = SupportedField(tensor_bump(list(zip(pts[row] - lo * h, pts[row] + hi * h))))
        assert list(f.rows_at(pts)[0]) == [row]
        assert geo.gamma(f, f, pts).tobytes() == geo.gamma(f.base, f.base, pts).tobytes()
        assert (_outcome(lambda: _sides_of(hl.hardy_report(geo, w, 3.0, 0.5, f, grid)))
                == _outcome(lambda: _whole_form(grid, f, lambda p, fv: hardy(f, p, fv))))


def _whole_curvature(geo, W, f, gamma, grid):
    pts = grid.points
    W2 = squared(W)
    fv = f.value_at(pts)
    val = 0.5 * (geo.apply_L(W2, pts) * fv ** 2 + 2.0 * geo.gamma(W2, squared(f), pts)
                 + 2.0 * W2.value_at(pts) * geo.gamma(f, f, pts))
    if not np.all(np.isfinite(val)):
        raise NumericError("non-finite value in Gamma^W(f)")
    phi = (W.value_at(pts) * fv) ** 2
    with np.errstate(over="ignore"):
        return float(np.min(val - gamma * phi))


@pytest.mark.parametrize("name", list(SETUPS))
@pytest.mark.parametrize("p,gamma", [(0.5, 0.0), (-0.7, 0.0), (1.2, -0.25), (0.5, 1e308)])
def test_a_curvature_check_on_support_rows_equals_the_whole_grid_byte_for_byte(
        name, p, gamma):
    geo, w, grid = SETUPS[name]
    W = w.psi ** p
    bumps = polynomial_bump_corpus(grid, 3, seed=4)
    bumps.append(_one_row_bump(grid, w.psi.value_at(grid.points), 1.2))
    with np.errstate(over="ignore", invalid="ignore"):
        for f in bumps:
            got = _outcome(lambda: conditions.check_curvature(geo, W, f, gamma, grid))
            want = _outcome(lambda: _whole_curvature(geo, W, f, gamma, grid))
            assert got == want
            assert isinstance(got[0], bytes)
            # gamma_w spreads the same values
            full = hl.gamma_w(geo, W, f, grid.points)
            assert full.tobytes() == (0.5 * (
                geo.apply_L(squared(W), grid.points) * f.value_at(grid.points) ** 2
                + 2.0 * geo.gamma(squared(W), squared(f), grid.points)
                + 2.0 * squared(W).value_at(grid.points) * geo.gamma(f, f, grid.points))
            ).tobytes()


def test_a_weight_not_finite_off_the_rows_raises_the_whole_grids_numeric_error():
    """psi^1e308 and psi^1000 overflow where psi > 1 (psi > 2) and are finite
    on bumps inside psi < 0.95, so only nodes off the bumps' rows are not
    finite: the whole-grid integrand is psi^a 0 = NaN there."""
    geo, w, grid = SETUPS["heisenberg"]
    psi = w.psi
    assert np.max(psi.value_at(grid.points)) > 2.1
    W = psi ** 1000
    dil = dilation_operator(geo)
    gam = geo.gamma

    def hardy(f, pts, fv):
        pa = psi.value_at(pts) ** 1e308
        return ([(1.0, pa * gam(psi, psi, pts) / psi.value_at(pts) ** 2)],
                [(1.0, pa * gam(f, f, pts))])

    def funcineq(f, pts, fv):
        wv2 = W.value_at(pts) ** 2
        return ([(1.0, geo.apply_L(squared(W), pts))],
                [(2.0, wv2 * gam(f, f, pts)), (-0.0, ineq._masked_product(fv ** 2, wv2))])

    def dilation(f, pts, fv):
        pa = psi.value_at(pts) ** 1e308
        return [(1.0, pa)], [(1.0, pa * dil.dilation.apply(f, pts) ** 2)]

    checks = [(lambda f: hl.hardy_report(geo, w, 4.0, 1e308, f, grid), hardy),
              (lambda f: hl.funcineq_report(geo, W, 0.0, f, grid), funcineq),
              (lambda f: hl.dilation_hardy_report(geo, w, 1e308, f, grid), dilation)]
    error = (NumericError, "non-finite integrand value at a grid node")
    with np.errstate(over="ignore", invalid="ignore"):
        for f in bump_corpus(psi, grid, 2, 5, (0.4, 0.95)):
            rows = f.rows_at(grid.points)[0]
            assert np.all(np.isfinite(W.value_at(grid.points)[rows]))
            for report, sides in checks:
                assert _outcome(lambda: _sides_of(report(f))) == error
                assert _outcome(lambda: _whole_form(
                    grid, f, lambda pts, fv: sides(f, pts, fv))) == error
            assert _outcome(lambda: conditions.check_curvature(geo, W, f, 0.0, grid)) == \
                _outcome(lambda: _whole_curvature(geo, W, f, 0.0, grid)) == \
                (NumericError, "non-finite value in Gamma^W(f)")


# -- the corpus --------------------------------------------------------------

GRIDS = {
    "euclidean-1": lambda: make_grid(hl.make_geometry("euclidean", m=1), [(-2.0, 2.0)], n=37),
    "euclidean-2": lambda: make_grid(
        hl.make_geometry("euclidean", m=2), [(-2.0, 2.0), (-1.0, 3.0)], n=(23, 17),
        excisions=[ball_excision([0.3, 1.1], 0.7)]),
    "heisenberg-3": lambda: hl.default_grid(
        *(lambda g: (g, hl.make_weight(g, "koranyi-gauge")))(
            hl.make_geometry("heisenberg", m=1)), bounds=[(-2, 2)] * 3, n=(11, 13, 9)),
}
BUILT = {}


def _grid(name):
    if name not in BUILT:
        BUILT[name] = GRIDS[name]()
    return BUILT[name]


@st.composite
def _boxes(draw):
    """A grid and a box on it: each edge a lattice node's coordinate plus an
    offset within about half a cell (exact nodes and near-ties included), a
    width from far below one cell to beyond the grid."""
    name = draw(st.sampled_from(sorted(GRIDS)))
    grid = _grid(name)
    box = []
    offsets = st.one_of(st.sampled_from([0.0, 0.5, -0.5, 1e-12, -1e-12]),
                        st.floats(-0.55, 0.55))
    for (lo, _), h, k in zip(grid.bounds, grid.spacing, grid.shape):
        i = draw(st.integers(-2, k + 1))
        a = lo + (i + 0.5) * h + draw(offsets) * h
        width = draw(st.one_of(st.floats(1e-6, 0.99), st.floats(1.0, k + 3.0))) * h
        box.append((a, a + width))
    return name, box


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_boxes())
def test_box_rows_hold_exactly_the_rows_the_predicates_pick_on_the_whole_grid(case):
    name, box = case
    grid = _grid(name)
    pts = grid.points
    inside = np.ones(grid.n_nodes, dtype=bool)
    for i, (a, b) in enumerate(box):
        inside &= bump_window_map(a, b).inside(pts[:, i])
    want = np.flatnonzero(inside)
    candidates = grid.box_rows(box)
    assert np.all(np.diff(candidates) > 0)
    assert np.isin(want, candidates).all()
    f = SupportedField(tensor_bump(box))
    rows, sub = f.rows_at(pts, within=candidates)
    assert np.array_equal(rows, want) and np.array_equal(sub, pts[want])


def _whole_grid_corpus(grid, n, seed, draw, floor):
    """The acceptance loop on every node: rows, floor test and support
    check all from the bump's full-size values."""
    rng = np.random.default_rng(seed)
    out, attempts = [], 0
    while len(out) < n:
        attempts += 1
        if attempts > 50 * n:
            raise UsageError("could not place the requested corpus inside the grid")
        base, _ = draw(rng)
        f = SupportedField(base)
        if (np.abs(f.value_at(grid.points)).max() > floor
                and _whole_supports(grid, f)):
            out.append(f)
    return out, attempts


@pytest.mark.parametrize("seed", [3, 7, 11])
@pytest.mark.parametrize("name,build", [
    ("heisenberg", lambda w, grid, seed: bump_corpus(w.psi, grid, 20, seed, (0.6, 1.8))),
    ("euclidean", lambda w, grid, seed: bump_corpus(w.psi, grid, 20, seed, (0.5, 1.6))),
    ("heisenberg", lambda w, grid, seed: polynomial_bump_corpus(grid, 20, seed)),
], ids=["heisenberg-bump", "euclidean-bump", "heisenberg-polynomial"])
def test_the_corpus_accepts_the_whole_grid_loops_bumps_after_as_many_draws(
        monkeypatch, seed, name, build):
    _, w, grid = SETUPS[name]
    draws = []
    box = testfunctions._interior_box

    def counted(*args):
        draws.append(1)
        return box(*args)

    monkeypatch.setattr(testfunctions, "_interior_box", counted)
    got = build(w, grid, seed)
    attempts = len(draws)
    whole = {}

    def reference(grid, n, seed, draw, floor):
        whole["corpus"], whole["attempts"] = _whole_grid_corpus(grid, n, seed, draw, floor)
        return whole["corpus"]

    monkeypatch.setattr(testfunctions, "_corpus", reference)
    want = build(w, grid, seed)
    assert attempts == whole["attempts"]
    assert len(got) == len(want) == 20
    for f, g in zip(got, want):
        assert np.array_equal(f.rows_at(grid.points)[0], g.rows_at(grid.points)[0])
        assert f.value_at(grid.points).tobytes() == g.value_at(grid.points).tobytes()
