import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import hardylab as hl
from hardylab import fields
from hardylab.conditions import check_curvature, check_suffcond, qcond_report
from hardylab.errors import DomainError, UsageError
from hardylab.fields import (AffineField, ComposeField, ConstField,
                             CoordinateField, FuncField, NormField, PolyField,
                             ProductField, SquareNormField, SupportedField,
                             VectorField, as_points, bump_window_map, exp_map,
                             log_map, power_map, poly_bump_map,
                             smoothed_power_profile, smoothstep_map, with_fd)
from hardylab.inequalities import hardy_report, radial_hardy_report
from hardylab.testfunctions import (bump_corpus, polynomial_bump_corpus, random_polynomial,
                                    tensor_bump)

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


def test_polynomial_leaves_match_their_closed_forms_bit_for_bit():
    pts = RNG.uniform(-2.0, 2.0, size=(25, 3))
    pts[0] = 0.0
    n = len(pts)
    zero_grad, zero_hess = np.zeros((n, 3)), np.zeros((n, 3, 3))
    cases = [(ConstField(-1.7), np.full(n, -1.7), zero_grad),
             (ConstField(0.0), np.zeros(n), zero_grad)]
    for j in range(3):
        cases.append((CoordinateField(j), pts[:, j], np.tile(np.eye(3)[j], (n, 1))))
        w = np.zeros(3)
        w[j] = -0.5 if j < 2 else 1.0
        cases.append((AffineField(w), w[j] * pts[:, j], np.tile(w, (n, 1))))
    for field, value, grad in cases:
        assert isinstance(field, PolyField)
        assert np.array_equal(field.value(pts), value)
        assert np.array_equal(field.grad(pts), grad)
        assert np.array_equal(field.hess(pts), zero_hess)
    assert ConstField(0.0).terms == []


@pytest.mark.parametrize("weights,offset", [
    pytest.param([0.0, 0.0, -0.5], 0.0, id="leading-zeros"),
    pytest.param([0.5, 0, -0.0, 2, 0.0], 1.5, id="mixed"),
    pytest.param(np.array([0.0, 3.0, 0.0]), -1.0, id="array"),
    pytest.param([0.0] * 4, 0.0, id="all-zero"),
    pytest.param([], 2.0, id="empty"),
])
def test_affine_terms_equal_those_built_with_every_weight(weights, offset):
    every = PolyField([(w, (0,) * j + (1,)) for j, w in enumerate(weights)] + [(offset, ())])
    assert AffineField(weights, offset).terms == every.terms


def _per_term_derivatives(poly, pts):
    """Gradient and Hessian of a PolyField summed term by term: the
    reference for the evaluator built on its partial derivatives."""
    n, m = pts.shape
    grad, hess = np.zeros((n, m)), np.zeros((n, m, m))
    for c, exps in poly.terms:
        exps = exps + (0,) * (m - len(exps))
        for j in range(m):
            for k in [None, *range(m)]:
                low = list(exps)
                low[j] -= 1
                if k is not None:
                    low[k] -= 1
                fac = exps[j] * (1 if k is None else (exps[k] - (j == k)))
                if fac == 0:
                    continue
                t = np.full(n, c * fac)
                for i, e in enumerate(low):
                    if e:
                        t = t * pts[:, i] ** e
                if k is None:
                    grad[:, j] += t
                else:
                    hess[:, j, k] += t
    return grad, hess


def test_poly_derivatives_equal_per_term_sums_on_the_curvature_corpus():
    # the corpus polynomials have degree 2, where c * (a * b) == (c * a) * b
    rng = np.random.default_rng(11)
    pts = rng.uniform(-2.0, 2.0, size=(40, 3))
    for dim in (1, 2, 3):
        poly = random_polynomial(dim, 2, rng)
        grad, hess = _per_term_derivatives(poly, pts[:, :dim])
        assert np.array_equal(poly.grad(pts[:, :dim]), grad)
        assert np.array_equal(poly.hess(pts[:, :dim]), hess)


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


def test_hessian_differences_a_closed_gradient_at_second_order():
    # f = exp(x0) sin(x1) + x0 x2^2, given with its gradient only
    def fn(p):
        return np.exp(p[:, 0]) * np.sin(p[:, 1]) + p[:, 0] * p[:, 2] ** 2

    def grad_fn(p):
        e, s, c = np.exp(p[:, 0]), np.sin(p[:, 1]), np.cos(p[:, 1])
        return np.stack([e * s + p[:, 2] ** 2, e * c, 2.0 * p[:, 0] * p[:, 2]], axis=1)

    pts = RNG.uniform(-1.0, 1.0, size=(20, 3))
    e, s, c = np.exp(pts[:, 0]), np.sin(pts[:, 1]), np.cos(pts[:, 1])
    exact = np.zeros((20, 3, 3))
    exact[:, 0, 0], exact[:, 1, 1], exact[:, 2, 2] = e * s, -e * s, 2.0 * pts[:, 0]
    exact[:, 0, 1] = exact[:, 1, 0] = e * c
    exact[:, 0, 2] = exact[:, 2, 0] = 2.0 * pts[:, 2]
    errors = []
    for h in (2e-2, 1e-2):
        f = FuncField(fn, grad_fn=grad_fn, fd_step=h)
        assert f.has_closed_grad()
        errors.append(np.max(np.abs(f._hess(pts) - exact)))
    assert errors[1] < 0.3 * errors[0]


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


def test_a_lone_support_row_is_repeated_and_spreads_to_the_whole_arrays_values():
    # einsum sums a one-row array in another order, so a lone row is
    # computed twice in a two-row sub-array; both copies carry the same
    # bits, whichever of them the scatter writes last
    pts = RNG.uniform(-2, 2, size=(400, 3))
    row = 123
    box = [(c - 0.9e-3, c + 0.6e-3) for c in pts[row]]
    f = SupportedField(ProductField(random_polynomial(3, 2, RNG), tensor_bump(box)))
    assert list(f.rows_at(pts)[0]) == [row]
    on = fields.support(f, pts)
    assert list(on.rows) == [row, row] and np.array_equal(on.sub, pts[[row, row]])
    for name in ("value_at", "grad_at", "hess_at"):
        got, want = getattr(f, name)(pts), getattr(f.base, name)(pts)
        assert got[row].tobytes() == want[row].tobytes() and np.array_equal(got, want)
        # a whole-array evaluation memoizes like any field's
        assert getattr(f, name)(pts) is got


def test_field_without_support_predicate_keeps_every_row():
    f = SupportedField(ProductField(PolyField([(1.0, (1, 1, 0))]), NormField()))
    pts = RNG.uniform(-2, 2, size=(50, 3))
    assert np.array_equal(f.rows_at(pts)[0], np.arange(50))
    assert np.array_equal(f.grad_at(pts), f.base.grad_at(pts))


def test_power_map_rejects_an_exponent_whose_second_derivative_overflows():
    for p in (1e308, -1e308, 1e200):
        with pytest.raises(UsageError, match="too large"):
            power_map(p)
    power_map(1e100)  # p(p - 1) = 1e200 is still a float


# -- memo lifetime --------------------------------------------------------------

def _counted_field(calls):
    return FuncField(lambda p: calls.append(len(p)) or 2.0 * p[:, 0])


def test_a_memo_entry_survives_questions_about_other_arrays(no_cyclic_gc):
    calls = []
    f = _counted_field(calls)
    a, b = RNG.uniform(size=(5, 2)), RNG.uniform(size=(6, 2))
    for pts in (a, b, a, b, a):
        assert np.array_equal(f.value_at(pts), 2.0 * pts[:, 0])
    assert calls == [5, 6]


def test_a_memo_entry_goes_with_its_array_and_a_table_with_its_owner(no_cyclic_gc):
    f = _counted_field([])
    a, b = RNG.uniform(size=(5, 2)), RNG.uniform(size=(6, 2))
    f.value_at(a)
    f.value_at(b)
    assert set(vars(f)["_memo"]) == {id(a), id(b)}
    del a
    assert list(vars(f)["_memo"]) == [id(b)]
    # the callback holds the owner weakly: nothing keeps f alive, and b's
    # later death finds no owner
    owner = weakref.ref(f)
    del f
    assert owner() is None
    del b


def test_dropping_a_supported_field_frees_its_sub_array_and_every_entry_on_it(no_cyclic_gc):
    f = _supported_bump()
    pts = RNG.uniform(-2, 2, size=(400, 3))
    f.hess_at(pts)
    sub = weakref.ref(f.rows_at(pts)[1])
    tree, todo = [], [f]
    while todo:
        node = todo.pop()
        tree.append(node)
        todo.extend(v for v in vars(node).values() if isinstance(v, fields.ScalarField))
    assert all(ref() is sub() for node in tree[1:] for ref, _ in vars(node)["_memo"].values())
    bump, tree = weakref.ref(f), tree[1:]
    del f
    assert bump() is None and sub() is None
    assert not any(vars(node).get("_memo") for node in tree)


def test_threads_freeing_arrays_never_read_each_others_entries():
    # a freed array's id is reused at once; threads racing to make, read and
    # free arrays on one field must each read their own values, and the table
    # must be empty once the last array is gone
    f = FuncField(lambda p: p[:, 0] + p[:, 1])

    def job(seed):
        rng = np.random.default_rng(seed)
        for _ in range(300):
            pts = rng.uniform(size=(int(rng.integers(1, 6)), 2))
            assert np.array_equal(f.value_at(pts), pts[:, 0] + pts[:, 1])
        return True

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(job, seed) for seed in range(6)]
            assert all(fut.result(timeout=60) for fut in futures)
    finally:
        sys.setswitchinterval(old)
    assert not vars(f)["_memo"]


# -- row blocks -----------------------------------------------------------------

def _koranyi():
    geo = hl.make_geometry("heisenberg", m=1)
    return geo, hl.make_weight(geo, "koranyi-gauge").psi


@pytest.mark.parametrize("n,blocks", [
    pytest.param(5, [5], id="fewer-rows-than-a-block"),
    pytest.param(7, [7], id="one-block"),
    pytest.param(21, [7, 7, 7], id="exact-multiple"),
    pytest.param(15, [7, 8], id="one-row-tail"),
    pytest.param(16, [7, 7, 2], id="two-row-tail"),
])
def test_blockwise_equals_one_whole_array_pass_bit_for_bit(monkeypatch, n, blocks):
    monkeypatch.setattr(fields, "BLOCK_ROWS", 7)
    pts = RNG.uniform(-2.0, 2.0, size=(n, 3))
    geo, psi = _koranyi()
    whole = (psi.value_at(pts), psi.grad_at(pts), psi.hess_at(pts),
             geo.gamma(psi, psi, pts), geo.apply_L(psi, pts))
    geo, psi = _koranyi()
    seen = []

    def per_node(p):
        seen.append((len(p), p.flags.c_contiguous, p is pts))
        return (psi.value_at(p), psi.grad_at(p), psi.hess_at(p), geo.gamma(psi, psi, p),
                geo.apply_L(psi, p))

    got = fields.blockwise(per_node, pts)
    assert [rows for rows, _, _ in seen] == blocks
    assert all(contiguous for _, contiguous, _ in seen)
    # every block is a new array object, also the only one, so no memo
    # entry made inside a pass outlives it
    assert not any(same for _, _, same in seen)
    for a, b in zip(got, whole):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    single = fields.blockwise(lambda p: psi.value_at(p), pts)
    assert single.tobytes() == whole[0].tobytes()


def _concatenated(fn, pts):
    """A blocked pass that holds every block's result, then concatenates."""
    starts = list(range(0, len(pts), fields.BLOCK_ROWS))
    if len(starts) > 1 and len(pts) - starts[-1] < 2:
        starts.pop()
    parts = [fn(np.ascontiguousarray(pts[a:b]))
             for a, b in zip(starts, starts[1:] + [len(pts)])]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(items) for items in zip(*parts))
    return np.concatenate(parts)


@pytest.mark.parametrize("n", [15, 16, 21, 30])
@pytest.mark.parametrize("kind", ["array", "tuple", "boolean"])
def test_blockwise_fills_the_same_bytes_and_dtypes_as_a_concatenation(monkeypatch, n, kind):
    monkeypatch.setattr(fields, "BLOCK_ROWS", 7)
    pts = RNG.uniform(-2.0, 2.0, size=(n, 3))
    pts[RNG.random(pts.shape) < 0.1] = -0.0

    def per_node(p):
        geo, psi = _koranyi()
        if kind == "array":
            return geo.gamma(psi, psi, p)
        if kind == "boolean":
            return psi.value_at(p) > 1.0
        return psi.value_at(p), psi.hess_at(p), geo.apply_L(psi, p), geo.mask(p)

    got, want = fields.blockwise(per_node, pts), _concatenated(per_node, pts)
    got, want = (got, want) if kind == "tuple" else ((got,), (want,))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if kind == "boolean":
        assert got[0].dtype == bool


def test_a_blocked_pass_evaluates_frame_values_on_its_blocks_only(monkeypatch):
    monkeypatch.setattr(fields, "BLOCK_ROWS", 7)
    geo, psi = _koranyi()
    pts = RNG.uniform(-2.0, 2.0, size=(30, 3))
    rows = []
    coeff_values = VectorField.coeff_values
    monkeypatch.setattr(VectorField, "coeff_values",
                        lambda self, p: rows.append(len(p)) or coeff_values(self, p))
    fields.blockwise(lambda p: geo.gamma(psi, psi, p), pts)
    # each of the two frame fields once per block, never on the whole array
    assert rows == [7, 7, 7, 7, 7, 7, 7, 7, 2, 2]


# (nodes per axis) of a bump's support box on the n=12 Heisenberg grid, and
# its row blocks at BLOCK_ROWS = 7
SUPPORT_SHAPES = {"one-row-tail": ((3, 3, 4), [7, 7, 7, 7, 8]),
                  "two-row-tail": ((2, 3, 5), [7, 7, 7, 7, 2]),
                  "single-row": ((1, 1, 1), [2])}


def _curvature_case(shape):
    """Fresh (geometry, W, grid, bump) on a 12^3 Heisenberg grid, the bump a
    random quadratic times a tensor bump whose box holds exactly the nodes
    ``shape`` (from the lattice's 8th node on each axis, clear of the
    excision), so that no memo entry carries over between calls."""
    geo = hl.make_geometry("heisenberg", m=1)
    w = hl.make_weight(geo, "koranyi-gauge")
    grid = hl.default_grid(geo, w, bounds=[(-2, 2)] * 3, n=12)
    box = [(lo + 7 * h, lo + (7 + k) * h)
           for (lo, _), h, k in zip(grid.bounds, grid.spacing, shape)]
    poly = random_polynomial(3, 2, np.random.default_rng(sum(shape)))
    f = SupportedField(ProductField(poly, tensor_bump(box)))
    return geo, ComposeField(power_map(0.5), w.psi), grid, f


def _gamma_w_and_curvature(shape):
    geo, W, grid, f = _curvature_case(shape)
    assert len(f.rows_at(grid.points)[0]) == np.prod(shape)
    return (hl.gamma_w(geo, W, f, grid.points).tobytes(),
            check_curvature(geo, W, f, 0.0, grid), check_curvature(geo, W, f, 1e4, grid))


@pytest.mark.parametrize("case", SUPPORT_SHAPES)
def test_blocked_gamma_w_equals_the_default_block_size_bit_for_bit(monkeypatch, case):
    shape, blocks = SUPPORT_SHAPES[case]
    default = _gamma_w_and_curvature(shape)
    monkeypatch.setattr(fields, "BLOCK_ROWS", 7)
    assert _gamma_w_and_curvature(shape) == default
    # the bump's pass really ends in the tail under test
    geo, W, grid, f = _curvature_case(shape)
    sizes = []
    monkeypatch.setattr(hl.calculus, "blockwise", lambda fn, p: fields.blockwise(
        lambda b: sizes.append(len(b)) or fn(b), p))
    hl.gamma_w(geo, W, f, grid.points)
    assert sizes[-len(blocks):] == blocks


def test_a_curvature_check_evaluates_frame_values_on_blocks_only(monkeypatch):
    monkeypatch.setattr(fields, "BLOCK_ROWS", 7)
    geo, W, grid, f = _curvature_case(SUPPORT_SHAPES["one-row-tail"][0])
    rows = []
    coeff_values = VectorField.coeff_values
    monkeypatch.setattr(VectorField, "coeff_values",
                        lambda self, p: rows.append(len(p)) or coeff_values(self, p))
    check_curvature(geo, W, f, 0.0, grid)
    # L(W^2) on the grid's blocks, then the bump's 36 rows as 7 + 7 + 7 + 7 + 8
    assert max(rows) <= fields.BLOCK_ROWS + 1
    assert rows[-10:] == [7, 7, 7, 7, 7, 7, 7, 7, 8, 8]


def _pointwise_results():
    """Every blocked pass on small grids, each from freshly built objects so
    that no per-(grid, weight) memo carries over between calls."""
    geo = hl.make_geometry("heisenberg", m=1)
    w = hl.make_weight(geo, "koranyi-gauge")
    grid = hl.default_grid(geo, w, bounds=[(-2, 2)] * 3, n=20)
    W = ComposeField(power_map(0.5), w.psi)
    f = polynomial_bump_corpus(grid, 1, 3)[0]
    bump = bump_corpus(w.psi, grid, 1, 3, (0.6, 1.8))[0]
    eu = hl.make_geometry("euclidean", m=3)
    r = hl.make_weight(eu, "euclid-norm")
    eu_grid = hl.default_grid(eu, r, bounds=[(-2, 2)] * 3, n=16)
    eu_bump = bump_corpus(r.psi, eu_grid, 1, 3, (0.6, 1.6))[0]
    return (qcond_report(geo, w, grid).summary(), check_suffcond(geo, W, grid, 0.0),
            check_curvature(geo, W, f, 0.0, grid),
            hardy_report(geo, w, 4.0, 0.0, bump, grid).row(),
            radial_hardy_report(eu, r, 3.0, 0.0, eu_bump, eu_grid).row())


def test_reports_at_a_tiny_block_size_equal_the_default_exactly(monkeypatch):
    default = _pointwise_results()
    monkeypatch.setattr(fields, "BLOCK_ROWS", 7)
    assert _pointwise_results() == default
