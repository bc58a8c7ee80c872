"""Scalar and vector fields with exact or finite-difference derivative oracles.

A :class:`ScalarField` is an evaluable real function on R^m exposing value,
gradient and Hessian at batches of points.  Fields built from the closed-form
leaves below (coordinates, polynomials, norms) and combined with ``+ - * /``,
powers and smooth 1D compositions keep exact derivatives through the usual
calculus rules.  Fields lacking a closed form fall back to central differences
of order 2 with step ``fd_step``; :func:`with_fd` forces that mode for any
field, which is how the difference-oracle refinement studies are run.

The polynomial leaves share one evaluator: ``ConstField``, ``CoordinateField``
and ``AffineField`` only build the term list of a :class:`PolyField`, whose
gradient and Hessian are the values of its own partial derivatives.
``NormField`` and ``SquareNormField`` stay separate: the norm is not a
polynomial, and with ``indices=None`` both act on every coordinate of
whatever points they are given, which a fixed term list cannot say.

``value``/``grad``/``hess``/``mask`` accept a single point of shape ``(m,)``
or a batch of shape ``(n, m)``; every other method takes a batch.  All are
pure, so fields are safe to share across threads.

Compactly supported fields can be wrapped in :class:`SupportedField`.  Its
rows on a points array are a superset of the points where the value,
gradient or Hessian can be non-zero, read off the ``inside`` predicates of
the bump maps in the expression tree (run on every row, or only on rows a
caller knows to hold the support: the corpus passes a bump's tensor box).
Per-bump work runs on those rows (:func:`support`), with weight-side terms
gathered from their whole-grid memo entries; only a final reduction over
the nodes (a quadrature sum, a minimum) sees a full-length array, zero off
the rows, so numpy reduces the same array as with whole-grid values.  A
memo entry (:func:`memo`) lives as long as its points array.  A supported
field memoizes its rows and sub-array, and its tree the values on that
sub-array; evaluated on a whole array, it memoizes like any field, which
only a semigroup's initial state does.  The sub-array lives in the field's
own table, so when the last reference to the field goes, the sub-array
goes, and with it every entry on it, also those of shared fields (a weight
psi), whose entries on the whole grid stay.

Passes that only need each node's own value, gradient and Hessian run in
row blocks of at most about ``BLOCK_ROWS`` = 4,096 nodes
(:func:`blockwise`): the domain mask and excisions of ``grid.make_grid``,
the comparison ratio of ``conditions.qcond_ratios``, ``suffcond_values``,
``calculus.l_of_square``, the weight-side terms of ``inequalities`` (psi
too, :func:`value_in_blocks`), ``catalog.estimate_kappa``, and the per-bump
Gamma(W^2, f^2) and Gamma(f) of ``calculus.gamma_w_rows``, in blocks of the
bump's sub-array.  Each block is a new array object, at every array size,
freed with its memo entries once its part is done, so a tree holds one
block's arrays at a time, not the whole grid's.  A block's values,
gradients and Hessians down the tree of W^2 are the largest arrays a sweep
holds, and a curvature check's gradients and frame coefficients on a bump's
rows the largest it holds per bump, so the block size bounds their peak
memory.  Smaller blocks cost more per-block overhead: 2,048-row blocks ran
a 512,000-node qcond pass about 12% slower.  The results are bit-identical
to one whole-array pass: every operation on a row depends on that row
alone, each block is C-contiguous like the grid, so einsum sums in the same
order, and a block of a longer array has at least 2 rows, since einsum sums
a one-row array in another order.  Reductions over the nodes (min, max,
mean, sum) run once, on the whole output array, because numpy's pairwise
sums depend on the length.
"""

from __future__ import annotations

import weakref
from typing import NamedTuple

import numpy as np

from .errors import DomainError, UsageError

DEFAULT_FD_STEP = 1e-4
BLOCK_ROWS = 4096


def memo(owner, key, pts, fn):
    """``fn(pts)``, cached on ``owner`` under ``key`` while ``pts`` lives.

    ``owner.__dict__["_memo"]`` maps ``id(pts)`` to (weak reference to pts,
    {key: value}); the reference's callback removes the entry when pts is
    freed.  It reaches the owner only through a weak reference, so a dropped
    table is freed at once, with no reference cycle.  Two threads may
    compute the same entry at once; both store the same value.
    """
    table = owner.__dict__.setdefault("_memo", {})
    entry = table.get(id(pts))
    if entry is None or entry[0]() is not pts:
        entry = table[id(pts)] = (weakref.ref(pts, _evict(weakref.ref(owner), id(pts))), {})
    values = entry[1]
    if key not in values:
        values[key] = fn(pts)
    return values[key]


def _evict(owner_ref, key):
    """A callback removing the owner's entry ``key``, unless a newer one took it."""
    def callback(ref):
        table = getattr(owner_ref(), "__dict__", {}).get("_memo", {})
        if table.get(key, (None,))[0] is ref:
            table.pop(key, None)
    return callback


def blockwise(fn, pts):
    """``fn(pts)`` for a per-node ``fn``, evaluated on C-contiguous blocks of
    ``BLOCK_ROWS`` rows (item by item when ``fn`` returns a tuple of arrays).
    The outputs are allocated once, from the first block's shapes and dtypes,
    and each block's results are written into them in place, so no block's
    result outlives its turn.  A tail of fewer than 2 rows joins the block
    before it.  See the module doc for why the result equals ``fn(pts)`` bit
    for bit."""
    starts = list(range(0, len(pts), BLOCK_ROWS)) or [0]
    if len(starts) > 1 and len(pts) - starts[-1] < 2:
        starts.pop()
    outs = None
    for a, b in zip(starts, starts[1:] + [len(pts)]):
        part = fn(np.ascontiguousarray(pts[a:b]))
        items = part if isinstance(part, tuple) else (part,)
        if outs is None:
            outs = tuple(np.empty((len(pts),) + x.shape[1:], dtype=x.dtype) for x in items)
        for out, x in zip(outs, items):
            out[a:b] = x
    return outs if isinstance(part, tuple) else outs[0]


def as_points(x, dim: int | None = None):
    """Normalize ``x`` to a float array of shape (n, m).

    Returns ``(points, single)`` where ``single`` records that the input was a
    bare point of shape (m,).
    """
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if pts.ndim != 2:
        raise DomainError(f"points must have shape (m,) or (n, m), got {pts.shape}")
    if dim is not None and pts.shape[1] != dim:
        raise DomainError(f"points have dimension {pts.shape[1]}, expected {dim}")
    return pts, single


# ---------------------------------------------------------------------------
# Smooth 1D maps (for compositions and chain rules)
# ---------------------------------------------------------------------------

class SmoothMap:
    """A twice-differentiable map R -> R with explicit first two derivatives.

    ``domain_positive`` marks maps only smooth on u > 0 (log, fractional or
    negative powers); compositions propagate it into the field mask.
    ``inside``, when given, is a predicate on u outside of which the map and
    both derivatives are exactly zero; it marks the support of compositions.
    """

    def __init__(self, f, d1, d2, name: str = "phi", domain_positive: bool = False,
                 inside=None):
        self.f = f
        self.d1 = d1
        self.d2 = d2
        self.name = name
        self.domain_positive = domain_positive
        self.inside = inside

    def __call__(self, u):
        return self.f(u)

    def __repr__(self):
        return f"SmoothMap({self.name})"


def identity_map() -> SmoothMap:
    return SmoothMap(lambda u: u, lambda u: np.ones_like(u), lambda u: np.zeros_like(u), "id")


def power_map(p: float) -> SmoothMap:
    """u -> u**p for real p; valid on u > 0 (integer p >= 0 valid everywhere).
    An exponent whose second-derivative factor p(p - 1) overflows a float is
    a UsageError."""
    if not np.isfinite(float(p) * (float(p) - 1.0)):
        raise UsageError(f"power exponent {p!r} is too large: p(p - 1) overflows")
    if float(p) == int(p) and p >= 0:
        k = int(p)

        def f(u):
            return u ** k

        def d1(u):
            return np.zeros_like(u) if k == 0 else k * u ** (k - 1)

        def d2(u):
            return np.zeros_like(u) if k <= 1 else k * (k - 1) * u ** (k - 2)

        return SmoothMap(f, d1, d2, f"u^{k}")

    def f(u):
        return np.power(u, p)

    def d1(u):
        return p * np.power(u, p - 1)

    def d2(u):
        return p * (p - 1) * np.power(u, p - 2)

    return SmoothMap(f, d1, d2, f"u^{p}", domain_positive=True)


def log_map() -> SmoothMap:
    return SmoothMap(np.log, lambda u: 1.0 / u, lambda u: -1.0 / u ** 2, "log",
                     domain_positive=True)


def exp_map() -> SmoothMap:
    return SmoothMap(np.exp, np.exp, np.exp, "exp")


def _in_unit_interval(u):
    return np.abs(u) < 1.0


def _inside_unit(poly):
    """poly(u) where |u| < 1 and 0 elsewhere, computing poly only inside."""

    def masked(u):
        u = np.asarray(u)
        inside = _in_unit_interval(u)
        out = np.zeros(u.shape)
        out[inside] = poly(u[inside])
        return out

    return masked


def poly_bump_map() -> SmoothMap:
    """The C^2 bump u -> (1 - u^2)^3 on |u| <= 1, zero outside."""

    def f(u):
        return (1.0 - u ** 2) ** 3

    def d1(u):
        return -6.0 * u * (1.0 - u ** 2) ** 2

    def d2(u):
        t = 1.0 - u ** 2
        return t * (30.0 * u ** 2 - 6.0)

    return SmoothMap(_inside_unit(f), _inside_unit(d1), _inside_unit(d2), "bump",
                     inside=_in_unit_interval)


def bump_window_map(a: float, b: float) -> SmoothMap:
    """Bump supported exactly on [a, b]: u -> (1 - v^2)^3 with v = (u-c)/rho."""
    if not b > a:
        raise ValueError("bump window needs b > a")
    c = 0.5 * (a + b)
    rho = 0.5 * (b - a)
    base = poly_bump_map()

    def f(u):
        return base.f((u - c) / rho)

    def d1(u):
        return base.d1((u - c) / rho) / rho

    def d2(u):
        return base.d2((u - c) / rho) / rho ** 2

    def inside(u):
        return base.inside((u - c) / rho)

    return SmoothMap(f, d1, d2, f"bump[{a},{b}]", inside=inside)


def smoothstep_map() -> SmoothMap:
    """C^2 quintic ramp: 0 on u <= 0, 1 on u >= 1, u^3(10 - 15u + 6u^2) between."""

    def f(u):
        v = np.clip(u, 0.0, 1.0)
        return v ** 3 * (10.0 - 15.0 * v + 6.0 * v ** 2)

    def d1(u):
        inside = (u > 0.0) & (u < 1.0)
        v = np.clip(u, 0.0, 1.0)
        return np.where(inside, 30.0 * v ** 2 * (1.0 - v) ** 2, 0.0)

    def d2(u):
        inside = (u > 0.0) & (u < 1.0)
        v = np.clip(u, 0.0, 1.0)
        return np.where(inside, 60.0 * v * (1.0 - v) * (1.0 - 2.0 * v), 0.0)

    return SmoothMap(f, d1, d2, "smoothstep")


def smoothed_power_profile(exponent: float, a: float, b: float,
                           ramp_factor: float = 2.0) -> SmoothMap:
    """u -> u**exponent, ramped smoothly to zero outside [a, b].

    Equals the pure power exactly on [ramp_factor*a, b/ramp_factor]; the C^2
    ramps live on [a, ramp_factor*a] and [b/ramp_factor, b] and are smooth
    in log u, which keeps their energy bounded however wide the support is.

    Each derivative order computes only the pieces it needs.  The pieces all
    orders share (the mask of (a, b), u clipped to [a, b], its power, both
    log coordinates and both ramps) are computed once per argument array and
    memoized on it (:func:`memo`), so a composition's value, gradient and
    Hessian, which pass the same memoized u, share them; an entry goes with
    u or with the profile.
    """
    if not (a > 0 and b > ramp_factor ** 2 * a):
        raise ValueError("need 0 < a and b > ramp_factor^2 * a for a nonempty plateau")
    step = smoothstep_map()
    w = np.log(ramp_factor)

    def shared_pieces(u):
        safe = np.clip(u, a, b)
        xa = np.log(safe / a) / w
        xb = np.log(b / safe) / w
        return (u > a) & (u < b), safe, np.power(safe, exponent), xa, xb, step.f(xa), step.f(xb)

    def pieces(u):
        # the memo table lives on shared_pieces, which refers to nothing of
        # the profile's, so it goes with the profile, with no cycle
        return memo(shared_pieces, "pieces", np.asarray(u, dtype=float), shared_pieces)

    def f(u):
        out, _, pw, _, _, up, dn = pieces(u)
        return np.where(out, pw * up * dn, 0.0)

    def d1(u):
        out, safe, pw, xa, xb, up, dn = pieces(u)
        pw1 = exponent * np.power(safe, exponent - 1.0)
        up1 = step.d1(xa) / (w * safe)
        dn1 = -step.d1(xb) / (w * safe)
        return np.where(out, pw1 * up * dn + pw * (up1 * dn + up * dn1), 0.0)

    def d2(u):
        out, safe, pw, xa, xb, up, dn = pieces(u)
        pw1 = exponent * np.power(safe, exponent - 1.0)
        pw2 = exponent * (exponent - 1.0) * np.power(safe, exponent - 2.0)
        sa, sb = step.d1(xa), step.d1(xb)
        up1 = sa / (w * safe)
        up2 = (step.d2(xa) / w - sa) / (w * safe ** 2)
        dn1 = -sb / (w * safe)
        dn2 = (step.d2(xb) / w + sb) / (w * safe ** 2)
        val = (pw2 * up * dn + 2.0 * pw1 * (up1 * dn + up * dn1)
               + pw * (up2 * dn + 2.0 * up1 * dn1 + up * dn2))
        return np.where(out, val, 0.0)

    return SmoothMap(f, d1, d2, f"u^{exponent}|[{a},{b}]")


# ---------------------------------------------------------------------------
# Scalar fields
# ---------------------------------------------------------------------------

class ScalarField:
    """Base class: subclasses implement ``_value`` and optionally closed-form
    ``_grad`` / ``_hess``; missing derivatives use central differences.

    ``value_at``/``grad_at``/``hess_at`` memoize against the identity of the
    points array while it lives, so repeated evaluation on the same (never
    mutated) grid array is free; composite fields use them for their
    children, which keeps deep expression trees linear in cost.
    """

    fd_step = DEFAULT_FD_STEP

    # -- public API (shape-normalizing) -------------------------------------

    def value(self, x):
        pts, single = as_points(x)
        v = self.value_at(pts)
        return float(v[0]) if single else v

    def grad(self, x):
        pts, single = as_points(x)
        g = self.grad_at(pts)
        return g[0] if single else g

    def hess(self, x):
        pts, single = as_points(x)
        h = self.hess_at(pts)
        return h[0] if single else h

    def mask(self, x):
        pts, single = as_points(x)
        m = self._mask(pts)
        return bool(m[0]) if single else m

    def __call__(self, x):
        return self.value(x)

    # -- memoized accessors (same points-array object => cached result) ------

    def value_at(self, pts):
        return memo(self, "v", pts, self._value)

    def grad_at(self, pts):
        return memo(self, "g", pts, self._grad)

    def hess_at(self, pts):
        return memo(self, "h", pts, self._hess)

    # -- implementation hooks -----------------------------------------------

    def _value(self, pts):
        raise NotImplementedError

    def _mask(self, pts):
        return np.ones(len(pts), dtype=bool)

    def has_closed_grad(self) -> bool:
        return type(self)._grad is not ScalarField._grad

    def _grad(self, pts):
        n, m = pts.shape
        h = self.fd_step
        out = np.empty((n, m))
        for j in range(m):
            e = np.zeros(m)
            e[j] = h
            out[:, j] = (self._value(pts + e) - self._value(pts - e)) / (2.0 * h)
        return out

    def _hess(self, pts):
        n, m = pts.shape
        h = self.fd_step
        out = np.empty((n, m, m))
        if self.has_closed_grad():
            for j in range(m):
                e = np.zeros(m)
                e[j] = h
                out[:, :, j] = (self._grad(pts + e) - self._grad(pts - e)) / (2.0 * h)
            return 0.5 * (out + np.swapaxes(out, 1, 2))
        v0 = self._value(pts)
        for i in range(m):
            ei = np.zeros(m)
            ei[i] = h
            out[:, i, i] = (self._value(pts + ei) - 2.0 * v0 + self._value(pts - ei)) / h ** 2
            for k in range(i + 1, m):
                ek = np.zeros(m)
                ek[k] = h
                cross = (self._value(pts + ei + ek) - self._value(pts + ei - ek)
                         - self._value(pts - ei + ek) + self._value(pts - ei - ek)) / (4.0 * h ** 2)
                out[:, i, k] = cross
                out[:, k, i] = cross
        return out

    # -- algebra --------------------------------------------------------------

    def __add__(self, other):
        return SumField(self, _as_field(other))

    __radd__ = __add__

    def __sub__(self, other):
        return SumField(self, ScaledField(-1.0, _as_field(other)))

    def __rsub__(self, other):
        return SumField(_as_field(other), ScaledField(-1.0, self))

    def __mul__(self, other):
        if np.isscalar(other):
            return ScaledField(float(other), self)
        return ProductField(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if np.isscalar(other):
            return ScaledField(1.0 / float(other), self)
        return QuotientField(self, other)

    def __rtruediv__(self, other):
        return QuotientField(_as_field(other), self)

    def __neg__(self):
        return ScaledField(-1.0, self)

    def __pow__(self, p):
        return ComposeField(power_map(p), self)

    def log(self):
        return ComposeField(log_map(), self)

    def exp(self):
        return ComposeField(exp_map(), self)


def _as_field(x) -> ScalarField:
    if isinstance(x, ScalarField):
        return x
    if np.isscalar(x):
        return ConstField(float(x))
    raise TypeError(f"cannot coerce {type(x)} to a ScalarField")


def squared(field: ScalarField) -> ScalarField:
    """field*field, constructed once, so its evaluations stay memoized: for
    long-lived fields (a weight, a multiplier).  A caller that squares a bump
    builds ``ProductField(tree, tree)`` afresh, as
    ``calculus.gamma_w_rows`` does, since a cached square would hold the bump
    in a reference cycle."""
    sq = field.__dict__.get("_squared_field")
    if sq is None:
        sq = field.__dict__["_squared_field"] = ProductField(field, field)
    return sq


def _monomial(c: float, exps, pts):
    """c * prod_i pts[:, i]**e_i as a new array, multiplied left to right."""
    t = None
    for i, e in enumerate(exps):
        if e:
            x = pts[:, i] if e == 1 else pts[:, i] ** e
            t = c * x if t is None else t * x
    return np.full(len(pts), c) if t is None else t


class PolyField(ScalarField):
    """Multivariate polynomial sum_t c_t * prod_i x_i**e_{t,i}, without zero
    terms; exponents missing at the end of a tuple are 0.  The gradient and
    Hessian are the values of its cached partial derivatives (``partial``)."""

    def __init__(self, terms):
        self.terms = [(float(c), tuple(int(e) for e in exps)) for c, exps in terms if c != 0]
        self._partials = {}

    def partial(self, j: int) -> PolyField:
        """d/dx_j, as a polynomial."""
        d = self._partials.get(j)
        if d is None:
            d = PolyField([(c * exps[j], exps[:j] + (exps[j] - 1,) + exps[j + 1:])
                           for c, exps in self.terms if j < len(exps) and exps[j]])
            self._partials[j] = d
        return d

    def _value(self, pts):
        if not self.terms:
            return np.zeros(len(pts))
        out = _monomial(*self.terms[0], pts)
        for c, exps in self.terms[1:]:
            out += _monomial(c, exps, pts)
        return out

    def _grad(self, pts):
        out = np.zeros(pts.shape)
        for j in range(pts.shape[1]):
            d = self.partial(j)
            if d.terms:
                out[:, j] = d._value(pts)
        return out

    def _hess(self, pts):
        n, m = pts.shape
        out = np.zeros((n, m, m))
        for j in range(m):
            for k in range(j, m):
                djk = self.partial(j).partial(k)
                if djk.terms:
                    out[:, j, k] = out[:, k, j] = djk._value(pts)
        return out


class ConstField(PolyField):
    def __init__(self, c: float):
        super().__init__([(c, ())])


class CoordinateField(PolyField):
    """The coordinate function x_j."""

    def __init__(self, index: int):
        super().__init__([(1.0, (0,) * int(index) + (1,))])


class AffineField(PolyField):
    """w . x + b with constant w."""

    def __init__(self, weights, offset: float = 0.0):
        # PolyField drops zero terms; skipping them first keeps a sparse
        # weight list from building O(len) tuples of length O(len)
        super().__init__([(w, (0,) * j + (1,)) for j, w in enumerate(weights) if w != 0]
                         + [(offset, ())])


class NormField(ScalarField):
    """|x_I| over a coordinate subset I (all coordinates when I is None).

    Smooth away from {x_I = 0}; that locus is reported by the mask and is
    expected to be excised from any grid this field is differentiated on.
    """

    def __init__(self, indices=None):
        self.indices = None if indices is None else tuple(int(i) for i in indices)

    def _sel(self, pts):
        return pts if self.indices is None else pts[:, self.indices]

    def _value(self, pts):
        return np.sqrt(np.sum(self._sel(pts) ** 2, axis=1))

    def _grad(self, pts):
        n, m = pts.shape
        r = self.value_at(pts)
        rs = np.where(r > 0, r, 1.0)
        out = np.zeros((n, m))
        idx = range(m) if self.indices is None else self.indices
        sel = self._sel(pts)
        for col, i in enumerate(idx):
            out[:, i] = sel[:, col] / rs
        return out

    def _hess(self, pts):
        n, m = pts.shape
        r = self.value_at(pts)
        rs = np.where(r > 0, r, 1.0)
        out = np.zeros((n, m, m))
        idx = list(range(m)) if self.indices is None else list(self.indices)
        sel = self._sel(pts)
        for a, i in enumerate(idx):
            for b, k in enumerate(idx):
                out[:, i, k] = ((1.0 if i == k else 0.0) - sel[:, a] * sel[:, b] / rs ** 2) / rs
        return out

    def _mask(self, pts):
        return self.value_at(pts) > 0


class SquareNormField(ScalarField):
    """sum x_i^2 over a coordinate subset (smooth everywhere)."""

    def __init__(self, indices=None):
        self.indices = None if indices is None else tuple(int(i) for i in indices)

    def _value(self, pts):
        sel = pts if self.indices is None else pts[:, self.indices]
        return np.sum(sel ** 2, axis=1)

    def _grad(self, pts):
        out = np.zeros_like(pts)
        idx = range(pts.shape[1]) if self.indices is None else self.indices
        for i in idx:
            out[:, i] = 2.0 * pts[:, i]
        return out

    def _hess(self, pts):
        n, m = pts.shape
        out = np.zeros((n, m, m))
        idx = range(m) if self.indices is None else self.indices
        for i in idx:
            out[:, i, i] = 2.0
        return out


class FuncField(ScalarField):
    """Field from plain callables; derivatives fall back to differences
    unless closed forms are supplied."""

    def __init__(self, fn, grad_fn=None, hess_fn=None, mask_fn=None,
                 fd_step: float = DEFAULT_FD_STEP):
        self.fn = fn
        self.grad_fn = grad_fn
        self.hess_fn = hess_fn
        self.mask_fn = mask_fn
        self.fd_step = fd_step

    def _value(self, pts):
        return np.asarray(self.fn(pts), dtype=float)

    def has_closed_grad(self):
        return self.grad_fn is not None

    def _grad(self, pts):
        if self.grad_fn is not None:
            return np.asarray(self.grad_fn(pts), dtype=float)
        return ScalarField._grad(self, pts)

    def _hess(self, pts):
        if self.hess_fn is not None:
            return np.asarray(self.hess_fn(pts), dtype=float)
        return ScalarField._hess(self, pts)

    def _mask(self, pts):
        if self.mask_fn is not None:
            return np.asarray(self.mask_fn(pts), dtype=bool)
        return np.ones(len(pts), dtype=bool)


def with_fd(field: ScalarField, step: float) -> FuncField:
    """View of a field that discards its closed-form derivatives.

    Used to exercise the central-difference oracle at a chosen step against
    the exact one.
    """
    return FuncField(field._value, mask_fn=field._mask, fd_step=float(step))


# -- composite fields ---------------------------------------------------------

class SumField(ScalarField):
    def __init__(self, f: ScalarField, g: ScalarField):
        self.f = f
        self.g = g

    def _value(self, pts):
        return self.f.value_at(pts) + self.g.value_at(pts)

    def _grad(self, pts):
        return self.f.grad_at(pts) + self.g.grad_at(pts)

    def _hess(self, pts):
        return self.f.hess_at(pts) + self.g.hess_at(pts)

    def _mask(self, pts):
        return self.f._mask(pts) & self.g._mask(pts)


class ScaledField(ScalarField):
    def __init__(self, c: float, f: ScalarField):
        self.c = float(c)
        self.f = f

    def _value(self, pts):
        return self.c * self.f.value_at(pts)

    def _grad(self, pts):
        return self.c * self.f.grad_at(pts)

    def _hess(self, pts):
        return self.c * self.f.hess_at(pts)

    def _mask(self, pts):
        return self.f._mask(pts)


class ProductField(ScalarField):
    def __init__(self, f: ScalarField, g: ScalarField):
        self.f = f
        self.g = g

    def _value(self, pts):
        return self.f.value_at(pts) * self.g.value_at(pts)

    def _grad(self, pts):
        fv = self.f.value_at(pts)[:, None]
        gv = self.g.value_at(pts)[:, None]
        return self.f.grad_at(pts) * gv + self.g.grad_at(pts) * fv

    def _hess(self, pts):
        fv = self.f.value_at(pts)[:, None, None]
        gv = self.g.value_at(pts)[:, None, None]
        fg = self.f.grad_at(pts)
        gg = self.g.grad_at(pts)
        cross = fg[:, :, None] * gg[:, None, :]
        return (self.f.hess_at(pts) * gv + self.g.hess_at(pts) * fv
                + cross + np.swapaxes(cross, 1, 2))

    def _mask(self, pts):
        return self.f._mask(pts) & self.g._mask(pts)


class QuotientField(ScalarField):
    def __init__(self, f: ScalarField, g: ScalarField):
        self.f = f
        self.g = g

    def _value(self, pts):
        return self.f.value_at(pts) / self.g.value_at(pts)

    def _grad(self, pts):
        gv = self.g.value_at(pts)[:, None]
        q = (self.f.value_at(pts) / self.g.value_at(pts))[:, None]
        return (self.f.grad_at(pts) - q * self.g.grad_at(pts)) / gv

    def _hess(self, pts):
        gv = self.g.value_at(pts)
        q = self.f.value_at(pts) / gv
        qg = (self.f.grad_at(pts) - q[:, None] * self.g.grad_at(pts)) / gv[:, None]
        gg = self.g.grad_at(pts)
        cross = qg[:, :, None] * gg[:, None, :]
        num = (self.f.hess_at(pts) - q[:, None, None] * self.g.hess_at(pts)
               - cross - np.swapaxes(cross, 1, 2))
        return num / gv[:, None, None]

    def _mask(self, pts):
        return self.f._mask(pts) & self.g._mask(pts) & (self.g.value_at(pts) != 0)


class ComposeField(ScalarField):
    """phi(f) for a smooth 1D map phi."""

    def __init__(self, phi: SmoothMap, f: ScalarField):
        self.phi = phi
        self.f = f

    def _value(self, pts):
        return self.phi.f(self.f.value_at(pts))

    def _grad(self, pts):
        u = self.f.value_at(pts)
        return self.phi.d1(u)[:, None] * self.f.grad_at(pts)

    def _hess(self, pts):
        u = self.f.value_at(pts)
        fg = self.f.grad_at(pts)
        outer = fg[:, :, None] * fg[:, None, :]
        return (self.phi.d2(u)[:, None, None] * outer
                + self.phi.d1(u)[:, None, None] * self.f.hess_at(pts))

    def _mask(self, pts):
        m = self.f._mask(pts)
        if self.phi.domain_positive:
            m = m & (self.f.value_at(pts) > 0)
        return m


def _support_rows(field: ScalarField, pts, rows=None):
    """The indices among ``rows`` (all of pts when None) where ``field`` may
    be non-zero, or ``rows`` itself where nothing is known: phi(f) is zero
    outside ``phi.inside(f)``, and a product outside the rows of either
    factor.  A product narrows its second factor's rows by its first, so
    each predicate only runs on the rows the earlier ones kept."""
    if isinstance(field, ComposeField) and field.phi.inside is not None:
        # _value, not value_at: a memo entry on the whole grid would outlive the bump
        keep = field.phi.inside(field.f._value(pts if rows is None else pts[rows]))
        return np.flatnonzero(keep) if rows is None else rows[keep]
    if isinstance(field, ProductField):
        rows = _support_rows(field.g, pts, rows)
        return rows if field.f is field.g else _support_rows(field.f, pts, rows)
    return rows


class SupportedField(ScalarField):
    """``base`` evaluated only on its support rows (see ``rows_at``).

    Value, gradient and Hessian are ``base``'s on the rows and zero
    elsewhere, which is exact because the rows come from the bump maps'
    own ``inside`` predicates.  A whole-array evaluation memoizes like any
    field's; callers that reduce over the nodes use :func:`support` instead.
    """

    def __init__(self, base: ScalarField):
        self.base = base

    def rows_at(self, pts, within=None):
        """(rows, pts[rows]), ascending, memoized per points array; the base
        tree memoizes its own values against that one sub-array.  The
        predicates run only on ``within`` when given: ascending rows that
        hold every row where the base may be non-zero."""

        def compute(p):
            rows = _support_rows(self.base, p, within)
            rows = np.arange(len(p)) if rows is None else rows
            return rows, p[rows]

        return memo(self, "rows", pts, compute)

    def _scatter(self, pts, evaluate):
        on = support(self, pts)
        return on.spread(evaluate(on.sub))

    def _value(self, pts):
        return self._scatter(pts, self.base.value_at)

    def _grad(self, pts):
        return self._scatter(pts, self.base.grad_at)

    def _hess(self, pts):
        return self._scatter(pts, self.base.hess_at)

    def _mask(self, pts):
        return self.base._mask(pts)


class Support(NamedTuple):
    """A field on its support rows of ``pts`` (:func:`support`): ``tree``
    gives its values on ``sub`` = ``pts[rows]``, where a lone row of a
    longer array is repeated in ``rows`` (einsum sums a one-row array in
    another order).  ``take`` gathers a whole-array term at ``rows``;
    ``spread`` puts values on ``sub`` into full-size zeros and returns
    values on every row as they are."""

    pts: np.ndarray
    rows: np.ndarray | slice
    sub: np.ndarray
    tree: ScalarField

    def take(self, whole):
        return whole[self.rows]

    def spread(self, vals):
        if isinstance(self.rows, slice):
            return vals
        out = np.zeros((len(self.pts),) + vals.shape[1:])
        out[self.rows] = vals
        return out


def support(field: ScalarField, pts) -> Support:
    """A supported field's rows, sub-array and base tree on ``pts``; every
    row (``slice(None)``), pts and the field itself otherwise."""
    if not isinstance(field, SupportedField):
        return Support(pts, slice(None), pts, field)
    rows, sub = field.rows_at(pts)
    if len(rows) == 1 < len(pts):
        rows = np.repeat(rows, 2)
        sub = pts[rows]
    return Support(pts, rows, sub, field.base)


def value_in_blocks(field: ScalarField, pts):
    """``field.value_at(pts)``, computed in row blocks when first asked for,
    so that the field's inner nodes keep no entry on pts."""
    return memo(field, "v", pts, lambda p: blockwise(field._value, p))


def unsupported(field: ScalarField) -> ScalarField:
    """The full expression tree behind a supported field (itself otherwise)."""
    return field.base if isinstance(field, SupportedField) else field


# ---------------------------------------------------------------------------
# Vector fields
# ---------------------------------------------------------------------------

class VectorField:
    """First-order operator sum_i c_i(x) d_i given by coefficient fields.

    Applying the field to the coordinate function x_j returns c_j.
    """

    def __init__(self, coeffs):
        self.coeffs = tuple(_as_field(c) for c in coeffs)

    def coeff_values(self, pts):
        """(n, m) array of coefficient values."""
        return np.stack([c.value_at(pts) for c in self.coeffs], axis=1)

    def coeff_grads(self, pts):
        """(n, m, m) array with [p, i, l] = d_l c_i."""
        return np.stack([c.grad_at(pts) for c in self.coeffs], axis=1)

    def apply(self, f: ScalarField, pts):
        """(V f)(x) = sum_i c_i(x) d_i f(x) on a batch of points."""
        return np.einsum("ni,ni->n", self.coeff_values(pts), f.grad_at(pts))


def coordinate_frame(m: int) -> list[VectorField]:
    """The frame of coordinate partials on R^m."""
    frames = []
    for j in range(m):
        coeffs = [ConstField(1.0 if i == j else 0.0) for i in range(m)]
        frames.append(VectorField(coeffs))
    return frames
