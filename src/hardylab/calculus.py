r"""Diffusion generators from vector-field frames, and their carre du champ.

A diffusion is represented as L = sum_j X_j^2 + B for a frame of vector
fields X_j and a drift B, together with the density of its reversible
measure against coordinate volume.  The induced second-order coefficient
matrix is a(x) = sum_j X_j(x) X_j(x)^T and the carre du champ is

    Gamma(f, g) = sum_j (X_j f)(X_j g) = a(grad f, grad g),

which must coincide pointwise with the defining combination
(1/2)(L(fg) - f Lg - g Lf); that consistency is part of the test suite, not
assumed.  Everything here is evaluated pointwise on batches of points; all
operations are pure, so concurrent evaluation over points is safe.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NumericError, PreconditionError
from .fields import (ComposeField, ProductField, ScalarField, SmoothMap,
                     SupportedField, VectorField, as_points, blockwise, memo,
                     row_block, squared, unsupported, with_fd)


class Diffusion:
    """Abstract generator: subclasses provide apply_L and gamma on (n, m)
    point batches; only the checked entry points below take a single point."""

    dim: int
    measure_density: ScalarField

    def domain(self, pts):
        """Boolean mask of points where the generator's data is smooth."""
        return np.ones(len(pts), dtype=bool)

    def mask(self, pts):
        return self.domain(pts) & self.measure_density._mask(pts)

    def apply_L(self, f: ScalarField, pts):
        raise NotImplementedError

    def gamma(self, f: ScalarField, g: ScalarField | None, pts):
        raise NotImplementedError


class FrameDiffusion(Diffusion):
    """L = sum_j X_j^2 + drift with reversible-measure density.

    The drift must be the one making L symmetric against the measure; the
    catalog constructors guarantee this, and the quadrature symmetry defect
    is checked in the tests rather than enforced here.
    """

    def __init__(self, frame, drift: VectorField | None, measure_density: ScalarField,
                 dim: int, domain_mask=None):
        self.frame = tuple(frame)
        self.drift = drift
        self.measure_density = measure_density
        self.dim = int(dim)
        self._domain_mask = domain_mask

    def domain(self, pts):
        if self._domain_mask is None:
            return np.ones(len(pts), dtype=bool)
        return np.asarray(self._domain_mask(pts), dtype=bool)

    # -- frame data (memoized against the points-array identity) -------------

    def frame_values(self, pts):
        """(l, n, m) frame coefficients, cached per points array in a slot of
        their own.  A row block of ``fields.blockwise`` is cut from its whole
        array's coefficients, which the per-test-function passes read next."""
        block = row_block(pts)
        if block is not None:
            whole, start, stop = block
            return memo(self, "_frame_memo", "C", pts, lambda p: np.ascontiguousarray(
                self.frame_values(whole)[:, start:stop]))
        return memo(self, "_values_memo", "C", pts, lambda p: np.stack(
            [X.coeff_values(p) for X in self.frame], axis=0))

    def frame_grads(self, pts):
        return memo(self, "_frame_memo", "G", pts, lambda p: np.stack(
            [X.coeff_grads(p) for X in self.frame], axis=0))

    def coefficient_matrix(self, pts):
        """a(x) = sum_j X_j X_j^T, shape (n, m, m)."""
        def compute(p):
            C = self.frame_values(p)
            return np.einsum("jni,jnk->nik", C, C)
        return memo(self, "_frame_memo", "A", pts, compute)

    def coefficient_matrix_grad(self, pts):
        """d_l a_{ik}, shape (n, l, i, k)."""
        def compute(p):
            C = self.frame_values(p)
            G = self.frame_grads(p)  # [j, n, i, l]
            dA = np.einsum("jnil,jnk->nlik", G, C)
            return dA + np.swapaxes(dA, 2, 3)
        return memo(self, "_frame_memo", "dA", pts, compute)

    # -- generator and carre du champ -----------------------------------------

    def apply_L(self, f: ScalarField, pts):
        C = self.frame_values(pts)
        G = self.frame_grads(pts)
        gf = f.grad_at(pts)
        hf = f.hess_at(pts)
        val = np.einsum("jni,jnk,nik->n", C, C, hf)
        first = np.einsum("jni,jnki->nk", C, G)
        if self.drift is not None:
            first = first + self.drift.coeff_values(pts)
        val += np.einsum("nk,nk->n", first, gf)
        return val

    def gamma(self, f: ScalarField, g: ScalarField | None, pts):
        """Gamma(f, g) on the points.  When f or g is a supported field, only
        its support rows are computed (with the full trees of both fields,
        on the same sub-array) and the rest is zero."""
        g = f if g is None else g
        C = self.frame_values(pts)
        sup = f if isinstance(f, SupportedField) else g
        rows, sub = sup.rows_at(pts) if isinstance(sup, SupportedField) else (None, pts)
        # einsum sums a single row in another order than a longer array
        if rows is None or len(rows) == 1:
            val = _frame_gamma(C, f, g, pts)
        else:
            val = np.zeros(len(pts))
            # take keeps C's (j, n, i) layout, so einsum sums in the same order
            val[rows] = _frame_gamma(np.take(C, rows, axis=1), unsupported(f),
                                     unsupported(g), sub)
        return val

    def gamma_field(self, f: ScalarField, g: ScalarField | None = None) -> ScalarField:
        return FrameGammaField(self, f, f if g is None else g)


def _frame_gamma(C, f: ScalarField, g: ScalarField, pts):
    """sum_j (X_j f)(X_j g) from the frame coefficients C on pts."""
    xf = np.einsum("jni,ni->jn", C, f.grad_at(pts))
    if g is f:
        return np.einsum("jn,jn->n", xf, xf)
    xg = np.einsum("jni,ni->jn", C, g.grad_at(pts))
    return np.einsum("jn,jn->n", xf, xg)


class FrameGammaField(ScalarField):
    """Gamma(f, g) of a frame diffusion, with closed-form gradient.

    The gradient uses d_l [a_{ik} d_i f d_k g]; the Hessian (third
    derivatives of f, g) falls back to differencing the gradient.
    """

    def __init__(self, diff: FrameDiffusion, f: ScalarField, g: ScalarField):
        self.diff = diff
        self.f = f
        self.g = g

    def _value(self, pts):
        return self.diff.gamma(self.f, self.g, pts)

    def _grad(self, pts):
        A = self.diff.coefficient_matrix(pts)
        dA = self.diff.coefficient_matrix_grad(pts)
        gf = self.f.grad_at(pts)
        hf = self.f.hess_at(pts)
        if self.g is self.f:
            gg, hg = gf, hf
        else:
            gg = self.g.grad_at(pts)
            hg = self.g.hess_at(pts)
        out = np.einsum("nlik,ni,nk->nl", dA, gf, gg)
        out += np.einsum("nik,nil,nk->nl", A, hf, gg)
        out += np.einsum("nik,ni,nkl->nl", A, gf, hg)
        return out

    def _mask(self, pts):
        return self.f._mask(pts) & self.g._mask(pts) & self.diff.domain(pts)


# ---------------------------------------------------------------------------
# Pointwise operations
# ---------------------------------------------------------------------------

def _checked(diff: Diffusion, f: ScalarField, x):
    pts, single = as_points(x, diff.dim)
    ok = diff.mask(pts) & f._mask(pts)
    if not np.all(ok):
        raise DomainError("point outside the domain mask of the field or diffusion")
    return pts, single


def eval_L(diff: Diffusion, f: ScalarField, p):
    """(L f)(p); exact when f carries closed-form derivatives."""
    pts, single = _checked(diff, f, p)
    v = diff.apply_L(f, pts)
    if not np.all(np.isfinite(v)):
        raise NumericError("non-finite derivative in L f")
    return float(v[0]) if single else v


def gamma(diff: Diffusion, f: ScalarField, g: ScalarField | None = None, p=None):
    """Gamma(f, g)(p) = sum_j (X_j f)(X_j g)(p)."""
    if p is None:
        raise TypeError("gamma requires evaluation points")
    g = f if g is None else g
    pts, single = _checked(diff, f, p)
    if not np.all(g._mask(pts)):
        raise DomainError("point outside the domain mask of g")
    v = diff.gamma(f, g, pts)
    if not np.all(np.isfinite(v)):
        raise NumericError("non-finite value in Gamma(f, g)")
    return float(v[0]) if single else v


def l_of_square(diff: Diffusion, W: ScalarField, pts):
    """L(W^2) on pts, once per (diffusion, W, points array): a corpus sweep
    meets the same W for every test function.  Computed in row blocks."""
    return memo(W, "_weight_memo", (diff, "L(W^2)"), pts,
                lambda p: blockwise(lambda b: diff.apply_L(squared(W), b), p))


def gamma_w(diff: Diffusion, W: ScalarField, f: ScalarField, p):
    """The order-zero generalized carre du champ applied to f:

    Gamma^W(f) = (1/2)(L(W^2) f^2 + 2 Gamma(W^2, f^2) + 2 W^2 Gamma(f)).
    """
    pts, single = _checked(diff, W, p)
    if not np.all(f._mask(pts)):
        raise DomainError("point outside the domain mask of f")
    W2 = squared(W)
    f2 = squared(f)
    fv = f.value_at(pts)
    val = 0.5 * (l_of_square(diff, W, pts) * fv ** 2
                 + 2.0 * diff.gamma(W2, f2, pts)
                 + 2.0 * W2.value_at(pts) * diff.gamma(f, f, pts))
    if not np.all(np.isfinite(val)):
        raise NumericError("non-finite value in Gamma^W(f)")
    return float(val[0]) if single else val


def _match_oracle(derived: ScalarField, *parents: ScalarField) -> ScalarField:
    """Composite fields chain their children's derivatives algebraically, so
    when a parent runs in difference-oracle mode the derived field must be
    differenced directly for the identity checks to measure anything."""
    for p in parents:
        if not p.has_closed_grad():
            return with_fd(derived, p.fd_step)
    return derived


def chain_rule_defect(diff: Diffusion, phi: SmoothMap, f: ScalarField, pts) -> float:
    """max over pts of |L(phi(f)) - phi'(f) Lf - phi''(f) Gamma(f)|."""
    pts, _ = _checked(diff, f, pts)
    comp = _match_oracle(ComposeField(phi, f), f)
    u = f.value_at(pts)
    lhs = diff.apply_L(comp, pts)
    rhs = phi.d1(u) * diff.apply_L(f, pts) + phi.d2(u) * diff.gamma(f, f, pts)
    return float(np.max(np.abs(lhs - rhs)))


def gamma_chain_rule_defect(diff: Diffusion, phi: SmoothMap, f: ScalarField,
                            g: ScalarField, pts) -> float:
    """max over pts of |Gamma(phi(f), g) - phi'(f) Gamma(f, g)|."""
    pts, _ = _checked(diff, f, pts)
    comp = _match_oracle(ComposeField(phi, f), f)
    lhs = diff.gamma(comp, g, pts)
    rhs = phi.d1(f.value_at(pts)) * diff.gamma(f, g, pts)
    return float(np.max(np.abs(lhs - rhs)))


def gamma_definition_defect(diff: Diffusion, f: ScalarField, g: ScalarField, pts) -> float:
    """max over pts of |Gamma(f,g) - (1/2)(L(fg) - f Lg - g Lf)|."""
    pts, _ = _checked(diff, f, pts)
    fg = _match_oracle(ProductField(f, g), f, g)
    rhs = 0.5 * (diff.apply_L(fg, pts)
                 - f.value_at(pts) * diff.apply_L(g, pts)
                 - g.value_at(pts) * diff.apply_L(f, pts))
    return float(np.max(np.abs(diff.gamma(f, g, pts) - rhs)))


def ibp_defect(diff: Diffusion, f: ScalarField, g: ScalarField, grid) -> float:
    """Quadrature defect |int f Lg dmu + int Gamma(f, g) dmu|.

    Requires f to vanish on a margin inside the grid boundary and excised
    regions; decays at O(h^2) under refinement for smooth data.
    """
    if not grid.supports(f):
        raise PreconditionError("support of f touches the grid boundary or excision set")
    pts = grid.points
    vals = f.value_at(pts) * diff.apply_L(g, pts) + diff.gamma(f, g, pts)
    return abs(float(np.sum(vals * grid.weights)))
