r"""Diffusion generators from vector-field frames, and their carre du champ.

A diffusion is given by a frame of vector fields X_j = sum_i c_{j,i} d_i and
the density rho of its reversible measure against coordinate volume.  Its
generator is the one symmetric against that measure,

    L = sum_j X_j^2 + div_rho(X_j) X_j,   div_rho X = sum_i d_i c_i + X(log rho),

so the drift is derived, never supplied.  The induced second-order
coefficient matrix is a(x) = sum_j X_j(x) X_j(x)^T and the carre du champ is

    Gamma(f, g) = sum_j (X_j f)(X_j g) = a(grad f, grad g),

which must coincide pointwise with the defining combination
(1/2)(L(fg) - f Lg - g Lf); that consistency is part of the test suite, not
assumed.  Everything here is evaluated pointwise on batches of points; all
operations are pure, so concurrent evaluation over points is safe.

For many frames the first-order part is zero term by term: rho is a positive
constant and, in each frame field, no nonzero coefficient depends on a
coordinate x_i whose own coefficient c_{j,i} is nonzero (the Euclidean,
Heisenberg and Grushin frames against coordinate volume).  Then every
c_{j,i} d_i c_{j,k}, every d_i c_{j,i} and grad rho is the zero polynomial,
and ``FrameDiffusion.apply_L`` returns the second-order sum without building
the frame gradients (``FrameDiffusion.drift_free``, checked once per
diffusion, on first use).  Where f's gradient is not finite on a block it
takes the full path, whose 0 * inf gives NaN.  Both paths give the same bits
wherever the frame coefficients and their derivatives are finite.  Likewise,
when every frame coefficient is a constant (``FrameDiffusion.constant_frame``:
the Euclidean frames, whatever rho), neither ``frame_derivatives`` nor
``apply_L`` builds the frame gradients, whose terms are exactly zero.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DomainError, NumericError, PreconditionError
from .fields import (ComposeField, PolyField, ProductField, ScalarField, SmoothMap,
                     SupportedField, as_points, blockwise, memo, squared, support,
                     unsupported, with_fd)


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


def _constant(field: ScalarField) -> bool:
    """True when ``field`` is a constant ``PolyField``."""
    return isinstance(field, PolyField) and not any(any(e) for _, e in field.terms)


class FrameDiffusion(Diffusion):
    """L = sum_j X_j^2 + div_rho(X_j) X_j for a frame and the density rho of
    its reversible measure, which must be positive on the domain mask: L is
    symmetric against that measure by construction."""

    def __init__(self, frame, measure_density: ScalarField, dim: int, domain_mask=None):
        self.frame = tuple(frame)
        self.measure_density = measure_density
        self.dim = int(dim)
        self._domain_mask = domain_mask

    def domain(self, pts):
        if self._domain_mask is None:
            return np.ones(len(pts), dtype=bool)
        return np.asarray(self._domain_mask(pts), dtype=bool)

    @functools.cached_property
    def drift_free(self) -> bool:
        """True when the first-order part of L is zero term by term: rho is
        a positive constant ``PolyField``, every frame coefficient is a
        ``PolyField``, and in each frame field no nonzero coefficient depends
        on a coordinate x_i whose coefficient c_{j,i} is nonzero.  Computed
        on first use, since it walks every coefficient of every field."""
        rho = self.measure_density
        if not (_constant(rho) and sum(c for c, _ in rho.terms) > 0.0):
            return False
        for X in self.frame:
            if not all(isinstance(c, PolyField) for c in X.coeffs):
                return False
            moving = {i for c in X.coeffs for _, e in c.terms for i, k in enumerate(e) if k}
            if any(X.coeffs[i].terms for i in moving):
                return False
        return True

    @functools.cached_property
    def constant_frame(self) -> bool:
        """True when every frame coefficient is a constant ``PolyField``, so
        every frame gradient d_a c_{j,i} is the zero polynomial.  Computed on
        first use."""
        return all(_constant(c) for X in self.frame for c in X.coeffs)

    # -- frame data (memoized against the points-array identity) -------------

    def frame_values(self, pts):
        """(l, n, m) frame coefficients."""
        return memo(self, "C", pts, lambda p: np.stack(
            [X.coeff_values(p) for X in self.frame], axis=0))

    def frame_grads(self, pts):
        return memo(self, "G", pts, lambda p: np.stack(
            [X.coeff_grads(p) for X in self.frame], axis=0))

    def frame_derivatives(self, f: ScalarField, pts):
        """(X_j f, grad X_j f) for every frame field X_j = sum_i c_{j,i} d_i,
        shapes (l, n) and (l, n, m), cached per (f, points array):

            d_a (X_j f) = sum_i (d_a c_{j,i}) d_i f + sum_i c_{j,i} d_i d_a f.

        When ``constant_frame`` holds and f's gradient is finite on pts, the
        first sum is exactly +0.0, so it is neither built nor summed: adding
        0.0 to the second gives the same bits, signed zeros included.
        """
        def compute(p):
            C = self.frame_values(p)
            gf = f.grad_at(p)
            if self.constant_frame and np.all(np.isfinite(gf)):
                dxf = np.einsum("jni,nia->jna", C, f.hess_at(p))
                dxf += 0.0
            else:
                dxf = np.einsum("jnia,ni->jna", self.frame_grads(p), gf)
                dxf += np.einsum("jni,nia->jna", C, f.hess_at(p))
            return np.einsum("jni,ni->jn", C, gf), dxf
        return memo(f, (self, "X"), pts, compute)

    # -- generator and carre du champ -----------------------------------------

    def apply_L(self, f: ScalarField, pts):
        """sum_{i,k} a_{ik} d_i d_k f + sum_k b_k d_k f with the first-order
        coefficients b_k = sum_j X_j c_{j,k} + div_rho(X_j) c_{j,k}, where
        div_rho X_j = sum_i d_i c_{j,i} + X_j rho / rho.  When ``drift_free``
        holds and f's gradient is finite on pts, every b_k is zero and the
        second-order sum is returned as it is: the full path would only add
        zeros to it.  When only ``constant_frame`` holds (and the gradient is
        finite), the frame-gradient terms are exactly +0.0, so they are not
        built: adding 0.0 in their place gives the same bits, signed zeros
        included."""
        C = self.frame_values(pts)
        gf = f.grad_at(pts)
        val = np.einsum("jni,jnk,nik->n", C, C, f.hess_at(pts))
        finite = np.all(np.isfinite(gf))
        if self.drift_free and finite:
            return val
        rho = self.measure_density
        x_log_rho = np.einsum("jni,ni->jn", C, rho.grad_at(pts)) / rho.value_at(pts)
        if self.constant_frame and finite:
            first = np.einsum("jn,jnk->nk", x_log_rho + 0.0, C)
            first += 0.0
        else:
            G = self.frame_grads(pts)
            first = np.einsum("jni,jnki->nk", C, G)
            first += np.einsum("jn,jnk->nk", np.einsum("jnii->jn", G) + x_log_rho, C)
        val += np.einsum("nk,nk->n", first, gf)
        return val

    def gamma(self, f: ScalarField, g: ScalarField | None, pts):
        """Gamma(f, g) on the points.  When f or g is a supported field, only
        its support rows are computed (with the full trees of both fields
        and the frame coefficients, on the same sub-array) and the rest is
        zero."""
        g = f if g is None else g
        on = support(f if isinstance(f, SupportedField) else g, pts)
        # the coefficients on the sub-array are the support rows' values in
        # the whole array's C-contiguous (j, n, i) layout, so einsum sums in
        # the same order, and they are freed with the sub-array
        return on.spread(_frame_gamma(self.frame_values(on.sub), unsupported(f),
                                      unsupported(g), on.sub))

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

    The gradient is taken through each frame field, from
    ``FrameDiffusion.frame_derivatives``:

        grad Gamma(f, g) = sum_j (X_j g) grad(X_j f) + (X_j f) grad(X_j g),

    which is 2 sum_j (X_j f) grad(X_j f) when g is f.  The Hessian (third
    derivatives of f, g) falls back to differencing the gradient.
    """

    def __init__(self, diff: FrameDiffusion, f: ScalarField, g: ScalarField):
        self.diff = diff
        self.f = f
        self.g = g

    def _value(self, pts):
        return self.diff.gamma(self.f, self.g, pts)

    def _grad(self, pts):
        xf, dxf = self.diff.frame_derivatives(self.f, pts)
        if self.g is self.f:
            return 2.0 * np.einsum("jn,jna->na", xf, dxf)
        xg, dxg = self.diff.frame_derivatives(self.g, pts)
        return np.einsum("jn,jna->na", xg, dxf) + np.einsum("jn,jna->na", xf, dxg)

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
    meets the same W for every bump, however it evaluates W on its own rows.
    Computed in row blocks."""
    return memo(W, (diff, "L(W^2)"), pts,
                lambda p: blockwise(lambda b: diff.apply_L(squared(W), b), p))


def gamma_w(diff: Diffusion, W: ScalarField, f: ScalarField, p):
    """The order-zero generalized carre du champ applied to f:

    Gamma^W(f) = (1/2)(L(W^2) f^2 + 2 Gamma(W^2, f^2) + 2 W^2 Gamma(f)).
    """
    pts, single = as_points(p, diff.dim)
    on, val = gamma_w_rows(diff, W, f, pts)
    val = on.spread(val)
    return float(val[0]) if single else val


def gamma_w_rows(diff: Diffusion, W: ScalarField, f: ScalarField, pts):
    """(on, values): ``on`` = ``fields.support(f, pts)`` and Gamma^W(f) on
    its rows; every other node gives exactly 0.  The weight-side terms are
    gathered from their whole-array memo entries, L(W^2) first, so its pass
    never meets a bump's sub-array.  The domain masks hold on all of pts,
    and off the rows the value is (1/2)(L(W^2) 0 + 0 + 2 W^2 0), so L(W^2)
    or 2 W^2 not finite at some node raises the NumericError too; both
    weight-side checks run once per points array."""
    pts, _ = as_points(pts, diff.dim)
    in_domain = memo(W, (diff, "in domain"), pts,
                     lambda p: bool(np.all(diff.mask(p) & W._mask(p))))
    if not in_domain:
        raise DomainError("point outside the domain mask of the field or diffusion")
    if not np.all(f._mask(pts)):
        raise DomainError("point outside the domain mask of f")
    W2 = squared(W)
    lw2 = l_of_square(diff, W, pts)
    w2 = W2.value_at(pts)
    finite = memo(W, (diff, "L(W^2), 2 W^2 finite"), pts,
                  lambda _: bool(np.all(np.isfinite(lw2)) and np.all(np.isfinite(2.0 * w2))))
    on = support(f, pts)
    tree, sub = on.tree, on.sub
    fv = tree.value_at(sub)
    # a fresh square: ``squared`` would cache it on the tree, in a cycle
    val = 0.5 * (on.take(lw2) * fv ** 2
                 + 2.0 * diff.gamma(W2, ProductField(tree, tree), sub)
                 + 2.0 * on.take(w2) * diff.gamma(tree, tree, sub))
    if not (finite and np.all(np.isfinite(val))):
        raise NumericError("non-finite value in Gamma^W(f)")
    return on, val


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
