r"""Derived diffusions: weighted, drifted, radial and dilation operators.

Starting from a base generator L these constructors produce

* ``weighted_operator``:  L_w f = w Lf + Gamma(w, f), same measure,
  carre du champ w * Gamma;
* ``drifted_operator``:   L_s f = Lf + Gamma(s, f), same Gamma, measure
  density multiplied by e^s;
* ``radial_operator``:    L_psi = Z^2 + (L psi) Z with Z = Gamma(psi, .),
  carre du champ Gamma(psi, f)^2, same measure;
* ``dilation_operator``:  D^2 + Q_hom D for the stratum-weighted Euler field
  D = sum_j c_j y_j d_j, against coordinate volume.

The drifted and radial operators need a frame base (a ``FrameDiffusion``).
Construction is pure; derived diffusions share immutable base state.
"""

from __future__ import annotations

import numpy as np

from .calculus import Diffusion, FrameDiffusion
from .errors import PreconditionError, UsageError
from .fields import (AffineField, ComposeField, ConstField, FuncField,
                     ProductField, ScalarField, VectorField, exp_map)


class WeightedDiffusion(Diffusion):
    """L_w f = w L f + Gamma(w, f) with Gamma_w = w Gamma and measure of the base."""

    def __init__(self, base: Diffusion, omega: ScalarField):
        self.base = base
        self.omega = omega
        self.dim = base.dim
        self.measure_density = base.measure_density

    def domain(self, pts):
        return self.base.domain(pts) & self.omega._mask(pts)

    def _omega_values(self, pts):
        w = self.omega.value_at(pts)
        bad = (w < 0) & self.domain(pts)
        if np.any(bad):
            raise PreconditionError("weight omega is negative at a masked point")
        return w

    def apply_L(self, f, pts):
        w = self._omega_values(pts)
        return w * self.base.apply_L(f, pts) + self.base.gamma(self.omega, f, pts)

    def gamma(self, f, g, pts):
        return self._omega_values(pts) * self.base.gamma(f, g, pts)

    def gamma_field(self, f, g=None):
        return ProductField(self.omega, self.base.gamma_field(f, g))

    def frame_values(self, pts):
        w = self._omega_values(pts)
        return np.sqrt(np.maximum(w, 0.0))[None, :, None] * self.base.frame_values(pts)


class ZCoefficientField(ScalarField):
    """k-th coefficient of Z = Gamma(psi, .): z_k = sum_i a_{ik} d_i psi."""

    def __init__(self, base: FrameDiffusion, psi: ScalarField, k: int):
        self.base = base
        self.psi = psi
        self.k = int(k)

    def _value(self, pts):
        A = self.base.coefficient_matrix(pts)
        return np.einsum("ni,ni->n", A[:, :, self.k], self.psi.grad_at(pts))

    def _grad(self, pts):
        # z_k = sum_j (X_j psi) c_{j,k}, differentiated through each frame field
        xp, dxp = self.base.frame_derivatives(self.psi, pts)
        return (np.einsum("jn,jna->na", self.base.frame_values(pts)[:, :, self.k], dxp)
                + np.einsum("jn,jna->na", xp, self.base.frame_grads(pts)[:, :, self.k]))

    def _mask(self, pts):
        return self.psi._mask(pts) & self.base.domain(pts)


class RadialDiffusion(FrameDiffusion):
    """One-field diffusion L_psi = Z^2 + (L psi) Z built from a base frame."""

    def __init__(self, base: FrameDiffusion, psi: ScalarField):
        zc = [ZCoefficientField(base, psi, k) for k in range(base.dim)]
        # L psi enters through its values only
        lpsi = FuncField(lambda pts: base.apply_L(psi, pts))
        drift = VectorField([ProductField(lpsi, c) for c in zc])
        super().__init__([VectorField(zc)], drift, base.measure_density,
                         base.dim, domain_mask=base.domain)


class DriftedDiffusion(FrameDiffusion):
    """L_s f = L f + Gamma(s, f): the base frame, the base drift plus
    Z = Gamma(s, .), and the measure density times e^s."""

    def __init__(self, base: FrameDiffusion, sigma: ScalarField):
        zc = [ZCoefficientField(base, sigma, k) for k in range(base.dim)]
        drift = zc if base.drift is None else [b + z for b, z in zip(base.drift.coeffs, zc)]
        density = ProductField(base.measure_density, ComposeField(exp_map(), sigma))
        super().__init__(base.frame, VectorField(drift), density, base.dim,
                         domain_mask=lambda pts: base.domain(pts) & sigma._mask(pts))


class DilationDiffusion(FrameDiffusion):
    """L = D^2 + Q_hom D for the stratum-weighted dilation derivation D."""

    def __init__(self, dilation: VectorField, Q_hom: float, dim: int):
        drift = VectorField([Q_hom * c for c in dilation.coeffs])
        super().__init__([dilation], drift, ConstField(1.0), dim)
        self.dilation = dilation
        self.Q_hom = float(Q_hom)


def weighted_operator(base: Diffusion, omega: ScalarField) -> WeightedDiffusion:
    """Carry a nonnegative weight on the carre du champ: Gamma_w = w Gamma."""
    return WeightedDiffusion(base, omega)


def drifted_operator(base: Diffusion, sigma: ScalarField) -> DriftedDiffusion:
    """Carry a weight e^sigma on the reversible measure instead; requires a
    frame base, whose drift gains Z = Gamma(sigma, .)."""
    if not isinstance(base, FrameDiffusion):
        raise UsageError("drifted_operator requires a frame-based diffusion")
    return DriftedDiffusion(base, sigma)


def radial_operator(base: Diffusion, psi: ScalarField) -> RadialDiffusion:
    """Square of the derivation Z = Gamma(psi, .) plus its symmetrizing drift.

    Gamma_psi(f) = Gamma(psi, f)^2, measure unchanged.  Requires a frame
    base so that Z's coefficients carry closed-form gradients.
    """
    if not isinstance(base, FrameDiffusion):
        raise UsageError("radial_operator requires a frame-based diffusion")
    return RadialDiffusion(base, psi)


def dilation_operator(geo) -> DilationDiffusion:
    """The Euler-type operator of a stratified geometry, D^2 + Q_hom D.

    Coordinates in stratum k carry weight k + 1, so on an abelian geometry D
    reduces to x . grad.  The reversible measure is coordinate volume.
    """
    if geo.stratification is None:
        raise PreconditionError(f"geometry {geo.name!r} carries no stratification")
    coeffs = [AffineField([0.0] * j + [s + 1.0]) for j, s in enumerate(geo.stratification)]
    return DilationDiffusion(VectorField(coeffs), geo.Q_hom, geo.dim)

