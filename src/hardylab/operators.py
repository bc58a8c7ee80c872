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

The drifted, radial and dilation operators are frame diffusions: each names
a frame and a measure density, and ``FrameDiffusion`` derives the drift that
makes it symmetric against that measure.  The drifted operator keeps the
base frame against the density times e^s; the radial operator takes the
one-field frame Z, whose div_rho is L psi.  Both need a frame base (a
``FrameDiffusion``).  The weighted operator is not a frame diffusion: it
keeps the base measure and is symmetric because L_w f = w Lf + Gamma(w, f)
is the generator of the form int w Gamma(f, g) dmu.  Construction is pure;
derived diffusions share immutable base state.
"""

from __future__ import annotations

import numpy as np

from .calculus import Diffusion, FrameDiffusion
from .errors import PreconditionError, UsageError
from .fields import (AffineField, ComposeField, ConstField, CoordinateField,
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


class DilationDiffusion(FrameDiffusion):
    """L = D^2 + Q_hom D for the stratum-weighted dilation derivation D: the
    one-field frame diffusion against coordinate volume, where div D = Q_hom."""

    def __init__(self, dilation: VectorField, Q_hom: float, dim: int):
        super().__init__([dilation], ConstField(1.0), dim)
        self.dilation = dilation
        self.Q_hom = float(Q_hom)


def weighted_operator(base: Diffusion, omega: ScalarField) -> WeightedDiffusion:
    """Carry a nonnegative weight on the carre du champ: Gamma_w = w Gamma."""
    return WeightedDiffusion(base, omega)


def drifted_operator(base: Diffusion, sigma: ScalarField) -> FrameDiffusion:
    """Carry a weight e^sigma on the reversible measure instead: the base
    frame against the density times e^sigma, so the derived drift gains
    Z = Gamma(sigma, .).  Requires a frame base."""
    if not isinstance(base, FrameDiffusion):
        raise UsageError("drifted_operator requires a frame-based diffusion")
    density = ProductField(base.measure_density, ComposeField(exp_map(), sigma))
    return FrameDiffusion(base.frame, density, base.dim,
                          domain_mask=lambda pts: base.domain(pts) & sigma._mask(pts))


def radial_operator(base: Diffusion, psi: ScalarField) -> FrameDiffusion:
    """Square of the derivation Z = Gamma(psi, .) plus its symmetrizing drift
    (L psi) Z, which div_rho Z = L psi derives.

    Z's coefficients are z_k = Gamma(psi, x_k), Gamma fields with closed-form
    gradients; Gamma_psi(f) = Gamma(psi, f)^2, measure unchanged.  Requires a
    frame base.
    """
    if not isinstance(base, FrameDiffusion):
        raise UsageError("radial_operator requires a frame-based diffusion")
    Z = VectorField([base.gamma_field(psi, CoordinateField(k)) for k in range(base.dim)])
    return FrameDiffusion([Z], base.measure_density, base.dim, domain_mask=base.domain)


def dilation_operator(geo) -> DilationDiffusion:
    """The Euler-type operator of a stratified geometry, D^2 + Q_hom D.

    Coordinates in stratum k carry weight k + 1, so on an abelian geometry D
    reduces to x . grad.  The reversible measure is coordinate volume.
    """
    if geo.stratification is None:
        raise PreconditionError(f"geometry {geo.name!r} carries no stratification")
    coeffs = [AffineField([0.0] * j + [s + 1.0]) for j, s in enumerate(geo.stratification)]
    return DilationDiffusion(VectorField(coeffs), geo.Q_hom, geo.dim)

