r"""Quadrature evaluation of the Hardy-type inequalities and sharpness probes.

Every report evaluates both sides of one inequality for one test function on
one grid and records lhs, rhs, the constant used, and their ratio; a valid
inequality never shows ratio > 1 beyond quadrature error.  The ids follow
the families

  hardy:             int psi^a (G(psi)/psi^2) f^2  <=  (2/(Q+a-2))^2 int psi^a G(f)
  log-hardy:         weights |log psi|^a G(psi)/(psi^2 log^2 psi), constant (2/(a-1))^2
  weighted-log-hardy: the log family carrying the extra factor psi^(2-Q)
  radial:            G(psi)^2/psi^2 against G(psi, f)^2 (needs G(psi, G(psi)) = 0)
  dilation:          psi^a f^2 against psi^a (D f)^2, constant (2/(Q_hom+a))^2
  funcineq:          int L(W^2) f^2 <= 2 int W^2 G(f) - 2 gamma int W^2 f^2
  homo-norm:         f^2/rho^2 against the kappa-assembled constant

A corpus sweep calls one report per test function on the same grid and
weight, so the costly terms no test function enters are computed once per
(grid, weight) and cached on the weight's field for that points array
(``fields.memo``): psi itself, G(psi), the powers psi^a (W^2 among them),
L(W^2) and L(W), the secondary-condition defect G(psi, G(psi)), the
Euler-identity defect D psi - psi and the kappa estimates.  Keys carry every parameter a
value depends on (the diffusion, alpha, Q, beta; p through W itself).  Each
report forms its left-side weights from these factors with one or two
elementwise operations.  Only the inputs of the checks are cached: every
report still compares them against its own tolerance and raises on its own.

``estimate_best_constant`` runs a Rayleigh-quotient search over smoothed
truncations of the near-optimal power profile; the supremum approaches the
sharp constant only as the support's log-width grows, which is why the
sharpness probes run on the 1D log-radial models from the catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calculus import Diffusion, l_of_square
from .catalog import GeometrySpec, Weight, as_diffusion, estimate_kappa, make_weight
from .errors import DegenerateInputError, PreconditionError, UsageError
from .fields import ScalarField, memo
from .grid import Grid, integrate
from .operators import dilation_operator
from .testfunctions import smoothed_power


@dataclass
class HardyReport:
    """Both sides of one inequality for one test function."""

    inequality_id: str
    lhs: float
    rhs: float
    constant_used: float
    ratio: float | None
    params: dict = field(default_factory=dict)

    def passes(self, tol: float = 1e-6) -> bool:
        return self.ratio is None or self.ratio <= 1.0 + tol

    def row(self) -> dict:
        return {"inequality": self.inequality_id, "lhs": self.lhs, "rhs": self.rhs,
                "constant": self.constant_used,
                "ratio": float("nan") if self.ratio is None else self.ratio}


def _require_support(grid: Grid, f: ScalarField):
    if not grid.supports(f):
        raise PreconditionError("test function support touches the grid boundary "
                                "or an excised region")


def _ratio(lhs: float, rhs: float):
    return lhs / rhs if rhs > 0 else None


def _masked_quadratic(fv, weight_vals):
    """f^2 * weight, evaluated only where f != 0 (singular weights are
    multiplied by an exact zero elsewhere)."""
    out = np.zeros_like(fv)
    nz = fv != 0.0
    out[nz] = fv[nz] ** 2 * weight_vals[nz]
    return out


def _masked_product(vals, weight_vals):
    """vals * weight only where vals != 0, so singular weights never meet
    the exact zeros outside a test function's support."""
    out = np.zeros_like(vals)
    nz = vals != 0.0
    out[nz] = vals[nz] * weight_vals[nz]
    return out


def _masked_log(vals, pv):
    """log psi where vals != 0 and 1 elsewhere, so log psi is only taken
    on a test function's support (one side of {psi = 1})."""
    return np.where(vals != 0.0, np.log(np.where(vals != 0.0, pv, 1.0)), 1.0)


def _support_side(psi_vals, fv):
    """Which side of {psi = 1} carries f; raises if the support crosses it."""
    nz = fv != 0.0
    if not np.any(nz):
        return None
    below = np.any(psi_vals[nz] < 1.0)
    above = np.any(psi_vals[nz] > 1.0)
    if below and above:
        raise PreconditionError("support crosses the level set {psi = 1}")
    return "lower" if below else "upper"


# -- weight-side terms: once per (field, key, points array) -----------------
# Each is cached in the field's "_weight_memo" slot; keys name the quantity,
# the diffusion and every parameter it depends on.

def _gamma_psi(diff: Diffusion, psi: ScalarField, pts):
    return memo(psi, "_weight_memo", (diff, "Gamma"), pts, lambda p: diff.gamma(psi, psi, p))


def _values(psi: ScalarField, pts):
    """psi on the whole points array.  A bump built on psi evaluates psi on
    its support rows only, which empties psi's own single-slot value memo;
    this slot is never asked about those row subsets."""
    return memo(psi, "_weight_memo", "value", pts, psi.value_at)


def _power(psi: ScalarField, a: float, pts):
    return memo(psi, "_weight_memo", ("power", a), pts, lambda p: _values(psi, p) ** a)


def _hardy_lhs_weight(diff: Diffusion, psi: ScalarField, alpha: float, pts):
    """psi^alpha Gamma(psi) / psi^2, formed from the cached factors."""
    return _power(psi, alpha, pts) * _gamma_psi(diff, psi, pts) / _values(psi, pts) ** 2


def hardy_report(geo, psi: Weight, Q: float, alpha: float, f: ScalarField,
                 grid: Grid) -> HardyReport:
    """General weighted Hardy inequality with constant (2/(Q + alpha - 2))^2."""
    if Q + alpha == 2.0:
        raise UsageError("Q + alpha = 2 is the logarithmic case; "
                         "use log_hardy_report / weighted_log_hardy_report")
    diff = as_diffusion(geo)
    _require_support(grid, f)
    pts = grid.points
    fv = f.value_at(pts)
    lhs = integrate(grid, _masked_quadratic(fv, _hardy_lhs_weight(diff, psi.psi, alpha, pts)))
    const = (2.0 / (Q + alpha - 2.0)) ** 2
    rhs = const * integrate(grid, _power(psi.psi, alpha, pts) * diff.gamma(f, f, pts))
    return HardyReport("hardy", lhs, rhs, const, _ratio(lhs, rhs),
                       {"Q": Q, "alpha": alpha, "weight": psi.name})


def log_hardy_report(geo, psi: Weight, alpha: float, f: ScalarField,
                     grid: Grid) -> HardyReport:
    """Critical-case Hardy inequality with logarithmic weights,
    constant (2/(alpha - 1))^2; log^p psi means |log psi|^p."""
    if alpha == 1.0:
        raise UsageError("alpha = 1 is excluded in the logarithmic family")
    diff = as_diffusion(geo)
    _require_support(grid, f)
    pts = grid.points
    fv = f.value_at(pts)
    pv = _values(psi.psi, pts)
    _support_side(pv, fv)
    gpsi = _gamma_psi(diff, psi.psi, pts)
    logs = _masked_log(fv, pv)
    la = np.abs(logs) ** alpha
    lhs = integrate(grid, _masked_quadratic(fv, la * gpsi / (pv ** 2 * logs ** 2)))
    const = (2.0 / (alpha - 1.0)) ** 2
    gf = diff.gamma(f, f, pts)
    rhs = const * integrate(grid, _masked_product(gf, np.abs(_masked_log(gf, pv)) ** alpha))
    return HardyReport("log-hardy", lhs, rhs, const, _ratio(lhs, rhs),
                       {"alpha": alpha, "weight": psi.name})


def weighted_log_hardy_report(geo, psi: Weight, Q: float, alpha: float,
                              f: ScalarField, grid: Grid) -> HardyReport:
    """Log family with the extra factor psi^(2-Q) on both sides (the
    Q + alpha = 2 branch of the weighted inequalities)."""
    if Q == 2.0:
        raise UsageError("Q = 2 reduces to log_hardy_report")
    if alpha == 1.0:
        raise UsageError("alpha = 1 is excluded in the logarithmic family")
    diff = as_diffusion(geo)
    _require_support(grid, f)
    pts = grid.points
    fv = f.value_at(pts)
    pv = _values(psi.psi, pts)
    _support_side(pv, fv)
    gpsi = _gamma_psi(diff, psi.psi, pts)
    logs = _masked_log(fv, pv)
    la = np.abs(logs) ** alpha
    w = _power(psi.psi, 2.0 - Q, pts)
    lhs = integrate(grid, _masked_quadratic(fv, w * la * gpsi / (pv ** 2 * logs ** 2)))
    const = (2.0 / (alpha - 1.0)) ** 2
    gf = diff.gamma(f, f, pts)
    la_full = np.abs(_masked_log(gf, pv)) ** alpha
    rhs = const * integrate(grid, _masked_product(gf, w * la_full))
    return HardyReport("weighted-log-hardy", lhs, rhs, const, _ratio(lhs, rhs),
                       {"Q": Q, "alpha": alpha, "weight": psi.name})


def secondary_condition_defect(diff: Diffusion, psi: ScalarField, pts) -> float:
    """max |Gamma(psi, Gamma(psi))| over the points, computed once per
    (diffusion, psi, points array)."""

    def compute(p):
        return float(np.max(np.abs(diff.gamma(psi, diff.gamma_field(psi, psi), p))))

    return memo(psi, "_weight_memo", (diff, "secondary"), np.asarray(pts, dtype=float),
                compute)


def _require_secondary(diff: Diffusion, psi: ScalarField, pts, tol: float):
    defect = secondary_condition_defect(diff, psi, pts)
    if defect > tol:
        raise PreconditionError(
            f"Gamma(psi, Gamma(psi)) = {defect:.3e} exceeds tolerance {tol:.1e}")


def radial_hardy_report(geo, psi: Weight, Q: float, alpha: float, f: ScalarField,
                        grid: Grid, secondary_tol: float = 1e-8) -> HardyReport:
    """Radial-derivative Hardy inequality: the right side only sees
    Gamma(psi, f)^2.  Requires Gamma(psi, Gamma(psi)) = 0 on the grid."""
    if Q + alpha == 2.0:
        raise UsageError("Q + alpha = 2 is the logarithmic case; "
                         "use radial_log_hardy_report")
    diff = as_diffusion(geo)
    _require_support(grid, f)
    pts = grid.points
    _require_secondary(diff, psi.psi, pts, secondary_tol)
    fv = f.value_at(pts)
    pv = _values(psi.psi, pts)
    pa = _power(psi.psi, alpha, pts)
    gpsi = _gamma_psi(diff, psi.psi, pts)
    lhs = integrate(grid, _masked_quadratic(fv, pa * gpsi ** 2 / pv ** 2))
    const = (2.0 / (Q + alpha - 2.0)) ** 2
    zf = diff.gamma(psi.psi, f, pts)
    rhs = const * integrate(grid, pa * zf ** 2)
    return HardyReport("radial", lhs, rhs, const, _ratio(lhs, rhs),
                       {"Q": Q, "alpha": alpha, "weight": psi.name})


def radial_log_hardy_report(geo, psi: Weight, Q: float, alpha: float,
                            f: ScalarField, grid: Grid,
                            secondary_tol: float = 1e-8) -> HardyReport:
    """Logarithmic variant of the radial family (factor psi^(2-Q), constant
    (2/(alpha-1))^2)."""
    if alpha == 1.0:
        raise UsageError("alpha = 1 is excluded in the logarithmic family")
    diff = as_diffusion(geo)
    _require_support(grid, f)
    pts = grid.points
    _require_secondary(diff, psi.psi, pts, secondary_tol)
    fv = f.value_at(pts)
    pv = _values(psi.psi, pts)
    _support_side(pv, fv)
    gpsi = _gamma_psi(diff, psi.psi, pts)
    logs = _masked_log(fv, pv)
    la = np.abs(logs) ** alpha
    w = _power(psi.psi, 2.0 - Q, pts)
    lhs = integrate(grid, _masked_quadratic(fv, w * la * gpsi ** 2 / (pv ** 2 * logs ** 2)))
    const = (2.0 / (alpha - 1.0)) ** 2
    zf2 = diff.gamma(psi.psi, f, pts) ** 2
    la_full = np.abs(_masked_log(zf2, pv)) ** alpha
    rhs = const * integrate(grid, _masked_product(zf2, w * la_full))
    return HardyReport("radial-log", lhs, rhs, const, _ratio(lhs, rhs),
                       {"Q": Q, "alpha": alpha, "weight": psi.name})


def _require_euler(geo: GeometrySpec, dil, psi: ScalarField, pts, tol: float):
    """Check the Euler identity D psi = psi on the grid, relative to max |psi|;
    the defect is computed once per (geometry, psi, points array)."""

    def compute(p):
        pv = _values(psi, p)
        scale = max(float(np.max(np.abs(pv))), 1.0)
        return float(np.max(np.abs(dil.dilation.apply(psi, p) - pv))), scale

    defect, scale = memo(psi, "_weight_memo", (as_diffusion(geo), "euler"), pts, compute)
    if defect > tol * scale:
        raise PreconditionError("Euler identity D psi = psi fails on the grid; "
                                "the weight is not a homogeneous quasinorm")


def dilation_hardy_report(geo: GeometrySpec, psi: Weight, alpha: float,
                          f: ScalarField, grid: Grid,
                          euler_tol: float = 1e-8) -> HardyReport:
    """Hardy inequality for the dilation operator, constant (2/(Q_hom+a))^2.

    The weight must be a homogeneous quasinorm: the Euler identity
    D psi = psi is verified on the grid before reporting.
    """
    dil = dilation_operator(geo)
    if dil.Q_hom + alpha == 0.0:
        raise UsageError("alpha = -Q_hom is excluded for the dilation family")
    _require_support(grid, f)
    pts = grid.points
    _require_euler(geo, dil, psi.psi, pts, euler_tol)
    fv = f.value_at(pts)
    pa = _power(psi.psi, alpha, pts)
    lhs = integrate(grid, _masked_quadratic(fv, pa))
    const = (2.0 / (dil.Q_hom + alpha)) ** 2
    df = dil.dilation.apply(f, pts)
    rhs = const * integrate(grid, pa * df ** 2)
    return HardyReport("dilation", lhs, rhs, const, _ratio(lhs, rhs),
                       {"Q_hom": dil.Q_hom, "alpha": alpha, "weight": psi.name})


def dilation_log_hardy_report(geo: GeometrySpec, psi: Weight, alpha: float,
                              f: ScalarField, grid: Grid,
                              euler_tol: float = 1e-8) -> HardyReport:
    """Critical dilation family: factor psi^(-Q_hom), weights |log psi|^a."""
    if alpha == 1.0:
        raise UsageError("alpha = 1 is excluded in the logarithmic family")
    dil = dilation_operator(geo)
    _require_support(grid, f)
    pts = grid.points
    _require_euler(geo, dil, psi.psi, pts, euler_tol)
    pv = _values(psi.psi, pts)
    fv = f.value_at(pts)
    _support_side(pv, fv)
    logs = _masked_log(fv, pv)
    la = np.abs(logs) ** alpha
    w = _power(psi.psi, -dil.Q_hom, pts)
    lhs = integrate(grid, _masked_quadratic(fv, w * la / logs ** 2))
    const = (2.0 / (alpha - 1.0)) ** 2
    df2 = dil.dilation.apply(f, pts) ** 2
    la_full = np.abs(_masked_log(df2, pv)) ** alpha
    rhs = const * integrate(grid, _masked_product(df2, w * la_full))
    return HardyReport("dilation-log", lhs, rhs, const, _ratio(lhs, rhs),
                       {"Q_hom": dil.Q_hom, "alpha": alpha, "weight": psi.name})


def funcineq_report(diff, W: ScalarField, gamma: float, f: ScalarField,
                    grid: Grid) -> HardyReport:
    """The multiplier functional inequality
    int L(W^2) f^2 <= 2 int W^2 G(f) - 2 gamma int W^2 f^2."""
    diff = as_diffusion(diff)
    _require_support(grid, f)
    pts = grid.points
    fv = f.value_at(pts)
    lhs = integrate(grid, _masked_quadratic(fv, l_of_square(diff, W, pts)))
    wv2 = _power(W, 2, pts)
    rhs = 2.0 * integrate(grid, wv2 * diff.gamma(f, f, pts)) \
        - 2.0 * gamma * integrate(grid, _masked_quadratic(fv, wv2))
    return HardyReport("funcineq", lhs, rhs, 1.0, _ratio(lhs, rhs),
                       {"gamma": gamma})


def funcineqgeneral_report(diff, W: ScalarField, beta: float, f: ScalarField,
                           grid: Grid) -> HardyReport:
    """The beta-transformed family
    (1-b) int W^(1-2b) LW f^2 + (b^2-b+1) int W^(-2b) G(W) f^2
        <= int W^(2-2b) G(f)."""
    diff = as_diffusion(diff)
    _require_support(grid, f)
    pts = grid.points
    fv = f.value_at(pts)

    lw = memo(W, "_weight_memo", (diff, "L(W)"), pts, lambda p: diff.apply_L(W, p))
    lw_term = _power(W, 1.0 - 2.0 * beta, pts) * lw
    gw_term = _power(W, -2.0 * beta, pts) * _gamma_psi(diff, W, pts)
    lhs = (1.0 - beta) * integrate(grid, _masked_quadratic(fv, lw_term)) \
        + (beta ** 2 - beta + 1.0) * integrate(grid, _masked_quadratic(fv, gw_term))
    gf = diff.gamma(f, f, pts)
    rhs = integrate(grid, _masked_product(gf, _power(W, 2.0 - 2.0 * beta, pts)))
    return HardyReport("funcineq-general", lhs, rhs, 1.0, _ratio(lhs, rhs),
                       {"beta": beta})


def homogeneous_norm_report(geo: GeometrySpec, rho: Weight, f: ScalarField,
                            grid: Grid, eps: float = 1e-3) -> HardyReport:
    """Nondegenerate Hardy inequality for a homogeneous norm rho.

    The constant is assembled from grid estimates of the comparability
    constants kappa: for horizontal dimension n_0 >= 3 it is
    (2/(n_0-2))^2 k^2(|x_0|) k^2(rho); for n_0 <= 2 the single-coordinate
    route gives 4 k^2(|x_{0,1}|) k^2(rho).  ``eps`` names the shift used in
    the underlying one-sided comparison; the reported constant is its
    eps -> 0 limit.  The kappa estimates are made once per (geometry, rho,
    points array).
    """
    diff = as_diffusion(geo)
    _require_support(grid, f)
    if geo.stratification is None:
        raise UsageError("homogeneous-norm reports need a stratified geometry")
    hor = [i for i, s in enumerate(geo.stratification) if s == 0]
    n0 = len(hor)
    if geo.name == "heisenberg":
        gauge = "koranyi-gauge"
    elif geo.name == "euclidean":
        gauge = "euclid-norm"
    else:
        raise UsageError(f"no gauge available on {geo.name!r} for the kappa estimate")
    if n0 >= 3:
        branch_const = (2.0 / (n0 - 2.0)) ** 2
        comp_name, comp_params = "horizontal-norm", {"indices": hor}
    else:
        branch_const = 4.0
        comp_name, comp_params = "coordinate", {"index": hor[0]}

    def kappas(p):
        nw = make_weight(geo, gauge)
        comp = make_weight(geo, comp_name, **comp_params)
        return estimate_kappa(comp, nw, grid), estimate_kappa(rho, nw, grid)

    pts = grid.points
    k_comp, k_rho = memo(rho.psi, "_weight_memo", (diff, "kappa"), pts, kappas)
    const = branch_const * k_comp ** 2 * k_rho ** 2
    fv = f.value_at(pts)
    lhs = integrate(grid, _masked_quadratic(fv, 1.0 / _values(rho.psi, pts) ** 2))
    rhs = const * integrate(grid, diff.gamma(f, f, pts))
    return HardyReport("homo-norm", lhs, rhs, const, _ratio(lhs, rhs),
                       {"n0": n0, "kappa_comp": k_comp, "kappa_rho": k_rho,
                        "eps": eps, "weight": rho.name})


# ---------------------------------------------------------------------------
# Sharpness probes
# ---------------------------------------------------------------------------

def rayleigh_ratio(geo, psi: Weight, alpha: float, f: ScalarField, grid: Grid) -> float:
    """R(f) = int psi^a (G(psi)/psi^2) f^2 / int psi^a G(f) (no constant)."""
    diff = as_diffusion(geo)
    pts = grid.points
    fv = f.value_at(pts)
    num = integrate(grid, _masked_quadratic(fv, _hardy_lhs_weight(diff, psi.psi, alpha, pts)))
    den = integrate(grid, _power(psi.psi, alpha, pts) * diff.gamma(f, f, pts))
    if den <= 0:
        raise DegenerateInputError("trial function has vanishing energy")
    return num / den


@dataclass
class PowerTrialFamily:
    """Smoothed truncations of psi^(-(Q+alpha-2)/2 + eps) on supports [a, b].

    ``ramp_factors`` controls how much of each support goes to the C^2
    ramps; widening any parameter list only enlarges the family.
    """

    psi: ScalarField
    Q: float
    alpha: float
    supports: tuple
    eps_values: tuple
    ramp_factors: tuple = (2.0,)

    @property
    def base_exponent(self) -> float:
        return -(self.Q + self.alpha - 2.0) / 2.0

    def make(self, eps: float, a: float, b: float, ramp: float) -> ScalarField:
        return smoothed_power(self.psi, eps, a, b, self.base_exponent, ramp)

    def candidates(self):
        for a, b in self.supports:
            for ramp in self.ramp_factors:
                if b <= ramp ** 2 * a:
                    continue
                for eps in self.eps_values:
                    yield {"eps": float(eps), "a": float(a), "b": float(b),
                           "ramp": float(ramp)}


def default_trial_family(psi: Weight, Q: float, alpha: float, grid: Grid,
                         margin: float = 1.05) -> PowerTrialFamily:
    """Family filling the grid's resolvable psi-range, with nested sub-supports
    so that widening the family is observable."""
    pv = psi.psi.value_at(grid.points)
    lo = float(np.min(pv)) * margin
    hi = float(np.max(pv)) / margin
    if not hi > lo > 0:
        raise DegenerateInputError("grid carries no usable psi-range")
    L = np.log(hi / lo)
    supports = [(lo * np.exp(L * s), hi) for s in (0.5, 0.25, 0.0)]
    ramps = tuple(sorted({2.0} | {float(np.exp(L / d)) for d in (8.0, 5.0, 3.5)}))
    eps = (0.3, 0.1, 0.03, 0.01, 0.003)
    return PowerTrialFamily(psi.psi, Q, alpha, tuple(supports), eps, ramps)


def _golden_section_max(fun, lo: float, hi: float, iters: int = 20):
    """Golden-section maximization on [lo, hi]; returns (x, fun(x))."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return (c, fc) if fc > fd else (d, fd)


def estimate_best_constant(geo, psi: Weight, alpha: float,
                           trial_family: PowerTrialFamily | None = None,
                           grid: Grid | None = None, refine: bool = True):
    """Maximize the Rayleigh quotient over the trial family.

    Returns (sup_ratio, best_params).  The supremum is compared against the
    theoretical constant (2/(Q + alpha - 2))^2 by the caller; it approaches
    that constant from below as the family widens (smaller eps, larger b/a).
    """
    if grid is None:
        raise UsageError("estimate_best_constant requires a grid")
    Q = psi.claimed_Q
    if trial_family is None:
        if Q is None:
            raise UsageError("weight carries no claimed Q; pass a trial family")
        trial_family = default_trial_family(psi, Q, alpha, grid)

    best = (-np.inf, None)
    for cand in trial_family.candidates():
        f = trial_family.make(cand["eps"], cand["a"], cand["b"], cand["ramp"])
        if not grid.supports(f):
            continue
        r = rayleigh_ratio(geo, psi, alpha, f, grid)
        if r > best[0]:
            best = (r, cand)
    if best[1] is None:
        raise DegenerateInputError("no trial function fits inside the grid")

    sup_ratio, params = best
    if refine:
        a, b, ramp = params["a"], params["b"], params["ramp"]

        def objective(log_eps):
            f = trial_family.make(float(np.exp(log_eps)), a, b, ramp)
            if not grid.supports(f):
                return -np.inf
            return rayleigh_ratio(geo, psi, alpha, f, grid)

        eps0 = params["eps"]
        x, fx = _golden_section_max(objective, np.log(eps0) - 3.0, np.log(eps0) + 1.5)
        if fx > sup_ratio:
            sup_ratio = fx
            params = {**params, "eps": float(np.exp(x))}
    return sup_ratio, params
