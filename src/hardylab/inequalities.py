r"""Quadrature evaluation of the Hardy-type inequalities and sharpness probes.

Every family is an L2-Hardy inequality  sum_i a_i int V_i f^2 <= sum_j b_j int U_j
for one test function f on one grid.  One core, ``_form``, evaluates them all:
it checks that f's support stays clear of the grid boundary and excisions,
reads f, asks the family for its constant, params and (coefficient, array)
terms of each side, sums the terms in order and builds the ``HardyReport``;
a valid inequality never shows ratio > 1 beyond quadrature error.  The families:

  hardy:             int psi^a (G(psi)/psi^2) f^2  <=  (2/(Q+a-2))^2 int psi^a G(f)
  log-hardy:         weights |log psi|^a G(psi)/(psi^2 log^2 psi), constant (2/(a-1))^2
  weighted-log-hardy: the log family carrying the extra factor psi^(2-Q)
  radial:            G(psi)^2/psi^2 against G(psi, f)^2 (needs G(psi, G(psi)) = 0)
  dilation:          psi^a f^2 against psi^a (D f)^2, constant (2/(Q_hom+a))^2
  funcineq:          int L(W^2) f^2 <= 2 int W^2 G(f) - 2 gamma int W^2 f^2
  homo-norm:         f^2/rho^2 against the kappa-assembled constant

The four log families (log-hardy, weighted-log-hardy, radial-log, dilation-log)
take (2/(alpha-1))^2 from ``_log_constant`` (it rejects alpha = 1) and share
``_log_sides``: f's support stays on one side of {psi = 1}, log psi is taken only
where an integrand is nonzero, |log psi|^a and the family's factor w (1.0 for
none) go on both sides.  ``rayleigh_ratio``: hardy, constant 1, no support check.

The costly terms no test function enters are computed once per (grid, weight)
and cached on the weight's field for that points array (``fields.memo``): psi,
G(psi), the powers psi^a (W^2 among them), L(W^2) and L(W), the defects
G(psi, G(psi)) and D psi - psi, and the kappa estimates.  Keys carry every
parameter a value depends on (the diffusion, alpha, Q, beta; p through W
itself).  Only the inputs of the checks are cached: every report compares
them against its own tolerance and raises on its own.

``estimate_best_constant`` runs a Rayleigh-quotient search over smoothed
truncations of the near-optimal power profile; the supremum approaches the
sharp constant only as the support's log-width grows, which is why the
sharpness probes run on the 1D log-radial models from the catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calculus import Diffusion, l_of_square
from .catalog import GeometrySpec, Weight, estimate_kappa, make_weight
from .errors import DegenerateInputError, PreconditionError, UsageError
from .fields import ScalarField, blockwise, memo
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


def _total(grid: Grid, terms) -> float:
    """Sum of coefficient * integral over (coefficient, integrand) terms, in order."""
    values = [c * integrate(grid, vals) for c, vals in terms]
    return sum(values[1:], values[0])


def _form(inequality_id: str, grid: Grid, f: ScalarField, sides,
          check_support: bool = True) -> HardyReport:
    """The core under every report.  Checks f's support (unless the caller
    opts out), then asks ``sides(pts, fv)`` for (const, lhs_terms, rhs_terms,
    params): left terms are (a, V) pairs, V multiplying f^2 only where f != 0;
    right terms are (b, U) pairs of finished integrands."""
    if check_support and not grid.supports(f):
        raise PreconditionError("test function support touches the grid boundary "
                                "or an excised region")
    pts = grid.points
    fv = f.value_at(pts)
    # integrate raises the NumericError for a non-finite integrand
    with np.errstate(over="ignore", invalid="ignore"):
        const, lhs_terms, rhs_terms, params = sides(pts, fv)
        lhs = _total(grid, [(a, _masked_product(fv ** 2, v)) for a, v in lhs_terms])
        rhs = _total(grid, rhs_terms)
    return HardyReport(inequality_id, lhs, rhs, const, lhs / rhs if rhs > 0 else None,
                       params)


# -- weight-side terms: once per (field, key, points array) -----------------
# Each is cached in the field's "_weight_memo" slot; keys name the quantity,
# the diffusion and every parameter it depends on.  The terms that need
# derivatives are computed in row blocks (``fields.blockwise``) and cached
# for the whole points array.

def _gamma_psi(diff: Diffusion, psi: ScalarField, pts):
    return memo(psi, "_weight_memo", (diff, "Gamma"), pts,
                lambda p: blockwise(lambda b: diff.gamma(psi, psi, b), p))


def _values(psi: ScalarField, pts):
    """psi on the whole points array.  A bump built on psi evaluates psi on
    its support rows only, which empties psi's own single-slot value memo;
    this slot is never asked about those row subsets."""
    return memo(psi, "_weight_memo", "value", pts, psi.value_at)


def _power(psi: ScalarField, a: float, pts):
    return memo(psi, "_weight_memo", ("power", a), pts, lambda p: _values(psi, p) ** a)


def _excluded(value: float, point: float, *operands: float) -> bool:
    """Whether ``value``, formed from ``operands``, is ``point`` up to rounding."""
    return abs(value - point) <= 1e-12 * max(1.0, *(abs(x) for x in operands))


def _hardy_constant(Q: float, alpha: float, log_variant: str) -> float:
    if _excluded(Q + alpha, 2.0, Q, alpha):
        raise UsageError(f"Q + alpha = 2 is the logarithmic case; use {log_variant}")
    return (2.0 / (Q + alpha - 2.0)) ** 2


def _log_constant(alpha: float) -> float:
    if _excluded(alpha, 1.0, alpha):
        raise UsageError("alpha = 1 is excluded in the logarithmic family")
    return (2.0 / (alpha - 1.0)) ** 2


def _hardy_sides(diff: Diffusion, psi: ScalarField, alpha: float, const: float,
                 f: ScalarField, params: dict):
    """psi^alpha Gamma(psi) / psi^2 against const psi^alpha Gamma(f)."""

    def sides(pts, fv):
        pa = _power(psi, alpha, pts)
        return (const, [(1.0, pa * _gamma_psi(diff, psi, pts) / _values(psi, pts) ** 2)],
                [(const, pa * diff.gamma(f, f, pts))], params)

    return sides


def _log_sides(const: float, alpha: float, psi: ScalarField, parts, params: dict):
    """Sides of a log family: int w |log psi|^a num/(den log^2 psi) f^2 against
    const int w |log psi|^a E, for const = ``_log_constant(alpha)``.
    ``parts(pts)`` runs the family's own checks and gives (w, num, den, E),
    1.0 for a missing factor."""

    def sides(pts, fv):
        w, num, den, energy = parts(pts)
        pv = _values(psi, pts)
        nz = fv != 0.0
        if np.any(pv[nz] < 1.0) and np.any(pv[nz] > 1.0):
            raise PreconditionError("support crosses the level set {psi = 1}")
        logs = _masked_log(fv, pv)
        lhs = w * np.abs(logs) ** alpha * num / (den * logs ** 2)
        rhs = _masked_product(energy, w * np.abs(_masked_log(energy, pv)) ** alpha)
        return const, [(1.0, lhs)], [(const, rhs)], params

    return sides


def hardy_report(geo, psi: Weight, Q: float, alpha: float, f: ScalarField,
                 grid: Grid) -> HardyReport:
    """General weighted Hardy inequality with constant (2/(Q + alpha - 2))^2."""
    const = _hardy_constant(Q, alpha, "log_hardy_report / weighted_log_hardy_report")
    return _form("hardy", grid, f, _hardy_sides(geo, psi.psi, alpha, const, f,
                                                {"Q": Q, "alpha": alpha, "weight": psi.name}))


def log_hardy_report(geo, psi: Weight, alpha: float, f: ScalarField,
                     grid: Grid) -> HardyReport:
    """Critical-case Hardy inequality with logarithmic weights,
    constant (2/(alpha - 1))^2; log^p psi means |log psi|^p."""
    const = _log_constant(alpha)

    def parts(pts):
        return (1.0, _gamma_psi(geo, psi.psi, pts), _values(psi.psi, pts) ** 2,
                geo.gamma(f, f, pts))

    return _form("log-hardy", grid, f, _log_sides(const, alpha, psi.psi, parts,
                                                  {"alpha": alpha, "weight": psi.name}))


def weighted_log_hardy_report(geo, psi: Weight, Q: float, alpha: float,
                              f: ScalarField, grid: Grid) -> HardyReport:
    """Log family with the extra factor psi^(2-Q) on both sides (the
    Q + alpha = 2 branch of the weighted inequalities)."""
    if _excluded(Q, 2.0, Q):
        raise UsageError("Q = 2 reduces to log_hardy_report")
    const = _log_constant(alpha)

    def parts(pts):
        return (_power(psi.psi, 2.0 - Q, pts), _gamma_psi(geo, psi.psi, pts),
                _values(psi.psi, pts) ** 2, geo.gamma(f, f, pts))

    return _form("weighted-log-hardy", grid, f, _log_sides(
        const, alpha, psi.psi, parts, {"Q": Q, "alpha": alpha, "weight": psi.name}))


def secondary_condition_defect(diff: Diffusion, psi: ScalarField, pts) -> float:
    """max |Gamma(psi, Gamma(psi))| over the points, computed once per
    (diffusion, psi, points array)."""

    def compute(p):
        gpsi = diff.gamma_field(psi, psi)
        return float(np.max(np.abs(blockwise(lambda b: diff.gamma(psi, gpsi, b), p))))

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
    const = _hardy_constant(Q, alpha, "radial_log_hardy_report")

    def sides(pts, fv):
        _require_secondary(geo, psi.psi, pts, secondary_tol)
        pa = _power(psi.psi, alpha, pts)
        gpsi = _gamma_psi(geo, psi.psi, pts)
        return (const, [(1.0, pa * gpsi ** 2 / _values(psi.psi, pts) ** 2)],
                [(const, pa * geo.gamma(psi.psi, f, pts) ** 2)],
                {"Q": Q, "alpha": alpha, "weight": psi.name})

    return _form("radial", grid, f, sides)


def radial_log_hardy_report(geo, psi: Weight, Q: float, alpha: float,
                            f: ScalarField, grid: Grid,
                            secondary_tol: float = 1e-8) -> HardyReport:
    """Logarithmic variant of the radial family (factor psi^(2-Q), constant
    (2/(alpha-1))^2)."""
    const = _log_constant(alpha)

    def parts(pts):
        _require_secondary(geo, psi.psi, pts, secondary_tol)
        return (_power(psi.psi, 2.0 - Q, pts), _gamma_psi(geo, psi.psi, pts) ** 2,
                _values(psi.psi, pts) ** 2, geo.gamma(psi.psi, f, pts) ** 2)

    return _form("radial-log", grid, f, _log_sides(
        const, alpha, psi.psi, parts, {"Q": Q, "alpha": alpha, "weight": psi.name}))


def _require_euler(geo: GeometrySpec, dil, psi: ScalarField, pts, tol: float):
    """Check the Euler identity D psi = psi on the grid, relative to max |psi|;
    the defect is computed once per (geometry, psi, points array)."""

    def compute(p):
        pv = _values(psi, p)
        scale = max(float(np.max(np.abs(pv))), 1.0)
        dpsi = blockwise(lambda b: dil.dilation.apply(psi, b), p)
        return float(np.max(np.abs(dpsi - pv))), scale

    defect, scale = memo(psi, "_weight_memo", (geo, "euler"), pts, compute)
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
    if _excluded(dil.Q_hom + alpha, 0.0, dil.Q_hom, alpha):
        raise UsageError("alpha = -Q_hom is excluded for the dilation family")
    const = (2.0 / (dil.Q_hom + alpha)) ** 2

    def sides(pts, fv):
        _require_euler(geo, dil, psi.psi, pts, euler_tol)
        pa = _power(psi.psi, alpha, pts)
        return (const, [(1.0, pa)], [(const, pa * dil.dilation.apply(f, pts) ** 2)],
                {"Q_hom": dil.Q_hom, "alpha": alpha, "weight": psi.name})

    return _form("dilation", grid, f, sides)


def dilation_log_hardy_report(geo: GeometrySpec, psi: Weight, alpha: float,
                              f: ScalarField, grid: Grid,
                              euler_tol: float = 1e-8) -> HardyReport:
    """Critical dilation family: factor psi^(-Q_hom), weights |log psi|^a."""
    const = _log_constant(alpha)
    dil = dilation_operator(geo)

    def parts(pts):
        _require_euler(geo, dil, psi.psi, pts, euler_tol)
        return _power(psi.psi, -dil.Q_hom, pts), 1.0, 1.0, dil.dilation.apply(f, pts) ** 2

    return _form("dilation-log", grid, f, _log_sides(
        const, alpha, psi.psi, parts, {"Q_hom": dil.Q_hom, "alpha": alpha, "weight": psi.name}))


def funcineq_report(diff, W: ScalarField, gamma: float, f: ScalarField,
                    grid: Grid) -> HardyReport:
    """The multiplier functional inequality
    int L(W^2) f^2 <= 2 int W^2 G(f) - 2 gamma int W^2 f^2."""

    def sides(pts, fv):
        wv2 = _power(W, 2, pts)
        return (1.0, [(1.0, l_of_square(diff, W, pts))],
                [(2.0, wv2 * diff.gamma(f, f, pts)),
                 (-2.0 * gamma, _masked_product(fv ** 2, wv2))], {"gamma": gamma})

    return _form("funcineq", grid, f, sides)


def funcineqgeneral_report(diff, W: ScalarField, beta: float, f: ScalarField,
                           grid: Grid) -> HardyReport:
    """The beta-transformed family
    (1-b) int W^(1-2b) LW f^2 + (b^2-b+1) int W^(-2b) G(W) f^2
        <= int W^(2-2b) G(f)."""

    def sides(pts, fv):
        lw = memo(W, "_weight_memo", (diff, "L(W)"), pts,
                  lambda p: blockwise(lambda b: diff.apply_L(W, b), p))
        gw = _gamma_psi(diff, W, pts)
        return (1.0, [(1.0 - beta, _power(W, 1.0 - 2.0 * beta, pts) * lw),
                      (beta ** 2 - beta + 1.0, _power(W, -2.0 * beta, pts) * gw)],
                [(1.0, _masked_product(diff.gamma(f, f, pts),
                                       _power(W, 2.0 - 2.0 * beta, pts)))], {"beta": beta})

    return _form("funcineq-general", grid, f, sides)


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

    def sides(pts, fv):
        if geo.stratification is None:
            raise UsageError("homogeneous-norm reports need a stratified geometry")
        hor = [i for i, s in enumerate(geo.stratification) if s == 0]
        n0 = len(hor)
        gauge = {"heisenberg": "koranyi-gauge", "euclidean": "euclid-norm"}.get(geo.name)
        if gauge is None:
            raise UsageError(f"no gauge available on {geo.name!r} for the kappa estimate")
        branch_const = (2.0 / (n0 - 2.0)) ** 2 if n0 >= 3 else 4.0

        def kappas(p):
            nw = make_weight(geo, gauge)
            comp = (make_weight(geo, "horizontal-norm", indices=hor) if n0 >= 3
                    else make_weight(geo, "coordinate", index=hor[0]))
            return estimate_kappa(comp, nw, grid), estimate_kappa(rho, nw, grid)

        k_comp, k_rho = memo(rho.psi, "_weight_memo", (geo, "kappa"), pts, kappas)
        const = branch_const * k_comp ** 2 * k_rho ** 2
        return (const, [(1.0, 1.0 / _values(rho.psi, pts) ** 2)],
                [(const, geo.gamma(f, f, pts))],
                {"n0": n0, "kappa_comp": k_comp, "kappa_rho": k_rho, "eps": eps,
                 "weight": rho.name})

    return _form("homo-norm", grid, f, sides)


# ---------------------------------------------------------------------------
# Sharpness probes
# ---------------------------------------------------------------------------

def rayleigh_ratio(geo, psi: Weight, alpha: float, f: ScalarField, grid: Grid) -> float:
    """R(f) = int psi^a (G(psi)/psi^2) f^2 / int psi^a G(f) (no constant).
    The support is not checked: callers that need it check it first."""
    rep = _form("rayleigh", grid, f, _hardy_sides(geo, psi.psi, alpha, 1.0, f, {}),
                check_support=False)
    if rep.ratio is None:
        raise DegenerateInputError("trial function has vanishing energy")
    return rep.ratio


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

    def ratio(eps, a, b, ramp):
        """R of one trial function; -inf when it does not fit inside the grid."""
        f = trial_family.make(eps, a, b, ramp)
        # an overflowing trial function reaches _form, which raises the NumericError
        with np.errstate(over="ignore", invalid="ignore"):
            fits = grid.supports(f)
        return rayleigh_ratio(geo, psi, alpha, f, grid) if fits else -np.inf

    sup_ratio, params = max(((ratio(**cand), cand) for cand in trial_family.candidates()),
                            key=lambda pair: pair[0], default=(-np.inf, None))
    if sup_ratio == -np.inf:
        raise DegenerateInputError("no trial function fits inside the grid")
    if refine:
        a, b, ramp, eps0 = params["a"], params["b"], params["ramp"], params["eps"]
        x, fx = _golden_section_max(lambda log_eps: ratio(float(np.exp(log_eps)), a, b, ramp),
                                    np.log(eps0) - 3.0, np.log(eps0) + 1.5)
        if fx > sup_ratio:
            sup_ratio = fx
            params = {**params, "eps": float(np.exp(x))}
    return sup_ratio, params
