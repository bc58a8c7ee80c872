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
none) go on both sides.  ``rayleigh_ratio``: hardy, constant 1.

The costly terms no test function enters are computed once per (grid, weight)
and cached on the weight's field while that points array lives
(``fields.memo``): psi, G(psi), the powers psi^a (W^2 among them), L(W^2) and
L(W), the defects G(psi, G(psi)) and D psi - psi, and the kappa estimates; a
bump's own entries on its sub-array leave them in place.  psi's value is
computed in row blocks, so its inner nodes keep none.  Keys carry every
parameter a value depends on (the diffusion, alpha, Q, beta; p through W
itself).  Only the inputs of the checks are cached: every report compares
them against ``SECONDARY_TOL`` or ``EULER_TOL`` and raises on its own.

A report works on f's support rows (``fields.support``; every row when f is
not supported): cached terms are gathered there, f's own terms computed on
the support sub-array, and only the quadrature sums see full-length arrays.

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
from .errors import DegenerateInputError, NumericError, PreconditionError, UsageError
from .fields import Support, ScalarField, blockwise, memo, support, value_in_blocks
from .grid import Grid
from .operators import dilation_operator
from .testfunctions import smoothed_power

SECONDARY_TOL = 1e-8  # largest max |Gamma(psi, Gamma(psi))| the radial families accept
EULER_TOL = 1e-8  # largest max |D psi - psi|, relative to max(max |psi|, 1), for dilation


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
        """ratio <= 1 + tol; without a ratio (rhs < 0, a negative term), lhs <= rhs."""
        return self.lhs <= self.rhs if self.ratio is None else self.ratio <= 1.0 + tol

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


def _integrals(grid: Grid, on: Support, terms) -> list:
    """coefficient * integral for each (coefficient, integrand on f's rows)
    term, in order.  Each integral sums one full-length array, zero off the
    rows: off them every integrand is a zero (``_factor`` raises where it is
    not), and numpy's pairwise sum adds zeros of either sign alike."""
    values = []
    for c, vals in terms:
        if not np.all(np.isfinite(vals)):
            raise NumericError("non-finite integrand value at a grid node")
        values.append(c * float(np.sum(on.spread(vals * on.take(grid.weights)))))
    return values


def _form(inequality_id: str, grid: Grid, f: ScalarField, sides) -> HardyReport:
    """The core under every report.  Checks f's support, then asks
    ``sides(on, fv)`` for (const, lhs_terms, rhs_terms, params), where
    ``on`` = ``fields.support(f, grid.points)`` and fv is f on its rows;
    every term is an array on those rows.  Left terms are (a, V) pairs, V
    multiplying f^2 only where f != 0; right terms are (b, U) pairs of
    finished integrands.  A right side whose every term is 0 holds no
    evidence (a nonzero f has energy) and raises ``DegenerateInputError``."""
    if not grid.supports(f):
        raise PreconditionError("test function support touches the grid boundary "
                                "or an excised region")
    on = support(f, grid.points)
    fv = on.tree.value_at(on.sub)
    # _integrals raises the NumericError for a non-finite integrand
    with np.errstate(over="ignore", invalid="ignore"):
        const, lhs_terms, rhs_terms, params = sides(on, fv)
        lhs = _integrals(grid, on, [(a, _masked_product(fv ** 2, v)) for a, v in lhs_terms])
        rhs = _integrals(grid, on, rhs_terms)
    if not any(rhs):
        raise DegenerateInputError("every right-side term is 0: the test function "
                                   "has no energy on the grid")
    lhs, rhs = sum(lhs[1:], lhs[0]), sum(rhs[1:], rhs[0])
    return HardyReport(inequality_id, lhs, rhs, const, lhs / rhs if rhs > 0 else None,
                       params)


# -- weight-side terms: once per (field, key, points array) -----------------
# Each is cached in the field's one memo table, next to its own "v"/"g"/"h";
# keys name the quantity, the diffusion and every parameter it depends on, so
# no two meet.  The terms are computed in row blocks (``fields.blockwise``),
# cached for the whole points array and gathered at f's rows.

def _value(psi: ScalarField, on: Support):
    return on.take(value_in_blocks(psi, on.pts))


def _gamma_psi(diff: Diffusion, psi: ScalarField, on: Support):
    return on.take(memo(psi, (diff, "Gamma"), on.pts,
                        lambda p: blockwise(lambda b: diff.gamma(psi, psi, b), p)))


def _power(psi: ScalarField, a: float, on: Support):
    return on.take(memo(psi, ("power", a), on.pts, lambda p: value_in_blocks(psi, p) ** a))


def _factor(psi: ScalarField, a: float, on: Support):
    """psi^a on f's rows, as the factor of an integrand psi^a E, E one of
    f's terms: off the rows that is psi^a 0, so a psi^a not finite at every
    node raises the NumericError."""
    whole = support(psi, on.pts)  # every row: a weight is no supported field
    if not memo(psi, ("power", a, "finite"), on.pts,
                lambda _: bool(np.all(np.isfinite(_power(psi, a, whole))))):
        raise NumericError("non-finite integrand value at a grid node")
    return _power(psi, a, on)


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
                 params: dict):
    """psi^alpha Gamma(psi) / psi^2 against const psi^alpha Gamma(f)."""

    def sides(on, fv):
        lhs = _power(psi, alpha, on) * _gamma_psi(diff, psi, on) / _value(psi, on) ** 2
        return (const, [(1.0, lhs)],
                [(const, _factor(psi, alpha, on) * diff.gamma(on.tree, on.tree, on.sub))],
                params)

    return sides


def _log_sides(const: float, alpha: float, psi: ScalarField, parts, params: dict):
    """Sides of a log family: int w |log psi|^a num/(den log^2 psi) f^2 against
    const int w |log psi|^a E, for const = ``_log_constant(alpha)``.
    ``parts(on)`` runs the family's own checks and gives (w, num, den, E) on
    f's rows, 1.0 for a missing factor."""

    def sides(on, fv):
        w, num, den, energy = parts(on)
        pv = _value(psi, on)
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
    return _form("hardy", grid, f, _hardy_sides(geo, psi.psi, alpha, const,
                                                {"Q": Q, "alpha": alpha, "weight": psi.name}))


def log_hardy_report(geo, psi: Weight, alpha: float, f: ScalarField,
                     grid: Grid) -> HardyReport:
    """Critical-case Hardy inequality with logarithmic weights,
    constant (2/(alpha - 1))^2; log^p psi means |log psi|^p."""
    const = _log_constant(alpha)

    def parts(on):
        return (1.0, _gamma_psi(geo, psi.psi, on), _value(psi.psi, on) ** 2,
                geo.gamma(on.tree, on.tree, on.sub))

    return _form("log-hardy", grid, f, _log_sides(const, alpha, psi.psi, parts,
                                                  {"alpha": alpha, "weight": psi.name}))


def weighted_log_hardy_report(geo, psi: Weight, Q: float, alpha: float,
                              f: ScalarField, grid: Grid) -> HardyReport:
    """Log family with the extra factor psi^(2-Q) on both sides (the
    Q + alpha = 2 branch of the weighted inequalities)."""
    if _excluded(Q, 2.0, Q):
        raise UsageError("Q = 2 reduces to log_hardy_report")
    const = _log_constant(alpha)

    def parts(on):
        return (_power(psi.psi, 2.0 - Q, on), _gamma_psi(geo, psi.psi, on),
                _value(psi.psi, on) ** 2, geo.gamma(on.tree, on.tree, on.sub))

    return _form("weighted-log-hardy", grid, f, _log_sides(
        const, alpha, psi.psi, parts, {"Q": Q, "alpha": alpha, "weight": psi.name}))


def secondary_condition_defect(diff: Diffusion, psi: ScalarField, pts) -> float:
    """max |Gamma(psi, Gamma(psi))| over the points, computed once per
    (diffusion, psi, points array)."""

    def compute(p):
        gpsi = diff.gamma_field(psi, psi)
        return float(np.max(np.abs(blockwise(lambda b: diff.gamma(psi, gpsi, b), p))))

    return memo(psi, (diff, "secondary"), np.asarray(pts, dtype=float), compute)


def _require_secondary(diff: Diffusion, psi: ScalarField, pts):
    defect = secondary_condition_defect(diff, psi, pts)
    if defect > SECONDARY_TOL:
        raise PreconditionError(f"Gamma(psi, Gamma(psi)) = {defect:.3e} exceeds "
                                f"tolerance {SECONDARY_TOL:.1e}")


def radial_hardy_report(geo, psi: Weight, Q: float, alpha: float, f: ScalarField,
                        grid: Grid) -> HardyReport:
    """Radial-derivative Hardy inequality: the right side only sees
    Gamma(psi, f)^2.  Requires Gamma(psi, Gamma(psi)) = 0 on the grid."""
    const = _hardy_constant(Q, alpha, "radial_log_hardy_report")

    def sides(on, fv):
        _require_secondary(geo, psi.psi, on.pts)
        pa, gpsi = _power(psi.psi, alpha, on), _gamma_psi(geo, psi.psi, on)
        return (const, [(1.0, pa * gpsi ** 2 / _value(psi.psi, on) ** 2)],
                [(const, _factor(psi.psi, alpha, on)
                  * geo.gamma(psi.psi, on.tree, on.sub) ** 2)],
                {"Q": Q, "alpha": alpha, "weight": psi.name})

    return _form("radial", grid, f, sides)


def radial_log_hardy_report(geo, psi: Weight, Q: float, alpha: float,
                            f: ScalarField, grid: Grid) -> HardyReport:
    """Logarithmic variant of the radial family (factor psi^(2-Q), constant
    (2/(alpha-1))^2)."""
    const = _log_constant(alpha)

    def parts(on):
        _require_secondary(geo, psi.psi, on.pts)
        return (_power(psi.psi, 2.0 - Q, on), _gamma_psi(geo, psi.psi, on) ** 2,
                _value(psi.psi, on) ** 2, geo.gamma(psi.psi, on.tree, on.sub) ** 2)

    return _form("radial-log", grid, f, _log_sides(
        const, alpha, psi.psi, parts, {"Q": Q, "alpha": alpha, "weight": psi.name}))


def _require_euler(geo: GeometrySpec, dil, psi: ScalarField, pts):
    """Check the Euler identity D psi = psi on the grid, relative to max |psi|;
    the defect is computed once per (geometry, psi, points array)."""

    def compute(p):
        pv = value_in_blocks(psi, p)
        scale = max(float(np.max(np.abs(pv))), 1.0)
        dpsi = blockwise(lambda b: dil.dilation.apply(psi, b), p)
        return float(np.max(np.abs(dpsi - pv))), scale

    defect, scale = memo(psi, (geo, "euler"), pts, compute)
    if defect > EULER_TOL * scale:
        raise PreconditionError("Euler identity D psi = psi fails on the grid; "
                                "the weight is not a homogeneous quasinorm")


def dilation_hardy_report(geo: GeometrySpec, psi: Weight, alpha: float,
                          f: ScalarField, grid: Grid) -> HardyReport:
    """Hardy inequality for the dilation operator, constant (2/(Q_hom+a))^2.

    The weight must be a homogeneous quasinorm: the Euler identity
    D psi = psi is verified on the grid before reporting.
    """
    dil = dilation_operator(geo)
    if _excluded(dil.Q_hom + alpha, 0.0, dil.Q_hom, alpha):
        raise UsageError("alpha = -Q_hom is excluded for the dilation family")
    const = (2.0 / (dil.Q_hom + alpha)) ** 2

    def sides(on, fv):
        _require_euler(geo, dil, psi.psi, on.pts)
        return (const, [(1.0, _power(psi.psi, alpha, on))],
                [(const, _factor(psi.psi, alpha, on)
                  * dil.dilation.apply(on.tree, on.sub) ** 2)],
                {"Q_hom": dil.Q_hom, "alpha": alpha, "weight": psi.name})

    return _form("dilation", grid, f, sides)


def dilation_log_hardy_report(geo: GeometrySpec, psi: Weight, alpha: float,
                              f: ScalarField, grid: Grid) -> HardyReport:
    """Critical dilation family: factor psi^(-Q_hom), weights |log psi|^a."""
    const = _log_constant(alpha)
    dil = dilation_operator(geo)

    def parts(on):
        _require_euler(geo, dil, psi.psi, on.pts)
        return (_power(psi.psi, -dil.Q_hom, on), 1.0, 1.0,
                dil.dilation.apply(on.tree, on.sub) ** 2)

    return _form("dilation-log", grid, f, _log_sides(
        const, alpha, psi.psi, parts, {"Q_hom": dil.Q_hom, "alpha": alpha, "weight": psi.name}))


def funcineq_report(diff, W: ScalarField, gamma: float, f: ScalarField,
                    grid: Grid) -> HardyReport:
    """The multiplier functional inequality
    int L(W^2) f^2 <= 2 int W^2 G(f) - 2 gamma int W^2 f^2."""

    def sides(on, fv):
        return (1.0, [(1.0, on.take(l_of_square(diff, W, on.pts)))],
                [(2.0, _factor(W, 2, on) * diff.gamma(on.tree, on.tree, on.sub)),
                 (-2.0 * gamma, _masked_product(fv ** 2, _power(W, 2, on)))],
                {"gamma": gamma})

    return _form("funcineq", grid, f, sides)


def funcineqgeneral_report(diff, W: ScalarField, beta: float, f: ScalarField,
                           grid: Grid) -> HardyReport:
    """The beta-transformed family
    (1-b) int W^(1-2b) LW f^2 + (b^2-b+1) int W^(-2b) G(W) f^2
        <= int W^(2-2b) G(f).
    A beta whose square overflows a float is a UsageError."""
    if not np.isfinite(float(beta) * float(beta)):
        raise UsageError(f"beta {beta!r} is too large: beta^2 overflows")

    def sides(on, fv):
        lw = on.take(memo(W, (diff, "L(W)"), on.pts,
                          lambda p: blockwise(lambda b: diff.apply_L(W, b), p)))
        return (1.0, [(1.0 - beta, _power(W, 1.0 - 2.0 * beta, on) * lw),
                      (beta ** 2 - beta + 1.0,
                       _power(W, -2.0 * beta, on) * _gamma_psi(diff, W, on))],
                [(1.0, _masked_product(diff.gamma(on.tree, on.tree, on.sub),
                                       _power(W, 2.0 - 2.0 * beta, on)))],
                {"beta": beta})

    return _form("funcineq-general", grid, f, sides)


def homogeneous_norm_report(geo: GeometrySpec, rho: Weight, f: ScalarField,
                            grid: Grid) -> HardyReport:
    """Nondegenerate Hardy inequality for a homogeneous norm rho.

    The constant is assembled from grid estimates of the comparability
    constants kappa: for horizontal dimension n_0 >= 3 it is
    (2/(n_0-2))^2 k^2(|x_0|) k^2(rho); for n_0 <= 2 the single-coordinate
    route gives 4 k^2(|x_{0,1}|) k^2(rho).  The kappa estimates are made
    once per (geometry, rho, points array).
    """

    def sides(on, fv):
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

        k_comp, k_rho = memo(rho.psi, (geo, "kappa"), on.pts, kappas)
        const = branch_const * k_comp ** 2 * k_rho ** 2
        return (const, [(1.0, 1.0 / _value(rho.psi, on) ** 2)],
                [(const, geo.gamma(on.tree, on.tree, on.sub))],
                {"n0": n0, "kappa_comp": k_comp, "kappa_rho": k_rho, "weight": rho.name})

    return _form("homo-norm", grid, f, sides)


# ---------------------------------------------------------------------------
# Sharpness probes
# ---------------------------------------------------------------------------

def rayleigh_ratio(geo, psi: Weight, alpha: float, f: ScalarField, grid: Grid) -> float:
    """R(f) = int psi^a (G(psi)/psi^2) f^2 / int psi^a G(f) (no constant)."""
    return _form("rayleigh", grid, f, _hardy_sides(geo, psi.psi, alpha, 1.0, {})).ratio


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


def default_trial_family(psi: Weight, Q: float, alpha: float, grid: Grid) -> PowerTrialFamily:
    """Family filling the grid's resolvable psi-range, 5% in from each end,
    with nested sub-supports so that widening the family is observable."""
    pv = psi.psi.value_at(grid.points)
    lo = float(np.min(pv)) * 1.05
    hi = float(np.max(pv)) / 1.05
    if not hi > lo > 0:
        raise DegenerateInputError("grid carries no usable psi-range")
    L = np.log(hi / lo)
    supports = [(lo * np.exp(L * s), hi) for s in (0.5, 0.25, 0.0)]
    ramps = tuple(sorted({2.0} | {float(np.exp(L / d)) for d in (8.0, 5.0, 3.5)}))
    eps = (0.3, 0.1, 0.03, 0.01, 0.003)
    return PowerTrialFamily(psi.psi, Q, alpha, tuple(supports), eps, ramps)


def _golden_section_max(fun, lo: float, hi: float):
    """Golden-section maximization on [lo, hi] in 20 steps; returns (x, fun(x))."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(20):
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
                           trial_family: PowerTrialFamily | None = None, *,
                           grid: Grid, refine: bool = True):
    """Maximize the Rayleigh quotient over the trial family.

    Returns (sup_ratio, best_params).  The supremum is compared against the
    theoretical constant (2/(Q + alpha - 2))^2 by the caller; it approaches
    that constant from below as the family widens (smaller eps, larger b/a).
    """
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
