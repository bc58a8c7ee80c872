r"""Pointwise comparison and curvature conditions on grids.

The central quantity is the ratio r = psi L psi / Gamma(psi), which equals
Q - 1 identically when psi satisfies the generalized Laplacian comparison
with constant Q.  ``qcond_report`` collects the ratio statistics over a grid
and classifies the weight as exact, a one-sided bound, or a failure.

``check_suffcond`` evaluates the Bakry-Emery-style sufficient criterion
inf(LW/W - 3 Gamma(W)/W^2) >= gamma, which implies the curvature condition
Gamma^W(f) >= gamma W^2 f^2 checked directly by ``check_curvature``.
``power_range`` gives the admissible exponents p for W = psi^p at gamma = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calculus import Diffusion, gamma_w
from .catalog import Weight
from .errors import DegenerateInputError, PreconditionError
from .fields import ScalarField, blockwise

DEGENERATE_GAMMA_REL = 1e-12


@dataclass
class QcondReport:
    """Ratio statistics of psi L psi / Gamma(psi) over retained nodes."""

    Q_estimate: float
    max_defect: float
    inf_ratio: float
    sup_ratio: float
    verdict: str
    claimed_Q: float | None = None
    skipped: int = 0
    used: int = 0
    tolerance: float = 1e-8
    params: dict = field(default_factory=dict)

    def summary(self) -> dict:
        return {
            "Q_estimate": self.Q_estimate,
            "max_defect": self.max_defect,
            "inf_ratio": self.inf_ratio,
            "sup_ratio": self.sup_ratio,
            "verdict": self.verdict,
            "claimed_Q": self.claimed_Q,
            "skipped": self.skipped,
            "used": self.used,
        }


def qcond_ratios(diff: Diffusion, psi: ScalarField, pts):
    """(ratios, skipped): the comparison ratio where Gamma(psi) is
    nondegenerate, and the count of skipped degenerate nodes.  Gamma(psi),
    L psi and psi are computed in row blocks."""
    gam, lpsi, vals = blockwise(lambda p: (diff.gamma(psi, psi, p), diff.apply_L(psi, p),
                                           psi.value_at(p)), pts)
    scale = float(np.max(gam)) if len(gam) else 0.0
    ok = gam > DEGENERATE_GAMMA_REL * max(scale, 1.0)
    skipped = int(len(gam) - np.count_nonzero(ok))
    if not np.any(ok):
        raise DegenerateInputError("Gamma(psi) degenerate at every retained node")
    return vals[ok] * lpsi[ok] / gam[ok], skipped


def qcond_report(diff, weight: Weight, grid, tol: float = 1e-8) -> QcondReport:
    """Ratio statistics and verdict for a weight on a grid.

    The verdict is 'exact' when the ratio spread is within ``tol``,
    'lower-bound'/'upper-bound' when only one side of the claimed Q - 1
    holds, and 'fail' otherwise.
    """
    ratios, skipped = qcond_ratios(diff, weight.psi, grid.points)
    inf_r = float(np.min(ratios))
    sup_r = float(np.max(ratios))
    q_est = 1.0 + float(np.mean(ratios))
    claimed = weight.claimed_Q
    if claimed is not None:
        max_defect = float(np.max(np.abs(ratios - (claimed - 1.0))))
    else:
        max_defect = sup_r - inf_r

    if sup_r - inf_r <= tol and (claimed is None or max_defect <= tol):
        verdict = "exact"
    elif claimed is not None and inf_r >= claimed - 1.0 - tol:
        verdict = "lower-bound"
    elif claimed is not None and sup_r <= claimed - 1.0 + tol:
        verdict = "upper-bound"
    else:
        verdict = "fail"
    return QcondReport(Q_estimate=q_est, max_defect=max_defect, inf_ratio=inf_r,
                       sup_ratio=sup_r, verdict=verdict, claimed_Q=claimed,
                       skipped=skipped, used=len(ratios), tolerance=tol,
                       params={"weight": weight.name})


def suffcond_values(diff, W: ScalarField, pts):
    """Pointwise values of LW/W - 3 Gamma(W)/W^2, in row blocks."""

    def values(p):
        wv = W.value_at(p)
        if np.any(wv <= 0):
            raise PreconditionError("W must be positive at retained nodes")
        return diff.apply_L(W, p) / wv - 3.0 * diff.gamma(W, W, p) / wv ** 2

    return blockwise(values, pts)


def check_suffcond(diff, W: ScalarField, grid, gamma: float,
                   tol: float = 1e-10):
    """(passes, inf_value) for the criterion inf(LW/W - 3 Gamma(W)/W^2) >= gamma."""
    inf_value = float(np.min(suffcond_values(diff, W, grid.points)))
    return inf_value >= gamma - tol, inf_value


def check_curvature(diff, W: ScalarField, f: ScalarField, gamma: float, grid) -> float:
    """min over retained nodes of Gamma^W(f) - gamma W^2 f^2; a nonnegative
    minimum certifies the curvature condition for this f."""
    pts = grid.points
    vals = gamma_w(diff, W, f, pts)
    phi = (W.value_at(pts) * f.value_at(pts)) ** 2
    with np.errstate(over="ignore"):  # an overflowing gamma W^2 f^2 gives -inf
        return float(np.min(vals - gamma * phi))


def power_range(Q: float):
    """Closed interval of exponents p with p(p + Q - 2) - 3p^2 >= 0.

    The endpoints are 0 and (Q - 2)/2 in either order; for Q = 2 the range
    collapses to the single point 0.
    """
    lo, hi = sorted((0.0, (Q - 2.0) / 2.0))
    return (lo, hi)


def interior_powers(Q: float, count: int = 5):
    """Evenly spaced exponents strictly inside power_range(Q)."""
    lo, hi = power_range(Q)
    if hi - lo == 0.0:
        return []
    return list(lo + (hi - lo) * (np.arange(1, count + 1) / (count + 1.0)))
