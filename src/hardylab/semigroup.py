r"""Grid heat semigroup: symmetric divergence-form discretization, implicit Euler.

The generator is discretized through its Dirichlet form: for each frame
field X_j the first-order difference X^h_j u = sum_i c_{ji} D^{+/-}_i u is
formed at every node (forward and backward variants averaged), and the
stiffness matrix assembles

    <u, -L_h v>_mu = (1/2) sum_{j,s} sum_nodes w (X^{h,s}_j u)(X^{h,s}_j v),

so L_h is self-adjoint and negative semidefinite in the mu_h inner product
by construction, with O(h^2) consistency on smooth fields.  Nodes outside
the retained set (box boundary and excisions) carry Dirichlet zeros, which
models the sub-Markov case.  Implicit Euler keeps the discrete L^2(mu_h)
contraction exact per step.

Each step solves (M + dt A) u+ = M u, where the matrix is symmetric positive
definite.  The first step tries Jacobi-preconditioned conjugate gradients,
capped at _CG_PROBE_ITERS iterations.  If it converges, every step uses CG
and nothing is factored; well-conditioned 3D grids go this way.  If it does
not, the matrix is factored once by sparse LU with a symmetric minimum-degree
ordering and no pivoting, and every step (the first included) uses that
factor; stiff grids go this way.  The choice depends only on the iteration
count, so results are deterministic.

A simulation owns its state; independent simulations are safe to run
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NumericError, PreconditionError
from .fields import PolyField, ScalarField
from .grid import Grid

_CG_PROBE_ITERS = 40


def _nonzero_axes(vector_field, m: int):
    axes = []
    for i in range(m):
        c = vector_field.coeffs[i]
        if isinstance(c, PolyField) and not c.terms:
            continue
        axes.append(i)
    return axes


def assemble_generator(diff, grid: Grid):
    """(w, A): quadrature weights and the stiffness matrix with
    <u, L_h v>_mu = -u^T A v.  A is symmetric positive semidefinite."""
    n = grid.n_nodes
    pts = grid.points
    w = grid.weights
    h = grid.spacing
    W = sp.diags(w)
    A = sp.csr_matrix((n, n))
    rows = np.arange(n)
    frame = getattr(diff, "frame", None)
    C = diff.frame_values(pts)  # (l, n, m)
    for j in range(C.shape[0]):
        axes = _nonzero_axes(frame[j], grid.dim) if frame is not None else range(grid.dim)
        for s in (+1, -1):
            data = []
            r_idx = []
            c_idx = []
            diag = np.zeros(n)
            for i in axes:
                coeff = s * C[j, :, i] / h[i]
                nb = grid.neighbor_rows(i, s)
                valid = nb >= 0
                diag -= coeff
                r_idx.append(rows[valid])
                c_idx.append(nb[valid])
                data.append(coeff[valid])
            r_idx.append(rows)
            c_idx.append(rows)
            data.append(diag)
            B = sp.coo_matrix((np.concatenate(data),
                               (np.concatenate(r_idx), np.concatenate(c_idx))),
                              shape=(n, n)).tocsr()
            A = A + 0.5 * (B.T @ (W @ B))
    return w, A.tocsr()


def apply_Lh(w, A, u):
    """L_h u = -M^{-1} A u."""
    return -(A @ u) / w


def symmetry_defect(diff, grid: Grid, n_trials: int = 5, seed: int = 0) -> float:
    """max relative defect |<u, L_h v> - <v, L_h u>| over random pairs."""
    w, A = assemble_generator(diff, grid)
    rng = np.random.default_rng(seed)
    worst = 0.0
    absA = abs(A)
    for _ in range(n_trials):
        u = rng.standard_normal(grid.n_nodes)
        v = rng.standard_normal(grid.n_nodes)
        num = abs(float(u @ (A @ v)) - float(v @ (A @ u)))
        den = float(np.abs(u) @ (absA @ np.abs(v)))
        worst = max(worst, num / den if den > 0 else num)
    return worst


class _Stepper:
    """Implicit-Euler steps of (M + dt A) u+ = M u for the generator of diff
    on grid; the solver is chosen on the first step (see the module doc)."""

    def __init__(self, diff, grid: Grid, dt: float):
        if not (np.isfinite(dt) and dt > 0):
            raise PreconditionError("dt must be positive and finite")
        self.dt = dt
        self.w, A = assemble_generator(diff, grid)
        with np.errstate(over="ignore"):
            self._S = (sp.diags(self.w) + dt * A).tocsr()
        if not np.all(np.isfinite(self._S.data)):
            raise PreconditionError(f"dt = {dt!r} overflows the implicit-Euler matrix")
        inv_diag = 1.0 / self._S.diagonal()
        self._precond = spla.LinearOperator(self._S.shape, matvec=lambda x: inv_diag * x)
        self._probing = True
        self._lu = None

    def n_steps(self, t: float) -> int:
        """round(t / dt) for a positive finite t; the count must be at least
        1 and fit in 64 bits."""
        if not (np.isfinite(t) and t > 0):
            raise PreconditionError(f"t_max must be positive and finite, got {t!r}")
        steps = t / self.dt
        if not 0.5 < steps < 2.0 ** 63:
            raise PreconditionError(f"t_max / dt = {steps:.3g} is not a step count "
                                    "between 1 and 2^63")
        return int(round(steps))

    def step(self, u):
        b = self.w * u
        if self._lu is None:
            out, info = spla.cg(self._S, b, x0=u, rtol=1e-12, atol=0.0, M=self._precond,
                                maxiter=_CG_PROBE_ITERS if self._probing else None)
            if info > 0 and self._probing:
                # S is symmetric positive definite: no pivoting is needed
                self._lu = spla.splu(self._S.tocsc(), permc_spec="MMD_AT_PLUS_A",
                                     diag_pivot_thresh=0.0,
                                     options={"SymmetricMode": True})
            elif info != 0:
                raise NumericError(f"conjugate-gradient solve failed (info={info})")
            self._probing = False
        if self._lu is not None:
            out = self._lu.solve(b)
        if not np.all(np.isfinite(out)):
            raise NumericError("non-finite state after implicit-Euler step")
        return out


def evolve(diff, f0: ScalarField, grid: Grid, t_max: float, dt: float,
           n_samples: int = 51):
    """Implicit-Euler trajectory of u' = L_h u from f0 with Dirichlet data.

    Returns (times, states) with states of shape (n_samples, n_nodes); the
    samples are evenly spaced in step index and always include t = 0 and
    the final time.
    """
    stepper = _Stepper(diff, grid, dt)
    u = f0.value_at(grid.points) if isinstance(f0, ScalarField) else np.asarray(f0, float).copy()
    if not np.all(np.isfinite(u)):
        raise PreconditionError("initial state must be finite on the grid")
    nsteps = stepper.n_steps(t_max)
    sample_at = np.unique(np.linspace(0, nsteps, min(n_samples, nsteps + 1)).astype(int))
    times = []
    states = []
    if 0 in sample_at:
        times.append(0.0)
        states.append(u.copy())
    for k in range(1, nsteps + 1):
        u = stepper.step(u)
        if k in sample_at:
            times.append(k * dt)
            states.append(u.copy())
    return np.array(times), np.array(states)


@dataclass
class ContractionTrace:
    """Samples of I(t) = int W^2 (P_t f)^2 dmu_h along a trajectory."""

    times: np.ndarray
    I_values: np.ndarray
    gamma: float
    mass_values: np.ndarray
    funcineq_flag: bool | None = None
    params: dict = field(default_factory=dict)

    def damped(self):
        """e^{2 gamma t} I(t), the quantity that must not increase."""
        return np.exp(2.0 * self.gamma * self.times) * self.I_values

    def passes(self, rel_tol: float = 1e-8) -> bool:
        return self.max_step_increase() <= rel_tol

    def max_step_increase(self) -> float:
        J = self.damped()
        if len(J) < 2:
            return 0.0
        return float(np.max(np.diff(J) / np.maximum(J[:-1], 1e-300)))


def contraction_trace(diff, W: ScalarField, f0: ScalarField, grid: Grid,
                      t_max: float, dt: float, gamma: float = 0.0,
                      precheck_corpus=None, precheck_tol: float = 1e-6) -> ContractionTrace:
    """Track I(t) = int W^2 (P_t f0)^2 dmu_h at every implicit-Euler step.

    When a corpus is supplied, the matching functional inequality is
    evaluated on it first; a violation only flags the trace, it does not
    suppress it.
    """
    stepper = _Stepper(diff, grid, dt)
    flag = None
    if precheck_corpus is not None:
        from .inequalities import funcineq_report
        flag = False
        for f in precheck_corpus:
            rep = funcineq_report(diff, W, gamma, f, grid)
            if rep.ratio is not None and rep.ratio > 1.0 + precheck_tol:
                flag = True
                break
    w = stepper.w
    u = f0.value_at(grid.points)
    w2 = W.value_at(grid.points) ** 2
    nsteps = stepper.n_steps(t_max)
    times = np.arange(nsteps + 1) * dt
    I = np.empty(nsteps + 1)
    mass = np.empty(nsteps + 1)
    I[0] = float(np.sum(w * w2 * u ** 2))
    mass[0] = float(np.sum(w * u))
    for k in range(1, nsteps + 1):
        u = stepper.step(u)
        I[k] = float(np.sum(w * w2 * u ** 2))
        mass[k] = float(np.sum(w * u))
    return ContractionTrace(times=times, I_values=I, gamma=gamma,
                            mass_values=mass, funcineq_flag=flag,
                            params={"t_max": t_max, "dt": dt})


def subcommutation_check(diff, W: ScalarField, f0: ScalarField, grid: Grid,
                         t: float, dt: float, gamma: float = 0.0) -> float:
    """min over retained nodes of e^{-2 gamma t} P_t(W^2 f0^2) - W^2 (P_t f0)^2.

    Both evolutions share the grid and step sequence; a pass is a minimum
    above -(C1 h^2 + C2 dt) for scheme constants C1, C2.
    """
    stepper = _Stepper(diff, grid, dt)
    pts = grid.points
    w2 = W.value_at(pts) ** 2
    u = f0.value_at(pts)
    v = w2 * u ** 2
    if t == 0.0:
        return 0.0
    for _ in range(stepper.n_steps(t)):
        u = stepper.step(u)
        v = stepper.step(v)
    return float(np.min(np.exp(-2.0 * gamma * t) * v - w2 * u ** 2))
