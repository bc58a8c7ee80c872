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

``trajectory``, ``evolve`` and ``contraction_trace`` share one set of checks
(``_start``) and one stepping loop (``_walk``).  No inequality is evaluated
here: a caller comparing a trace with one calls ``funcineq_report`` itself.

A simulation owns its state; independent simulations are safe to run
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NumericError, PreconditionError
from .fields import ScalarField
from .grid import Grid

_CG_PROBE_ITERS = 40


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
    C = diff.frame_values(pts)  # (l, n, m)
    for j in range(C.shape[0]):
        # a zero column would add only explicit zeros, which the products drop
        axes = [i for i in range(grid.dim) if np.any(C[j, :, i])]
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


def _start(diff, f0, grid: Grid, t_max: float, dt: float):
    """(stepper, initial state, step count) after every check."""
    if not isinstance(f0, ScalarField) and np.shape(f0) != (grid.n_nodes,):
        raise PreconditionError(f"initial state must have shape ({grid.n_nodes},), one value "
                                f"per grid node, got {np.shape(f0)}")
    stepper = _Stepper(diff, grid, dt)
    u = np.array(f0.value_at(grid.points) if isinstance(f0, ScalarField) else f0, float)
    if not np.all(np.isfinite(u)):
        raise PreconditionError("initial state must be finite on the grid")
    return stepper, u, stepper.n_steps(t_max)


def _sampled(diff, f0, grid: Grid, t_max: float, dt: float, n_samples: int):
    """(stepper, initial state, sample step indices) after every check."""
    if n_samples < 2:
        raise PreconditionError(f"n_samples must be at least 2 (t = 0 and the final time), "
                                f"got {n_samples!r}")
    stepper, u, nsteps = _start(diff, f0, grid, t_max, dt)
    steps = np.unique(np.linspace(0, nsteps, min(n_samples, nsteps + 1)).astype(int))
    return stepper, u, steps


def _walk(stepper: _Stepper, u, steps):
    """Step on from u, yielding (k * dt, state) at each step k of the
    ascending steps."""
    k = 0
    for target in steps:
        while k < target:
            u = stepper.step(u)
            k += 1
        yield k * stepper.dt, u


def trajectory(diff, f0, grid: Grid, t_max: float, dt: float, n_samples: int = 51):
    """Implicit-Euler trajectory of u' = L_h u from f0 with Dirichlet data,
    one sample at a time.

    f0 is a ScalarField or one value per grid node.  Yields (t, state) at
    n_samples steps evenly spaced in step index (at every step when there
    are fewer), always including t = 0 and the final time; t is k * dt at
    step k.
    Only the current state is held, and no yielded state is changed later.
    The arguments are checked when this is called, before the first sample.
    """
    return _walk(*_sampled(diff, f0, grid, t_max, dt, n_samples))


def evolve(diff, f0, grid: Grid, t_max: float, dt: float, n_samples: int = 51):
    """The samples of ``trajectory`` as (times, states), states of shape
    (samples, n_nodes)."""
    stepper, u, steps = _sampled(diff, f0, grid, t_max, dt, n_samples)
    times = np.empty(len(steps))
    states = np.empty((len(steps), grid.n_nodes))
    for i, (t, state) in enumerate(_walk(stepper, u, steps)):
        times[i], states[i] = t, state
    return times, states


@dataclass
class ContractionTrace:
    """Samples of I(t) = int W^2 (P_t f)^2 dmu_h along a trajectory."""

    times: np.ndarray
    I_values: np.ndarray
    gamma: float

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


def contraction_trace(diff, W: ScalarField, f0, grid: Grid, t_max: float, dt: float,
                      gamma: float = 0.0) -> ContractionTrace:
    """Track I(t) = int W^2 (P_t f0)^2 dmu_h at every implicit-Euler step.

    f0 and the times are checked and stepped as in ``trajectory``.
    """
    stepper, u, nsteps = _start(diff, f0, grid, t_max, dt)
    ww2 = stepper.w * W.value_at(grid.points) ** 2
    I = np.array([float(np.sum(ww2 * state ** 2))
                  for _, state in _walk(stepper, u, range(nsteps + 1))])
    return ContractionTrace(times=np.arange(nsteps + 1) * dt, I_values=I, gamma=gamma)


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
