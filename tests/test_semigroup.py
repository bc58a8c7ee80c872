import numpy as np
import pytest

import hardylab as hl
from hardylab import semigroup
from hardylab.errors import PreconditionError
from hardylab.fields import (ComposeField, ConstField, FuncField,
                             SquareNormField, power_map)
from hardylab.inequalities import funcineq_report
from hardylab.operators import weighted_operator
from hardylab.semigroup import (apply_Lh, assemble_generator,
                                contraction_trace, evolve,
                                subcommutation_check, symmetry_defect,
                                trajectory)
from hardylab.testfunctions import radial_bump, smoothed_power


@pytest.fixture(scope="module")
def interval_grid():
    geo = hl.make_geometry("euclidean", m=1)
    grid = hl.make_grid(geo, [(0.0, 1.0)], n=512)
    return geo, grid


def test_evolve_zero_initial_state(interval_grid):
    geo, grid = interval_grid
    times, states = evolve(geo, ConstField(0.0), grid, 0.01, 1e-3)
    assert np.all(states == 0.0)


def test_dirichlet_eigenmode_decay(interval_grid):
    # |u(t)| ~ e^(-pi^2 t) for the lowest Dirichlet mode, within 2%
    geo, grid = interval_grid
    f0 = FuncField(lambda p: np.sin(np.pi * p[:, 0]))
    times, states = evolve(geo, f0, grid, t_max=0.1, dt=1e-4)
    w = grid.weights
    ratio = np.sqrt(np.sum(w * states[-1] ** 2) / np.sum(w * states[0] ** 2))
    assert ratio == pytest.approx(np.exp(-np.pi ** 2 * 0.1), rel=0.02)


def test_mass_monotone_for_nonnegative_data(interval_grid):
    geo, grid = interval_grid
    f0 = radial_bump(hl.CoordinateField(0), 0.2, 0.8)
    times, states = evolve(geo, f0, grid, t_max=0.05, dt=1e-3)
    mass = np.array([np.sum(grid.weights * s) for s in states])
    assert np.all(np.diff(mass) <= 1e-12)


def test_discrete_self_adjointness(interval_grid, eu3):
    geo, grid = interval_grid
    assert symmetry_defect(geo, grid, seed=1) < 1e-12
    geo3, w3, _ = eu3
    grid3 = hl.default_grid(geo3, w3, bounds=[(-2, 2)] * 3, n=16, excision_radius=0.4)
    assert symmetry_defect(geo3, grid3, seed=2) < 1e-12


def test_weighted_generator_assembles_from_the_scaled_frame(eu3):
    # the weighted operator has no frame of its own: its frame values are the
    # base's times sqrt(omega), and an axis whose values are all zero is skipped
    geo, w, _ = eu3
    grid = hl.default_grid(geo, w, bounds=[(-2, 2)] * 3, n=8)
    _, A = assemble_generator(geo, grid)
    _, A1 = assemble_generator(weighted_operator(geo, ConstField(1.0)), grid)
    assert np.array_equal(A1.toarray(), A.toarray())
    assert symmetry_defect(weighted_operator(geo, w.psi), grid, seed=3) < 1e-12


def test_per_step_contraction_exact(interval_grid):
    geo, grid = interval_grid
    f0 = FuncField(lambda p: np.sign(p[:, 0] - 0.37))  # rough data
    times, states = evolve(geo, f0, grid, t_max=0.01, dt=1e-3,
                           n_samples=11)
    norms = [np.sqrt(np.sum(grid.weights * s ** 2)) for s in states]
    for a, b in zip(norms[:-1], norms[1:]):
        assert b <= a * (1.0 + 1e-12)


def test_maximum_principle(interval_grid):
    geo, grid = interval_grid
    f0 = radial_bump(hl.CoordinateField(0), 0.1, 0.9)
    times, states = evolve(geo, f0, grid, t_max=0.05, dt=1e-3)
    assert states.min() >= -1e-10
    assert states.max() <= 1.0 + 1e-10


def test_contraction_trace_unweighted(interval_grid):
    geo, grid = interval_grid
    f0 = radial_bump(hl.CoordinateField(0), 0.2, 0.8)
    tr = contraction_trace(geo, ConstField(1.0), f0, grid,
                           t_max=0.05, dt=1e-3)
    assert tr.passes(0.0)  # spectral contraction is exact for W == 1
    assert np.all(tr.I_values >= 0)
    assert tr.times[0] == 0.0 and np.all(np.diff(tr.times) > 0)


def test_contraction_trace_weighted_radial_model(radial3):
    geo, w, grid = radial3
    W = ComposeField(power_map(0.5), w.psi)
    f0 = radial_bump(w.psi, 1.0, 3.0)
    assert funcineq_report(geo, W, 0.0, f0, grid).passes(1e-6)
    tr = contraction_trace(geo, W, f0, grid, t_max=0.2, dt=1e-3)
    assert tr.passes(1e-8)


def test_contraction_trace_gronwall_with_positive_gamma(eu3):
    # W_eps has a strictly positive criterion floor on a bounded box, so the
    # damped trace with that gamma must still decay
    geo, w, _ = eu3
    grid = hl.default_grid(geo, w, bounds=[(-2, 2)] * 3, n=24, excision_radius=0.35)
    eps = 0.5
    W = ComposeField(power_map(0.25), SquareNormField() + eps)
    from hardylab.conditions import check_suffcond
    _, s = check_suffcond(geo, W, grid, 0.0)
    assert s > 0
    gamma = 0.5 * s
    f0 = radial_bump(w.psi, 0.8, 1.5)
    assert funcineq_report(geo, W, gamma, f0, grid).passes(1e-6)
    tr = contraction_trace(geo, W, f0, grid, t_max=0.05, dt=1e-3, gamma=gamma)
    assert tr.passes(1e-8)
    J = tr.damped()
    assert np.all(J <= J[0] * (1.0 + 1e-8))


def test_subcommutation_time_zero_is_exact(radial3):
    geo, w, grid = radial3
    W = ComposeField(power_map(0.5), w.psi)
    f0 = radial_bump(w.psi, 1.0, 3.0)
    assert subcommutation_check(geo, W, f0, grid, 0.0, 1e-3) == 0.0


def test_subcommutation_unit_weight_kernel_cauchy_schwarz(interval_grid):
    geo, grid = interval_grid
    f0 = radial_bump(hl.CoordinateField(0), 0.2, 0.8)
    d = subcommutation_check(geo, ConstField(1.0), f0, grid, 0.05, 1e-3)
    assert d >= -1e-12


def test_subcommutation_defect_shrinks_under_refinement(eu3):
    geo, w, _ = eu3
    W = ComposeField(power_map(0.5), w.psi)
    f0 = radial_bump(w.psi, 0.6, 1.6)
    defects = []
    for n, dt in ((16, 2e-3), (32, 1e-3)):
        grid = hl.default_grid(geo, w, bounds=[(-2, 2)] * 3, n=n,
                               excision_radius=0.25)
        defects.append(subcommutation_check(geo, W, f0, grid, 0.05, dt))
    floor0 = min(defects[0], 0.0)
    floor1 = min(defects[1], 0.0)
    assert abs(floor1) <= 0.6 * abs(floor0) + 1e-12


def test_initial_slope_matches_functional_inequality_integrands(radial3):
    # [I(dt) - I(0)]/dt ~ int L(W^2) f^2 - 2 int W^2 Gamma(f) at O(h^2 + dt)
    geo, w, grid = radial3
    W = ComposeField(power_map(0.5), w.psi)
    f0 = radial_bump(w.psi, 1.0, 3.0)
    dt = 1e-5
    tr = contraction_trace(geo, W, f0, grid, t_max=10 * dt, dt=dt)
    slope = (tr.I_values[1] - tr.I_values[0]) / dt
    rep = funcineq_report(geo, W, 0.0, f0, grid)
    expected = rep.lhs - rep.rhs
    assert slope == pytest.approx(expected, rel=2e-3)


def test_equivalence_both_directions(radial3):
    # multiplier inequality holds => damped trace decays; a multiplier that
    # violates it on a near-optimizer produces a growing trace
    geo, w, grid = radial3
    good = ComposeField(power_map(0.5), w.psi)
    f_good = radial_bump(w.psi, 1.0, 3.0)
    rep = funcineq_report(geo, good, 0.0, f_good, grid)
    assert rep.ratio <= 1.0
    tr = contraction_trace(geo, good, f_good, grid, t_max=0.1, dt=1e-3)
    assert tr.passes(1e-8)

    # a violating multiplier needs a wide logarithmic range: the spectral cap
    # 1/(1/4 + pi^2/log^2(b/a)) must exceed the multiplier's constant 1
    geo_l = hl.make_geometry("logradial", m=3)
    w_l = hl.make_weight(geo_l, "euclid-norm")
    grid_l = hl.make_grid(geo_l, [(-6.0, 2.0)], n=1024)
    bad = ComposeField(power_map(-1.0), w_l.psi)
    f_bad = smoothed_power(w_l.psi, 0.01, float(np.exp(-5.5)), float(np.exp(1.5)),
                           base_exponent=0.5, ramp_factor=float(np.exp(1.5)))
    rep_bad = funcineq_report(geo_l, bad, 0.0, f_bad, grid_l)
    assert rep_bad.ratio > 1.0
    tr_bad = contraction_trace(geo_l, bad, f_bad, grid_l, t_max=0.01, dt=1e-4)
    assert not tr_bad.passes(1e-8)


@pytest.mark.parametrize("path", ["lu", "cg"])
def test_evolve_is_the_stacked_trajectory(interval_grid, eu3, path):
    # the same samples bit for bit, on the factored 1D path and the CG 3D path;
    # every yielded state is its own array, unchanged by later steps
    if path == "lu":
        geo, grid = interval_grid
        f0 = radial_bump(hl.CoordinateField(0), 0.2, 0.8)
    else:
        geo, w, _ = eu3
        grid = hl.default_grid(geo, w, bounds=[(-2, 2)] * 3, n=12, excision_radius=0.25)
        f0 = radial_bump(w.psi, 0.6, 1.6)
    times, states = evolve(geo, f0, grid, t_max=0.02, dt=1e-3, n_samples=8)
    samples = list(trajectory(geo, f0, grid, t_max=0.02, dt=1e-3, n_samples=8))
    assert [t for t, _ in samples] == [k * 1e-3 for k in (0, 2, 5, 8, 11, 14, 17, 20)]
    assert times.tobytes() == np.array([t for t, _ in samples]).tobytes()
    assert states.tobytes() == np.stack([u for _, u in samples]).tobytes()
    assert len({id(u) for _, u in samples}) == len(samples)
    assert states[0].tobytes() == f0.value_at(grid.points).tobytes()


def test_trajectory_takes_every_step_when_there_are_fewer_than_samples(interval_grid):
    geo, grid = interval_grid
    times, states = evolve(geo, ConstField(0.0), grid, 0.003, 1e-3)
    assert times.tolist() == [0.0, 1e-3, 2e-3, 3e-3] and states.shape == (4, grid.n_nodes)


@pytest.mark.parametrize("run", [evolve, trajectory])
@pytest.mark.parametrize("n_samples", [1, 0, -3])
def test_fewer_than_two_samples_is_rejected(interval_grid, run, n_samples):
    # t = 0 and the final time are always samples, so fewer than 2 cannot be
    geo, grid = interval_grid
    with pytest.raises(PreconditionError, match="n_samples must be at least 2"):
        run(geo, ConstField(0.0), grid, 0.01, 1e-3, n_samples=n_samples)


def _unit_trace(diff, f0, grid, t_max, dt):
    """contraction_trace with W = 1, called like trajectory."""
    return contraction_trace(diff, ConstField(1.0), f0, grid, t_max, dt)


@pytest.mark.parametrize("run", [evolve, trajectory, _unit_trace])
@pytest.mark.parametrize("shape", [(511,), (1, 512), (512, 1), ()])
def test_initial_state_of_the_wrong_shape_is_rejected(interval_grid, run, shape):
    geo, grid = interval_grid
    assert grid.n_nodes == 512
    with pytest.raises(PreconditionError, match=r"shape \(512,\), one value per grid node"):
        run(geo, np.zeros(shape), grid, 0.01, 1e-3)


@pytest.mark.parametrize("run", [evolve, trajectory, _unit_trace])
@pytest.mark.parametrize("as_field", [False, True])
def test_initial_state_that_is_not_finite_is_rejected(interval_grid, run, as_field):
    # checked before the first step, for an array and for a field alike
    geo, grid = interval_grid

    def nan_right(p):
        return np.where(p[:, 0] > 0.5, np.nan, 0.0)

    f0 = FuncField(nan_right) if as_field else nan_right(grid.points)
    with pytest.raises(PreconditionError, match="initial state must be finite on the grid"):
        run(geo, f0, grid, 0.01, 1e-3)


def test_initial_state_array_is_copied(interval_grid):
    geo, grid = interval_grid
    f0 = np.sin(np.pi * grid.points[:, 0])
    first = f0.copy()
    (t0, u0), _ = list(trajectory(geo, f0, grid, 0.002, 1e-3, n_samples=2))
    u0[:] = 0.0
    assert t0 == 0.0 and np.array_equal(f0, first)


def test_a_report_without_ratio_is_a_violation_and_its_trace_grows(eu2):
    # a large gamma makes the right side negative: the report has no ratio,
    # and lhs > rhs is a violation; the damped trace with that gamma grows
    geo, w, _ = eu2
    grid = hl.default_grid(geo, w, bounds=[(-2, 2)] * 2, n=24, excision_radius=0.3)
    f = hl.bump_corpus(w.psi, grid, 1, 0, (0.5, 1.6))[0]
    rep = funcineq_report(geo, ConstField(1.0), 1000.0, f, grid)
    assert rep.ratio is None and rep.lhs > rep.rhs and not rep.passes()
    tr = contraction_trace(geo, ConstField(1.0), f, grid, 0.002, 1e-3, gamma=1000.0)
    assert not tr.passes()


def test_evolve_rejects_bad_dt(interval_grid):
    geo, grid = interval_grid
    with pytest.raises(PreconditionError):
        evolve(geo, ConstField(0.0), grid, 0.1, 0.0)


@pytest.mark.parametrize("dt", [0.0, -1e-3, float("nan")])
def test_subcommutation_rejects_bad_dt(interval_grid, dt):
    geo, grid = interval_grid
    f0 = radial_bump(hl.CoordinateField(0), 0.2, 0.8)
    with pytest.raises(PreconditionError):
        subcommutation_check(geo, ConstField(1.0), f0, grid, 0.05, dt)


@pytest.mark.parametrize("dt", [0.0, -1e-3, float("nan")])
def test_contraction_trace_rejects_bad_dt(interval_grid, dt):
    geo, grid = interval_grid
    f0 = radial_bump(hl.CoordinateField(0), 0.2, 0.8)
    with pytest.raises(PreconditionError):
        contraction_trace(geo, ConstField(1.0), f0, grid, 0.05, dt)


def _solver_after_one_step(diff, grid, dt):
    stepper = semigroup._Stepper(diff, grid, dt)
    stepper.step(np.ones(grid.n_nodes))
    return "cg" if stepper._lu is None else "lu"


def test_solver_choice_follows_cg_probe(interval_grid, eu3):
    # a stiff 1D grid stalls the CG probe and factors; a 3D grid does not
    geo, grid = interval_grid
    assert _solver_after_one_step(geo, grid, 1e-4) == "lu"
    geo3, w3, _ = eu3
    grid3 = hl.default_grid(geo3, w3, bounds=[(-2, 2)] * 3, n=16, excision_radius=0.25)
    assert _solver_after_one_step(geo3, grid3, 2e-3) == "cg"


def test_cg_and_lu_paths_agree(eu3, monkeypatch):
    geo, w, _ = eu3
    grid = hl.default_grid(geo, w, bounds=[(-2, 2)] * 3, n=16, excision_radius=0.25)
    W = ComposeField(power_map(0.5), w.psi)
    f0 = radial_bump(w.psi, 0.6, 1.6)

    def run():
        _, states = evolve(geo, f0, grid, t_max=0.05, dt=2e-3)
        d = subcommutation_check(geo, W, f0, grid, 0.05, 2e-3)
        return _solver_after_one_step(geo, grid, 2e-3), states, d

    kind_cg, states_cg, d_cg = run()
    monkeypatch.setattr(semigroup, "_CG_PROBE_ITERS", 1)
    kind_lu, states_lu, d_lu = run()
    assert (kind_cg, kind_lu) == ("cg", "lu")
    assert np.max(np.abs(states_cg - states_lu)) <= 1e-10 * np.max(np.abs(states_lu))
    # the defect is a near-cancelling difference of O(scale) terms, so it is
    # compared on the scale that the subcommutation threshold uses
    scale = float(np.max(W.value_at(grid.points) ** 2 * f0.value_at(grid.points) ** 2))
    assert abs(d_cg - d_lu) <= 1e-10 * scale


def test_generator_action_is_consistent(interval_grid):
    # L_h of a smooth (C-infinity) interior profile approximates L at O(h^2)
    geo, grid = interval_grid
    from hardylab.fields import AffineField, exp_map
    u = AffineField([1.0 / 0.15], -0.5 / 0.15)
    f = ComposeField(exp_map(), -1.0 * (u * u))
    w, A = assemble_generator(geo, grid)
    lh = apply_Lh(w, A, f.value_at(grid.points))
    exact = geo.apply_L(f, grid.points)
    interior = grid.interior_depth(2) >= 2
    err = np.max(np.abs(lh - exact)[interior])
    assert err < 5e-2  # h = 1/512, fourth derivative O(1e4)
