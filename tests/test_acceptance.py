"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
tolerance is pinned here, nothing is deferred to later calibration.
"""

import time

import numpy as np
import pytest

import hardylab as hl
from hardylab.calculus import (chain_rule_defect, gamma_chain_rule_defect,
                               gamma_definition_defect)
from hardylab.conditions import (check_curvature, check_suffcond,
                                 interior_powers, qcond_report,
                                 suffcond_values)
from hardylab.fields import (ComposeField, NormField, SquareNormField,
                             power_map, with_fd)
from hardylab.inequalities import (PowerTrialFamily, dilation_hardy_report,
                                   estimate_best_constant, funcineq_report,
                                   funcineqgeneral_report, hardy_report,
                                   homogeneous_norm_report, log_hardy_report,
                                   radial_hardy_report,
                                   weighted_log_hardy_report)
from hardylab.semigroup import (contraction_trace, evolve,
                                subcommutation_check, symmetry_defect)
from hardylab.testfunctions import (bump_corpus, polynomial_bump_corpus,
                                    radial_bump, random_polynomial)


def report(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. qcond exactness on the catalog pairs
# ---------------------------------------------------------------------------

def test_criterion_1_qcond_exactness():
    t0 = time.time()
    cases = []
    eu3 = hl.make_geometry("euclidean", m=3)
    cases.append((eu3, hl.make_weight(eu3, "euclid-norm"), 3.0, [(-2, 2)] * 3, 48))
    eu2 = hl.make_geometry("euclidean", m=2)
    cases.append((eu2, hl.make_weight(eu2, "euclid-norm"), 2.0, [(-2, 2)] * 2, 330))
    h1 = hl.make_geometry("heisenberg", m=1)
    cases.append((h1, hl.make_weight(h1, "koranyi-gauge"), 4.0, [(-2, 2)] * 3, 48))
    cases.append((h1, hl.make_weight(h1, "horizontal-norm"), 2.0, [(-2, 2)] * 3, 48))
    cases.append((h1, hl.make_weight(h1, "coordinate", index=2), 1.0, [(-2, 2)] * 3, 48))
    hyp = hl.make_geometry("hyperbolic", m=3)
    cases.append((hyp, hl.make_weight(hyp, "hyperbolic-height"), 0.0,
                  [(-1, 1), (-1, 1), (0.5, 2.5)], 48))
    gru = hl.make_geometry("grushin", n=1)
    cases.append((gru, hl.make_weight(gru, "grushin-gauge"), 3.0, [(-2, 2)] * 2, 330))

    worst = 0.0
    for geo, w, Q, bounds, n in cases:
        grid = hl.default_grid(geo, w, bounds=bounds, n=n)
        rep = qcond_report(geo, w, grid, tol=1e-8)
        assert grid.n_nodes > 9e4, (geo.name, grid.n_nodes)
        assert rep.verdict == "exact", (geo.name, w.name, rep.verdict)
        assert rep.Q_estimate == pytest.approx(Q, abs=1e-8)
        worst = max(worst, rep.max_defect)
    elapsed = time.time() - t0
    report("1 qcond-exactness",
           worst <= 1e-8 and elapsed < 10.0,
           f"worst defect {worst:.2e}, {elapsed:.1f}s for 7 pairs")


# ---------------------------------------------------------------------------
# 2. one-sided comparisons
# ---------------------------------------------------------------------------

def test_criterion_2_one_sided():
    sq = hl.make_geometry("convex-domain", m=2, box=[(-1, 1), (-1, 1)])
    delta = hl.make_weight(sq, "boundary-distance", corner_tube=0.1)
    grid = hl.default_grid(sq, delta, bounds=[(-1, 1), (-1, 1)], n=96,
                           excision_radius=0.05)
    rep = qcond_report(sq, delta, grid, tol=1e-10)
    ok_sq = rep.verdict == "upper-bound" and rep.sup_ratio <= 1.0 + 1e-10

    h1 = hl.make_geometry("heisenberg", m=1)
    eps = 1e-3
    shifted = hl.make_weight(h1, "shifted", eps=eps)
    grid_h = hl.default_grid(h1, shifted, bounds=[(-2, 2)] * 3, n=32,
                             excision_radius=0.15)
    rep_h = qcond_report(h1, shifted, grid_h, tol=1e-8)
    n0 = 2.0
    ok_sh = rep_h.inf_ratio >= n0 - 1.0 - 10.0 * eps
    report("2 one-sided-comparisons", ok_sq and ok_sh,
           f"square sup_ratio {rep.sup_ratio:.2e}, "
           f"shifted inf_ratio {rep_h.inf_ratio:.6f} >= {n0 - 1 - 10 * eps}")


# ---------------------------------------------------------------------------
# 3. sufficient-condition closed form and admissible powers
# ---------------------------------------------------------------------------

def test_criterion_3_suffcond():
    eu3 = hl.make_geometry("euclidean", m=3)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-2.0, 2.0, size=(1000, 3))
    n0, eps = 3.0, 0.25
    W_eps = ComposeField(power_map((n0 - 2.0) / 4.0), SquareNormField() + eps)
    got = suffcond_values(eu3, W_eps, pts)
    expected = eps * n0 * (n0 - 2.0) / 2.0 * (eps + np.sum(pts ** 2, axis=1)) ** -2
    defect = float(np.max(np.abs(got - expected)))
    ok_closed = defect <= 1e-8 and float(np.min(got)) >= 0.0

    pairs = []
    w3 = hl.make_weight(eu3, "euclid-norm")
    pairs.append((eu3, w3, hl.default_grid(eu3, w3, bounds=[(-2, 2)] * 3, n=32)))
    h1 = hl.make_geometry("heisenberg", m=1)
    wn = hl.make_weight(h1, "koranyi-gauge")
    pairs.append((h1, wn, hl.default_grid(h1, wn, bounds=[(-2, 2)] * 3, n=32)))
    wz = hl.make_weight(h1, "coordinate", index=2)
    pairs.append((h1, wz, hl.default_grid(h1, wz, bounds=[(-2, 2)] * 3, n=32)))
    hyp = hl.make_geometry("hyperbolic", m=3)
    wh = hl.make_weight(hyp, "hyperbolic-height")
    pairs.append((hyp, wh, hl.default_grid(hyp, wh,
                                           bounds=[(-1, 1), (-1, 1), (0.5, 2.5)], n=32)))
    gru = hl.make_geometry("grushin", n=1)
    wg = hl.make_weight(gru, "grushin-gauge")
    pairs.append((gru, wg, hl.default_grid(gru, wg, bounds=[(-2, 2)] * 2, n=180)))

    ok_powers = True
    for geo, w, grid in pairs:
        for p in interior_powers(w.claimed_Q, 5):
            W = ComposeField(power_map(p), w.psi)
            passed, inf_val = check_suffcond(geo, W, grid, 0.0)
            ok_powers = ok_powers and passed
    report("3 suffcond", ok_closed and ok_powers,
           f"W_eps defect {defect:.2e}; interior powers pass on "
           f"{len(pairs)} exact-Q pairs")


# ---------------------------------------------------------------------------
# 4. inequality suite
# ---------------------------------------------------------------------------

def _worst(reports):
    ratios = [r.ratio for r in reports if r.ratio is not None]
    return max(ratios) if ratios else 0.0


def test_criterion_4_inequality_suite():
    t0 = time.time()
    tol = 1e-6
    results = {}

    eu3 = hl.make_geometry("euclidean", m=3)
    w3 = hl.make_weight(eu3, "euclid-norm")
    g3 = hl.default_grid(eu3, w3, bounds=[(-2, 2)] * 3, n=48, excision_radius=0.25)
    c3 = bump_corpus(w3.psi, g3, 20, seed=101, psi_range=(0.45, 1.7))

    h1 = hl.make_geometry("heisenberg", m=1)
    wn = hl.make_weight(h1, "koranyi-gauge")
    gh = hl.default_grid(h1, wn, bounds=[(-2, 2)] * 3, n=48, excision_radius=0.25)
    ch = bump_corpus(wn.psi, gh, 20, seed=102, psi_range=(0.45, 1.7))

    for alpha in (-1.0, 0.0, 1.0, 2.0):
        if 3.0 + alpha != 2.0:
            results[f"hardy eu3 a={alpha}"] = _worst(
                [hardy_report(eu3, w3, 3.0, alpha, f, g3) for f in c3])
        if 4.0 + alpha != 2.0:
            results[f"hardy h1 a={alpha}"] = _worst(
                [hardy_report(h1, wn, 4.0, alpha, f, gh) for f in ch])

    eu2 = hl.make_geometry("euclidean", m=2)
    w2 = hl.make_weight(eu2, "euclid-norm")
    g2 = hl.default_grid(eu2, w2, bounds=[(-3, 3)] * 2, n=256, excision_radius=0.06)
    up = bump_corpus(w2.psi, g2, 20, seed=103, psi_range=(1.25, 2.6))
    lo = bump_corpus(w2.psi, g2, 20, seed=104, psi_range=(0.2, 0.8))
    for alpha in (0.0, 2.0):
        results[f"log-hardy upper a={alpha}"] = _worst(
            [log_hardy_report(eu2, w2, alpha, f, g2) for f in up])
        results[f"log-hardy lower a={alpha}"] = _worst(
            [log_hardy_report(eu2, w2, alpha, f, g2) for f in lo])

    g3w = hl.default_grid(eu3, w3, bounds=[(-3.4, 3.4)] * 3, n=56, excision_radius=0.25)
    c3w = bump_corpus(w3.psi, g3w, 20, seed=105, psi_range=(1.3, 2.8))
    results["weighted-log-hardy eu3"] = _worst(
        [weighted_log_hardy_report(eu3, w3, 3.0, 0.0, f, g3w) for f in c3w])
    chw = bump_corpus(wn.psi, gh, 20, seed=106, psi_range=(1.2, 1.8))
    results["weighted-log-hardy h1 a=2"] = _worst(
        [weighted_log_hardy_report(h1, wn, 4.0, 2.0, f, gh) for f in chw])

    results["radial eu3"] = _worst(
        [radial_hardy_report(eu3, w3, 3.0, 0.0, f, g3) for f in c3])
    results["radial h1-N"] = _worst(
        [radial_hardy_report(h1, wn, 4.0, 0.0, f, gh) for f in ch])

    results["dilation eu3"] = _worst(
        [dilation_hardy_report(eu3, w3, 0.0, f, g3) for f in c3])
    results["dilation h1"] = _worst(
        [dilation_hardy_report(h1, wn, 0.0, f, gh) for f in ch])

    results["homo-norm eu3"] = _worst(
        [homogeneous_norm_report(eu3, w3, f, g3) for f in c3])
    results["homo-norm h1"] = _worst(
        [homogeneous_norm_report(h1, wn, f, gh) for f in ch])

    W = ComposeField(power_map(0.5), w3.psi)
    results["funcineq"] = _worst(
        [funcineq_report(eu3, W, 0.0, f, g3) for f in c3])
    for beta in (-1.0, 0.0, 2.0):
        results[f"funcineq-general b={beta}"] = _worst(
            [funcineqgeneral_report(eu3, W, beta, f, g3) for f in c3])

    elapsed = time.time() - t0
    worst_name = max(results, key=results.get)
    ok = all(v <= 1.0 + tol for v in results.values()) and elapsed < 300.0
    report("4 inequality-suite", ok,
           f"{len(results)} cases x 20 bumps, worst ratio "
           f"{results[worst_name]:.6f} ({worst_name}), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 5. sharpness probes
# ---------------------------------------------------------------------------

def test_criterion_5_sharpness():
    sups = {}
    for m, label in ((3, "euclidean(3)"), (1, "half-line")):
        geo = hl.make_geometry("logradial", m=m)
        w = hl.make_weight(geo, "euclid-norm")
        grid = hl.make_grid(geo, [(-34.0, 3.0)], n=6000)
        sup, _ = estimate_best_constant(geo, w, 0.0, grid=grid)
        sups[label] = sup

    # widening the family never lowers the supremum
    geo = hl.make_geometry("logradial", m=3)
    w = hl.make_weight(geo, "euclid-norm")
    grid = hl.make_grid(geo, [(-34.0, 3.0)], n=6000)
    pv = w.psi.value_at(grid.points)
    lo, hi = pv.min() * 1.05, pv.max() / 1.05
    L = np.log(hi / lo)
    seq = []
    for frac, eps_list in (((0.6,), (0.3, 0.1)),
                           ((0.6, 0.3), (0.3, 0.1, 0.03)),
                           ((0.6, 0.3, 0.0), (0.3, 0.1, 0.03, 0.003))):
        supports = tuple((lo * np.exp(L * s), hi) for s in frac)
        fam = PowerTrialFamily(w.psi, 3.0, 0.0, supports, tuple(eps_list),
                               (2.0, float(np.exp(L / 5))))
        s, _ = estimate_best_constant(geo, w, 0.0, trial_family=fam,
                                      grid=grid, refine=False)
        seq.append(s)
    monotone = all(b >= a - 1e-12 for a, b in zip(seq, seq[1:]))
    ok = all(3.6 <= s <= 4.0 for s in sups.values()) and monotone
    report("5 sharpness-probes", ok,
           f"sup_ratio eu3 {sups['euclidean(3)']:.3f}, "
           f"half-line {sups['half-line']:.3f}, monotone {monotone}")


# ---------------------------------------------------------------------------
# 6. semigroup
# ---------------------------------------------------------------------------

def test_criterion_6_semigroup():
    from hardylab.fields import FuncField
    geo1 = hl.make_geometry("euclidean", m=1)
    grid1 = hl.make_grid(geo1, [(0.0, 1.0)], n=512)  # h = 1/512 <= 1/200
    f0 = FuncField(lambda p: np.sin(np.pi * p[:, 0]))
    times, states = evolve(geo1, f0, grid1, t_max=0.1, dt=1e-4)
    w1 = grid1.weights
    decay = np.sqrt(np.sum(w1 * states[-1] ** 2) / np.sum(w1 * states[0] ** 2))
    decay_err = abs(decay / np.exp(-np.pi ** 2 * 0.1) - 1.0)
    ok_decay = decay_err <= 0.02

    sym = symmetry_defect(geo1, grid1, seed=3)
    ok_sym = sym <= 1e-12

    norms = [np.sqrt(np.sum(w1 * s ** 2)) for s in states]
    ok_contract = all(b <= a * (1 + 1e-12) for a, b in zip(norms[:-1], norms[1:]))

    rad = hl.make_geometry("euclidean-radial", m=3)
    wr = hl.make_weight(rad, "euclid-norm")
    gridr = hl.make_grid(rad, [(0.2, 6.0)], n=512)
    W = ComposeField(power_map(0.5), wr.psi)
    f0r = radial_bump(wr.psi, 1.0, 3.0)
    tr = contraction_trace(rad, W, f0r, gridr, t_max=0.2, dt=1e-3)
    ok_trace = tr.passes(1e-8)

    eu3 = hl.make_geometry("euclidean", m=3)
    w3 = hl.make_weight(eu3, "euclid-norm")
    W3 = ComposeField(power_map(0.5), w3.psi)
    f03 = radial_bump(w3.psi, 0.6, 1.6)
    C1 = C2 = 10.0
    floors = []
    for n, dt in ((16, 2e-3), (32, 1e-3)):
        grid = hl.default_grid(eu3, w3, bounds=[(-2, 2)] * 3, n=n,
                               excision_radius=0.25)
        d = subcommutation_check(eu3, W3, f03, grid, 0.05, dt)
        h2 = float(np.max(grid.spacing)) ** 2
        scale = float(np.max(W3.value_at(grid.points) ** 2
                             * f03.value_at(grid.points) ** 2))
        assert d >= -(C1 * h2 + C2 * dt) * scale
        floors.append(max(0.0, -d))
    ok_sub = floors[1] <= 0.6 * floors[0] + 1e-12

    ok = ok_decay and ok_sym and ok_contract and ok_trace and ok_sub
    report("6 semigroup", ok,
           f"decay err {decay_err:.3%}, symmetry {sym:.1e}, "
           f"trace max step inc {tr.max_step_increase():.1e}, "
           f"subcommutation floors {floors}")


# ---------------------------------------------------------------------------
# 7. algebraic identities
# ---------------------------------------------------------------------------

def test_criterion_7_identities():
    geos = [hl.make_geometry("euclidean", m=3), hl.make_geometry("euclidean", m=2),
            hl.make_geometry("heisenberg", m=1), hl.make_geometry("hyperbolic", m=3),
            hl.make_geometry("grushin", n=1)]
    worst = 0.0
    for geo in geos:
        rng = np.random.default_rng(hash(geo.name) % 2 ** 32)
        pts = rng.uniform(0.4, 1.6, size=(1000, geo.dim))
        f = random_polynomial(geo.dim, 2, rng)
        g = random_polynomial(geo.dim, 2, rng)
        d = geo
        gf, gg, fg = d.gamma(f, f, pts), d.gamma(g, g, pts), d.gamma(f, g, pts)
        cs = float(np.max(fg ** 2 - gf * gg))
        worst = max(worst, cs)
        deriv = float(np.max(np.abs(
            d.gamma(f * g, f, pts) - f.value_at(pts) * d.gamma(g, f, pts)
            - g.value_at(pts) * d.gamma(f, f, pts))))
        shifted = f * f + 1.0
        cr1 = chain_rule_defect(d, power_map(2), f, pts)
        cr2 = gamma_chain_rule_defect(d, power_map(1.5), shifted, g, pts)
        gd = gamma_definition_defect(d, f, g, pts)
        worst = max(worst, deriv, cr1, cr2, gd)
    ok_closed = worst <= 1e-10

    # difference-oracle refinement: fitted slope 2.0 +- 0.2
    h1 = hl.make_geometry("heisenberg", m=1)
    wn = hl.make_weight(h1, "koranyi-gauge")
    rng = np.random.default_rng(7)
    pts = np.stack([rng.uniform(0.8, 1.5, 12), rng.uniform(0.8, 1.5, 12),
                    rng.uniform(-1.0, 1.0, 12)], axis=1)
    slopes = []
    steps = (0.02, 0.01, 0.005)
    for defect_fn in (
            lambda h: chain_rule_defect(h1, power_map(3),
                                        with_fd(wn.psi, h), pts),
            lambda h: gamma_definition_defect(h1, with_fd(wn.psi, h),
                                              with_fd(NormField([0, 1]), h), pts)):
        ds = [defect_fn(h) for h in steps]
        slopes += [np.log2(ds[i] / ds[i + 1]) for i in range(len(ds) - 1)]
    ok_slopes = all(1.8 <= s <= 2.2 for s in slopes)
    report("7 algebraic-identities", ok_closed and ok_slopes,
           f"closed-form worst defect {worst:.2e}, "
           f"FD slopes {[round(float(s), 2) for s in slopes]}")


# ---------------------------------------------------------------------------
# 8. cross-path consistency
# ---------------------------------------------------------------------------

def test_criterion_8_cross_path():
    eu3 = hl.make_geometry("euclidean", m=3)
    w3 = hl.make_weight(eu3, "euclid-norm")
    grid = hl.default_grid(eu3, w3, bounds=[(-2, 2)] * 3, n=32, excision_radius=0.3)
    W = ComposeField(power_map(0.5), w3.psi)
    passed, s = check_suffcond(eu3, W, grid, 0.0)
    assert passed
    corpus = polynomial_bump_corpus(grid, 20, seed=201)
    worst_curv = min(check_curvature(eu3, W, f, 0.0, grid)
                     for f in corpus)
    ok_curv = worst_curv >= -1e-8

    # equivalence between the functional inequality and trace decay,
    # exercised in both directions
    rad = hl.make_geometry("euclidean-radial", m=3)
    wr = hl.make_weight(rad, "euclid-norm")
    gridr = hl.make_grid(rad, [(0.2, 6.0)], n=384)
    Wr = ComposeField(power_map(0.5), wr.psi)
    bumps = bump_corpus(wr.psi, gridr, 8, seed=202, psi_range=(0.8, 5.0))
    ok_equiv = True
    for f in bumps:
        holds = funcineq_report(rad, Wr, 0.0, f, gridr).ratio <= 1.0 + 1e-6
        decays = contraction_trace(rad, Wr, f, gridr,
                                   t_max=0.05, dt=1e-3).passes(1e-8)
        ok_equiv = ok_equiv and (holds == decays) and holds

    # falsifying side: a multiplier violating the inequality on a
    # near-optimizer must produce a growing damped trace
    from hardylab.testfunctions import smoothed_power
    logr = hl.make_geometry("logradial", m=3)
    wl = hl.make_weight(logr, "euclid-norm")
    gridl = hl.make_grid(logr, [(-6.0, 2.0)], n=1024)
    bad = ComposeField(power_map(-1.0), wl.psi)
    f_bad = smoothed_power(wl.psi, 0.01, float(np.exp(-5.5)), float(np.exp(1.5)),
                           base_exponent=0.5, ramp_factor=float(np.exp(1.5)))
    violates = funcineq_report(logr, bad, 0.0, f_bad, gridl).ratio > 1.0
    grows = not contraction_trace(logr, bad, f_bad, gridl,
                                  t_max=0.01, dt=1e-4).passes(1e-8)
    ok_neg = violates and grows

    report("8 cross-path-consistency", ok_curv and ok_equiv and ok_neg,
           f"worst curvature defect {worst_curv:.2e}, "
           f"equivalence on {len(bumps)} bumps both ways, "
           f"violating case detected {ok_neg}")
