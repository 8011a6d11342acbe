"""End-to-end acceptance gate.

One test per release criterion; each records a PASS/FAIL line (echoed in
the terminal summary) and then asserts, so a red criterion fails loudly.
Statistical checks run at frozen seeds whose margins were sized in advance;
tolerances follow the criterion statements, not the observed draws.
"""

import math

import numpy as np
import pytest

from opo3 import (
    ModelParams,
    MomentAccumulator,
    SimConfig,
    amplitude_schema,
    analytic_moment_report,
    cs_sides_analytic,
    cs_test,
    integrate_batch,
    merge,
    pair_audit,
    pump_odd_moment,
    run_ensemble,
    state_channels,
)
from opo3.engine import BLOCK_SIZE

# frozen high-precision evaluations of the closed-form ratio (64-bit inputs)
RATIO_GR_100 = 1.5230345115117114
RATIO_GR_001 = 0.68880480148245683

# the eight moments compared against the perturbative closed forms
COMPARED = ("t1", "t2", "t3", "t4", "q4", "var_x0", "cov_x_xp", "cov_y_yp")


@pytest.fixture(scope="module")
def agreement_ensemble():
    """Reference dataset for criteria 2, 4, 6, 7 and the mapping identity:
    102400 retained samples at mu=0.5, gamma_r=1, g=0.05."""
    params = ModelParams(mu=0.5, gamma_r=1.0, g=0.05)
    cfg = SimConfig(dt=0.01, burn_in=20.0, sample_interval=2.0,
                    n_samples_per_traj=100, n_trajectories=1024,
                    master_seed=20260814)
    return run_ensemble(params, cfg, keep_samples=True)


@pytest.fixture(scope="module")
def agreement_report(agreement_ensemble):
    return agreement_ensemble.report()


def test_criterion_1_analytic_verdicts(acceptance):
    ok = True
    details = []
    for gr, frozen, verdict in ((100.0, RATIO_GR_100, "violated"),
                                (0.01, RATIO_GR_001, "satisfied")):
        sides = cs_sides_analytic(ModelParams(mu=0.7, gamma_r=gr, g=0.05))
        rel = abs(sides.ratio - frozen) / frozen
        ok = ok and rel <= 0.01 and sides.verdict == verdict
        details.append(f"gamma_r={gr:g}: ratio {sides.ratio:.4f} "
                       f"({verdict}, rel dev {rel:.1e})")
    acceptance("1", ok, "; ".join(details))
    assert ok, details


def test_criterion_2_mc_vs_analytic(acceptance, agreement_ensemble,
                                    agreement_report):
    rep = agreement_report
    ana = analytic_moment_report(agreement_ensemble.params)
    assert rep.n_samples >= 100_000
    assert agreement_ensemble.n_diverged == 0
    worst_pull = worst_rel = 0.0
    for name in COMPARED:
        mc, an = rep[name], ana[name].value.real
        pull = abs(mc.value.real - an) / mc.std_error
        rel = abs(mc.value.real - an) / abs(an)
        worst_pull = max(worst_pull, pull)
        worst_rel = max(worst_rel, rel)
    ok = worst_pull <= 3.0 and worst_rel <= 0.20
    acceptance("2", ok, f"n={rep.n_samples}, worst pull "
                        f"{worst_pull:.2f} (<=3), worst rel err "
                        f"{worst_rel:.2%} (<=20%)")
    assert ok, (worst_pull, worst_rel)


def test_criterion_3_simulated_verdicts(acceptance):
    # scaled-up g keeps the verdicts resolvable at desk scale; the analytic
    # ratio is g-invariant so the conclusion transfers
    runs = (
        (100.0, "violated",
         SimConfig(dt=5e-4, burn_in=34.0, sample_interval=3.4,
                   n_samples_per_traj=32, n_trajectories=512, master_seed=7)),
        (0.01, "satisfied",
         SimConfig(dt=0.01, burn_in=1000.0, sample_interval=6.7,
                   n_samples_per_traj=64, n_trajectories=1024, master_seed=7)),
    )
    ok = True
    details = []
    for gr, want, cfg in runs:
        params = ModelParams(mu=0.7, gamma_r=gr, g=0.05)
        res = run_ensemble(params, cfg)
        r = cs_test(res.report())
        ok = ok and r.verdict == want and abs(r.significance) >= 3.0
        details.append(f"gamma_r={gr:g}: {r.verdict} at "
                       f"{abs(r.significance):.1f} sigma")
    acceptance("3", ok, "; ".join(details))
    assert ok, details


def test_criterion_4_g_scaling(acceptance, agreement_report):
    # closed forms scale as g^4 exactly (0.1 = 2 * 0.05 in binary)
    lo = ModelParams(0.5, 1.0, 0.05)
    hi = ModelParams(0.5, 1.0, 0.1)
    al, ah = analytic_moment_report(lo), analytic_moment_report(hi)
    exact = all(ah[n].value.real == 16.0 * al[n].value.real
                for n in ("t1", "t2", "t3", "t4", "q4", "var_x0"))

    cfg = SimConfig(dt=0.01, burn_in=20.0, sample_interval=2.0,
                    n_samples_per_traj=32, n_trajectories=128,
                    master_seed=31337)
    rep_hi = run_ensemble(hi, cfg).report()
    a, b = agreement_report["t1"], rep_hi["t1"]
    ratio = b.value.real / a.value.real
    sigma = abs(ratio) * math.hypot(a.std_error / a.value.real,
                                    b.std_error / b.value.real)
    pull = (ratio - 16.0) / sigma
    ok = exact and abs(pull) <= 3.0
    acceptance("4", ok, f"analytic factor exact; MC t1 ratio "
                        f"{ratio:.2f} +- {sigma:.2f} (pull {pull:+.2f})")
    assert ok, (exact, ratio, sigma)


def test_criterion_5_mean_field(acceptance):
    ok = True
    details = []
    for mu in (0.3, 0.5, 0.7):
        params = ModelParams(mu=mu, gamma_r=1.0, g=0.05)
        cfg = SimConfig(dt=0.01, burn_in=34.0,
                        sample_interval=2.0 / (1.0 - mu),
                        n_samples_per_traj=64, n_trajectories=256,
                        master_seed=101)
        res = run_ensemble(params, cfg, keep_samples=True)
        mean = res.report()["mean_x0"].value.real
        spread = res.samples[0].real.std(ddof=1)   # per-sample scatter
        dev = mean - 2.0 * mu
        rel = abs(dev) / (2.0 * mu)
        ok = ok and abs(dev) <= 3.0 * spread and rel <= 0.01
        details.append(f"mu={mu}: dev {abs(dev) / spread:.2f} stds, "
                       f"rel {rel:.2%}")
        # the deviation is the real pump-depletion shift, not noise
        shift = (analytic_moment_report(params)["mean_x0"].value.real
                 - 2.0 * mu)
        assert abs(dev - shift) <= 0.05 * abs(shift)
    acceptance("5", ok, "; ".join(details))
    assert ok, details


def test_criterion_6_pair_audit(acceptance, agreement_report):
    audit = pair_audit(agreement_report)
    ok = audit.all_consistent
    acceptance("6", ok, f"all four pump-signal covariances zero at 3 sigma "
                        f"(max significance {audit.max_significance:.2f})")
    assert ok, audit.to_dict()


def test_criterion_7_pump_skew(acceptance, agreement_report):
    odd = pump_odd_moment(agreement_report)
    control = pump_odd_moment(run_ensemble(
        ModelParams(mu=0.0, gamma_r=1.0, g=0.05),
        SimConfig(dt=0.05, burn_in=20.0, sample_interval=2.0,
                  n_samples_per_traj=8, n_trajectories=8,
                  master_seed=23)).report())
    null_ok = (control.value == 0.0 and control.std_error == 0.0
               and not control.non_gaussian)
    ok = odd.non_gaussian and odd.significance >= 3.0 and null_ok
    acceptance("7", ok, f"skew {odd.value:.2e} at "
                        f"{odd.significance:.1f} sigma; mu=0 control null")
    assert ok, (odd.to_dict(), control.to_dict())


def _classical_channels(seed, n=3000):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    comps = (rng.standard_normal((3, k)) + 1j * rng.standard_normal((3, k)))
    weights = rng.dirichlet(np.ones(k))
    alpha = comps[:, rng.choice(k, size=n, p=weights)]
    alpha = alpha + rng.uniform(0.0, 0.5) * (
        rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n)))
    chans = np.empty((6, n), dtype=np.complex128)
    chans[0::2] = alpha
    chans[1::2] = np.conj(alpha)
    return chans


def test_criterion_8_property_suites(acceptance, agreement_ensemble,
                                     agreement_report):
    checks = {}

    # noise moments of the increments the kernel applies: one
    # integrate_batch step from a0 = a0p = 1/eps, with eps*a0 exactly 1 and
    # every signal amplitude at 0, leaves the a1, a2, a1p and a2p rows equal
    # to sqrt(dt/2)(w0 +- i*w1) and sqrt(dt/2)(w2 +- i*w3); only the dw1.dw2
    # (and conjugate-line) products survive, everything else is zero
    rng = np.random.default_rng(2718)
    dt, n = 0.01, 200_000
    pn = ModelParams(0.5, 0.5, 0.5)
    start = np.zeros((6, n), dtype=np.complex128)
    start[[0, 3]] = 1.0 / pn.eps
    normals = rng.standard_normal((1, 4, n))
    stepped, alive, _ = integrate_batch(pn, dt, normals, start)
    dw1, dw2, dw1p, dw2p = stepped[[1, 2, 4, 5]]
    w = normals[0] * math.sqrt(dt / 2.0)
    se_prod = 4.0 * dt / math.sqrt(n)
    se_mean = 4.0 * math.sqrt(dt) / math.sqrt(n)
    checks["noise"] = bool(
        alive.all()
        and np.array_equal(dw1, w[0] + 1j * w[1])
        and np.array_equal(dw1p, w[2] + 1j * w[3])
        and abs(np.mean(dw1 * dw2) - dt) <= se_prod
        and abs(np.mean(dw1p * dw2p) - dt) <= se_prod
        and abs(np.mean(dw1 * dw2p)) <= se_prod
        and abs(np.mean(dw1 * dw1)) <= se_prod
        and abs(np.mean(dw2 * dw1p)) <= se_prod
        and abs(np.mean(dw1)) <= se_mean
        and np.array_equal(dw2, np.conj(dw1))
        and np.array_equal(dw2p, np.conj(dw1p))
    )

    # merge law: split accumulation equals single-stream accumulation
    rng = np.random.default_rng(424)
    data = rng.standard_normal((6, 40, 50)) + 1j * rng.standard_normal((6, 40, 50))
    whole = MomentAccumulator(amplitude_schema())
    whole.add_batches(data)
    left = MomentAccumulator(amplitude_schema())
    right = MomentAccumulator(amplitude_schema())
    left.add_batches(data[:, :17])
    right.add_batches(data[:, 17:])
    ra = whole.finalize(centering="sample")
    rb = merge(left, right).finalize(centering="sample")
    checks["merge"] = all(
        abs(ra[t].value - rb[t].value) <= 1e-12 * max(abs(ra[t].value), 1e-30)
        for t in ("amp_n1n2", "amp_n0", "amp_triple", "mean_a0"))

    # quadrature/amplitude mapping identity, exact on real ensemble data
    p = agreement_ensemble.params
    rep = agreement_report
    q4, amp = rep["q4"].value, rep["amp_n1n2"].value
    v_sum = rep["var_x0"].value + rep["var_y0"].value
    checks["mapping"] = (
        abs(q4 - 16 * p.g**4 * amp) <= 1e-12 * abs(q4)
        and abs(v_sum - 8 * p.gamma_r * p.g**2 * rep["amp_n0"].value)
        <= 1e-12 * abs(v_sum))

    # classical ensembles never violate the inequality
    classical_ok = True
    for seed in range(10):
        acc = MomentAccumulator(amplitude_schema())
        acc.add_batches(_classical_channels(8800 + seed).reshape(6, 10, 300))
        r = cs_test(acc.finalize(centering="sample"))
        classical_ok = classical_ok and r.verdict != "violated" \
            and r.margin <= 1e-12 * max(abs(r.lhs), 1.0)
    checks["classical"] = classical_ok

    # weak convergence order ~1: common-noise refinement against a
    # half-step reference, slope of |bias| vs dt
    params = ModelParams(0.5, 1.0, 0.2)
    T, dt0, B = 4.0, 0.005, 2048
    n0 = int(round(T / dt0))
    rng = np.random.default_rng(31415)
    normals = rng.standard_normal((n0, 4, B))
    init = np.zeros((6, B), dtype=np.complex128)

    def observables(step, n_steps, noise):
        state, alive, _ = integrate_batch(params, step, noise, init)
        ch = state_channels(state[:, alive], params)
        return np.array([ch[0].real.mean(), (ch[2] * ch[4]).real.mean()])

    ref = observables(dt0 / 2, 2 * n0,
                      np.repeat(normals, 2, axis=0) / math.sqrt(2.0))
    ks = (4, 8, 16)
    errs = np.array([
        np.abs(observables(dt0 * k, n0 // k,
                           normals.reshape(n0 // k, k, 4, B).sum(axis=1)
                           / math.sqrt(k)) - ref)
        for k in ks])
    logdt = np.log([dt0 * k for k in ks])
    slopes = [np.polyfit(logdt, np.log(errs[:, j]), 1)[0] for j in range(2)]
    checks["weak-order"] = all(0.6 <= s <= 1.5 for s in slopes)

    # bit-level determinism under different worker counts; the C kernel
    # splits every block, the last one partial, over the two workers' threads
    cfg = SimConfig(dt=0.05, burn_in=20.0, sample_interval=2.0,
                    n_samples_per_traj=8, n_trajectories=2 * BLOCK_SIZE + 64,
                    master_seed=55)
    p2 = ModelParams(0.5, 1.0, 0.05)
    r1 = run_ensemble(p2, cfg, workers=1).report()
    r2 = run_ensemble(p2, cfg, workers=2).report()
    checks["workers"] = all(
        r1[t].value == r2[t].value and r1[t].std_error == r2[t].std_error
        for t in ("t1", "q4", "var_x0", "cov_x_xp"))

    ok = all(checks.values())
    passed = sum(checks.values())
    acceptance("8", ok, f"{passed}/{len(checks)} subchecks pass "
                        f"({', '.join(checks)})")
    assert ok, checks
