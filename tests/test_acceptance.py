"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import math
import time

import numpy as np
import pytest

from sparsevmf.cli import main as cli_main
from sparsevmf.dataset import SimulationConfig, estimate_overlap, simulate_mixture
from sparsevmf.em import (
    FitOptions,
    FitResult,
    FitStatus,
    MixtureParams,
    e_step,
    fit_em,
    hard_assign,
    init_random,
    m_step,
    soft_threshold_mu,
)
from sparsevmf.metrics import adjusted_rand_index, sparsity
from sparsevmf.path import PathOptions, follow_path, next_beta
from sparsevmf.selection import (
    CRITERIA,
    Criterion,
    best_of_restarts,
    count_free_params,
    information_criterion,
)
from sparsevmf.skmeans import skmeans_fit
from sparsevmf.special import bessel_ratio, invert_bessel_ratio, log_vmf_normalizer
from sparsevmf.viz import order_dimensions, order_rows, render_pixel_map

from oracles import (
    comparator_dimension_order,
    mp_bessel_ratio,
    plain_movmf_em,
    proximal_mu_maximizer,
)


def report(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


# ------------------------------------------------------------------ shared data

@pytest.fixture(scope="module")
def planted_k3_runs():
    """Criterion 7/8 corpus: 20 planted K=3, d=20, N=500 datasets at 2.5%
    calibrated overlap, with dense fits for K in 2..5."""
    runs = []
    for seed in range(20):
        cfg = SimulationConfig(K=3, d=20, N=500, overlap_target=0.025,
                               sparsity=0.25, seed=100 + seed)
        X, truth = simulate_mixture(cfg)
        fits = {}
        for K in (2, 3, 4, 5):
            fits[K] = best_of_restarts(X, K, 5, FitOptions(beta=0.0), seed=seed)
        runs.append((X, truth, fits))
    return runs


# ------------------------------------------------------------------ criteria

def test_criterion_01_oracle_equivalence_beta0():
    t0 = time.time()
    failures = []
    count = 0
    for d in (5, 10):
        for K in (2, 3):
            for s in range(5):
                count += 1
                cfg = SimulationConfig(K=K, d=d, N=300, base_kappa=10.0,
                                       sparsity=0.2, seed=1000 + count)
                X, _ = simulate_mixture(cfg)
                init = None
                for attempt in range(20):
                    try:
                        init = init_random(X, K, np.random.default_rng([count, attempt]))
                        break
                    except Exception:
                        continue
                fit = fit_em(X, K, FitOptions(beta=0.0, em_tol=1e-10,
                                                 max_em_iters=2000), init=init)
                oa, om, ok_, oll, _ = plain_movmf_em(
                    X, init.alpha, init.means, init.kappas,
                    max_iters=2000, tol=1e-10,
                )
                if not (
                    np.allclose(fit.params.alpha, oa, atol=1e-6)
                    and np.allclose(fit.params.means, om, atol=1e-6)
                    and np.allclose(fit.params.kappas, ok_, rtol=1e-6)
                    and abs(fit.log_likelihood - oll) <= 1e-8 * abs(oll)
                ):
                    failures.append((d, K, s))
    elapsed = time.time() - t0
    report(1, "beta=0 EM matches independent plain movMF EM on 20 datasets",
           not failures and elapsed < 60,
           f"{count} datasets, {len(failures)} mismatches, {elapsed:.1f}s")


def test_criterion_02_soft_threshold_vs_projected_gradient():
    t0 = time.time()
    rng = np.random.default_rng(7)
    bad = 0
    checked = 0
    while checked < 100:
        d = int(rng.integers(3, 12))
        r = rng.standard_normal(d)
        kappa = float(rng.uniform(0.5, 30.0))
        beta = float(rng.uniform(0.0, 0.9 * kappa * np.max(np.abs(r))))
        mu = soft_threshold_mu(r, kappa, beta)
        oracle_mu, oracle_val = proximal_mu_maximizer(r, kappa, beta,
                                                      n_starts=4, n_iters=2500,
                                                      seed=checked)
        val = kappa * float(mu @ r) - beta * float(np.abs(mu).sum())
        if abs(val - oracle_val) > 1e-6 or not np.allclose(mu, oracle_mu, atol=1e-4):
            bad += 1
        checked += 1
    elapsed = time.time() - t0
    report(2, "soft_threshold_mu matches projected-gradient maximizer on 100 triples",
           bad == 0 and elapsed < 30, f"{bad} mismatches, {elapsed:.1f}s")


def test_criterion_03_monotonicity_suite():
    rng_master = np.random.default_rng(11)
    n_fits = 0
    trace_bad = 0
    invariant_bad = 0
    cache = []
    for s in range(17):
        cfg = SimulationConfig(K=int(rng_master.integers(2, 4)),
                               d=int(rng_master.integers(5, 12)),
                               N=200, base_kappa=float(rng_master.uniform(5, 20)),
                               sparsity=0.2, seed=2000 + s)
        X, _ = simulate_mixture(cfg)
        dense = fit_em(X, cfg.K, FitOptions(beta=0.0), rng=s)
        resp = e_step(X, dense.params)
        r = resp.tau.T @ X
        try:
            beta1 = next_beta(dense.params, r, 0.0)
        except Exception:
            continue
        cache.append((X, cfg.K, dense, beta1))
    for X, K, dense, beta1 in cache:
        for beta in (0.0, 0.5 * beta1, beta1):
            if n_fits >= 50:
                break
            fit = fit_em(X, K, FitOptions(beta=beta), init=dense.params)
            n_fits += 1
            if fit.status is FitStatus.CONVERGED:
                t = np.array(fit.trace)
                slack = 1e-8 * np.maximum(np.abs(t[:-1]), 1.0)
                if not np.all(np.diff(t) >= -slack):
                    trace_bad += 1
            if fit.status in (FitStatus.CONVERGED, FitStatus.MAX_ITERS):
                p = fit.params
                if abs(p.alpha.sum() - 1.0) > 1e-10 or not np.allclose(
                    np.linalg.norm(p.means, axis=1), 1.0, atol=1e-10
                ):
                    invariant_bad += 1
    report(3, "penalized-likelihood traces non-decreasing; M-step invariants hold",
           n_fits >= 50 and trace_bad == 0 and invariant_bad == 0,
           f"{n_fits} fits, {trace_bad} bad traces, {invariant_bad} bad invariants")


def test_criterion_04_first_step_sparsification():
    checked = 0
    bad = 0
    seed = 0
    while checked < 20 and seed < 60:
        seed += 1
        cfg = SimulationConfig(K=2, d=int(6 + (seed % 5)), N=200,
                               base_kappa=10.0, sparsity=0.0, seed=3000 + seed)
        X, _ = simulate_mixture(cfg)
        dense = fit_em(X, 2, FitOptions(beta=0.0), rng=seed)
        if dense.status is not FitStatus.CONVERGED:
            continue
        resp = e_step(X, dense.params)
        r = resp.tau.T @ X
        try:
            beta1 = next_beta(dense.params, r, 0.0)
        except Exception:
            continue
        # The guarantee concerns the penalized mean update at the previous
        # concentrations (the first move of the M step); the subsequent
        # coupled kappa refit may change sparsity further by design.
        K = dense.params.K
        nnz_before = int(np.count_nonzero(dense.params.means))
        nnz_at = sum(
            int(np.count_nonzero(soft_threshold_mu(r[k], dense.params.kappas[k], beta1)))
            for k in range(K)
        )
        nnz_below = sum(
            int(np.count_nonzero(
                soft_threshold_mu(r[k], dense.params.kappas[k], 0.99 * beta1)))
            for k in range(K)
        )
        if not (nnz_before - nnz_at >= 1 and nnz_below == nnz_before):
            bad += 1
        checked += 1
    report(4, "mean update at next_beta zeroes >=1 coordinate, at 0.99*next_beta none",
           checked == 20 and bad == 0, f"{checked} fits, {bad} violations")


def test_criterion_05_path_reproduction():
    t0 = time.time()
    cfg = SimulationConfig(K=4, d=10, N=500, base_kappa=5.37, sparsity=0.0, seed=4000)
    X, _ = simulate_mixture(cfg)
    N, d = X.shape
    tight = FitOptions(beta=0.0, em_tol=1e-13, max_em_iters=5000)
    dense = best_of_restarts(X, 4, 10, tight, seed=4001)
    bic = Criterion("BIC")
    ic_fn = lambda fit: {"BIC": information_criterion(fit, N, d, bic)}  # noqa: E731
    res = follow_path(X, 4, PathOptions(max_steps=100, fit_options=tight),
                      dense, ic_fn=ic_fn)
    n_steps = len(res.steps)
    steps_ok = 5 <= n_steps <= 40
    sp = [sparsity(s.fit.params) for s in res.steps]
    incr = sum(b >= a for a, b in zip(sp, sp[1:]))
    sparsity_ok = incr >= 0.95 * (len(sp) - 1)
    dense_bic = res.steps[0].ic_values["BIC"]
    bic_ok = any(s.ic_values["BIC"] < dense_bic for s in res.steps[1:])
    # warm vs cold restart from the shared dense starting point
    warm_cold_ok = True
    for step in res.steps[1:6]:
        cold = fit_em(X, 4, FitOptions(beta=step.fit.beta, em_tol=1e-13, max_em_iters=5000),
                      init=dense.params)
        if not (
            np.allclose(cold.params.means, step.fit.params.means, atol=1e-6)
            and np.allclose(cold.params.alpha, step.fit.params.alpha, atol=1e-6)
            and np.allclose(cold.params.kappas, step.fit.params.kappas, rtol=1e-6)
        ):
            warm_cold_ok = False
    elapsed = time.time() - t0
    report(5, "d=10 K=4 N=500 kappa=5.37 path: step count, sparsity, BIC dip, warm=cold",
           steps_ok and sparsity_ok and bic_ok and warm_cold_ok and elapsed < 300,
           f"{n_steps} steps, {incr}/{len(sp) - 1} non-decreasing, "
           f"BIC dip={bic_ok}, warm=cold={warm_cold_ok}, {elapsed:.1f}s")


def test_criterion_06_overlap_anchors():
    t0 = time.time()
    results = {}
    for kappa, lo, hi in ((17.34, 0.015, 0.035), (15.09, 0.035, 0.065)):
        errs = []
        for s in range(5):
            cfg = SimulationConfig(K=4, d=100, N=2, base_kappa=kappa,
                                   sparsity=0.0, seed=5000 + s)
            _, truth = simulate_mixture(cfg)
            rng = np.random.default_rng(6000 + s)
            errs.append(estimate_overlap(truth.params, 100_000, rng))
        mean_err = float(np.mean(errs))
        results[kappa] = (mean_err, lo <= mean_err <= hi)
    elapsed = time.time() - t0
    ok = all(v[1] for v in results.values()) and elapsed < 120
    report(6, "d=100 K=4 overlap anchors at kappa=17.34 and 15.09",
           ok, ", ".join(f"kappa={k}: {v[0]:.3%}" for k, v in results.items())
           + f", {elapsed:.1f}s")


def test_criterion_07_model_selection_trend(planted_k3_runs):
    bic_hits = 0
    aic_hits = 0
    bic = Criterion("BIC")
    aic = Criterion("AIC")
    for X, _, fits in planted_k3_runs:
        N, d = X.shape
        bic_vals = {K: information_criterion(f, N, d, bic) for K, f in fits.items()}
        aic_vals = {K: information_criterion(f, N, d, aic) for K, f in fits.items()}
        if min(bic_vals, key=bic_vals.get) == 3:
            bic_hits += 1
        if min(aic_vals, key=aic_vals.get) >= 3:
            aic_hits += 1
    n = len(planted_k3_runs)
    report(7, "dense BIC selects K=3 in >=70% of seeds; AIC selects K>=3 in >=90%",
           bic_hits >= 0.7 * n and aic_hits >= 0.9 * n,
           f"BIC {bic_hits}/{n}, AIC {aic_hits}/{n}")


def test_criterion_08_recovery_quality(planted_k3_runs):
    em_aris = []
    sk_aris = []
    for X, truth, fits in planted_k3_runs:
        pred = hard_assign(e_step(X, fits[3].params))
        em_aris.append(adjusted_rand_index(truth.labels, pred))
        best = None
        for r in range(5):
            sk = skmeans_fit(X, 3, rng=np.random.default_rng([7000, r]))
            if best is None or sk.coherence > best.coherence:
                best = sk
        sk_aris.append(adjusted_rand_index(truth.labels, best.labels))
    em_mean = float(np.mean(em_aris))
    sk_mean = float(np.mean(sk_aris))
    report(8, "dense K=3 mean ARI >= 0.8; spherical k-means within 0.1",
           em_mean >= 0.8 and sk_mean >= em_mean - 0.1,
           f"EM ARI {em_mean:.3f}, skmeans ARI {sk_mean:.3f}")


def test_criterion_09_special_function_suite():
    rng = np.random.default_rng(17)
    worst_rel = 0.0
    for _ in range(200):
        d = int(np.exp(rng.uniform(np.log(2), np.log(1e4))))
        kappa = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e6))))
        got = bessel_ratio(d, kappa)
        ref = mp_bessel_ratio(d, kappa)
        worst_rel = max(worst_rel, abs(got - ref) / abs(ref))
    grid_ok = worst_rel <= 1e-10
    worst_rt = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 2000))
        kappa = float(np.exp(rng.uniform(np.log(0.1), np.log(1e4))))
        rbar = bessel_ratio(d, kappa)
        back = invert_bessel_ratio(d, rbar, refine=True)
        worst_rt = max(worst_rt, abs(back - kappa) / kappa)
    rt_ok = worst_rt <= 1e-8
    cont = max(
        abs(log_vmf_normalizer(d, 1e-9) - log_vmf_normalizer(d, 0.0))
        for d in (2, 3, 10, 100, 1000)
    )
    cont_ok = cont <= 1e-6
    report(9, "Bessel ratio grid <=1e-10, inversion round trip <=1e-8, "
              "normalizer continuity at kappa=0 <=1e-6",
           grid_ok and rt_ok and cont_ok,
           f"grid {worst_rel:.2e}, roundtrip {worst_rt:.2e}, continuity {cont:.2e}")


def test_criterion_10_information_criteria_arithmetic():
    rng = np.random.default_rng(19)
    bad = 0

    def phi_ref(kind, n, d):
        return {
            "AIC": 2.0,
            "BIC": math.log(n),
            "RIC": 2.0 * math.log(d),
            "RICc": 2.0 * (math.log(d) + math.log(math.log(d))),
            "EBIC": math.log(n) + math.log(d),  # gamma = 0.5
        }[kind]

    for kind in CRITERIA:
        for _ in range(10):
            n = int(rng.integers(10, 100_000))
            d = int(rng.integers(3, 5_000))
            K = int(rng.integers(1, 6))
            means = rng.standard_normal((K, d))
            mask = rng.random((K, d)) < 0.5
            means[mask & (np.count_nonzero(means, axis=1) > 1)[:, None]] = 0.0
            for k in range(K):
                if not means[k].any():
                    means[k, 0] = 1.0
            means /= np.linalg.norm(means, axis=1, keepdims=True)
            params = MixtureParams(np.full(K, 1.0 / K), means, np.full(K, 5.0))
            ll = float(rng.uniform(-1e4, 0))
            fit = FitResult(params=params, beta=0.0, log_likelihood=ll,
                            penalized_log_likelihood=ll)
            got = information_criterion(fit, n, d, Criterion(kind))
            want = phi_ref(kind, n, d) * count_free_params(params) - 2.0 * ll
            if abs(got - want) > 1e-9 * max(1.0, abs(want)):
                bad += 1
    # BIC penalty crosses the AIC constant exactly at n = e^2
    coincidence = (
        Criterion("BIC").phi(7, 5) < Criterion("AIC").phi(7, 5) < Criterion("BIC").phi(8, 5)
        and abs(math.log(math.e**2) - 2.0) < 1e-12
    )
    report(10, "IC penalty arithmetic on 10 tuples per criterion incl. n=e^2 coincidence",
           bad == 0 and coincidence, f"{bad} mismatches")


def test_criterion_11_determinism(tmp_path, monkeypatch):
    outs = {"simulate": [], "fit": [], "path": []}
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        monkeypatch.chdir(d)
        rc = cli_main(["simulate", "--d", "8", "--k", "3", "--n", "120",
                       "--base-kappa", "12", "--sparsity", "0.25",
                       "--out", "data.csv", "--truth-out", "truth.json",
                       "--seed", "5", "--threads", "1"])
        assert rc == 0
        rc = cli_main(["fit", "--input", "data.csv", "--k", "3",
                       "--out", "model.json", "--seed", "5", "--restarts", "3",
                       "--threads", "1"])
        assert rc == 0
        rc = cli_main(["path", "--input", "data.csv", "--k", "3",
                       "--max-steps", "8", "--out", "path.json",
                       "--seed", "5", "--restarts", "3", "--threads", "1"])
        assert rc == 0
        outs["simulate"].append((d / "data.csv").read_bytes()
                                + (d / "truth.json").read_bytes())
        outs["fit"].append((d / "model.json").read_bytes())
        outs["path"].append((d / "path.json").read_bytes())
    byte_ok = all(v[0] == v[1] for v in outs.values())
    # e_step agreement across repeated evaluations (single worker bound)
    rng = np.random.default_rng(23)
    means = rng.standard_normal((3, 8))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    params = MixtureParams(np.full(3, 1 / 3), means, np.full(3, 10.0))
    X = rng.standard_normal((100, 8))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    r1 = e_step(X, params)
    r2 = e_step(X, params)
    rel = np.max(np.abs(r1.tau - r2.tau) / np.maximum(np.abs(r1.tau), 1e-300))
    estep_ok = rel <= 1e-10
    report(11, "simulate/fit/path outputs byte-identical per seed; e_step agreement",
           byte_ok and estep_ok,
           f"byte-identical={byte_ok}, e_step rel diff {rel:.1e}")


def test_criterion_12_visualization(tmp_path):
    rng = np.random.default_rng(29)
    bad = 0
    last_params = None
    for _ in range(50):
        K = int(rng.integers(2, 6))
        d = int(rng.integers(3, 15))
        means = rng.standard_normal((K, d))
        mask = rng.random((K, d)) < 0.5
        for k in range(K):
            if mask[k].all():
                mask[k, rng.integers(d)] = False
        means[mask] = 0.0
        means /= np.linalg.norm(means, axis=1, keepdims=True)
        params = MixtureParams(rng.dirichlet(np.ones(K)), means, np.full(K, 5.0))
        got = order_dimensions(params).perm.tolist()
        want = comparator_dimension_order(params.means, params.alpha)
        if got != want:
            bad += 1
        last_params = params
    ordering = order_dimensions(last_params)
    row_perm = order_rows(last_params)
    p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
    render_pixel_map(last_params.means, ordering, row_perm, p1)
    render_pixel_map(last_params.means, ordering, row_perm, p2)
    ppm_ok = p1.read_bytes() == p2.read_bytes()
    report(12, "order_dimensions matches brute-force comparator; PPM byte-identical",
           bad == 0 and ppm_ok, f"{bad} ordering mismatches, ppm={ppm_ok}")
