"""Independent oracles used by the test suite.

These deliberately avoid the library's own code paths: Bessel quantities come
from mpmath arbitrary precision, the plain mixture EM is a standalone
implementation with closed-form M steps, the single-vMF estimate is the
closed-form approximation, the l1 mean update is checked against
an iterative proximal maximizer, the ARI against O(N^2) pair counting, and
the dense-CSV loader against a line-by-line float() scan.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy.special import ive

mp.mp.dps = 40


# ---------------------------------------------------------------- Bessel

def mp_log_bessel_i(order, x) -> float:
    return float(mp.log(mp.besseli(order, x)))


def mp_bessel_ratio(d, kappa) -> float:
    nu = mp.mpf(d) / 2
    try:
        return float(mp.besseli(nu, kappa) / mp.besseli(nu - 1, kappa))
    except mp.libmp.NoConvergence:
        # large order/argument combinations need a bigger series budget
        return float(
            mp.besseli(nu, kappa, maxterms=10**6)
            / mp.besseli(nu - 1, kappa, maxterms=10**6)
        )


def mp_log_vmf_normalizer(d, kappa) -> float:
    s = mp.mpf(d) / 2 - 1
    k = mp.mpf(kappa)
    return float(s * mp.log(k) - (s + 1) * mp.log(2 * mp.pi) - mp.log(mp.besseli(s, k)))


# ---------------------------------------------------------------- plain movMF EM

def _log_cd(d, kappa):
    s = 0.5 * d - 1.0
    if kappa == 0.0:
        from scipy.special import gammaln

        return gammaln(0.5 * d) - math.log(2.0) - 0.5 * d * math.log(math.pi)
    return s * math.log(kappa) - (s + 1.0) * math.log(2.0 * math.pi) - (
        math.log(ive(s, kappa)) + kappa
    )


def plain_movmf_em(X, alpha, means, kappas, max_iters=500, tol=1e-6, kappa_cap=1e6):
    """Standard (unpenalized) movMF EM with closed-form M steps.

    Returns (alpha, means, kappas, log_likelihood, n_iters). Written without
    any of the penalty machinery: mu is the normalized responsibility-weighted
    resultant, kappa solves A_d(kappa) = rbar by bracketed root finding on an
    ive-based ratio (independent of the library's continued fraction and
    Newton refinement).
    """
    from scipy.optimize import brentq

    def ratio(d, kappa):
        s = 0.5 * d
        return ive(s, kappa) / ive(s - 1.0, kappa)

    def solve_kappa(d, rbar, kappa_cap):
        guess = (rbar * d - rbar**3) / (1.0 - rbar**2)
        lo, hi = guess, guess
        while ratio(d, lo) > rbar and lo > 1e-12:
            lo *= 0.5
        while ratio(d, hi) < rbar:
            hi *= 2.0
            if hi >= kappa_cap:
                return kappa_cap
        if lo == hi:
            return min(lo, kappa_cap)
        return min(brentq(lambda k: ratio(d, k) - rbar, lo, hi, xtol=1e-14,
                          rtol=1e-14), kappa_cap)

    X = np.asarray(X, dtype=float)
    n, d = X.shape
    alpha = np.asarray(alpha, dtype=float).copy()
    means = np.asarray(means, dtype=float).copy()
    kappas = np.asarray(kappas, dtype=float).copy()
    K = alpha.shape[0]
    prev_ll = -np.inf
    ll = -np.inf
    it = 0
    for it in range(max_iters):
        logf = np.empty((n, K))
        for k in range(K):
            logf[:, k] = _log_cd(d, kappas[k]) + kappas[k] * (X @ means[k])
        with np.errstate(divide="ignore"):
            logj = np.log(alpha)[None, :] + logf
        m = logj.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(logj - m).sum(axis=1))
        ll = float(lse.sum())
        if it > 0 and abs(ll - prev_ll) <= tol * (abs(prev_ll) + 1e-12):
            return alpha, means, kappas, ll, it + 1
        prev_ll = ll
        tau = np.exp(logj - lse[:, None])
        sums = tau.sum(axis=0)
        alpha = sums / n
        for k in range(K):
            r = tau[:, k] @ X
            norm = np.linalg.norm(r)
            means[k] = r / norm
            rbar = norm / sums[k]
            if rbar >= 1.0 - 1e-12:
                kappas[k] = kappa_cap
            else:
                kappas[k] = solve_kappa(d, rbar, kappa_cap)
    return alpha, means, kappas, ll, it + 1


def closed_form_vmf_fit(X):
    """Single-vMF estimate (mu, kappa) in closed form (Banerjee et al. 2005,
    JMLR 6:1345): mu is the normalized resultant and, with
    rbar = ||resultant|| / n, kappa = rbar (d - rbar^2) / (1 - rbar^2), with
    no Newton refinement and no cap."""
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    r = X.sum(axis=0)
    norm = float(np.linalg.norm(r))
    rbar = norm / n
    return r / norm, rbar * (d - rbar * rbar) / (1.0 - rbar * rbar)


# ---------------------------------------------------------------- l1 mean update

def proximal_mu_maximizer(r, kappa, beta, n_starts=8, n_iters=4000, step=None, seed=0):
    """Maximize kappa <mu, r> - beta ||mu||_1 over the unit sphere by
    projected proximal gradient ascent from several random starts."""
    r = np.asarray(r, dtype=float)
    d = r.shape[0]
    rng = np.random.default_rng(seed)
    if step is None:
        step = 0.5 / (kappa * np.linalg.norm(r) + beta + 1.0)

    def objective(mu):
        return kappa * float(mu @ r) - beta * float(np.abs(mu).sum())

    best, best_val = None, -np.inf
    starts = [r / np.linalg.norm(r)]
    for _ in range(n_starts - 1):
        g = rng.standard_normal(d)
        starts.append(g / np.linalg.norm(g))
    for mu in starts:
        mu = mu.copy()
        for _ in range(n_iters):
            z = mu + step * kappa * r
            z = np.sign(z) * np.maximum(np.abs(z) - step * beta, 0.0)
            norm = np.linalg.norm(z)
            if norm == 0.0:
                break
            mu = z / norm
        val = objective(mu)
        if val > best_val:
            best, best_val = mu, val
    return best, best_val


# ---------------------------------------------------------------- ARI

def pair_counting_ari(a, b) -> float:
    """O(N^2) adjusted Rand index from explicit pair agreement counts."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.size
    together_a = a[:, None] == a[None, :]
    together_b = b[:, None] == b[None, :]
    iu = np.triu_indices(n, 1)
    sa = together_a[iu]
    sb = together_b[iu]
    n11 = float(np.sum(sa & sb))
    n00 = float(np.sum(~sa & ~sb))
    n10 = float(np.sum(sa & ~sb))
    n01 = float(np.sum(~sa & sb))
    total = n11 + n00 + n10 + n01
    expected = (n11 + n10) * (n11 + n01) / total
    maximum = 0.5 * ((n11 + n10) + (n11 + n01))
    if maximum == expected:
        return 1.0
    return (n11 - expected) / (maximum - expected)


# ---------------------------------------------------------------- dimension order

def comparator_dimension_order(means, alpha, epsilon=1e-8):
    """Literal comparator sort for the pixel-map dimension ordering."""
    import functools

    means = np.asarray(means, dtype=float)
    K, d = means.shape
    row_order = sorted(range(K), key=lambda k: (-alpha[k], k))
    b = (np.abs(means) > epsilon).astype(int)
    n = b.sum(axis=0)
    weight = np.abs(means).sum(axis=0)

    def precedes(j, jp):
        """-1 if dimension j comes before jp."""
        if n[j] != n[jp]:
            return -1 if n[j] > n[jp] else 1
        for k in row_order:
            if b[k, j] != b[k, jp]:
                return -1 if b[k, j] > b[k, jp] else 1
        if weight[j] != weight[jp]:
            return -1 if weight[j] > weight[jp] else 1
        return -1 if j < jp else 1

    return sorted(range(d), key=functools.cmp_to_key(precedes))


# ---------------------------------------------------------------- dense CSV

def scan_dense_csv(path):
    """Reference dense-CSV parser: one float() per field, line by line.

    Line 1 is a header when it is not blank and does not parse; blank lines
    are skipped. Malformed content, a line that is not UTF-8 included, raises
    ParseError with the file line."""
    from sparsevmf.errors import ParseError

    rows = []
    linenos = []
    with open(path, "rb") as fh:
        raw_lines = fh.read().splitlines()  # splits at \n, \r\n and \r
    for lineno, raw in enumerate(raw_lines, start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            raise ParseError("not UTF-8 text", line=lineno) from None
        if not line:
            continue
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError:
            if lineno == 1:
                continue
            raise ParseError(f"non-numeric value in {line!r}", line=lineno)
        rows.append(row)
        linenos.append(lineno)
    if not rows:
        raise ParseError("empty file")
    for lineno, row in zip(linenos, rows):
        if len(row) != len(rows[0]):
            raise ParseError(f"expected {len(rows[0])} columns, got {len(row)}", line=lineno)
    for lineno, row in zip(linenos, rows):
        if not all(math.isfinite(v) for v in row):
            raise ParseError("non-finite value", line=lineno)
    return np.array(rows)
