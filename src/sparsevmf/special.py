"""Numerically stable modified Bessel functions of the first kind and the
quantities derived from them: the ratio A_d(kappa) = I_{d/2}(kappa)/I_{d/2-1}(kappa),
the log normalizing constant of the von Mises-Fisher density, and the
approximate inversion of the ratio used to estimate the concentration.

I_nu(x) comes from SciPy's scaled ive above _IVE_FLOOR; below it, from the
leading power-series term at tiny x and the uniform asymptotic expansion
(DLMF 10.41(ii)) otherwise. None of them loops. The domain is
2 <= d <= 1e5 and 0 <= kappa <= KAPPA_CAP; the functions raise ValueError
outside it. _check_d and _check_kappa own that domain; MixtureParams,
dataset.means_from_sparse (so every model and truth file), the CLI's --input
check, SimulationConfig, the RIC-family criteria and vmf.sample call them too.
"""

from __future__ import annotations

import math

from scipy.special import ive

__all__ = [
    "KAPPA_CAP",
    "log_bessel_i",
    "bessel_ratio",
    "log_vmf_normalizer",
    "invert_bessel_ratio",
]

# Top of the domain; keeps kappa finite. A component that collapses onto one
# point reaches it, and fit_em fails such a fit as Collapsed.
KAPPA_CAP = 1e6

# Top of the dimension domain, the highest d the accuracy tests cover.
_D_MAX = 1e5

# Below this value the exponentially scaled I_nu(x)*exp(-x) from scipy is at
# risk of underflow; switch to the series or the uniform expansion instead.
_IVE_FLOOR = 1e-280


def _check_d(name: str, d: float) -> None:
    if not 2 <= d <= _D_MAX:
        raise ValueError(f"{name} requires 2 <= d <= {_D_MAX:g}, got {d}")


def _check_kappa(name: str, kappa: float) -> None:
    if not 0.0 <= kappa <= KAPPA_CAP:
        raise ValueError(f"{name} requires 0 <= kappa <= {KAPPA_CAP:g}, got {kappa}")


def _debye(nu: float, x: float) -> tuple[float, float]:
    """Uniform asymptotic expansion of I_nu(x), nu > 0, x > 0, through u_4:
    I_nu(x) ~ exp(r + nu*log(x/(nu + r))) / sqrt(2*pi*r) * U with
    r = hypot(nu, x) and U = sum_k u_k(nu/r) / nu^k. Returns (r, U)."""
    r = math.hypot(nu, x)
    t = nu / r
    t2 = t * t
    u1 = t * (3.0 - 5.0 * t2) / 24.0
    u2 = t2 * (81.0 + t2 * (-462.0 + 385.0 * t2)) / 1152.0
    u3 = t * t2 * (30375.0 + t2 * (-369603.0 + t2 * (765765.0 - 425425.0 * t2))) / 414720.0
    u4 = t2 * t2 * (4465125.0 + t2 * (-94121676.0 + t2 * (
        349922430.0 + t2 * (-446185740.0 + 185910725.0 * t2)))) / 39813120.0
    inv = 1.0 / nu
    return r, 1.0 + inv * (u1 + inv * (u2 + inv * (u3 + inv * u4)))


def log_bessel_i(order: float, x: float) -> float:
    """Return log I_order(x) for 0 <= order <= 5e4, 0 <= x <= KAPPA_CAP.

    At x = 0 the limit is 0 for order 0 and -inf for positive orders.
    """
    if not 0.0 <= order <= 0.5 * _D_MAX:
        raise ValueError(f"log_bessel_i requires 0 <= order <= {0.5 * _D_MAX:g}, got {order}")
    _check_kappa("log_bessel_i", x)
    if x == 0.0:
        return 0.0 if order == 0.0 else -math.inf
    v = ive(order, x)
    if v > _IVE_FLOOR:
        return math.log(v) + x
    if x * x < 4e-12 * (order + 1.0):
        # Leading term of the power series; the rest adds about x^2/(4(order+1)) < 1e-12.
        return order * math.log(0.5 * x) - math.lgamma(order + 1.0)
    r, u = _debye(order, x)
    return r + order * math.log(x / (order + r)) - 0.5 * math.log(2.0 * math.pi * r) + math.log(u)


def bessel_ratio(d: int, kappa: float) -> float:
    """Return A_d(kappa) = I_{d/2}(kappa) / I_{d/2-1}(kappa), 0 <= kappa <= KAPPA_CAP.

    The quotient of two ive values; where those underflow, kappa / (d + kappa*B)
    with B = I_{nu+1}/I_nu, nu = d/2, from the difference of two expansions,
    taken term by term so nothing cancels. In [0, 1), increasing in kappa.
    """
    _check_d("bessel_ratio", d)
    _check_kappa("bessel_ratio", kappa)
    if kappa == 0.0:
        return 0.0
    nu = 0.5 * d
    num = ive(nu, kappa)
    if num > _IVE_FLOOR:
        return num / ive(nu - 1.0, kappa)
    rp, up = _debye(nu + 1.0, kappa)
    r, u = _debye(nu, kappa)
    dr = (2.0 * nu + 1.0) / (rp + r)  # rp - r
    s = nu + 1.0 + rp
    log_b = dr + math.log(kappa / s) + nu * math.log1p(-(1.0 + dr) / s) - 0.5 * math.log1p(dr / r)
    return kappa / (d + kappa * up / u * math.exp(log_b))


def log_vmf_normalizer(d: int, kappa: float) -> float:
    """Return log c_d(kappa), kappa <= KAPPA_CAP, for the vMF density c_d(k) exp(k mu.x).

    c_d(kappa) = kappa^(d/2-1) / ((2 pi)^(d/2) I_{d/2-1}(kappa)); the kappa -> 0
    limit is the uniform density on the sphere, 1/surface(S^{d-1}).
    """
    _check_d("log_vmf_normalizer", d)
    _check_kappa("log_vmf_normalizer", kappa)
    s = 0.5 * d - 1.0
    if kappa == 0.0:
        return math.lgamma(0.5 * d) - math.log(2.0) - 0.5 * d * math.log(math.pi)
    return s * math.log(kappa) - (s + 1.0) * math.log(2.0 * math.pi) - log_bessel_i(s, kappa)


def invert_bessel_ratio(d: int, rbar: float, refine: bool = False) -> float:
    """Estimate kappa such that A_d(kappa) = rbar.

    Uses the closed-form approximation kappa = (rbar*d - rbar^3)/(1 - rbar^2),
    capped at KAPPA_CAP. With refine=True, polishes it by Newton iterations on
    A_d(kappa) - rbar = 0, clamped to KAPPA_CAP, until the relative step drops
    below 1e-10 or |A_d(kappa) - rbar| stops shrinking (at most 50 iterations;
    one when A_d(KAPPA_CAP) <= rbar).
    """
    _check_d("invert_bessel_ratio", d)
    if not 0.0 <= rbar < 1.0:
        raise ValueError(
            f"invert_bessel_ratio requires 0 <= rbar < 1, got {rbar} "
            "(rbar >= 1 signals degenerate data)"
        )
    if rbar == 0.0:
        return 0.0
    kappa = min((rbar * d - rbar**3) / (1.0 - rbar**2), KAPPA_CAP)
    if not refine:
        return kappa
    last_res = math.inf
    for _ in range(50):
        a = bessel_ratio(d, kappa)
        res = abs(a - rbar)
        if res >= last_res:  # at the rounding-noise floor of A_d
            break
        last_res = res
        # A'(kappa) = 1 - A^2 - (d-1)/kappa * A
        deriv = 1.0 - a * a - (d - 1.0) / kappa * a
        if deriv <= 0.0:
            break
        step = (a - rbar) / deriv
        new = min(kappa - step, KAPPA_CAP)
        if new <= 0.0:
            new = 0.5 * kappa
        if abs(new - kappa) / kappa < 1e-10:
            kappa = new
            break
        kappa = new
    return kappa

