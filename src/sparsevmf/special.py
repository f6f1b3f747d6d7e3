"""Numerically stable modified Bessel functions of the first kind and the
quantities derived from them: the ratio A_d(kappa) = I_{d/2}(kappa)/I_{d/2-1}(kappa),
the log normalizing constant of the von Mises-Fisher density, and the
approximate inversion of the ratio used to estimate the concentration.

Everything works in log space or through a continued fraction, so the
functions stay finite for dimensions up to ~1e5 and concentrations up to ~1e6.
"""

from __future__ import annotations

import math

from scipy.special import gammaln, ive

__all__ = [
    "log_bessel_i",
    "bessel_ratio",
    "log_vmf_normalizer",
    "invert_bessel_ratio",
    "kappa_from_rho",
]

# Below this value the exponentially scaled I_nu(x)*exp(-x) from scipy is at
# risk of underflow; switch to the log-space power series instead.
_IVE_FLOOR = 1e-280


def _log_bessel_i_series(order: float, x: float) -> float:
    """Power series of I_order(x) summed in a scaled form.

    Only used when order >> x (where it converges in a handful of terms).
    """
    q = 0.25 * x * x
    s = 1.0
    t = 1.0
    m = 0
    while True:
        m += 1
        t *= q / (m * (order + m))
        s += t
        if t < 1e-18 * s or m > 100_000:
            break
    return order * math.log(0.5 * x) - gammaln(order + 1.0) + math.log(s)


def log_bessel_i(order: float, x: float) -> float:
    """Return log I_order(x) for order >= 0, x >= 0.

    At x = 0 the limit is 0 for order 0 and -inf for positive orders.
    """
    if order < 0 or x < 0 or not (math.isfinite(order) and math.isfinite(x)):
        raise ValueError(f"log_bessel_i requires order >= 0 and x >= 0, got ({order}, {x})")
    if x == 0.0:
        return 0.0 if order == 0.0 else -math.inf
    v = ive(order, x)
    if v > _IVE_FLOOR:
        return math.log(v) + x
    return _log_bessel_i_series(order, x)


def bessel_ratio(d: int, kappa: float) -> float:
    """Return A_d(kappa) = I_{d/2}(kappa) / I_{d/2-1}(kappa).

    Evaluated with a Lentz continued fraction, never by dividing two Bessel
    values, so it is accurate for d up to 1e5 and kappa up to 1e6.
    The result is in [0, 1), strictly increasing in kappa.
    """
    if d < 2:
        raise ValueError(f"bessel_ratio requires d >= 2, got {d}")
    if kappa < 0 or not math.isfinite(kappa):
        raise ValueError(f"bessel_ratio requires finite kappa >= 0, got {kappa}")
    if kappa == 0.0:
        return 0.0
    nu = 0.5 * d
    # I_nu/I_{nu-1}(x) = 1/(2nu/x + 1/(2(nu+1)/x + ...)), modified Lentz.
    tiny = 1e-300
    f = tiny
    c = f
    dd = 0.0
    for n in range(1, 200_000):
        b = 2.0 * (nu + n - 1) / kappa
        dd = b + dd
        if dd == 0.0:
            dd = tiny
        c = b + 1.0 / c
        if c == 0.0:
            c = tiny
        dd = 1.0 / dd
        delta = c * dd
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return f


def log_vmf_normalizer(d: int, kappa: float) -> float:
    """Return log c_d(kappa) for the vMF density c_d(k) exp(k mu.x).

    c_d(kappa) = kappa^(d/2-1) / ((2 pi)^(d/2) I_{d/2-1}(kappa)); the kappa -> 0
    limit is the uniform density on the sphere, 1/surface(S^{d-1}).
    """
    if d < 2:
        raise ValueError(f"log_vmf_normalizer requires d >= 2, got {d}")
    if kappa < 0 or not math.isfinite(kappa):
        raise ValueError(f"log_vmf_normalizer requires finite kappa >= 0, got {kappa}")
    s = 0.5 * d - 1.0
    if kappa == 0.0:
        return gammaln(0.5 * d) - math.log(2.0) - 0.5 * d * math.log(math.pi)
    return s * math.log(kappa) - (s + 1.0) * math.log(2.0 * math.pi) - log_bessel_i(s, kappa)


def invert_bessel_ratio(d: int, rbar: float, refine: bool = False) -> float:
    """Estimate kappa such that A_d(kappa) = rbar.

    Uses the closed-form approximation kappa = (rbar*d - rbar^3)/(1 - rbar^2).
    With refine=True, polishes the estimate by Newton iterations on
    A_d(kappa) - rbar = 0 until the relative step drops below 1e-10
    (at most 50 iterations).
    """
    if d < 2:
        raise ValueError(f"invert_bessel_ratio requires d >= 2, got {d}")
    if not 0.0 <= rbar < 1.0:
        raise ValueError(
            f"invert_bessel_ratio requires 0 <= rbar < 1, got {rbar} "
            "(rbar >= 1 signals degenerate data)"
        )
    if rbar == 0.0:
        return 0.0
    kappa = (rbar * d - rbar**3) / (1.0 - rbar**2)
    if not refine:
        return kappa
    for _ in range(50):
        a = bessel_ratio(d, kappa)
        # A'(kappa) = 1 - A^2 - (d-1)/kappa * A
        deriv = 1.0 - a * a - (d - 1.0) / kappa * a
        if deriv <= 0.0:
            break
        step = (a - rbar) / deriv
        new = kappa - step
        if new <= 0.0:
            new = 0.5 * kappa
        if abs(new - kappa) / kappa < 1e-10:
            kappa = new
            break
        kappa = new
    return kappa


def kappa_from_rho(d: int, rho: float, kappa_cap: float, refine: bool = False) -> float:
    """Concentration solving A_d(kappa) = rho, clamped to kappa_cap.

    rho >= 1 - 1e-12 means all mass sits on one point and returns kappa_cap;
    otherwise the invert_bessel_ratio estimate (Newton-polished when refine
    is true) is capped at kappa_cap.
    """
    if rho >= 1.0 - 1e-12:
        return kappa_cap
    return min(invert_bessel_ratio(d, rho, refine=refine), kappa_cap)
