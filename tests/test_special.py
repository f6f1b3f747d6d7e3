import math

import numpy as np
import pytest
from scipy.integrate import quad

from sparsevmf import em, special
from sparsevmf.special import (
    KAPPA_CAP,
    bessel_ratio,
    invert_bessel_ratio,
    log_bessel_i,
    log_vmf_normalizer,
)

from oracles import mp_bessel_ratio, mp_log_bessel_i, mp_log_vmf_normalizer


# (d, kappa) where ive(d/2, kappa) underflows; mpmath takes <= 0.1 s each.
HIGH_D_POINTS = [(5000, 4000.0), (8000, 4000.0), (10002, 1e4), (100000, 1.0), (100000, 1e4)]

# (order, x) at a low order and tiny x. ive underflows at all but (1, 1e-200);
# there the power series' leading term takes over from the uniform expansion.
TINY_X_POINTS = [(1.0, 1e-300), (1.0, 1e-200), (5.0, 1e-60), (10.0, 1e-30), (19.0, 1e-14)]

# Subnormal kappa, from the smallest positive double up to just below the
# smallest normal one; 0.5 * kappa and kappa / s round or underflow there.
SUBNORMAL_KAPPAS = [5e-324, 1e-323, 1.1497e-320, 1e-320, 1e-315, 2.2e-308]


class TestAboveCap:
    @pytest.mark.parametrize("kappa", [np.nextafter(KAPPA_CAP, np.inf), 1e7, 2.4e10, math.inf,
                                       math.nan])
    def test_raises(self, kappa):
        with pytest.raises(ValueError):
            bessel_ratio(10, kappa)
        with pytest.raises(ValueError):
            log_bessel_i(4.0, kappa)
        with pytest.raises(ValueError):
            log_vmf_normalizer(10, kappa)

    def test_cap_itself_allowed(self):
        assert 0.0 < bessel_ratio(10, KAPPA_CAP) < 1.0
        assert math.isfinite(log_bessel_i(4.0, KAPPA_CAP))
        assert math.isfinite(log_vmf_normalizer(10, KAPPA_CAP))


class TestAboveDimensionCap:
    @pytest.mark.parametrize("d", [100001, 2e5])
    def test_raises(self, d):
        with pytest.raises(ValueError):
            bessel_ratio(d, 10.0)
        with pytest.raises(ValueError):
            log_vmf_normalizer(d, 10.0)
        with pytest.raises(ValueError):
            invert_bessel_ratio(d, 0.5)
        with pytest.raises(ValueError):
            log_bessel_i(0.5 * d, 10.0)

    def test_top_order_allowed(self):
        assert math.isfinite(log_bessel_i(5e4, 1e4))


class TestLogBesselI:
    def test_zero_argument_order_zero(self):
        assert log_bessel_i(0, 0.0) == 0.0

    def test_zero_argument_positive_order(self):
        assert log_bessel_i(1, 0.0) == -math.inf

    def test_against_high_precision(self):
        got = log_bessel_i(49, 100.0)
        ref = mp_log_bessel_i(49, 100.0)
        assert abs(got - ref) / abs(ref) < 1e-10

    @pytest.mark.parametrize("order,x", [
        (0.5, 3.0), (2.0, 0.01), (5000.0, 1.0), (4999.0, 1e6),
        (49999.0, 1e4), (0.0, 1e6), (1.0, 700.0),
    ])
    def test_wide_range(self, order, x):
        got = log_bessel_i(order, x)
        ref = mp_log_bessel_i(order, x)
        assert abs(got - ref) / max(abs(ref), 1.0) < 1e-12

    @pytest.mark.parametrize("order,x", TINY_X_POINTS)
    def test_tiny_argument_against_high_precision(self, order, x):
        got = log_bessel_i(order, x)
        ref = mp_log_bessel_i(order, x)
        assert abs(got - ref) / abs(ref) < 1e-12

    @pytest.mark.parametrize("order", [0.5, 1.0, 7.5, 59.5, 2499.0, 49999.0])
    def test_subnormal_argument_against_high_precision(self, order):
        for x in SUBNORMAL_KAPPAS:
            got = log_bessel_i(order, x)
            ref = mp_log_bessel_i(order, x)
            assert abs(got - ref) / abs(ref) < 1e-12, x

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_bessel_i(-1.0, 1.0)
        with pytest.raises(ValueError):
            log_bessel_i(1.0, -1.0)


class TestBesselRatio:
    def test_zero_kappa(self):
        assert bessel_ratio(10, 0.0) == 0.0

    def test_against_high_precision(self):
        got = bessel_ratio(4, 2.0)
        ref = mp_bessel_ratio(4, 2.0)
        assert abs(got - ref) < 1e-12

    def test_monotone_spot(self):
        a = bessel_ratio(100, 17.34)
        b = bessel_ratio(100, 20.0)
        assert 0.0 < a < b < 1.0

    def test_monotone_bounded_random(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            d = int(rng.integers(2, 2000))
            kappa = float(rng.uniform(0.0, 1e4))
            delta = float(rng.uniform(1e-3, 10.0))
            lo = bessel_ratio(d, kappa)
            hi = bessel_ratio(d, kappa + delta)
            assert 0.0 <= lo < 1.0
            assert lo < hi < 1.0

    @pytest.mark.parametrize("d, kappa", HIGH_D_POINTS)
    def test_high_dimension_against_high_precision(self, d, kappa):
        # scipy's ive underflows here: the uniform expansion takes over
        got = bessel_ratio(d, kappa)
        ref = mp_bessel_ratio(d, kappa)
        assert abs(got - ref) / ref < 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4, 15, 100, 5000, 10**4, 10**5])
    def test_subnormal_kappa_inside_domain(self, d):
        # kappa >= 0 is the domain: no subnormal kappa raises or leaves [0, 1)
        for kappa in SUBNORMAL_KAPPAS:
            assert 0.0 <= bessel_ratio(d, kappa) < 1.0, kappa
            assert math.isfinite(log_vmf_normalizer(d, kappa)), kappa

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_ratio(1, 1.0)
        with pytest.raises(ValueError):
            bessel_ratio(4, -0.5)


class TestLogNormalizer:
    def test_uniform_sphere(self):
        assert log_vmf_normalizer(3, 0.0) == pytest.approx(math.log(1.0 / (4 * math.pi)), abs=1e-12)

    def test_uniform_circle(self):
        assert log_vmf_normalizer(2, 0.0) == pytest.approx(math.log(1.0 / (2 * math.pi)), abs=1e-12)

    def test_against_high_precision(self):
        got = log_vmf_normalizer(100, 50.0)
        ref = mp_log_vmf_normalizer(100, 50.0)
        assert abs(got - ref) / abs(ref) < 1e-10

    @pytest.mark.parametrize("d, kappa", HIGH_D_POINTS)
    def test_high_dimension_against_high_precision(self, d, kappa):
        got = log_vmf_normalizer(d, kappa)
        ref = mp_log_vmf_normalizer(d, kappa)
        assert abs(got - ref) / abs(ref) < 1e-10

    @pytest.mark.parametrize("order,kappa", TINY_X_POINTS)
    def test_tiny_kappa_against_high_precision(self, order, kappa):
        d = int(2 * (order + 1))
        got = log_vmf_normalizer(d, kappa)
        ref = mp_log_vmf_normalizer(d, kappa)
        assert abs(got - ref) / abs(ref) < 1e-12

    def test_continuity_at_zero(self):
        for d in (2, 3, 10, 100):
            assert abs(log_vmf_normalizer(d, 1e-8) - log_vmf_normalizer(d, 0.0)) < 1e-6

    def test_circle_density_integrates_to_one(self):
        mu = np.array([1.0, 0.0])
        for kappa in (0.0, 1.0, 5.0):
            logc = log_vmf_normalizer(2, kappa)

            def density(theta):
                x = np.array([math.cos(theta), math.sin(theta)])
                return math.exp(logc + kappa * float(mu @ x))

            total, _ = quad(density, 0.0, 2.0 * math.pi, limit=200)
            assert total == pytest.approx(1.0, abs=1e-6)


class TestInvertRatio:
    def test_zero_resultant(self):
        assert invert_bessel_ratio(100, 0.0) == 0.0

    def test_refined_round_trip(self):
        r = bessel_ratio(10, 7.3)
        kappa = invert_bessel_ratio(10, r)
        assert kappa == pytest.approx(7.3, abs=1e-8)

    def test_round_trip_across_range(self):
        for d in (3, 10, 100, 1000):
            for r in (0.01, 0.1, 0.5, 0.9, 0.99):
                kappa = invert_bessel_ratio(d, r)
                assert abs(bessel_ratio(d, kappa) - r) < 1e-8

    def test_newton_evaluations_bounded(self, monkeypatch):
        # At d = 2 near the cap the residual sits at the rounding noise of A_d;
        # the solve stops there instead of running all 50 iterations.
        calls = []

        def counting(d, kappa):
            calls.append(kappa)
            return bessel_ratio(d, kappa)

        monkeypatch.setattr(special, "bessel_ratio", counting)
        worst = 0
        for d in (2, 3, 4, 5, 8, 20, 200, 1000, 5000, 100000):
            for kappa in np.geomspace(1e-3, 1e6, 500):
                calls.clear()
                estimate = invert_bessel_ratio(d, bessel_ratio(d, kappa))
                worst = max(worst, len(calls))
                assert estimate == pytest.approx(kappa, rel=1e-8)
        assert worst <= 5

    def test_degenerate_rbar(self):
        with pytest.raises(ValueError):
            invert_bessel_ratio(10, 1.0)
        with pytest.raises(ValueError):
            invert_bessel_ratio(10, -0.1)


def solve_kappa(d, rho):
    """em's rho -> kappa solve for one component whose rho is exactly rho."""
    mu = np.eye(1, d)
    return float(em._kappas_from_resultants(mu, rho * mu, np.ones(1), 1, "free")[0])


class TestKappaFromRho:
    """The rho -> kappa rule of init_random and the M step: the cap at
    rho >= 1, otherwise invert_bessel_ratio, which stays under the cap."""

    def test_cap_near_one(self, monkeypatch):
        # A_d(KAPPA_CAP) <= 1 - 5e-7 for every d in the domain, so below 1 the
        # solve itself gives the cap; only rounding past 1 skips it.
        for d in (2, 3, 4, 5, 8, 20, 200, 1000, 5000, 20000, 100000):
            assert bessel_ratio(d, KAPPA_CAP) <= 1.0 - 5e-7
            for rho in (1.0 - 1e-12, 1.0 - 5e-13, 1.0 - 1e-13, np.nextafter(1.0, 0.0)):
                assert solve_kappa(d, rho) == KAPPA_CAP

        def unreachable(*args, **kwargs):
            raise AssertionError("invert_bessel_ratio called at rho >= 1")

        monkeypatch.setattr(em, "invert_bessel_ratio", unreachable)
        for rho in (1.0, np.nextafter(1.0, 2.0), 1.0 + 1e-9):
            assert solve_kappa(10, rho) == KAPPA_CAP

    def test_clamped_to_cap(self):
        # closed form (rho*3 - rho^3) / (1 - rho^2) is about 1e7 at rho = 1 - 1e-7
        rho = 1.0 - 1e-7
        assert invert_bessel_ratio(3, rho) == KAPPA_CAP
        assert solve_kappa(3, rho) == KAPPA_CAP
        assert solve_kappa(3, 0.99) == invert_bessel_ratio(3, 0.99)

    @pytest.mark.parametrize("d, rho", [(3, 1.0 - 1e-7), (5, 1.0 - 1e-10), (200, 0.99995),
                                        (200, 1.0 - 1e-11)])
    def test_refined_solve_stays_under_cap(self, monkeypatch, d, rho):
        # A_d(KAPPA_CAP) <= rho and the closed form lies above the cap: the
        # solve evaluates A_d once, at the cap, and returns the cap.
        seen = []

        def recording(d, kappa):
            seen.append(kappa)
            return bessel_ratio(d, kappa)

        monkeypatch.setattr(special, "bessel_ratio", recording)
        assert bessel_ratio(d, KAPPA_CAP) <= rho
        assert invert_bessel_ratio(d, rho) == KAPPA_CAP
        assert seen == [KAPPA_CAP]
