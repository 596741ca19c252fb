"""Shannon rate, and the rate lower bound the placement SCA maximises."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uav_mec.cost import evaluate_solution
from uav_mec.link import rate_at_dist_sq, snr_coeff
from uav_mec.placement import _surrogate_coeffs, surrogate_rates

from .conftest import (DEFAULT_CONSTANTS, full_association, link_terms,
                       make_scenario)

GAMMA1 = snr_coeff(0.8, DEFAULT_CONSTANTS.rho0, DEFAULT_CONSTANTS.noise_w)
ORIGIN = (0.0, 0.0, 0.0)


def at(x, y=0.0, h=0.0):
    return (x, y, h)


def rate(q_n, q_m):
    """Exact rate between two points at least 1 m apart."""
    d2 = float(np.sum((np.asarray(q_n) - np.asarray(q_m)) ** 2))
    return rate_at_dist_sq(d2, DEFAULT_CONSTANTS.bandwidth_hz, GAMMA1)


class TestSnrCoeff:
    def test_default_parameters(self):
        # p = 0.8 W, rho0 = -60 dB, sigma^2 = -114 dBm.
        assert GAMMA1 == pytest.approx(2.010e8, rel=5e-4)

    def test_linear_in_power(self):
        double = snr_coeff(1.6, DEFAULT_CONSTANTS.rho0, DEFAULT_CONSTANTS.noise_w)
        assert double == pytest.approx(2.0 * GAMMA1)

    def test_inverse_in_noise(self):
        half = snr_coeff(0.8, DEFAULT_CONSTANTS.rho0,
                         2.0 * DEFAULT_CONSTANTS.noise_w)
        assert half == pytest.approx(0.5 * GAMMA1)

    def test_nonpositive_inputs_raise(self):
        with pytest.raises(ValueError):
            snr_coeff(0.0, 1e-6, 1e-14)

    def test_underflow_to_zero_raises(self):
        # Every input is positive, but rho0 * p / noise underflows to 0.
        with pytest.raises(ValueError, match="gamma1"):
            snr_coeff(1e-200, 1e-200, 1.0)


class TestRate:
    def test_unit_snr_gives_bandwidth(self):
        d2 = GAMMA1  # Gamma1 / d^2 = 1
        assert rate_at_dist_sq(d2, DEFAULT_CONSTANTS.bandwidth_hz, GAMMA1) \
            == pytest.approx(DEFAULT_CONSTANTS.bandwidth_hz)

    def test_300_meters(self):
        r = rate(ORIGIN, at(300.0))
        assert r == pytest.approx(1.11e8, rel=5e-3)

    def test_monotone_in_distance(self):
        rates = [rate(ORIGIN, at(d)) for d in (10.0, 100.0, 500.0, 1400.0)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_relay_on_an_suav_prices_the_1m_rate(self):
        # The evaluator floors the distance at the 1 m reference, as every
        # block does, so a relay on top of an S-UAV still prices.
        sc = make_scenario([(500.0, 500.0)], [(500.0, 500.0)], n0_cap=1)
        suav = sc.suavs[0]
        _, _, lats, _ = evaluate_solution(
            sc, full_association(sc), np.zeros(1, dtype=int),
            suav.current_pos)
        r_1m = rate_at_dist_sq(1.0, DEFAULT_CONSTANTS.bandwidth_hz,
                               GAMMA1)
        assert lats[0].local_tx_s == pytest.approx(
            suav.compress_ratio * suav.chunk_bits / r_1m, rel=1e-12)


class TestTaylorBound:
    """`placement.surrogate_rates`, the surrogate SCA maximises, against the
    exact rate of an S-UAV at the origin."""

    terms = link_terms(ORIGIN, GAMMA1)

    def test_tight_at_expansion_point(self):
        q_ref = np.array(at(250.0, 100.0, 400.0))
        exact = rate(ORIGIN, q_ref)
        bound = surrogate_rates(self.terms,
                                _surrogate_coeffs(self.terms, q_ref),
                                [q_ref])[0][0]
        assert bound == pytest.approx(exact, rel=1e-12)

    def test_farther_point_strictly_below_expansion_rate(self):
        q_ref = np.array(at(300.0))
        coeffs = _surrogate_coeffs(self.terms, q_ref)
        assert surrogate_rates(self.terms, coeffs, [at(400.0)])[0][0] < \
            coeffs[0][0]

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(*[st.floats(0.0, 1000.0) for _ in range(6)]),
           st.floats(100.0, 1000.0), st.floats(100.0, 1000.0))
    def test_global_lower_bound(self, xy, h_m, h_ref):
        # Random S-UAV, query point and expansion point.
        q_n = (xy[0], xy[1], 0.0)
        q_m = (xy[2], xy[3], h_m)
        q_ref = np.array([xy[4], xy[5], h_ref])
        exact = rate(q_n, q_m)
        terms = link_terms(q_n, GAMMA1)
        bound = surrogate_rates(terms, _surrogate_coeffs(terms, q_ref),
                                [q_m])[0][0]
        assert bound <= exact * (1.0 + 1e-9) + 1e-9

    def test_slope_positive(self):
        _, slope, _ = _surrogate_coeffs(self.terms, np.array(at(300.0)))
        assert slope[0] > 0.0
