import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinheat.sectors import (
    BlockWeights,
    SpinEnsemble,
    symmetric_weights,
    thermal_product_weights,
)
from spinheat.special import xcsch2
from spinheat.thermo import (
    block_energy,
    block_heat_capacity,
    collective_heat_capacity,
    critical_temperature_approx,
    critical_temperature_numeric,
    heat_capacity_ratio,
    independent_energy,
    independent_heat_capacity,
    steady_state_energy,
)


def direct_moments(two_j, b):
    """Mean and variance of J_z over a ladder from the explicit level sum."""
    m = np.arange(-two_j, two_j + 1, 2) * 0.5
    expo = -m * b
    expo -= expo.max()
    w = np.exp(expo)
    w /= w.sum()
    mean = float(w @ m)
    return mean, float(w @ (m - mean) ** 2)


def random_weights(rng, n, two_s):
    ens = SpinEnsemble(n, two_s)
    from spinheat.sectors import sector_multiplicities

    keys = sorted(sector_multiplicities(ens).multiplicities)
    raw = rng.dirichlet(np.ones(len(keys)))
    return BlockWeights(ens, dict(zip(keys, map(float, raw))))


class TestBlockEnergy:
    def test_zero_cases(self):
        assert block_energy(0, 1.2) == 0.0
        assert block_energy(7, 0.0) == 0.0

    def test_half_spin_closed_form(self):
        # e_{1/2}(b) = -(1/2) tanh(b/2)
        for b in [0.1, 2.0, -3.0]:
            assert block_energy(1, b) == pytest.approx(
                -0.5 * math.tanh(0.5 * b), rel=1e-14
            )
        assert block_energy(1, 2.0) == pytest.approx(-0.3807970779778824, rel=1e-13)

    def test_ground_state_saturation(self):
        assert block_energy(6, 40.0) == pytest.approx(-3.0, abs=1e-12)

    def test_odd_in_b(self):
        for two_j in [1, 4, 21]:
            for b in [1e-4, 0.3, 7.0]:
                assert block_energy(two_j, -b) == pytest.approx(
                    -block_energy(two_j, b), rel=1e-14
                )

    def test_against_direct_sum(self):
        for two_j in [1, 2, 3, 9, 30, 100]:
            for b in [1e-5, 1e-3, 0.05, 0.4, 2.0, 12.0]:
                want, _ = direct_moments(two_j, b)
                assert block_energy(two_j, b) == pytest.approx(want, rel=1e-11, abs=1e-13)

    def test_range_and_monotonicity(self):
        two_j = 8
        bs = np.linspace(-20, 20, 81)
        es = [block_energy(two_j, b) for b in bs]
        assert all(-4.0 < e < 4.0 for e in es)
        assert all(a > b for a, b in zip(es, es[1:]))


class TestBlockHeatCapacity:
    def test_zero_cases(self):
        assert block_heat_capacity(0, 5.0) == 0.0
        assert block_heat_capacity(13, 0.0) == 0.0

    def test_half_spin_value(self):
        # two-level result b^2 e^b / (1+e^b)^2 at b = 2
        b = 2.0
        want = b * b * math.exp(b) / (1.0 + math.exp(b)) ** 2
        assert block_heat_capacity(1, b) == pytest.approx(want, rel=1e-13)
        assert want == pytest.approx(0.41997434161402614, rel=1e-14)

    def test_even_in_b(self):
        for two_j in [1, 6]:
            for b in [0.03, 1.7, 25.0]:
                assert block_heat_capacity(two_j, b) == block_heat_capacity(two_j, -b)

    def test_against_direct_variance(self):
        for two_j in [1, 2, 5, 17, 100]:
            for b in [1e-4, 0.019, 0.021, 0.5, 3.0, 20.0]:
                _, var = direct_moments(two_j, b)
                assert block_heat_capacity(two_j, b) == pytest.approx(
                    b * b * var, rel=1e-10, abs=1e-16
                )

    def test_derivative_consistency_plain_fd(self):
        # C_J(b) = -b^2 de_J/db; double-precision central difference resolves
        # the slope up to b ~ 5 before e_J saturates against roundoff
        for two_j in [1, 3, 12, 60]:
            for b in np.geomspace(0.01, 5.0, 9):
                h = min(1e-3 / (two_j + 1), 0.25 * b)  # truncation scale ~ 1/J
                fd = (block_energy(two_j, b + h) - block_energy(two_j, b - h)) / (2 * h)
                assert block_heat_capacity(two_j, b) == pytest.approx(
                    -b * b * fd, rel=1e-6
                )

    def test_derivative_consistency_highprec_fd(self):
        # same check across the whole b range with a 40-digit finite difference
        # of an independent closed form (the slope is ~e^{-b} below double
        # resolution at large b)
        from mpmath import mp, mpf, coth

        mp.dps = 40

        def e_mp(two_j, b):
            jp = mpf(two_j + 1) / 2
            return coth(b / 2) / 2 - jp * coth(jp * b)

        h = mpf("1e-12")
        for two_j in [1, 3, 12, 60]:
            for b in np.geomspace(0.01, 30.0, 12):
                bmp = mpf(repr(float(b)))
                fd = (e_mp(two_j, bmp + h) - e_mp(two_j, bmp - h)) / (2 * h)
                want = float(-bmp * bmp * fd)
                assert block_heat_capacity(two_j, b) == pytest.approx(want, rel=1e-9)

    def test_small_b_limit(self):
        for two_j in [1, 4, 9]:
            b = 1e-4
            jj = 0.25 * two_j * (two_j + 2)
            assert block_heat_capacity(two_j, b) / (b * b) == pytest.approx(
                jj / 3.0, rel=1e-7
            )

    def test_large_b_asymptote(self):
        # C_J ~ b^2 e^{-|b|} independent of J
        b = 40.0
        want = b * b * math.exp(-b)
        for two_j in [1, 10, 80]:
            assert block_heat_capacity(two_j, b) == pytest.approx(want, rel=1e-2)

    def test_monotone_in_j(self):
        # larger sectors always hold more heat, at negative b too; the growth
        # is exponentially small in (J+1/2)|b| and ties out below the fp floor
        for b in [0.1, 1.0, 5.0, 20.0, -0.1, -1.0, -5.0, -20.0]:
            caps = [block_heat_capacity(two_j, b) for two_j in range(1, 101)]
            for two_j, (lo, hi) in enumerate(zip(caps, caps[1:]), start=1):
                if (two_j + 3) * abs(b) < 30.0:
                    assert lo < hi
                else:
                    assert lo <= hi

    def test_no_overflow_huge_arguments(self):
        assert block_heat_capacity(2000, 900.0) == 0.0  # true value below fp floor
        assert math.isfinite(block_heat_capacity(2000, 1e-8))

    @pytest.mark.parametrize("b", [1e154, 1e200, 1e308, math.inf])
    def test_finite_at_extreme_b(self, b):
        # 4 x^2 overflows past x ~ 1.3e154 while e^{-2x} is already 0
        ens = SpinEnsemble(5, 3)
        w = thermal_product_weights(ens, 0.5)
        for sb in (b, -b):
            caps = [block_heat_capacity(tj, sb) for tj in (1, 2, 15)]
            caps += [collective_heat_capacity(w, sb).c_over_kb,
                     independent_heat_capacity(ens, sb).c_over_kb]
            assert all(math.isfinite(c) and c >= 0.0 for c in caps)

    def test_xcsch2_matches_closed_form(self):
        # the underflow guard leaves every finite value of the formula as it was
        for x in np.geomspace(1e-6, 400.0, 301):
            x = float(x)
            d = -math.expm1(-2.0 * x)
            assert xcsch2(x) == 4.0 * x * x * math.exp(-2.0 * x) / (d * d)
        assert xcsch2(0.0) == 1.0
        assert xcsch2(1e200) == 0.0
        assert xcsch2(-math.inf) == 0.0


class TestEnsembleQuantities:
    def test_symmetric_small_b_slope(self):
        # n=2, s=1/2: C_+ -> (2/3) b^2
        w = symmetric_weights(SpinEnsemble(2, 1))
        b = 1e-3
        assert collective_heat_capacity(w, b).c_over_kb == pytest.approx(
            2.0 / 3.0 * b * b, rel=1e-5
        )

    def test_weights_on_trivial_sector(self):
        w = BlockWeights(SpinEnsemble(2, 1), {0: 1.0})
        for b in [0.0, 0.5, 8.0]:
            assert collective_heat_capacity(w, b).c_over_kb == 0.0

    def test_two_qubit_thermal_mixture(self):
        w = thermal_product_weights(SpinEnsemble(2, 1), 0.0)
        got = collective_heat_capacity(w, 1.0).c_over_kb
        assert got == pytest.approx(0.75 * block_heat_capacity(2, 1.0), rel=1e-14)

    def test_independent_equals_collective_for_single_spin(self):
        for two_s in [1, 3]:
            ens = SpinEnsemble(1, two_s)
            w = symmetric_weights(ens)
            for b in [0.2, 2.0]:
                assert independent_heat_capacity(ens, b).c_over_kb == pytest.approx(
                    collective_heat_capacity(w, b).c_over_kb, rel=1e-14
                )

    def test_independent_small_b_slope(self):
        ens = SpinEnsemble(10, 1)
        b = 1e-3
        assert independent_heat_capacity(ens, b).c_over_kb == pytest.approx(
            2.5 * b * b, rel=1e-5
        )

    def test_steady_state_energy(self):
        w = thermal_product_weights(SpinEnsemble(3, 1), 0.5)
        assert steady_state_energy(w, 0.0) == 0.0
        sym = symmetric_weights(SpinEnsemble(4, 1))
        assert steady_state_energy(sym, 60.0) == pytest.approx(-2.0, abs=1e-12)
        bs = np.linspace(-3, 3, 25)
        es = [steady_state_energy(w, b) for b in bs]
        assert all(a > c for a, c in zip(es, es[1:]))

    def test_independent_energy_against_gibbs_trace(self):
        # n=2, s=1/2: Tr[J_z e^{-b J_z}]/Z over the 4-dim product space
        ens = SpinEnsemble(2, 1)
        b = 1.0
        levels = np.array([-1.0, 0.0, 0.0, 1.0])
        w = np.exp(-b * levels)
        want = float((levels * w).sum() / w.sum())
        assert independent_energy(ens, b) == pytest.approx(want, rel=1e-14)
        assert want == pytest.approx(-math.tanh(0.5), rel=1e-14)


class TestHeatCapacityRatio:
    def test_high_temperature_limits(self):
        assert heat_capacity_ratio(SpinEnsemble(2, 1), 0.0) == pytest.approx(4.0 / 3.0)
        assert heat_capacity_ratio(SpinEnsemble(100, 1), 0.0) == pytest.approx(34.0)
        assert heat_capacity_ratio(SpinEnsemble(2, 7), 0.0) == pytest.approx(16.0 / 9.0)

    def test_low_temperature_limit(self):
        assert heat_capacity_ratio(SpinEnsemble(5, 1), 30.0) == pytest.approx(
            0.2, rel=0.02
        )

    def test_underflow_returns_analytic_limit(self):
        assert heat_capacity_ratio(SpinEnsemble(4, 1), 1500.0) == 0.25

    def test_crosses_one_at_tcr(self):
        ens = SpinEnsemble(10, 1)
        b_cr = 1.0 / critical_temperature_numeric(ens)
        assert heat_capacity_ratio(ens, 0.9 * b_cr) > 1.0
        assert heat_capacity_ratio(ens, 1.1 * b_cr) < 1.0


class TestCriticalTemperature:
    def test_closed_form_values(self):
        assert critical_temperature_approx(SpinEnsemble(10, 1)) == pytest.approx(
            math.sqrt(31.0 / 12.0), rel=1e-14
        )
        assert critical_temperature_approx(SpinEnsemble(1, 1)) == pytest.approx(
            math.sqrt(4.0 / 12.0), rel=1e-14
        )
        assert critical_temperature_approx(SpinEnsemble(2, 7)) == pytest.approx(
            math.sqrt(127.0 / 12.0), rel=1e-14
        )

    def test_numeric_needs_two_spins(self):
        with pytest.raises(ValueError):
            critical_temperature_numeric(SpinEnsemble(1, 1))

    def test_numeric_is_a_crossing(self):
        ens = SpinEnsemble(5, 3)
        t = critical_temperature_numeric(ens)
        b = 1.0 / t
        lhs = block_heat_capacity(ens.two_j_max, b)
        rhs = ens.n * block_heat_capacity(ens.two_s, b)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize("n,two_s", [(10**4, 1), (5 * 10**6, 1), (10**6, 3)])
    def test_large_ensembles_resolve(self, n, two_s):
        # the gap's rounding floor grows like n eps, and at n = 5e6 the root
        # lies below b = 1e-3
        ens = SpinEnsemble(n, two_s)
        approx = critical_temperature_approx(ens)
        assert abs(critical_temperature_numeric(ens) - approx) / approx < 1e-3

    @pytest.mark.parametrize("n,two_s", [(2, 1), (2, 9), (100, 1), (100, 9), (2, 5000)])
    def test_closed_form_agrees_within_ten_percent(self, n, two_s):
        ens = SpinEnsemble(n, two_s)
        approx = critical_temperature_approx(ens)
        numeric = critical_temperature_numeric(ens)
        assert abs(numeric - approx) / numeric < 0.10


class TestMomentIdentity:
    def test_collective_capacity_equals_jz_variance_form(self):
        # C^col/k_B = b^2 <Jz^2> - b^2 mean(e_J^2), mixed-route evaluation
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 11))
            two_s = int(rng.integers(1, 4))
            w = random_weights(rng, n, two_s)
            b = float(rng.uniform(0.05, 5.0))
            jz2 = 0.0
            e2 = 0.0
            for tj, p in w.sorted_items():
                mean, var = direct_moments(tj, b)
                jz2 += p * (var + mean * mean)
                e2 += p * block_energy(tj, b) ** 2
            want = b * b * (jz2 - e2)
            got = collective_heat_capacity(w, b).c_over_kb
            assert got == pytest.approx(want, rel=1e-10, abs=1e-14)

    def test_variance_bound(self):
        # C^col <= b^2 Var(Jz), equality only on a single sector
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            w = random_weights(rng, n, 1)
            b = float(rng.uniform(0.1, 4.0))
            jz2 = mean_tot = 0.0
            for tj, p in w.sorted_items():
                mean, var = direct_moments(tj, b)
                jz2 += p * (var + mean * mean)
                mean_tot += p * mean
            bound = b * b * (jz2 - mean_tot**2)
            c = collective_heat_capacity(w, b).c_over_kb
            assert c <= bound * (1.0 + 1e-12)
            if len(w.weights) > 1:
                assert c < bound
        sym = symmetric_weights(SpinEnsemble(3, 1))
        b = 1.3
        mean, var = direct_moments(3, b)
        assert collective_heat_capacity(sym, b).c_over_kb == pytest.approx(
            b * b * var, rel=1e-12
        )


class TestParityProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(two_j=st.integers(0, 400), b=st.floats(1e-4, 50.0))
    def test_energy_odd_capacity_even_and_nonnegative(self, two_j, b):
        assert block_energy(two_j, -b) == -block_energy(two_j, b)
        c = block_heat_capacity(two_j, b)
        assert block_heat_capacity(two_j, -b) == c
        assert c >= 0.0
