import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinheat import thermometry
from spinheat.dynamics import gibbs_state
from spinheat.sectors import (
    BlockWeights,
    SpinEnsemble,
    block_partition_function,
    sector_multiplicities,
    symmetric_weights,
    thermal_product_weights,
)
from spinheat.thermo import (
    block_energy,
    block_heat_capacity,
    collective_heat_capacity,
    heat_capacity_ratio,
)
from spinheat.thermometry import (
    ZeroInformationError,
    fisher_collective_projection,
    fisher_energy_measurement,
    min_relative_stddev,
    qfi,
    qfi_moment_form,
)

from brute import block_weights, fisher_energy_by_sector, fisher_projection_by_sector


def random_weights(rng, n, two_s):
    ens = SpinEnsemble(n, two_s)
    keys = sorted(sector_multiplicities(ens).multiplicities)
    raw = rng.dirichlet(np.ones(len(keys)))
    return BlockWeights(ens, dict(zip(keys, map(float, raw))))


def outcome_distribution(weights, b):
    """Energy-measurement outcome probabilities, rebuilt from scratch.

    p(m) = sum_{J >= |m|} p_J e^{-m b} / Z_J over the doubled-m grid.
    """
    tj_top = max(weights.weights)
    two_ms = np.arange(-tj_top, tj_top + 1, 2)
    p = np.zeros_like(two_ms, dtype=float)
    for tj, w in weights.weights.items():
        z = block_partition_function(tj, b)
        for k, tm in enumerate(two_ms):
            if abs(tm) <= tj:
                p[k] += w * math.exp(-0.5 * tm * b) / z
    return p


def mp_fisher(weights, b, dps=60):
    """(energy, projection) Fisher information times T^2 in `dps`-digit arithmetic.

    Outcome by outcome: p(m) = sum_{J >= |m|} p_J q_m, with derivative
    sum_J p_J q_m (e_J - m), and sector J adds p_J var_J to the projection;
    q_m, e_J and var_J are direct sums over each ladder.
    """
    with mpmath.workdps(dps):
        b = mpmath.mpf(b)
        sectors = []
        for tj, p in weights.weights.items():
            ms = [mpmath.mpf(tm) / 2 for tm in range(-tj, tj + 1, 2)]
            q = [mpmath.exp(-m * b) for m in ms]
            z = mpmath.fsum(q)
            q = [x / z for x in q]
            e = mpmath.fsum(x * m for x, m in zip(q, ms))
            var = mpmath.fsum(x * (m - e) ** 2 for x, m in zip(q, ms))
            sectors.append((tj, mpmath.mpf(p), q, e, var))
        energy = mpmath.mpf(0)
        top = max(weights.weights)
        for tm in range(-top, top + 1, 2):
            m = mpmath.mpf(tm) / 2
            prob = dprob = mpmath.mpf(0)
            for tj, p, q, e, _ in sectors:
                if abs(tm) <= tj:
                    x = p * q[(tm + tj) // 2]
                    prob += x
                    dprob += x * (e - m)
            if prob > 0:
                energy += dprob * dprob / prob
        projection = mpmath.fsum(p * var for _, p, _, _, var in sectors)
        return float(b * b * energy), float(b * b * projection)


def fd_fisher(weights, b, h=1e-6):
    """Finite-difference Fisher information of the energy outcome statistics."""
    p0 = outcome_distribution(weights, b)
    dp = (outcome_distribution(weights, b + h) - outcome_distribution(weights, b - h)) / (2 * h)
    mask = p0 > 1e-300
    return float(np.sum(dp[mask] ** 2 / p0[mask]))


class TestQfi:
    def test_trivial_sector_is_blind(self):
        w = BlockWeights(SpinEnsemble(2, 1), {0: 1.0})
        for b in [0.0, 0.4, 9.0]:
            assert qfi(w, b).value == 0.0

    def test_two_level_textbook_value(self):
        w = symmetric_weights(SpinEnsemble(1, 1))
        got = qfi(w, 2.0)
        assert got.value == pytest.approx(0.41997434161402614, rel=1e-12)

    @pytest.mark.parametrize("bad", [lambda c: math.nan, lambda c: c * (1.0 + 1e-9)],
                             ids=["nan", "relative-1e-9"])
    def test_disagreeing_routes_fail_the_cross_check(self, monkeypatch, bad):
        w = symmetric_weights(SpinEnsemble(3, 1))
        closed = collective_heat_capacity(w, 2.0).c_over_kb
        monkeypatch.setattr(thermometry, "qfi_moment_form", lambda weights, b: bad(closed))
        with pytest.raises(ArithmeticError, match="cross-check"):
            qfi(w, 2.0)

    @pytest.mark.parametrize("b", [math.inf, -math.inf, 1e200, -1e200, 1e155, 800.0, math.nan])
    @pytest.mark.parametrize("weights", [symmetric_weights, lambda e: thermal_product_weights(e, 0.5)],
                             ids=["symmetric", "thermal"])
    def test_is_the_projection_at_every_b(self, weights, b):
        # past |b| = 1.34e154 b * b overflows, and the moment route's zero
        # variance goes through the shared b^2 rule, as the projection's does
        w = weights(SpinEnsemble(10, 1))
        got, want = qfi(w, b).value, fisher_collective_projection(w, b).value
        assert got == want or math.isnan(got) and math.isnan(want)

    def test_moment_form_agrees(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            w = random_weights(rng, int(rng.integers(2, 11)), int(rng.integers(1, 4)))
            b = float(rng.uniform(0.05, 20.0))
            assert qfi_moment_form(w, b) == pytest.approx(qfi(w, b).value, rel=1e-10)

    def test_heisenberg_scaling(self):
        # qfi grows like ns(ns+1), i.e. the error bound falls as 1/n
        b = 0.01
        base = qfi(symmetric_weights(SpinEnsemble(1, 1)), b).value
        for n in [2, 5, 10, 20, 50]:
            got = qfi(symmetric_weights(SpinEnsemble(n, 1)), b).value
            want = n * 0.5 * (n * 0.5 + 1) / (0.5 * 1.5)
            assert got / base == pytest.approx(want, rel=0.02)


class TestDirectLadderSums:
    def test_against_closed_forms(self):
        # qfi_moment_form's variance and the Gibbs state's mean on one-sector weights
        for two_j in [1, 4, 31]:
            w = symmetric_weights(SpinEnsemble(two_j, 1))
            for b in [0.03, 1.0, 14.0]:
                assert gibbs_state(w, b).energy() == pytest.approx(
                    block_energy(two_j, b), rel=1e-11, abs=1e-13
                )
                assert qfi_moment_form(w, b) == pytest.approx(
                    block_heat_capacity(two_j, b), rel=1e-10, abs=1e-16
                )


class TestEnergyMeasurement:
    def test_optimal_on_single_sector(self):
        for n, two_s in [(3, 1), (2, 3), (5, 1)]:
            w = symmetric_weights(SpinEnsemble(n, two_s))
            for b in [0.2, 1.0, 8.0]:
                f = fisher_energy_measurement(w, b)
                assert f.value == pytest.approx(qfi(w, b).value, rel=1e-10)

    def test_strictly_suboptimal_on_mixtures(self):
        w = BlockWeights(SpinEnsemble(2, 1), {0: 0.5, 2: 0.5})
        b = 1.0
        f_e = fisher_energy_measurement(w, b).value
        f_q = qfi(w, b).value
        assert f_e < f_q
        # pooling J=0 into the m=0 outcome costs a finite fraction of the info
        assert (f_q - f_e) / f_q > 0.01

    def test_matches_finite_difference_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            w = random_weights(rng, int(rng.integers(2, 7)), int(rng.integers(1, 3)))
            b = float(rng.uniform(0.1, 3.0))
            want = b * b * fd_fisher(w, b)
            assert fisher_energy_measurement(w, b).value == pytest.approx(want, rel=1e-5)

    def test_zero_at_infinite_temperature(self):
        w = symmetric_weights(SpinEnsemble(4, 1))
        assert fisher_energy_measurement(w, 0.0).value == 0.0


class TestCollectiveProjection:
    def test_saturates_qfi_for_any_weights(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            w = random_weights(rng, int(rng.integers(2, 11)), int(rng.integers(1, 4)))
            b = float(rng.uniform(0.05, 20.0))
            assert fisher_collective_projection(w, b).value == pytest.approx(
                qfi(w, b).value, rel=1e-10, abs=1e-300
            )

    def test_trivial_weights(self):
        w = BlockWeights(SpinEnsemble(2, 1), {0: 1.0})
        assert fisher_collective_projection(w, 1.0).value == 0.0

    def test_is_the_collective_capacity_bit_for_bit(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            w = random_weights(rng, int(rng.integers(2, 41)), int(rng.integers(1, 4)))
            for b in [float(rng.uniform(-20.0, 20.0)), math.inf, -math.inf, math.nan, 1e200]:
                got = fisher_collective_projection(w, b).value
                want = collective_heat_capacity(w, b).c_over_kb
                assert got == want or math.isnan(got) and math.isnan(want)

    def test_underflowing_outcome_probabilities(self):
        # hundreds of sectors: p_J q_m underflows to 0 for some (J, m) outcomes
        w = thermal_product_weights(SpinEnsemble(400, 1), 0.5)
        want = qfi(w, 2.0).value
        assert want == pytest.approx(0.72406, rel=1e-5)
        assert fisher_collective_projection(w, 2.0).value == pytest.approx(want, rel=1e-10)

    def test_against_per_block_sld_matrices(self):
        # explicit matrix evaluation: F T^2 = b^2 sum_J p_J Tr[rho_J (Jz - e_J)^2]
        rng = np.random.default_rng(14)
        w = random_weights(rng, 6, 1)
        b = 0.7
        want = 0.0
        for tj, p in w.weights.items():
            m = np.arange(-tj, tj + 1, 2) * 0.5
            pops = np.exp(-m * b)
            pops /= pops.sum()
            rho = np.diag(pops)
            sld = np.diag(m) - block_energy(tj, b) * np.eye(tj + 1)
            want += p * b * b * float(np.trace(rho @ sld @ sld))
        assert fisher_collective_projection(w, b).value == pytest.approx(want, rel=1e-11)


class TestOrderingProperty:
    def test_energy_below_projection_equals_qfi(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            w = random_weights(rng, int(rng.integers(2, 11)), int(rng.integers(1, 4)))
            b = float(rng.uniform(0.05, 20.0))
            f_q = qfi(w, b).value
            f_e = fisher_energy_measurement(w, b).value
            f_p = fisher_collective_projection(w, b).value
            assert f_e <= f_q * (1.0 + 1e-9) + 1e-15
            assert f_p == pytest.approx(f_q, rel=1e-9, abs=1e-300)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(w=block_weights(), b=st.floats(1e-3, 30.0))
    def test_ordering_on_random_weights(self, w, b):
        f_e = fisher_energy_measurement(w, b).value
        f_p = fisher_collective_projection(w, b).value
        assert f_e <= f_p * (1.0 + 1e-12)
        assert f_p == pytest.approx(qfi(w, b).value, rel=1e-10, abs=1e-300)


class TestPrefixSumKernels:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(w=block_weights(), b=st.floats(-9.0, 9.0))
    @example(w=BlockWeights(SpinEnsemble(1, 3), {3: 1.0}), b=-2.0)
    @example(w=BlockWeights(SpinEnsemble(5, 1), {1: 0.0, 3: 0.25, 5: 0.75}), b=-7.0)
    @example(w=BlockWeights(SpinEnsemble(4, 1), {0: 0.5, 2: 0.0, 4: 0.5}), b=0.5)
    def test_match_sector_loops(self, w, b):
        assert fisher_energy_measurement(w, b).value == pytest.approx(
            fisher_energy_by_sector(w, b), rel=1e-10, abs=1e-300)
        assert fisher_collective_projection(w, b).value == pytest.approx(
            fisher_projection_by_sector(w, b), rel=1e-10, abs=1e-300)

    @pytest.mark.parametrize("n, two_s, b0", [(30, 1, 0.5), (12, 3, 1.0), (120, 1, 0.25), (8, 9, 0.5)])
    def test_match_high_precision_reference(self, n, two_s, b0):
        # up to b = 30, where forming e_J - m directly loses up to 1e-2 relative
        w = thermal_product_weights(SpinEnsemble(n, two_s), b0)
        for b in [0.3, 3.0, 9.0, 13.0, 20.0, 30.0, -2.0, -30.0]:
            energy, projection = mp_fisher(w, b)
            assert fisher_energy_measurement(w, b).value == pytest.approx(energy, rel=1e-12)
            assert fisher_collective_projection(w, b).value == pytest.approx(projection, rel=1e-12)

    @pytest.mark.parametrize("b", [1.4e154, -1.4e154, 1e200, -1e200, math.inf, -math.inf])
    def test_zero_past_b_squared_overflow(self, b):
        # b * b overflows to inf there, and the Fisher sums are 0.0, also at b = +-inf
        w = thermal_product_weights(SpinEnsemble(4, 1), 0.5)
        assert fisher_energy_measurement(w, b).value == 0.0
        assert fisher_collective_projection(w, b).value == 0.0

    def test_nan_b_is_nan(self):
        # NaN propagates, as in collective_heat_capacity
        w = thermal_product_weights(SpinEnsemble(4, 1), 0.5)
        assert math.isnan(fisher_energy_measurement(w, math.nan).value)
        assert math.isnan(fisher_collective_projection(w, math.nan).value)


class TestPrecisionBound:
    def test_two_level_value(self):
        w = symmetric_weights(SpinEnsemble(1, 1))
        bound = min_relative_stddev(w, 2.0)
        assert bound.bound == pytest.approx(1.0 / math.sqrt(0.41997434161402614), rel=1e-12)
        assert bound.bound == pytest.approx(1.5431, abs=2e-4)

    def test_sqrt_nu_scaling(self):
        w = symmetric_weights(SpinEnsemble(3, 1))
        one = min_relative_stddev(w, 1.5, nu=1).bound
        hundred = min_relative_stddev(w, 1.5, nu=100).bound
        assert hundred == pytest.approx(one / 10.0, rel=1e-12)

    def test_unbounded_cases_raise(self):
        w = symmetric_weights(SpinEnsemble(3, 1))
        with pytest.raises(ZeroInformationError):
            min_relative_stddev(w, 0.0)
        dead = BlockWeights(SpinEnsemble(2, 1), {0: 1.0})
        with pytest.raises(ZeroInformationError):
            min_relative_stddev(dead, 2.0)
        with pytest.raises(ValueError):
            min_relative_stddev(w, 1.0, nu=0)

    def test_high_temperature_precision_ratio(self):
        # D_col/D_ind -> sqrt((s+1)/(ns+1))
        for n, two_s in [(2, 1), (10, 1), (10, 7)]:
            ens = SpinEnsemble(n, two_s)
            b = 1e-3 / (n * two_s)
            col = min_relative_stddev(symmetric_weights(ens), b).bound
            ind = 1.0 / math.sqrt(ens.n * block_heat_capacity(two_s, b))
            s = 0.5 * two_s
            assert col / ind == pytest.approx(math.sqrt((s + 1) / (n * s + 1)), rel=1e-4)


class TestEnhancementRatio:
    def test_reported_factors(self):
        assert heat_capacity_ratio(SpinEnsemble(2, 7), 0.0) == pytest.approx(8 / 4.5)
        assert heat_capacity_ratio(SpinEnsemble(10, 7), 0.0) == pytest.approx(8.0)
        assert heat_capacity_ratio(SpinEnsemble(10, 1), 0.0) == pytest.approx(4.0)

    def test_beats_one_only_above_crossover(self):
        from spinheat.thermo import critical_temperature_numeric

        ens = SpinEnsemble(5, 1)
        b_cr = 1.0 / critical_temperature_numeric(ens)
        assert heat_capacity_ratio(ens, 0.8 * b_cr) > 1.0
        assert heat_capacity_ratio(ens, 1.2 * b_cr) < 1.0
