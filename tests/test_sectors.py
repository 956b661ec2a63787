import copy
import math
import pickle
import random
import re

import mpmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinheat.dynamics import gibbs_state
from spinheat.sectors import (
    BlockWeights,
    SpinEnsemble,
    block_partition_function,
    log_block_partition_function,
    sector_multiplicities,
    symmetric_weights,
    thermal_product_weights,
)
from spinheat.thermo import block_heat_capacity, collective_heat_capacity, steady_state_energy
from spinheat.thermometry import fisher_energy_measurement, qfi

import brute


def dimension_total(table):
    """sum_J l_J (2J+1); equals ensemble.dim when the table is consistent."""
    return sum(l * (tj + 1) for tj, l in table.multiplicities.items())


def direct_partition_sum(two_j, b):
    """Plain 2J+1 term sum, the independent reference for Z_J."""
    m = np.arange(-two_j, two_j + 1, 2) * 0.5
    return float(np.sum(np.exp(-m * b)))


class TestSpinEnsemble:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpinEnsemble(0, 1)
        with pytest.raises(ValueError):
            SpinEnsemble(3, 0)

    def test_dimension_is_exact_int(self):
        ens = SpinEnsemble(200, 1)
        assert ens.dim == 2**200
        assert ens.two_j_max == 200

    @staticmethod
    def two_js_mismatches():
        """(n, two_s) for n < 60, two_s <= 20 where two_js is not the multiplicity table's key set."""
        return [(n, d) for n in range(1, 60) for d in range(1, 21)
                if list(SpinEnsemble(n, d).two_js)
                != sorted(sector_multiplicities(SpinEnsemble(n, d)).multiplicities)]

    def test_two_js_are_the_multiplicity_keys(self):
        assert self.two_js_mismatches() == []

    @pytest.mark.parametrize("planted", [
        lambda e: range(e.two_j_max % 2, e.two_j_max + 1, 2),  # n = 1 read as a range
        lambda e: range(e.two_s if e.n == 1 else 0, e.two_j_max + 1, 2),  # parity dropped
    ], ids=["single-spin", "parity"])
    def test_planted_two_js_defect_fails(self, monkeypatch, planted):
        monkeypatch.setattr(SpinEnsemble, "two_js", property(planted))
        assert self.two_js_mismatches() != []


class TestMultiplicities:
    def test_two_qubits(self):
        table = sector_multiplicities(SpinEnsemble(2, 1))
        assert table.multiplicities == {0: 1, 2: 1}

    def test_three_qubits(self):
        table = sector_multiplicities(SpinEnsemble(3, 1))
        assert table.multiplicities == {1: 2, 3: 1}

    @pytest.mark.parametrize("two_s", [1, 3, 5, 9])
    def test_single_spin(self, two_s):
        table = sector_multiplicities(SpinEnsemble(1, two_s))
        assert table.multiplicities == {two_s: 1}

    @pytest.mark.parametrize("two_s", [1, 2, 3, 7])
    def test_two_equal_spins(self, two_s):
        # s (x) s = 0 + 1 + ... + 2s, each once
        table = sector_multiplicities(SpinEnsemble(2, two_s))
        assert table.multiplicities == {tj: 1 for tj in range(0, 2 * two_s + 1, 2)}

    def test_dimension_sum_rule_exhaustive(self):
        for n in range(1, 31):
            for two_s in range(1, 10):
                ens = SpinEnsemble(n, two_s)
                assert dimension_total(sector_multiplicities(ens)) == ens.dim

    def test_large_n_no_overflow(self):
        ens = SpinEnsemble(200, 1)
        table = sector_multiplicities(ens)
        assert dimension_total(table) == 2**200
        assert max(table.multiplicities) == 200

    def test_parity_and_range(self):
        for n, two_s in [(3, 1), (3, 3), (4, 3), (5, 2)]:
            ens = SpinEnsemble(n, two_s)
            table = sector_multiplicities(ens)
            parity = (n * two_s) % 2
            assert all(tj % 2 == parity for tj in table.multiplicities)
            assert max(table.multiplicities) == n * two_s
            # for n >= 2 every parity-allowed value down to 0 or 1/2 appears
            assert min(table.multiplicities) == parity

    def test_against_brute_force(self):
        for n, two_s in brute.all_small_ensembles(max_dim=128):
            mult, _ = brute.sector_data(n, two_s)
            assert sector_multiplicities(SpinEnsemble(n, two_s)).multiplicities == mult


class TestMultiplicityProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.integers(1, 9).flatmap(
            lambda two_s: st.tuples(st.integers(1, 400 // two_s), st.just(two_s))
        )
    )
    def test_equals_coupling_loop(self, case):
        n, two_s = case
        table = sector_multiplicities(SpinEnsemble(n, two_s))
        assert table.multiplicities == brute.coupling_multiplicities(n, two_s)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(1, 2000))
    def test_spin_half_binomial_difference(self, n):
        # l_J = C(n, n/2 - J) - C(n, n/2 - J - 1), with k = n/2 - J
        expected = {
            n - 2 * k: math.comb(n, k) - (math.comb(n, k - 1) if k else 0)
            for k in range(n // 2 + 1)
        }
        assert sector_multiplicities(SpinEnsemble(n, 1)).multiplicities == expected

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(n=st.integers(1, 2000), two_s=st.integers(1, 9))
    def test_sum_rule(self, n, two_s):
        ens = SpinEnsemble(n, two_s)
        table = sector_multiplicities(ens)
        sector_multiplicities.cache_clear()  # tables at n ~ 2000 hold megabytes
        assert dimension_total(table) == (two_s + 1) ** n
        assert list(table.multiplicities) == sorted(table.multiplicities)
        assert all(l > 0 for l in table.multiplicities.values())

    def test_sum_rule_large(self):
        ens = SpinEnsemble(4000, 3)
        table = sector_multiplicities(ens)
        sector_multiplicities.cache_clear()
        assert dimension_total(table) == 4**4000
        assert max(table.multiplicities) == 12000


class TestPartitionFunction:
    def test_j_zero(self):
        for b in (3.7, math.inf, -math.inf):
            assert block_partition_function(0, b) == 1.0

    @pytest.mark.parametrize("two_j", [1, 2, 7, 40])
    def test_b_zero(self, two_j):
        assert block_partition_function(two_j, 0.0) == two_j + 1

    def test_half_spin_value(self):
        assert block_partition_function(1, 2.0) == pytest.approx(
            2.0 * math.cosh(1.0), rel=1e-14
        )

    def test_against_direct_sum(self):
        for two_j in [1, 2, 3, 10, 41, 100]:
            for b in [-5.0, -1.0, -0.01, 0.01, 0.3, 1.0, 2.5, 5.0]:
                assert block_partition_function(two_j, b) == pytest.approx(
                    direct_partition_sum(two_j, b), rel=1e-12
                )

    def test_even_in_b(self):
        assert block_partition_function(9, 1.3) == block_partition_function(9, -1.3)

    def test_always_at_least_one(self):
        for two_j in [0, 1, 6]:
            for b in [0.0, 1e-6, 1.0, 50.0]:
                assert block_partition_function(two_j, b) >= 1.0

    # b across the old series threshold (2J+1)|b|/2 = 1e-4, and from 1e-300 to 1e5
    _B = [10.0**k for k in range(-300, 6)] + [3e-9, 7e-5, 1.3e-4, 0.37, 2.5e-3]

    @pytest.mark.parametrize("two_j", [1, 2, 3, 10, 99, 1000, 12345, 10**6])
    def test_log_against_high_precision_reference(self, two_j):
        with mpmath.workdps(50):
            for b in self._B:
                h = mpmath.mpf(b) / 2
                want = mpmath.log(mpmath.sinh((two_j + 1) * h) / mpmath.sinh(h))
                got = log_block_partition_function(two_j, b)
                assert abs(got - want) <= 1e-13 * abs(want), (two_j, b)
                assert log_block_partition_function(two_j, -b) == got
        # b = 5e-324 halves to 0.0: Z_J = 2J+1 exactly, with no log_sinh(0)
        assert log_block_partition_function(two_j, 5e-324) == math.log(two_j + 1)

    def test_log_version_large_arguments(self):
        # (J+1/2)|b| ~ 2525: the value itself overflows but the log is finite,
        # log Z -> 2J * (b/2) = 2500 up to exponentially small corrections
        lz = log_block_partition_function(100, 50.0)
        assert math.isfinite(lz)
        assert lz == pytest.approx(2500.0, abs=1e-9)


class TestThermalProductWeights:
    def test_infinite_temperature(self):
        # maximally mixed: p_J = l_J (2J+1) / dim
        for n, two_s in [(2, 1), (3, 1), (4, 1), (3, 2)]:
            ens = SpinEnsemble(n, two_s)
            w = thermal_product_weights(ens, 0.0)
            table = sector_multiplicities(ens)
            for tj, l in table.multiplicities.items():
                assert w.weights[tj] == pytest.approx(l * (tj + 1) / ens.dim, rel=1e-12)

    def test_two_qubits_uniform(self):
        w = thermal_product_weights(SpinEnsemble(2, 1), 0.0)
        assert w.weights[0] == pytest.approx(0.25, abs=1e-15)
        assert w.weights[2] == pytest.approx(0.75, abs=1e-15)

    def test_deep_thermal_concentrates(self):
        ens = SpinEnsemble(2, 1)
        w = thermal_product_weights(ens, 20.0)
        assert abs(w.weights[2] - 1.0) < 1e-8

    def test_large_ensemble_log_space(self):
        # n = 200 qubits: multiplicities are ~1e58 and Z_s^n would overflow,
        # but the log-space route keeps the weights finite and normalized
        ens = SpinEnsemble(200, 1)
        w = thermal_product_weights(ens, 1.0)
        assert sum(w.weights.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(v >= 0.0 for v in w.weights.values())
        assert max(w.weights, key=w.weights.get) not in (0, ens.two_j_max)

    @pytest.mark.parametrize("n, b0", [(3, 1e308), (3, -1e308), (1000, 1e306), (3, math.inf),
                                       (3, math.nan)])
    def test_refuses_b0_where_log_z_overflows(self, n, b0):
        with pytest.raises(ValueError, match=re.escape(f"not finite at b0={b0!r}")):
            thermal_product_weights(SpinEnsemble(n, 1), b0)
        if math.isfinite(b0):  # a thousandth of b0 keeps every log Z_J finite
            assert thermal_product_weights(SpinEnsemble(n, 1), b0 / 1e3).weights[n] == 1.0

    def test_concentration_is_monotone(self):
        ens = SpinEnsemble(4, 1)
        tops = [
            thermal_product_weights(ens, b0).weights[ens.two_j_max]
            for b0 in [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0]
        ]
        assert all(a < b for a, b in zip(tops, tops[1:]))

    def test_even_in_b0(self):
        ens = SpinEnsemble(3, 2)
        wp = thermal_product_weights(ens, 1.7).weights
        wm = thermal_product_weights(ens, -1.7).weights
        for tj in wp:
            assert wp[tj] == pytest.approx(wm[tj], rel=1e-14)

    def test_hot_start_against_high_precision_reference(self):
        # b0 = 1e-7 over 5,001 sectors: every weight within 1e-11 relative of 40
        # digits, plus the subnormal range's absolute step of 5e-324
        ens = SpinEnsemble(10000, 1)
        got = thermal_product_weights(ens, 1e-7).weights
        with mpmath.workdps(40):
            h = mpmath.mpf(1e-7) / 2
            want = {tj: l * mpmath.sinh((tj + 1) * h)
                    for tj, l in sector_multiplicities(ens).multiplicities.items()}
            total = mpmath.fsum(want.values())
            for tj, v in want.items():
                assert abs(got[tj] - v / total) <= 1e-11 * (v / total) + math.ulp(0.0), tj

    def test_against_brute_force_projectors(self):
        # spec-level check: agree with explicit collective-basis construction
        # for every ensemble with product dimension <= 1024
        for n, two_s in brute.all_small_ensembles(max_dim=1024):
            _, coeffs = brute.sector_data(n, two_s)
            b0 = 0.7
            rho = brute.thermal_diag(n, two_s, b0)
            w = thermal_product_weights(SpinEnsemble(n, two_s), b0)
            for tj, c in coeffs.items():
                assert w.weights[tj] == pytest.approx(
                    float(c @ rho), rel=1e-10, abs=1e-13
                )


class TestSymmetricWeights:
    @pytest.mark.parametrize("n,two_s", [(5, 1), (1, 3), (2, 1)])
    def test_definition(self, n, two_s):
        w = symmetric_weights(SpinEnsemble(n, two_s))
        assert w.weights == {n * two_s: 1.0}


class TestBlockWeightsValidation:
    def test_negative_weight(self):
        for bad in (-0.1, math.nan):
            with pytest.raises(ValueError, match="negative"):
                BlockWeights(SpinEnsemble(2, 1), {0: bad, 2: 1.1})

    def test_bad_sum(self):
        for other in (0.3, math.inf):
            with pytest.raises(ValueError, match="sum to 1"):
                BlockWeights(SpinEnsemble(2, 1), {0: 0.3, 2: other})

    def test_bad_parity(self):
        with pytest.raises(ValueError, match="not a sector"):
            BlockWeights(SpinEnsemble(2, 1), {1: 1.0})

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="not a sector"):
            BlockWeights(SpinEnsemble(2, 1), {4: 1.0})

    def test_single_spin_only_has_s(self):
        with pytest.raises(ValueError):
            BlockWeights(SpinEnsemble(1, 3), {1: 1.0})
        BlockWeights(SpinEnsemble(1, 3), {3: 1.0})


class TestBlockWeightsOrder:
    """BlockWeights keeps its own copy of the weights, in ascending two_j."""

    B = (-3.0, 0.05, 0.7, 2.5)

    @staticmethod
    def _pair():
        ens = SpinEnsemble(9, 3)
        items = list(thermal_product_weights(ens, 0.7).weights.items())
        random.Random(21).shuffle(items)
        return BlockWeights(ens, dict(items)), BlockWeights(ens, dict(sorted(items)))

    def test_iterates_in_ascending_two_j(self):
        shuffled, ordered = self._pair()
        keys = list(shuffled.weights)
        assert keys == sorted(keys) == list(ordered.weights)

    @pytest.mark.parametrize("quantity", [
        lambda w, b: collective_heat_capacity(w, b).c_over_kb,
        steady_state_energy,
        lambda w, b: qfi(w, b).value,
        lambda w, b: fisher_energy_measurement(w, b).value,
        lambda w, b: [(tj, p.tobytes()) for tj, p in gibbs_state(w, b).blocks.items()],
    ], ids=["capacity", "energy", "qfi", "fisher_energy", "gibbs_state"])
    def test_sums_are_bit_identical(self, quantity):
        shuffled, ordered = self._pair()
        for b in self.B:
            assert quantity(shuffled, b) == quantity(ordered, b)

    def test_weights_are_read_only(self):
        w = symmetric_weights(SpinEnsemble(2, 1))
        writes = [
            lambda d: d.__setitem__(0, 5.0), lambda d: d.__delitem__(2), lambda d: d.clear(),
            lambda d: d.pop(2), lambda d: d.popitem(), lambda d: d.setdefault(0, 5.0),
            lambda d: d.update({0: 5.0}), lambda d: d.__ior__({0: 5.0}),
        ]
        for write in writes:
            with pytest.raises(TypeError, match="read-only"):
                write(w.weights)
        assert w.weights == {2: 1.0}
        assert collective_heat_capacity(w, 1.0).c_over_kb == block_heat_capacity(2, 1.0)
        # copies keep the weights and stay read-only
        for twin in (copy.deepcopy(w.weights), pickle.loads(pickle.dumps(w)).weights):
            assert twin == w.weights
            with pytest.raises(TypeError):
                twin[0] = 5.0

    def test_later_changes_to_the_source_mapping_do_not_reach_it(self):
        d = {2: 1.0}
        w = BlockWeights(SpinEnsemble(2, 1), d)
        d[0] = 5.0
        d[7] = -1.0
        assert w.weights == {2: 1.0}
        assert collective_heat_capacity(w, 1.0).c_over_kb == block_heat_capacity(2, 1.0)
