import math

import mpmath
import numpy as np
import pytest

from spinheat.otto import (
    OttoParams,
    critical_compression,
    critical_spin_number,
    cycle_exact,
    normalized_work,
    power_near_carnot,
    work_max_bounds,
    work_near_carnot,
    work_saturation_bound,
)
from spinheat.sectors import SpinEnsemble, symmetric_weights, thermal_product_weights
from spinheat.thermo import block_heat_capacity, critical_temperature_approx


def gibbs_trace_energy(levels, b):
    w = np.exp(-b * np.asarray(levels, dtype=float))
    return float((levels * w).sum() / w.sum())


class TestOttoParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            OttoParams(lambda_c=0.0, lambda_h=1.0, b_c=1.0, b_h=0.5)
        with pytest.raises(ValueError):
            OttoParams(lambda_c=0.5, lambda_h=1.0, b_c=-1.0, b_h=0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["lambda_c", "lambda_h", "b_c", "b_h"])
    def test_rejects_non_finite(self, field, bad):
        fields = {"lambda_c": 0.5, "lambda_h": 1.0, "b_c": 1.0, "b_h": 0.5, field: bad}
        with pytest.raises(ValueError, match="finite"):
            OttoParams(**fields)

    def test_efficiency_relations(self):
        p = OttoParams(lambda_c=0.6, lambda_h=1.0, b_c=1.0, b_h=0.5)
        assert p.efficiency == pytest.approx(0.4)
        assert p.carnot_efficiency == pytest.approx(0.5)
        assert p.delta_eta == pytest.approx(0.1)
        assert p.efficiency + p.delta_eta == pytest.approx(p.carnot_efficiency)
        assert p.extraction_regime

    def test_extraction_regime_flag(self):
        # lambda_h/lambda_c must exceed 1 but stay below b_c/b_h
        assert not OttoParams(1.0, 0.9, 1.0, 0.5).extraction_regime
        assert not OttoParams(0.4, 1.0, 1.0, 0.5).extraction_regime  # theta_h > theta_c
        assert OttoParams(0.7, 1.0, 1.0, 0.5).extraction_regime


class TestCycleExact:
    def test_degenerate_compression(self):
        w = symmetric_weights(SpinEnsemble(2, 1))
        p = OttoParams(lambda_c=1.0, lambda_h=1.0, b_c=1.0, b_h=0.5)
        res = cycle_exact(w, p)
        assert res.work_extracted == 0.0
        assert p.efficiency == 0.0

    def test_single_temperature_no_extraction(self):
        w = symmetric_weights(SpinEnsemble(2, 1))
        for lc in [0.3, 0.8, 1.2]:
            p = OttoParams(lambda_c=lc, lambda_h=1.0, b_c=0.7, b_h=0.7)
            assert not p.extraction_regime
            assert cycle_exact(w, p).work_extracted <= 1e-15

    @pytest.mark.parametrize("two_s", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_against_dense_trace_arithmetic(self, n, two_s):
        # the symmetric J = ns ladder has levels -J..J; the product space of n
        # independent spins holds every sum of n one-spin levels -s..s
        p = OttoParams(lambda_c=0.6, lambda_h=1.0, b_c=1.0, b_h=0.5)

        def work(levels):
            de = gibbs_trace_energy(levels, p.theta_h) - gibbs_trace_energy(levels, p.theta_c)
            return (p.lambda_h - p.lambda_c) * de

        spin = np.arange(-two_s, two_s + 1, 2) * 0.5
        product = spin
        for _ in range(n - 1):
            product = np.add.outer(product, spin).ravel()
        ladder = np.arange(-n * two_s, n * two_s + 1, 2) * 0.5
        w = symmetric_weights(SpinEnsemble(n, two_s))
        assert cycle_exact(w, p).work_extracted == pytest.approx(work(ladder), rel=1e-13)
        # independent engine: n one-spin engines
        one_spin = symmetric_weights(SpinEnsemble(1, two_s))
        assert n * cycle_exact(one_spin, p).work_extracted == pytest.approx(
            work(product), rel=1e-13
        )

    def test_energy_bookkeeping(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            two_s = int(rng.integers(1, 4))
            w = thermal_product_weights(SpinEnsemble(n, two_s), float(rng.uniform(-2, 2)))
            p = OttoParams(*(float(v) for v in rng.uniform(0.1, 3.0, size=4)))
            one_spin = symmetric_weights(SpinEnsemble(1, two_s))
            # collective engine, then n one-spin engines
            for scale, res in ((1, cycle_exact(w, p)), (n, cycle_exact(one_spin, p))):
                assert scale * res.work_extracted == pytest.approx(
                    scale * (res.heat_hot + res.heat_cold), abs=1e-12
                )

    def test_efficiency_identity(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            w = symmetric_weights(SpinEnsemble(n, int(rng.integers(1, 4))))
            p = OttoParams(*(float(v) for v in rng.uniform(0.1, 3.0, size=4)))
            res = cycle_exact(w, p)
            if abs(res.heat_hot) > 1e-12:
                assert res.work_extracted / res.heat_hot == pytest.approx(
                    p.efficiency, abs=1e-12
                )

    def test_positive_work_iff_extraction_regime(self):
        # with the baths oriented b_c > b_h, work comes out iff the flag is set
        rng = np.random.default_rng(23)
        w = symmetric_weights(SpinEnsemble(3, 1))
        hits = 0
        for _ in range(200):
            lc, lh = (float(v) for v in rng.uniform(0.1, 2.5, size=2))
            bx, by = (float(v) for v in rng.uniform(0.1, 2.5, size=2))
            p = OttoParams(lc, lh, b_c=max(bx, by) + 1e-3, b_h=min(bx, by))
            extracted = cycle_exact(w, p).work_extracted
            if p.extraction_regime:
                assert extracted > 0.0
                hits += 1
            else:
                assert extracted <= 1e-15
        assert hits > 10  # the sample actually probed the regime


class TestNearCarnot:
    def _params(self, delta_eta, lambda_h=1.0, b_c=1.0, b_h=0.5):
        lambda_c = lambda_h * (b_h / b_c + delta_eta)
        return OttoParams(lambda_c=lambda_c, lambda_h=lambda_h, b_c=b_c, b_h=b_h)

    def test_zero_gap_zero_work(self):
        w = symmetric_weights(SpinEnsemble(3, 1))
        assert work_near_carnot(w, self._params(0.0)) == 0.0

    def test_first_order_error_scaling(self):
        # halving delta_eta shrinks the mismatch with the exact cycle ~4x, for
        # the collective engine and the one-spin engine (the independent engine
        # is n of them, a factor the error ratios do not see)
        for w in (symmetric_weights(SpinEnsemble(3, 1)), symmetric_weights(SpinEnsemble(1, 1))):
            errs = []
            for de in (0.04, 0.02, 0.01, 0.005):
                p = self._params(de)
                errs.append(abs(cycle_exact(w, p).work_extracted - work_near_carnot(w, p)))
            for big, small in zip(errs, errs[1:]):
                assert 3.0 < big / small < 5.0

    def test_approaches_max_bound_at_hot_limit(self):
        ens = SpinEnsemble(4, 1)
        w = symmetric_weights(ens)
        de, lh, bc = 0.01, 1.0, 1.0
        p = OttoParams(lambda_c=lh * (1e-4 / bc + de), lambda_h=lh, b_c=bc, b_h=1e-4)
        w_ind_max, w_col_max = work_max_bounds(ens, de, lh, bc)
        got = work_near_carnot(w, p)
        assert got < w_col_max
        assert got == pytest.approx(w_col_max * (1.0 - 1e-4), rel=2e-3)


class TestNormalizedWork:
    def test_is_capacity_over_theta_squared(self):
        for c, theta in [(0.4, 2.0), (3.0, 1e-3), (1e-30, 700.0), (0.0, 5.0)]:
            assert normalized_work(c, theta) == c / theta**2

    def test_raises_where_theta_squared_underflows(self):
        assert normalized_work(0.5, 2e-154) == 0.5 / 2e-154**2
        for theta in (1e-160, 1e-300, -1e-300, 0.0):
            with pytest.raises(ArithmeticError, match=f"theta_h = {theta!r} is too small"):
                normalized_work(0.5, theta)
        p = OttoParams(lambda_c=0.5, lambda_h=1.0, b_c=1e-100, b_h=1e-160)
        with pytest.raises(ArithmeticError, match="theta_h = 1e-160"):
            work_near_carnot(symmetric_weights(SpinEnsemble(3, 1)), p)

    def test_zero_where_theta_squared_overflows(self):
        # theta_h = 1e160: theta_h**2 overflows, where the capacity is already 0.0
        assert normalized_work(0.5, 1e160) == normalized_work(0.5, -1e160) == 0.0
        p = OttoParams(lambda_c=0.5, lambda_h=1.0, b_c=1e200, b_h=1e160)
        for ens in (SpinEnsemble(3, 1), SpinEnsemble(1, 1)):
            assert work_near_carnot(symmetric_weights(ens), p) == 0.0
            assert power_near_carnot(ens, p, 1.0) == 0.0
        assert work_saturation_bound(p) == 0.0


class TestWorkBounds:
    def test_single_spin_degenerate(self):
        w_ind, w_col = work_max_bounds(SpinEnsemble(1, 5), 0.02, 1.3, 0.8)
        assert w_ind == w_col

    def test_ratio_exact(self):
        for n, two_s, want in [(2, 1, 4.0 / 3.0), (100, 3, 60.4)]:
            w_ind, w_col = work_max_bounds(SpinEnsemble(n, two_s), 0.05, 1.0, 1.0)
            assert w_col / w_ind == pytest.approx(want, rel=1e-12)

    def test_saturation_bound_value(self):
        # theta_h = 2, delta_eta ~ 0.01, lambda_h = 1, b_c - b_h = 1
        p = OttoParams(lambda_c=(2.0 / 3.0 + 0.01), lambda_h=1.0, b_c=3.0, b_h=2.0)
        want = p.delta_eta * (3.0 - 2.0) * (0.5 / math.sinh(1.0)) ** 2
        assert work_saturation_bound(p) == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(0.0018101541524157764, rel=1e-10)

    def test_bound_vanishes_at_cold_hot_bath(self):
        big = OttoParams(lambda_c=0.9, lambda_h=1.0, b_c=200.0, b_h=100.0)
        assert work_saturation_bound(big) < 1e-35

    def test_work_saturates_below_bound_in_n(self):
        de, lh, bh, bc = 0.01, 1.0, 1.0, 2.0
        p = OttoParams(lambda_c=lh * (bh / bc + de), lambda_h=lh, b_c=bc, b_h=bh)
        bound = work_saturation_bound(p)
        prev = 0.0
        for n in (1, 2, 5, 10, 50, 100):
            w = work_near_carnot(symmetric_weights(SpinEnsemble(n, 1)), p)
            if n <= 10:
                assert prev < w < bound  # strictly climbing toward the ceiling
            else:
                assert prev <= w <= bound  # ties out at the fp floor of the gap
            prev = w
        assert prev == pytest.approx(bound, rel=1e-8)  # essentially saturated by n=100


class TestCriticalNumbers:
    def test_spin_number_value(self):
        assert critical_spin_number(1.0, 1) == pytest.approx(11.0 / 3.0, rel=1e-14)

    def test_spin_number_inverts_crossover(self):
        rng = np.random.default_rng(24)
        for two_s in (1, 2, 3, 7, 9):
            t = float(rng.uniform(0.5, 5.0))
            n_cr = critical_spin_number(t, two_s)
            # plugging n_cr back into the crossover formula returns t
            assert math.sqrt((4.0 * n_cr * 0.25 * two_s * (two_s + 2) + 1.0) / 12.0) == (
                pytest.approx(t, rel=1e-12)
            )

    def test_spin_number_decreases_with_s(self):
        vals = [critical_spin_number(2.0, two_s) for two_s in range(1, 10)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_compression_consistency(self):
        ens = SpinEnsemble(10, 1)
        tcr = critical_temperature_approx(ens)
        assert critical_compression(tcr, ens) == pytest.approx(1.0, rel=1e-14)
        assert critical_compression(2.0 * tcr, ens) == pytest.approx(2.0, rel=1e-14)
        assert critical_compression(3.214, ens) == pytest.approx(2.0, rel=1e-3)


class TestPower:
    def _params(self, theta_h, delta_eta=0.01, lambda_h=1.0, delta_b=1.0):
        b_h = theta_h / lambda_h
        return OttoParams(
            lambda_c=lambda_h * (b_h / (b_h + delta_b) + delta_eta),
            lambda_h=lambda_h,
            b_c=b_h + delta_b,
            b_h=b_h,
        )

    def _ratio(self, ens, theta_h):
        p = self._params(theta_h)
        col = power_near_carnot(ens, p, 1.0)
        ind = ens.n * power_near_carnot(SpinEnsemble(1, ens.two_s), p, 1.0)
        return col / ind

    def test_single_spin_parity(self):
        ens = SpinEnsemble(1, 3)
        for theta in (0.05, 1.0, 10.0):
            assert self._ratio(ens, theta) == pytest.approx(1.0, rel=1e-12)

    def test_hot_asymptote(self):
        assert self._ratio(SpinEnsemble(100, 1), 1e-4) == pytest.approx(3400.0, rel=0.02)

    def test_cold_equivalence(self):
        assert self._ratio(SpinEnsemble(10, 1), 30.0) == pytest.approx(1.0, rel=0.05)

    def test_ratio_never_below_one(self):
        for theta in np.geomspace(1e-3, 30.0, 40):
            assert self._ratio(SpinEnsemble(5, 3), float(theta)) >= 1.0 - 1e-12

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            power_near_carnot(SpinEnsemble(2, 1), self._params(1.0), 0.0)


_ENS = SpinEnsemble(3, 1)
_PARAMS = OttoParams(lambda_c=0.6, lambda_h=1.0, b_c=1.0, b_h=0.5)
# argument name -> call with that argument set to v
_CHECKED_ARGUMENTS = {
    "tau_ind": lambda v: power_near_carnot(_ENS, _PARAMS, v),
    "delta_eta": lambda v: work_max_bounds(_ENS, v, 1.0, 1.0),
    "lambda_h": lambda v: work_max_bounds(_ENS, 0.01, v, 1.0),
    "b_c": lambda v: work_max_bounds(_ENS, 0.01, 1.0, v),
    "t_h_over_lambda": lambda v: critical_spin_number(v, 1),
    "t_h": lambda v: critical_compression(v, _ENS),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
@pytest.mark.parametrize("name", list(_CHECKED_ARGUMENTS))
def test_rejects_non_finite_or_out_of_range(name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be finite and "):
        _CHECKED_ARGUMENTS[name](bad)


@pytest.mark.parametrize(
    "call, want",
    [
        (lambda: critical_spin_number(1e200, 1), math.inf),
        (lambda: work_max_bounds(_ENS, 0.01, 1e200, 1.0), (math.inf, math.inf)),
        (lambda: work_max_bounds(_ENS, 0.0, 1e200, 1.0), (0.0, 0.0)),
    ],
    ids=["spin_number", "bounds", "bounds_zero_delta_eta"],
)
def test_huge_finite_arguments_overflow_to_inf(call, want):
    # the squares overflow to inf instead of raising; delta_eta = 0 stays 0, not NaN
    assert call() == want


@pytest.mark.parametrize("params, want", [
    (OttoParams(lambda_c=0.5e200, lambda_h=1e200, b_c=1.0, b_h=0.5), 0.0),  # delta_eta = 0
    (OttoParams(lambda_c=0.4e200, lambda_h=1e200, b_c=1.0, b_h=0.5), 0.0),  # C(theta_h) = 0.0
    (OttoParams(lambda_c=0.4e200, lambda_h=1e200, b_c=1.0, b_h=1e-199), math.inf),  # theta_h = 10
], ids=["carnot_point", "theta_h_squared_overflows", "work_overflows"])
def test_near_carnot_work_at_huge_lambda_h(params, want):
    # lambda_h**2 overflows: the work is 0.0 where delta_eta or C(theta_h) is,
    # not NaN, and +inf where delta_eta (b_c - b_h) C / b_h^2 overflows too
    ens = SpinEnsemble(3, 1)
    assert work_near_carnot(symmetric_weights(ens), params) == want
    assert work_saturation_bound(params) == want
    assert power_near_carnot(ens, params, 2.0) == want


def test_near_carnot_work_where_only_lambda_h_squared_overflows():
    # theta_h = 720: lambda_h^2 / theta_h^2 = 1/b_h^2 leaves a finite work of ~1e87
    p = OttoParams(lambda_c=0.5e200, lambda_h=1e200, b_c=1.0, b_h=7.2e-198)
    ens = SpinEnsemble(3, 1)  # symmetric sector 2J = 6
    with mpmath.workdps(40):
        pref = mpmath.mpf(p.delta_eta) * (mpmath.mpf(p.b_c) - p.b_h) / mpmath.mpf(p.b_h) ** 2
        h = mpmath.mpf(p.theta_h) / 2
        bound = float(pref * (h / mpmath.sinh(h)) ** 2)
        work = float(pref * ((h / mpmath.sinh(h)) ** 2 - (7 * h / mpmath.sinh(7 * h)) ** 2))
    assert 1e87 < work < 1.1e87
    assert work_near_carnot(symmetric_weights(ens), p) == pytest.approx(work, rel=1e-10)
    assert work_saturation_bound(p) == pytest.approx(bound, rel=1e-10)
    assert power_near_carnot(ens, p, 2.0) == pytest.approx(3 * work / 2.0, rel=1e-10)


class TestWorkDensityMonotone:
    def test_capacity_over_theta_squared_decreases(self):
        # C_J(theta)/theta^2 falls monotonically even where C_J itself does not
        for two_j in [1, 2, 10, 100, 200]:
            thetas = np.geomspace(1e-3, 50.0, 60)
            vals = [block_heat_capacity(two_j, t) / t**2 for t in thetas]
            assert all(a > b for a, b in zip(vals, vals[1:]))
