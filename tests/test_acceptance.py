"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest -v tests/test_acceptance.py` to get one line per criterion.
Criterion 11 is known-red: the factor-n equilibration speed-up bound holds at
strong thermal bias (b = 10) but measurably degrades at b = 2 for s = 1/2;
see that test's docstring for the measured numbers.
"""

import numpy as np
import pytest

from spinheat.cli import K_B, main
from spinheat.dynamics import (
    RatePair,
    aligned_state,
    collective_generator,
    ladder_generator,
    relaxation_time,
)
from spinheat import oracle
from spinheat.otto import OttoParams, cycle_exact, power_near_carnot, work_max_bounds, work_near_carnot, work_saturation_bound
from spinheat.sectors import (
    BlockWeights,
    SpinEnsemble,
    sector_multiplicities,
    symmetric_weights,
)
from spinheat.special import ladder_boltzmann
from spinheat.thermo import (
    critical_temperature_approx,
    critical_temperature_numeric,
    heat_capacity_ratio,
)
from spinheat.thermometry import (
    fisher_collective_projection,
    fisher_energy_measurement,
    qfi,
    qfi_moment_form,
)

RATIO_CASES = [(2, 1), (2, 3), (2, 9), (5, 1), (10, 1), (100, 1), (100, 3)]


def _ns(n, two_s):
    return 0.5 * n * two_s


def _random_weights(rng, n, two_s):
    ens = SpinEnsemble(n, two_s)
    keys = sorted(sector_multiplicities(ens).multiplicities)
    raw = rng.dirichlet(np.ones(len(keys)))
    return BlockWeights(ens, dict(zip(keys, map(float, raw))))


def test_criterion_01_high_temperature_ratio():
    """C_+^col/C^ind -> (ns+1)/(s+1) within 2% deep in the high-T regime (b = 0.01/ns)."""
    for n, two_s in RATIO_CASES:
        ns = _ns(n, two_s)
        s = 0.5 * two_s
        b = 0.01 / ns
        got = heat_capacity_ratio(SpinEnsemble(n, two_s), b)
        want = (ns + 1.0) / (s + 1.0)
        assert abs(got - want) / want < 0.02, (n, two_s, got, want)
    print("ACCEPTANCE 1 (high-T capacity ratio): PASS")


def test_criterion_02_low_temperature_ratio():
    """C_+^col/C^ind -> 1/n within 2% at b = 40."""
    for n, two_s in RATIO_CASES:
        got = heat_capacity_ratio(SpinEnsemble(n, two_s), 40.0)
        assert abs(got - 1.0 / n) * n < 0.02, (n, two_s, got)
    print("ACCEPTANCE 2 (low-T capacity ratio): PASS")


def test_criterion_03_crossover_temperature_agreement():
    """Closed-form crossover within 10% of the numeric root on the stated grid."""
    for n in (2, 5, 10, 100):
        for two_s in (1, 3, 7, 9):
            ens = SpinEnsemble(n, two_s)
            approx = critical_temperature_approx(ens)
            numeric = critical_temperature_numeric(ens)
            rel = abs(numeric - approx) / numeric
            assert rel < 0.10, (n, two_s, approx, numeric, rel)
    print("ACCEPTANCE 3 (crossover temperature agreement): PASS")


def test_criterion_04_si_examples():
    """NV-center crossover lands at 0.22 K; enhancement factors match exactly."""
    nv = critical_temperature_approx(SpinEnsemble(10, 1)) * 1.9e-24 / K_B
    assert abs(nv - 0.22) / 0.22 < 0.05, nv
    for n, two_s, want in [(2, 7, 8.0 / 4.5), (10, 7, 8.0), (10, 1, 4.0)]:
        ens = SpinEnsemble(n, two_s)
        got = (ens.two_j_max + 2.0) / (ens.two_s + 2.0)
        assert got == pytest.approx(want, rel=1e-12)
    # the cesium nanokelvin figure is inconsistent with the closed form and is
    # documented (README, si-report note) rather than asserted
    print("ACCEPTANCE 4 (SI examples): PASS")


def test_criterion_05_qfi_triple_agreement():
    """Capacity form, moment form, projection Fisher agree to 1e-9 relative."""
    rng = np.random.default_rng(101)
    for _ in range(200):
        n = int(rng.integers(2, 11))
        two_s = int(rng.integers(1, 4))
        w = _random_weights(rng, n, two_s)
        b = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
        closed = qfi(w, b).value
        moment = qfi_moment_form(w, b)
        proj = fisher_collective_projection(w, b).value
        scale = max(closed, 1e-300)
        assert abs(moment - closed) / scale < 1e-9, (n, two_s, b)
        assert abs(proj - closed) / scale < 1e-9, (n, two_s, b)
    print("ACCEPTANCE 5 (QFI triple agreement): PASS")


def test_criterion_06_measurement_ordering():
    """Energy-measurement information never exceeds the QFI; equal on single sectors."""
    rng = np.random.default_rng(102)
    for _ in range(200):
        n = int(rng.integers(2, 11))
        two_s = int(rng.integers(1, 4))
        w = _random_weights(rng, n, two_s)
        b = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
        f_q = qfi(w, b).value
        f_e = fisher_energy_measurement(w, b).value
        assert f_e <= f_q * (1.0 + 1e-9) + 1e-300, (n, two_s, b)
    for _ in range(40):
        n = int(rng.integers(1, 11))
        two_s = int(rng.integers(1, 4))
        ens = SpinEnsemble(n, two_s)
        keys = sorted(sector_multiplicities(ens).multiplicities)
        tj = int(keys[int(rng.integers(0, len(keys)))])
        if tj == 0:
            continue
        w = BlockWeights(ens, {tj: 1.0})
        b = float(rng.uniform(0.1, 10.0))
        f_q = qfi(w, b).value
        f_e = fisher_energy_measurement(w, b).value
        assert abs(f_e - f_q) <= 1e-9 * max(f_q, 1e-300), (tj, b)
    print("ACCEPTANCE 6 (measurement ordering): PASS")


def test_criterion_07_dense_oracle_equivalence():
    """Dense master-equation steady state matches the sector-frozen prediction."""
    rng = np.random.default_rng(103)
    rates = RatePair.thermal(1.3)
    for n in (2, 3):
        ens = SpinEnsemble(n, 1)
        for _ in range(10):
            d = rng.dirichlet(np.ones(ens.dim))
            rho0 = oracle.DensityMatrix(ens, np.diag(d).astype(complex))
            settled = oracle.steady_state(rho0, rates, tol=1e-10)
            predicted = oracle.expected_steady_state(rho0, rates)
            assert oracle.trace_distance(settled, predicted) < 1e-7
            masses0 = oracle.sector_populations(rho0).sector_masses()
            times = np.linspace(0.0, 2.0, 5)
            for rho in oracle.trajectory(rho0, rates, times):
                masses = oracle.sector_populations(rho).sector_masses()
                for tj, m0 in masses0.items():
                    assert abs(masses[tj] - m0) < 1e-8
    print("ACCEPTANCE 7 (dense oracle equivalence): PASS")


def test_criterion_08_detailed_balance_stationarity():
    """Per-sector Gibbs vectors are stationary to 1e-10 for all J up to 50."""
    for b in (0.5, 2.0, 10.0):
        rates = RatePair.thermal(b)
        for two_j in range(1, 101):
            a = ladder_generator(two_j, rates)
            residual = np.abs(a @ ladder_boltzmann(two_j, b)).max()
            assert residual <= 1e-10 * np.abs(a).max(), (two_j, b, residual)
    print("ACCEPTANCE 8 (detailed-balance stationarity): PASS")


def test_criterion_09_otto_consistency():
    """Near-Carnot work: O(delta_eta^2) error, exact max-work ratio, saturation."""
    # (a) error halves 4x when delta_eta halves, for the collective engine and
    # the one-spin engine (the independent engine is n of them, a factor the
    # error ratios do not see)
    for w in (symmetric_weights(SpinEnsemble(3, 1)), symmetric_weights(SpinEnsemble(1, 1))):
        errs = []
        for de in (0.04, 0.02, 0.01, 0.005):
            p = OttoParams(lambda_c=0.5 + de, lambda_h=1.0, b_c=1.0, b_h=0.5)
            errs.append(abs(cycle_exact(w, p).work_extracted - work_near_carnot(w, p)))
        for big, small in zip(errs, errs[1:]):
            assert 3.0 < big / small < 5.0, (w.ensemble, errs)
    # (b) exact maximal-work ratio
    for n, two_s in [(1, 5), (2, 1), (7, 3), (100, 1)]:
        ens = SpinEnsemble(n, two_s)
        w_ind, w_col = work_max_bounds(ens, 0.02, 1.1, 0.9)
        ns, s = _ns(n, two_s), 0.5 * two_s
        assert w_col / w_ind == pytest.approx((ns + 1) / (s + 1), rel=1e-12)
    # (c) every collective work value sits below the size-independent ceiling
    for theta_h in (0.3, 1.0, 3.0):
        p = OttoParams(lambda_c=theta_h / (theta_h + 1.0) + 0.01, lambda_h=1.0,
                       b_c=theta_h + 1.0, b_h=theta_h)
        bound = work_saturation_bound(p)
        for n in (1, 2, 5, 10, 50, 100):
            got = work_near_carnot(symmetric_weights(SpinEnsemble(n, 1)), p)
            assert got <= bound, (theta_h, n, got, bound)
    print("ACCEPTANCE 9 (Otto consistency): PASS")


def test_criterion_10_power_ratio():
    """Power ratio hits n(ns+1)/(s+1) at theta = 0.01/ns, 1 at theta = 30, never < 1."""

    def ratio(ens, theta):
        b_h = theta
        p = OttoParams(lambda_c=b_h / (b_h + 1.0) + 0.01, lambda_h=1.0,
                       b_c=b_h + 1.0, b_h=b_h)
        col = power_near_carnot(ens, p, 1.0)
        ind = ens.n * power_near_carnot(SpinEnsemble(1, ens.two_s), p, 1.0)
        return col / ind

    for n in (2, 5, 10, 100):
        for two_s in (1, 3):
            ens = SpinEnsemble(n, two_s)
            ns, s = _ns(n, two_s), 0.5 * two_s
            want_hot = n * (ns + 1.0) / (s + 1.0)
            got_hot = ratio(ens, 0.01 / ns)
            assert abs(got_hot - want_hot) / want_hot < 0.02, (n, two_s, got_hot)
            got_cold = ratio(ens, 30.0)
            assert abs(got_cold - 1.0) < 0.05, (n, two_s, got_cold)
            for theta in np.geomspace(0.01 / ns, 30.0, 25):
                assert ratio(ens, float(theta)) >= 1.0 - 1e-12
    print("ACCEPTANCE 10 (power ratio): PASS")


def test_criterion_11_equilibration_speedup():
    """Gap and TV-time ratios >= 0.9 n for n in 2..10, s in {1/2,1,3/2}, b in {2,10}.

    KNOWN RED at b = 2 for s = 1/2. The per-transition rates in the symmetric
    sector are >= n times the single-spin ones, but that does not transfer to
    the aggregate timescales once the bath bias is moderate: measured at b = 2,
    s = 1/2 the gap ratio is ~0.68n-0.73n and the TV-time ratio ~0.70n-0.75n
    (both measures, every n in 2..10). At b = 10 every combination passes with
    ratio/n = 1.00. The b = 2 half of this criterion is unattainable as stated;
    the assertion below is kept faithful to it.
    """
    # epsilon per bath bias: the ground-started TV distance opens at ~e^{-b},
    # so the threshold must sit well below that
    eps_for_b = {2.0: 1e-3, 10.0: 1e-8}
    failures = []
    for b, eps in eps_for_b.items():
        rates = RatePair.thermal(b)
        for two_s in (1, 2, 3):
            single_gen = collective_generator(SpinEnsemble(1, two_s), rates)
            w1 = symmetric_weights(SpinEnsemble(1, two_s))
            single = relaxation_time(aligned_state(w1), single_gen, eps)
            for n in range(2, 11):
                ens = SpinEnsemble(n, two_s)
                gen = collective_generator(ens, rates)
                res = relaxation_time(aligned_state(symmetric_weights(ens)), gen, eps)
                gap_ratio = res.spectral_gap / single.spectral_gap
                tv_ratio = single.time / res.time
                if gap_ratio < 0.9 * n or tv_ratio < 0.9 * n:
                    failures.append(
                        f"b={b} s={two_s / 2:g} n={n}: "
                        f"gap_ratio={gap_ratio:.3f} tv_ratio={tv_ratio:.3f} (need >= {0.9 * n:.1f})"
                    )
    if failures:
        print("ACCEPTANCE 11 (equilibration speed-up): FAIL")
        pytest.fail(
            "factor-n speed-up bound violated on part of the stated grid:\n"
            + "\n".join(failures)
        )
    print("ACCEPTANCE 11 (equilibration speed-up): PASS")


def test_criterion_12_figure_presets(capsys):
    """figure 1b / 2b / 5b default grids end on the asymptotes of criteria 1, 2, 10."""

    def rows_of(which):
        rc = main(["figure", which])
        assert rc == 0
        text = capsys.readouterr().out
        lines = text.strip().splitlines()
        return [[float(v) for v in ln.split(",")] for ln in lines[1:]]

    for which, curves in [("1b", [(2, 1), (2, 3), (2, 9)]),
                          ("2b", [(2, 1), (5, 1), (10, 1), (100, 1), (100, 3)])]:
        rows = rows_of(which)
        assert rows[0][0] == pytest.approx(0.025)  # b = 40 endpoint
        for col, (n, two_s) in enumerate(curves, start=1):
            ns, s = _ns(n, two_s), 0.5 * two_s
            assert abs(rows[0][col] - 1.0 / n) * n < 0.02, (which, n, two_s)
            want = (ns + 1.0) / (s + 1.0)
            assert abs(rows[-1][col] - want) / want < 0.02, (which, n, two_s)
    rows = rows_of("5b")
    assert rows[0][0] == pytest.approx(1.0 / 30.0)  # theta_h = 30 endpoint
    for col, (n, two_s) in enumerate([(2, 1), (5, 1), (10, 1), (100, 1), (100, 3)], start=1):
        ns, s = _ns(n, two_s), 0.5 * two_s
        assert abs(rows[0][col] - 1.0) < 0.05, (n, two_s)
        want = n * (ns + 1.0) / (s + 1.0)
        assert abs(rows[-1][col] - want) / want < 0.02, (n, two_s)
    print("ACCEPTANCE 12 (figure presets): PASS")
