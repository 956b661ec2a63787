import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinheat
from spinheat import oracle
from spinheat.dynamics import (
    ConvergenceError,
    RatePair,
    aligned_state,
    collective_generator,
    evolve,
    gibbs_state,
)
from spinheat.sectors import (
    SpinEnsemble,
    sector_multiplicities,
    symmetric_weights,
    thermal_product_weights,
)
from spinheat.special import ladder_boltzmann, ladder_two_m


def random_diagonal_state(rng, ensemble):
    d = rng.dirichlet(np.ones(ensemble.dim))
    return oracle.DensityMatrix(ensemble, np.diag(d).astype(complex))


class TestOperators:
    def test_commutation_and_casimir(self):
        ens = SpinEnsemble(3, 1)
        jz, jp, jm = oracle.collective_operators(ens)
        assert jp @ jz - jz @ jp == pytest.approx(-jp, abs=1e-12)
        j2 = jz @ jz + 0.5 * (jp @ jm + jm @ jp)
        assert j2 @ jz == pytest.approx(jz @ j2, abs=1e-12)

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="cap"):
            oracle.collective_operators(SpinEnsemble(7, 1))


class TestSectorIsometries:
    @pytest.mark.parametrize("n,two_s", [(2, 1), (3, 1), (2, 2), (2, 3), (4, 1)])
    def test_orthonormal_complete_and_counted(self, n, two_s):
        ens = SpinEnsemble(n, two_s)
        iso = oracle.sector_isometries(ens)
        table = sector_multiplicities(ens).multiplicities
        assert sorted(iso) == sorted(table)
        total = np.zeros((ens.dim, ens.dim))
        for tj, ladder in iso.items():
            assert len(ladder) == tj + 1
            for v in ladder:
                assert v.shape == (ens.dim, table[tj])
                assert v.T @ v == pytest.approx(np.eye(table[tj]), abs=1e-10)
                total += v @ v.T
        assert total == pytest.approx(np.eye(ens.dim), abs=1e-10)

    def test_eigenvector_property(self):
        # V_i is the level at two_m = ladder_two_m(two_j)[i], the population-vector order
        for ens in (SpinEnsemble(3, 1), SpinEnsemble(2, 3), SpinEnsemble(4, 1)):
            jz, jp, jm = oracle.collective_operators(ens)
            j2 = jz @ jz + 0.5 * (jp @ jm + jm @ jp)
            for tj, ladder in oracle.sector_isometries(ens).items():
                j = 0.5 * tj
                assert len(ladder) == len(ladder_two_m(tj))
                for tm, v in zip(ladder_two_m(tj), ladder):
                    assert j2 @ v == pytest.approx(j * (j + 1) * v, abs=1e-9)
                    assert jz @ v == pytest.approx(0.5 * tm * v, abs=1e-9)


class TestSectorProjections:
    def test_thermal_masses_match_closed_form(self):
        for n, two_s in [(2, 1), (3, 1), (2, 2)]:
            ens = SpinEnsemble(n, two_s)
            rho = oracle.product_thermal_state(ens, 0.8)
            masses = oracle.sector_populations(rho).sector_masses()
            want = thermal_product_weights(ens, 0.8)
            for tj, p in want.weights.items():
                assert masses[tj] == pytest.approx(p, abs=1e-12)

    def test_round_trip_populations(self):
        ens = SpinEnsemble(3, 1)
        w = thermal_product_weights(ens, 0.5)
        state = gibbs_state(w, 1.7)
        rho = oracle.state_from_populations(state, ens)
        back = oracle.sector_populations(rho)
        assert state.tv_distance(back) < 1e-12


class TestSteadyState:
    def test_single_spin_thermalizes(self):
        ens = SpinEnsemble(1, 3)
        rates = RatePair.thermal(1.4)
        rho0 = oracle.product_thermal_state(ens, 0.0)
        ss = oracle.steady_state(rho0, rates)
        want = np.diag(ladder_boltzmann(3, 1.4)).astype(complex)
        assert oracle.trace_distance(ss, oracle.DensityMatrix(ens, want)) < 1e-8

    def test_nonconvergence_reports(self, monkeypatch):
        # one chunk of 1/G(omega) runs past the limit before the state settles
        monkeypatch.setattr(oracle, "_T_MAX", 1e-3)
        rho0 = oracle.product_thermal_state(SpinEnsemble(2, 1), 0.0)
        with pytest.raises(ConvergenceError, match="no steady state within t = 0.001"):
            oracle.steady_state(rho0, RatePair.thermal(1.0))

    def test_two_qubit_product_thermal(self):
        # settles to p0 |0,0><0,0| + p1 * Gibbs on the triplet ladder
        ens = SpinEnsemble(2, 1)
        b0, b = 0.9, 1.8
        rates = RatePair.thermal(b)
        ss = oracle.steady_state(oracle.product_thermal_state(ens, b0), rates)
        want = oracle.state_from_populations(
            gibbs_state(thermal_product_weights(ens, b0), b), ens
        )
        assert oracle.trace_distance(ss, want) < 1e-7

    def test_matches_analytic_prediction_random_diagonals(self):
        rng = np.random.default_rng(31)
        rates = RatePair.thermal(1.1)
        for n in (2, 3):
            ens = SpinEnsemble(n, 1)
            for _ in range(3):
                rho0 = random_diagonal_state(rng, ens)
                ss = oracle.steady_state(rho0, rates, tol=1e-10)
                want = oracle.expected_steady_state(rho0, rates)
                assert oracle.trace_distance(ss, want) < 1e-7

    def test_sector_masses_conserved_on_trajectory(self):
        rng = np.random.default_rng(32)
        ens = SpinEnsemble(3, 1)
        rho0 = random_diagonal_state(rng, ens)
        masses0 = oracle.sector_populations(rho0).sector_masses()
        for rho in oracle.trajectory(rho0, RatePair.thermal(2.0), np.linspace(0.0, 4.0, 6)):
            masses = oracle.sector_populations(rho).sector_masses()
            for tj, m0 in masses0.items():
                assert masses[tj] == pytest.approx(m0, abs=1e-8)


# the tiny ensembles the benchmark checks against the oracle: (n, 2s), dim 16-64
BENCH_TINY = [(4, 1), (3, 2), (2, 3), (6, 1), (3, 3), (2, 7)]


class TestSparseRoute:
    @pytest.mark.parametrize("b", [1.0, 2.0, 5.0])
    @pytest.mark.parametrize("n,two_s", BENCH_TINY)
    def test_trajectory_matches_evolve(self, n, two_s, b):
        ens = SpinEnsemble(n, two_s)
        rates = RatePair.thermal(b)
        gen = collective_generator(ens, rates)
        times = np.array([0.0, 0.4, 1.5, 3.0])
        for state0 in (aligned_state(symmetric_weights(ens), excited=True),
                       gibbs_state(thermal_product_weights(ens, 0.6), 0.6)):
            rho0 = oracle.state_from_populations(state0, ens)
            for t, rho in zip(times, oracle.trajectory(rho0, rates, times)):
                got = oracle.sector_populations(rho).blocks
                for tj, want in evolve(state0, gen, float(t)).blocks.items():
                    assert np.max(np.abs(got[tj] - want)) < 1e-12

    @pytest.mark.parametrize("n,two_s", [(6, 1), (3, 3), (2, 7)])
    def test_steady_state_honours_tol_at_dim_64(self, n, two_s):
        # tol well below the 1e-11 error floor of an adaptive integrator,
        # which lands 1.1e-11 to 4.6e-11 away on these starts
        rng = np.random.default_rng(16)
        ens = SpinEnsemble(n, two_s)
        rates = RatePair.thermal(1.3)
        rho0 = random_diagonal_state(rng, ens)
        ss = oracle.steady_state(rho0, rates, tol=1e-12)
        assert oracle.trace_distance(ss, oracle.expected_steady_state(rho0, rates)) < 1e-12

    def test_cli_import_leaves_out_scipy_integrate(self):
        src = str(Path(spinheat.__file__).resolve().parents[1])
        code = "import sys, spinheat, spinheat.cli; print('scipy.integrate' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.strip() == "False"


class TestTrajectoryAgainstRateEquations:
    @pytest.mark.parametrize("n,two_s", [(2, 1), (3, 1), (2, 2), (4, 1)])
    def test_populations_match(self, n, two_s):
        # dims 4, 8, 9, 16: dense master equation vs sector rate equations
        ens = SpinEnsemble(n, two_s)
        rates = RatePair.thermal(1.5)
        w = thermal_product_weights(ens, 0.6)
        state0 = gibbs_state(w, 0.6)
        rho0 = oracle.state_from_populations(state0, ens)
        gen = collective_generator(ens, rates)
        times = np.linspace(0.0, 3.0, 10)
        for t, rho in zip(times, oracle.trajectory(rho0, rates, times)):
            got = oracle.sector_populations(rho)
            want = evolve(state0, gen, float(t))
            assert got.tv_distance(want) < 1e-6

    def test_energy_flow_consistency(self):
        # instantaneous dE/dt from the rate equations matches a finite
        # difference of the dense trajectory's energy
        ens = SpinEnsemble(3, 1)
        rates = RatePair.thermal(1.0)
        state0 = aligned_state(symmetric_weights(ens), excited=True)
        rho0 = oracle.state_from_populations(state0, ens)
        gen = collective_generator(ens, rates)
        h = 1e-4
        for t in (0.2, 0.7, 1.5):
            before, after = oracle.trajectory(rho0, rates, np.array([t - h, t + h]))
            fd = (after.energy() - before.energy()) / (2 * h)
            st = evolve(state0, gen, t)
            rate_dedt = sum(
                float(np.dot(np.arange(-tj, tj + 1, 2) * 0.5, gen.blocks[tj] @ p))
                for tj, p in st.blocks.items()
            )
            assert rate_dedt == pytest.approx(fd, abs=1e-6, rel=1e-5)


class TestExpectedSteadyState:
    def test_reduces_to_weight_mixture_without_coherences(self):
        ens = SpinEnsemble(3, 1)
        rates = RatePair.thermal(0.8)
        w = thermal_product_weights(ens, 1.2)
        rho0 = oracle.state_from_populations(gibbs_state(w, 1.2), ens)
        want = oracle.state_from_populations(gibbs_state(w, 0.8), ens)
        got = oracle.expected_steady_state(rho0, rates)
        assert oracle.trace_distance(got, want) < 1e-12

    def test_zero_temperature_bath(self):
        ens = SpinEnsemble(2, 1)
        rho0 = oracle.product_thermal_state(ens, 0.0)
        got = oracle.expected_steady_state(rho0, RatePair(1.0, 0.0))
        pops = oracle.sector_populations(got)
        assert pops.sector_masses()[2] == pytest.approx(0.75, abs=1e-12)
        assert pops.blocks[2][0] == pytest.approx(0.75, abs=1e-12)  # all at m = -J


class TestDensityMatrixValidation:
    def test_rejects_bad_matrices(self):
        ens = SpinEnsemble(2, 1)
        with pytest.raises(ValueError, match="Hermitian"):
            oracle.DensityMatrix(ens, np.triu(np.full((4, 4), 0.25 + 0j)))
        with pytest.raises(ValueError, match="trace"):
            oracle.DensityMatrix(ens, np.eye(4, dtype=complex))
        bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="negative"):
            oracle.DensityMatrix(ens, bad)

    def test_dimension_cap_enforced(self):
        ens = SpinEnsemble(7, 1)  # dim 128
        with pytest.raises(ValueError, match="cap"):
            oracle.DensityMatrix(ens, np.eye(128, dtype=complex) / 128)
