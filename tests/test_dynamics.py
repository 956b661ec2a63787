import math
from functools import partial

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinheat import dynamics
from spinheat.dynamics import (
    ConvergenceError,
    PopulationState,
    RatePair,
    _ladder_rates,
    _propagator,
    _square,
    aligned_state,
    collective_generator,
    evolve,
    gibbs_state,
    ladder_generator,
    relaxation_time,
    spectral_gap,
    stationary_state,
    uniform_state,
)
from spinheat.sectors import (
    BlockWeights,
    SpinEnsemble,
    sector_multiplicities,
    symmetric_weights,
    thermal_product_weights,
)
from spinheat.special import ladder_boltzmann


class TestRatePair:
    def test_thermal_detailed_balance(self):
        r = RatePair.thermal(2.0)
        assert r.g_down == 1.0
        assert r.g_up == pytest.approx(math.exp(-2.0), rel=1e-14)
        assert r.bath_b == pytest.approx(2.0, rel=1e-14)

    def test_zero_temperature(self):
        r = RatePair(1.0, 0.0)
        assert r.bath_b == math.inf

    def test_validation(self):
        for g_down, g_up in [(0.0, 1.0), (1.0, -0.5), (math.nan, 1.0), (1.0, math.nan),
                             (math.inf, 1.0), (1.0, math.inf)]:
            with pytest.raises(ValueError, match="finite"):
                RatePair(g_down, g_up)
        with pytest.raises(ValueError):
            RatePair.thermal(math.nan)
        assert RatePair.thermal(math.inf).g_up == 0.0

    def test_thermal_refuses_g_up_overflow(self):
        # a negative b is a negative temperature, down to exp(-b) at the float limit
        assert RatePair.thermal(-700.0).g_up == math.exp(700.0)
        with pytest.raises(ValueError, match="overflows at b=-710.0"):
            RatePair.thermal(-710.0)


class TestGenerators:
    def test_qubit_block_by_hand(self):
        r = RatePair(1.0, 0.25)
        a = ladder_generator(1, r)
        # two levels, single transition with unit angular factor
        assert a == pytest.approx(np.array([[-0.25, 1.0], [0.25, -1.0]]))

    def test_columns_sum_to_zero_offdiag_nonneg(self):
        r = RatePair.thermal(1.3)
        for two_j in [1, 2, 5, 40]:
            a = ladder_generator(two_j, r)
            assert np.abs(a.sum(axis=0)).max() < 1e-12 * max(1.0, np.abs(a).max())
            off = a - np.diag(np.diag(a))
            assert off.min() >= 0.0

    def test_gibbs_vector_is_stationary(self):
        # detailed balance: the per-sector Gibbs vector is annihilated, J up to 50
        for b in [0.5, 2.0, 10.0]:
            r = RatePair.thermal(b)
            for two_j in range(1, 101, 7):
                a = ladder_generator(two_j, r)
                pi = ladder_boltzmann(two_j, b)
                assert np.abs(a @ pi).max() <= 1e-10 * np.abs(a).max()

    def test_zero_temperature_ladders_are_one_hot(self):
        # also where |b| 2J overflows the shifted exponent
        for two_j in [0, 1, 2, 7, 10, 200]:
            bottom, top = np.zeros(two_j + 1), np.zeros(two_j + 1)
            bottom[0] = top[-1] = 1.0
            for b in [math.inf, 1.79e308, 1e308, 1e306]:
                assert np.array_equal(ladder_boltzmann(two_j, b), bottom)
                assert np.array_equal(ladder_boltzmann(two_j, -b), top)

    def test_zero_temperature_stationary_state_is_gibbs_at_inf(self):
        w = thermal_product_weights(SpinEnsemble(4, 1), 0.7)
        got = stationary_state(aligned_state(w, excited=True), RatePair(1.0, 0.0))
        want = gibbs_state(w, math.inf)
        assert sorted(got.blocks) == sorted(want.blocks)
        for tj, p in want.blocks.items():
            assert np.array_equal(got.blocks[tj], p)

    def test_ladder_rates_match_the_level_index_form(self):
        # the rates read the level layout from ladder_two_m; bit for bit they
        # are the index form (2J - i)(i + 1) of level i at m = -J + i
        r = RatePair.thermal(0.7)
        for two_j in range(2001):
            i = np.arange(two_j)
            fac = (two_j - i) * (i + 1.0)
            up, down = r.g_up * fac, r.g_down * fac
            diag = np.zeros(two_j + 1)
            diag[1:] -= down
            diag[:-1] -= up
            for got, want in zip(_ladder_rates(two_j, r), (diag, up, down)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_stationary_vector_is_unique(self):
        a = ladder_generator(4, RatePair.thermal(1.0))
        evals = np.linalg.eigvals(a)
        assert np.sum(np.abs(evals) < 1e-10) == 1

    def test_single_spin_generator_is_its_one_ladder(self):
        # n independent spins are n copies of this generator
        r = RatePair.thermal(0.7)
        for two_s in (1, 2, 5):
            gen = collective_generator(SpinEnsemble(1, two_s), r)
            assert list(gen.blocks) == [two_s]
            assert np.array_equal(gen.blocks[two_s], ladder_generator(two_s, r))

    def test_sectors_without_the_multiplicity_table(self, monkeypatch):
        def fail(ensemble):
            raise AssertionError("sector_multiplicities called")

        monkeypatch.setattr("spinheat.sectors.sector_multiplicities", fail)
        monkeypatch.setattr(dynamics, "sector_multiplicities", fail, raising=False)
        gen = collective_generator(SpinEnsemble(30000, 1), RatePair.thermal(1.0))
        assert len(gen.blocks) == 15001
        assert 30000 in gen.blocks and 0 in gen.blocks and 1 not in gen.blocks
        assert gen.blocks[2].shape == (3, 3)

    def test_collective_covers_all_sectors(self):
        gen = collective_generator(SpinEnsemble(4, 1), RatePair.thermal(1.0))
        assert sorted(gen.blocks) == [0, 2, 4]
        assert gen.blocks[0].shape == (1, 1)
        assert gen.blocks[0][0, 0] == 0.0


class TestPopulationState:
    def test_validation(self):
        with pytest.raises(ValueError, match="levels"):
            PopulationState({2: np.array([0.5, 0.5])})
        with pytest.raises(ValueError, match="sum to 1"):
            PopulationState({2: np.array([0.2, 0.2, 0.2])})
        with pytest.raises(ValueError, match="negative"):
            PopulationState({2: np.array([-0.2, 0.6, 0.6])})
        with pytest.raises(ValueError, match="NaN"):
            PopulationState({2: np.array([math.nan, 0.5, 0.5])})
        with pytest.raises(ValueError, match="sum to 1"):
            PopulationState({2: np.array([math.inf, 0.5, 0.5])})

    def test_constructors_and_energy(self):
        w = thermal_product_weights(SpinEnsemble(3, 1), 1.0)
        for state in (gibbs_state(w, 1.0), aligned_state(w), uniform_state(w)):
            assert sum(state.sector_masses().values()) == pytest.approx(1.0, abs=1e-12)
        top = aligned_state(symmetric_weights(SpinEnsemble(4, 1)), excited=True)
        assert top.energy() == pytest.approx(2.0)
        assert uniform_state(symmetric_weights(SpinEnsemble(4, 1))).energy() == (
            pytest.approx(0.0, abs=1e-14)
        )

    @pytest.mark.parametrize("b0", [0.7, 40.0, 800.0])  # at 800 every sector but the top has p = 0
    def test_aligned_state_is_one_hot(self, b0):
        w = thermal_product_weights(SpinEnsemble(6, 1), b0)
        for excited, end in ((False, 0), (True, -1)):
            got = aligned_state(w, excited).blocks
            assert list(got) == [0, 2, 4, 6]
            for tj, p in w.weights.items():
                want = np.zeros(tj + 1)
                want[end] = p
                assert got[tj].tobytes() == want.tobytes(), (excited, tj)

    def test_tv_distance(self):
        w = symmetric_weights(SpinEnsemble(2, 1))
        bottom = aligned_state(w)
        top = aligned_state(w, excited=True)
        assert bottom.tv_distance(top) == pytest.approx(1.0)
        assert bottom.tv_distance(bottom) == 0.0


_STARTS = {"top": partial(aligned_state, excited=True), "bottom": aligned_state,
           "uniform": uniform_state}


@st.composite
def evolve_cases(draw):
    """(ensemble with n <= 30, thermal b0 or None for symmetric weights, start, bath b)."""
    ens = SpinEnsemble(draw(st.integers(1, 30)), draw(st.integers(1, 3)))
    b0 = draw(st.one_of(st.none(), st.floats(0.05, 3.0)))
    return ens, b0, draw(st.sampled_from(sorted(_STARTS))), draw(st.floats(0.1, 10.0))


def start_and_generator(ens, b0, start, b):
    w = symmetric_weights(ens) if b0 is None else thermal_product_weights(ens, b0)
    return _STARTS[start](w), collective_generator(ens, RatePair.thermal(b))


class TestEvolve:
    def test_t_zero_is_identity(self):
        w = symmetric_weights(SpinEnsemble(3, 1))
        gen = collective_generator(SpinEnsemble(3, 1), RatePair.thermal(2.0))
        s0 = aligned_state(w, excited=True)
        assert evolve(s0, gen, 0.0) is s0

    def test_semigroup_property(self):
        ens = SpinEnsemble(4, 1)
        gen = collective_generator(ens, RatePair.thermal(1.5))
        s0 = uniform_state(thermal_product_weights(ens, 0.0))
        one = evolve(s0, gen, 0.8)
        two = evolve(evolve(s0, gen, 0.4), gen, 0.4)
        assert one.tv_distance(two) < 1e-12

    def test_mass_conservation_per_sector(self):
        ens = SpinEnsemble(4, 1)
        gen = collective_generator(ens, RatePair.thermal(2.0))
        # an empty sector must stay empty, not become 0/0
        for w in (thermal_product_weights(ens, 0.7), BlockWeights(ens, {0: 0.5, 2: 0.0, 4: 0.5})):
            s0 = aligned_state(w, excited=True)
            st = evolve(s0, gen, 3.0)
            for tj, mass in s0.sector_masses().items():
                assert st.sector_masses()[tj] == pytest.approx(mass, abs=1e-12)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(case=evolve_cases(), times=st.lists(st.floats(0.0, 30.0), min_size=1, max_size=5))
    # dense expm alone drifts this sector's mass by 1.1e-12
    @example(case=(SpinEnsemble(19, 3), None, "bottom", 1.0), times=[25.0])
    def test_mass_conservation_property(self, case, times):
        s0, gen = start_and_generator(*case)
        for t in times:
            masses = evolve(s0, gen, t).sector_masses()
            for tj, mass in s0.sector_masses().items():
                assert masses[tj] == pytest.approx(mass, abs=1e-12)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(case=evolve_cases(), times=st.lists(st.floats(0.0, 30.0), min_size=2, max_size=6))
    def test_tv_to_stationary_never_increases(self, case, times):
        s0, gen = start_and_generator(*case)
        target = stationary_state(s0, gen.rates)
        times = sorted(times)
        distances = [evolve(s0, gen, t).tv_distance(target) for t in times]
        for earlier, later in zip(distances, distances[1:]):
            assert later <= earlier + 1e-12

    def test_long_time_reaches_sector_gibbs(self):
        ens = SpinEnsemble(3, 1)
        w = thermal_product_weights(ens, 0.3)
        rates = RatePair.thermal(1.2)
        gen = collective_generator(ens, rates)
        s0 = aligned_state(w, excited=True)
        target = stationary_state(s0, rates)
        assert evolve(s0, gen, 80.0).tv_distance(target) < 1e-9

    def test_zero_temperature_absorbs_to_ground(self):
        w = symmetric_weights(SpinEnsemble(2, 1))
        rates = RatePair(1.0, 0.0)
        gen = collective_generator(SpinEnsemble(2, 1), rates)
        st = evolve(aligned_state(w, excited=True), gen, 60.0)
        assert st.blocks[2][0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("two_j, t", [(200, 1e16), (40, 1e18), (3, 1e20), (3, 1e300)])
    def test_huge_time_reaches_gibbs(self, two_j, t):
        # tens to a thousand squarings, each doubling the error in a column's unit sum
        rates = RatePair.thermal(2.0)
        w = symmetric_weights(SpinEnsemble(1, two_j))
        gen = collective_generator(SpinEnsemble(1, two_j), rates)
        for s0 in (aligned_state(w, excited=True), uniform_state(w)):
            assert evolve(s0, gen, t).tv_distance(stationary_state(s0, rates)) < 1e-13

    def test_negative_time_rejected(self):
        for n in (2, 4):
            w = symmetric_weights(SpinEnsemble(n, 1))
            gen = collective_generator(SpinEnsemble(n, 1), RatePair.thermal(1.0))
            for t in (-1.0, math.inf, math.nan):
                with pytest.raises(ValueError, match="t must be finite and >= 0"):
                    evolve(aligned_state(w), gen, t)

    def test_missing_ladder_rejected(self):
        # the state holds sectors 2J = 1, 3; the generator only 2J = 0, 2
        state = uniform_state(thermal_product_weights(SpinEnsemble(3, 1), 1.0))
        gen = collective_generator(SpinEnsemble(2, 1), RatePair.thermal(1.0))
        for call in (partial(evolve, state, gen, 1.0), partial(spectral_gap, state, gen),
                     partial(relaxation_time, state, gen)):
            with pytest.raises(ValueError, match="generator has no block for sector"):
                call()


class TestRelaxation:
    def test_trivial_sector_is_instant(self):
        w = BlockWeights(SpinEnsemble(2, 1), {0: 1.0})
        gen = collective_generator(SpinEnsemble(2, 1), RatePair.thermal(2.0))
        res = relaxation_time(aligned_state(w), gen)
        assert res.time == 0.0
        assert res.spectral_gap == math.inf

    def test_time_decreases_with_j(self):
        # bottom-start relaxation accelerates in larger sectors
        rates = RatePair.thermal(2.0)
        times = []
        for two_j in (2, 4, 10):
            ens = SpinEnsemble(two_j, 1)
            gen = collective_generator(ens, rates)
            s0 = aligned_state(symmetric_weights(ens))
            times.append(relaxation_time(s0, gen, 1e-3).time)
        assert times[0] > times[1] > times[2]

    def test_nonconvergence_reports(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_T_MAX", 1e-4)
        w = symmetric_weights(SpinEnsemble(2, 1))
        gen = collective_generator(SpinEnsemble(2, 1), RatePair.thermal(10.0))
        with pytest.raises(ConvergenceError):
            relaxation_time(aligned_state(w, excited=True), gen, 1e-3)

    def test_epsilon_validation(self):
        w = symmetric_weights(SpinEnsemble(2, 1))
        gen = collective_generator(SpinEnsemble(2, 1), RatePair.thermal(1.0))
        with pytest.raises(ValueError):
            relaxation_time(aligned_state(w), gen, 2.0)

    def test_gap_restricted_to_populated_sectors(self):
        ens = SpinEnsemble(4, 1)
        rates = RatePair.thermal(5.0)
        gen = collective_generator(ens, rates)
        sym_gap = spectral_gap(aligned_state(symmetric_weights(ens)), gen)
        mixed_gap = spectral_gap(uniform_state(thermal_product_weights(ens, 0.0)), gen)
        # smaller populated sectors relax slower, dragging the gap down
        assert mixed_gap < sym_gap

    @pytest.mark.parametrize("two_s", [1, 2, 3])
    def test_factor_n_speedup_at_strong_bias(self, two_s):
        # bath at b = 10, ground-state-like start: the symmetric sector beats
        # n independent spins by the full factor n, in gap and in TV time
        b, eps = 10.0, 1e-8
        rates = RatePair.thermal(b)
        single_gen = collective_generator(SpinEnsemble(1, two_s), rates)
        w1 = symmetric_weights(SpinEnsemble(1, two_s))
        t_single = relaxation_time(aligned_state(w1), single_gen, eps)
        for n in range(2, 11):
            ens = SpinEnsemble(n, two_s)
            gen = collective_generator(ens, rates)
            res = relaxation_time(aligned_state(symmetric_weights(ens)), gen, eps)
            assert res.spectral_gap / t_single.spectral_gap >= 0.9 * n
            assert t_single.time / res.time >= 0.9 * n


def from_scratch_relaxation(state0, gen, epsilon):
    """Doubling then bisection with every probe propagated from t = 0 by `evolve`."""
    target = stationary_state(state0, gen.rates)
    gap = spectral_gap(state0, gen)

    def dist(t):
        return evolve(state0, gen, t).tv_distance(target)

    if dist(0.0) < epsilon:
        return 0.0
    t_lo, t_hi = 0.0, 1.0 / gap
    while dist(t_hi) >= epsilon:
        t_lo, t_hi = t_hi, 2.0 * t_hi
    while t_hi - t_lo > 1e-3 * t_hi:
        mid = 0.5 * (t_lo + t_hi)
        if dist(mid) < epsilon:
            t_hi = mid
        else:
            t_lo = mid
    return t_hi


def assert_matches_from_scratch(state0, gen, epsilon=1e-3):
    res = relaxation_time(state0, gen, epsilon)
    assert res.time == pytest.approx(from_scratch_relaxation(state0, gen, epsilon), rel=1.1e-3)
    return assert_brackets(state0, gen, res, epsilon)


def assert_brackets(state0, gen, res, epsilon=1e-3):
    """The reported time brackets epsilon when read with evolve from t = 0."""
    target = stationary_state(state0, gen.rates)
    assert evolve(state0, gen, res.time).tv_distance(target) < epsilon + 1e-9
    if res.time > 0.0:
        assert evolve(state0, gen, res.time * (1.0 - 1e-3)).tv_distance(target) >= epsilon - 1e-9
    return res


def relaxation_case(family, size, b, start, epsilon=1e-3):
    """(state0, generator, epsilon) for one named case.

    "ladder": a single 2J = size ladder from `start`, at bath b (inf: g_up = 0).
    "thermal": SpinEnsemble(size, 1) with thermal weights at b0, from their
    Gibbs or uniform populations, start = (b0, "gibbs" | "uniform").
    "early": the symmetric sector (1 + start) * epsilon from stationary, the
    excess on the ground level.
    """
    if family == "ladder":
        rates = RatePair(1.0, 0.0) if b == math.inf else RatePair.thermal(b)
        gen = collective_generator(SpinEnsemble(1, size), rates)
        return _STARTS[start](symmetric_weights(SpinEnsemble(1, size))), gen, epsilon
    ens = SpinEnsemble(size, 1)
    rates = RatePair.thermal(b)
    gen = collective_generator(ens, rates)
    if family == "thermal":
        b0, kind = start
        w = thermal_product_weights(ens, b0)
        return (gibbs_state(w, b0) if kind == "gibbs" else uniform_state(w)), gen, epsilon
    bottom = aligned_state(symmetric_weights(ens))
    target = stationary_state(bottom, rates)
    alpha = epsilon * (1.0 + start) / bottom.tv_distance(target)
    mixed = alpha * bottom.blocks[size] + (1.0 - alpha) * target.blocks[size]
    return PopulationState({size: mixed}), gen, epsilon


class TestTridiagonalPaths:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(two_j=st.integers(1, 200), b=st.floats(0.1, 20.0))
    def test_gap_matches_dense_eigvals(self, two_j, b):
        gen = collective_generator(SpinEnsemble(1, two_j), RatePair.thermal(b))
        gap = spectral_gap(aligned_state(symmetric_weights(SpinEnsemble(1, two_j))), gen)
        a = gen.blocks[two_j]
        w, vl, vr = scipy.linalg.eig(a, left=True, right=True)
        re = np.abs(w.real)
        nz = np.flatnonzero(re > 1e-9 * re.max())
        k = nz[np.argmin(re[nz])]
        # the non-symmetric dense solve is itself ill-conditioned here (up to
        # 3e-8 relative at b ~ 0.3, 2J ~ 200), so its own first-order error
        # bound eps ||A|| / |y^H x| is added to the 1e-9 tolerance
        kappa = 1.0 / abs(np.vdot(vl[:, k], vr[:, k]))
        tol = 1e-9 * gap + 4.0 * kappa * np.finfo(float).eps * np.linalg.norm(a)
        assert abs(gap - re[k]) <= tol

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(two_j=st.integers(10, 1000), b=st.floats(0.5, 10.0))
    @example(two_j=22, b=0.5)  # the largest deficit found on a 0.1-step grid in b
    def test_large_j_gap_law(self, two_j, b):
        # near the bottom of a long ladder the rates grow linearly with the
        # level (the Holstein-Primakoff limit), so the gap tends to
        # 2J (g_down - g_up) from below; the deficit times 2J measured up to
        # 5.61 at b = 0.5 and falls about like e^(-b), to 9.1e-5 at b = 10
        rates = RatePair.thermal(b)
        gen = collective_generator(SpinEnsemble(1, two_j), rates)
        gap = spectral_gap(aligned_state(symmetric_weights(SpinEnsemble(1, two_j))), gen)
        deficit = 1.0 - gap / (two_j * (rates.g_down - rates.g_up))
        assert 0.0 <= deficit <= 6.0 * math.exp(0.5 - b) / two_j

    def test_gap_at_zero_temperature(self):
        # g_up = 0: triangular generator, spectrum is its diagonal; gap = edge rate 2J
        rates = RatePair(1.0, 0.0)
        for two_j in range(1, 201):
            gen = collective_generator(SpinEnsemble(1, two_j), rates)
            gap = spectral_gap(aligned_state(symmetric_weights(SpinEnsemble(1, two_j))), gen)
            re = np.abs(np.linalg.eigvals(gen.blocks[two_j]).real)
            assert gap == pytest.approx(float(re[re > 0.0].min()), rel=1e-9)
            assert gap == pytest.approx(two_j, rel=1e-12)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(n=st.integers(1, 40), two_s=st.integers(1, 3), b=st.floats(0.1, 10.0),
           top=st.booleans())
    def test_relaxation_symmetric_starts(self, n, two_s, b, top):
        ens = SpinEnsemble(n, two_s)
        w = symmetric_weights(ens)
        state0 = aligned_state(w, excited=True) if top else uniform_state(w)
        assert_matches_from_scratch(state0, collective_generator(ens, RatePair.thermal(b)))

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(n=st.integers(8, 60), b0=st.floats(0.05, 2.0), b=st.floats(0.1, 10.0))
    def test_relaxation_gibbs_starts_many_sectors(self, n, b0, b):
        ens = SpinEnsemble(n, 1)
        state0 = gibbs_state(thermal_product_weights(ens, b0), b0)
        assert_matches_from_scratch(state0, collective_generator(ens, RatePair.thermal(b)))

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(n=st.integers(2, 60), b=st.floats(0.5, 5.0), excess=st.floats(1e-8, 1e-5))
    def test_relaxation_crossing_before_inverse_gap(self, n, b, excess):
        # (1 + excess) * epsilon from stationary, the excess on the ground
        # level: the crossing comes over a thousand times sooner than 1/gap,
        # below every step that a crossing after 1/gap needs
        state0, gen, _ = relaxation_case("early", n, b, excess)
        res = assert_matches_from_scratch(state0, gen)
        assert 0.0 < res.time * res.spectral_gap < 1e-3

    def test_relaxation_on_a_521_level_ladder(self):
        two_j = 520
        gen = collective_generator(SpinEnsemble(1, two_j), RatePair.thermal(2.0))
        state0 = aligned_state(symmetric_weights(SpinEnsemble(1, two_j)), excited=True)
        assert_brackets(state0, gen, relaxation_time(state0, gen))


def ladder_starts(two_j, b):
    """Top, bottom and Gibbs populations of one ladder at bath b."""
    top, bottom = np.zeros(two_j + 1), np.zeros(two_j + 1)
    top[-1] = bottom[0] = 1.0
    return {"top": top, "bottom": bottom, "gibbs": ladder_boltzmann(two_j, b)}


def settle(q, p):
    """q clipped at zero and rescaled to p's mass, as evolve leaves it."""
    q = np.clip(q, 0.0, None)
    return q * (np.sum(p) / np.sum(q))


def worst_l1_from_expm(two_j, b, propagate):
    """Largest l1 distance between propagate(generator, t, p) and expm(a t) p,
    both settled, over three starts and t*gap in {1e-3, 0.5, 2, 50}."""
    gen = collective_generator(SpinEnsemble(1, two_j), RatePair.thermal(b))
    starts = ladder_starts(two_j, b)
    a = gen.blocks[two_j]
    gap = spectral_gap(PopulationState({two_j: starts["top"]}), gen)
    worst = 0.0
    for t in (1e-3 / gap, 0.5 / gap, 2.0 / gap, 50.0 / gap):
        e = scipy.linalg.expm(a * t)
        for p in starts.values():
            got = settle(propagate(gen, t, p), p)
            worst = max(worst, float(np.sum(np.abs(got - settle(e @ p, p)))))
    return worst


def evolve_ladder(gen, t, p):
    return evolve(PopulationState({len(p) - 1: p}), gen, t).blocks[len(p) - 1]


class TestSubnormalFlush:
    """Propagators drop entries below sqrt(tiny) and otherwise match scipy's expm."""

    @pytest.mark.parametrize("b", [0.5, 2.0, 5.0, 20.0])
    @pytest.mark.parametrize("two_j", [1, 7, 70, 200, 521])
    def test_evolve_matches_scipy_expm(self, two_j, b):
        assert worst_l1_from_expm(two_j, b, evolve_ladder) <= 1e-14

    def test_planted_flush_threshold_fails(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_FLUSH", 1e-10)
        assert worst_l1_from_expm(70, 0.5, evolve_ladder) > 1e-14

    def test_square_leaves_no_subnormal(self):
        a = ladder_generator(200, RatePair.thermal(5.0))

        def subnormals(e):
            return int(np.sum((np.abs(e) < np.finfo(float).tiny) & (e != 0.0)))

        e, raw = _propagator(a, 1e-3), scipy.linalg.expm(a * 1e-3)
        raw_subnormals = subnormals(raw)
        for _ in range(8):
            e, raw = _square(e), raw @ raw
            assert subnormals(e) == 0
            raw_subnormals += subnormals(raw)
        assert raw_subnormals > 0  # plain squaring of the same levels does make them


@pytest.fixture
def built(monkeypatch):
    """two_j of every ladder block built from here on, in build order."""
    calls = []

    def counted(two_j, rates):
        calls.append(two_j)
        return ladder_generator(two_j, rates)

    monkeypatch.setattr(dynamics, "ladder_generator", counted)
    return calls


class TestLazyGenerator:
    def test_relaxation_builds_only_the_populated_ladder(self, built):
        ens = SpinEnsemble(40, 1)
        gen = collective_generator(ens, RatePair.thermal(2.0))
        assert sorted(gen.blocks) == sorted(sector_multiplicities(ens).multiplicities)
        assert len(gen.blocks) == 21 and 38 in gen.blocks and 41 not in gen.blocks
        assert built == []
        relaxation_time(aligned_state(symmetric_weights(ens), excited=True), gen)
        assert built == [40]

    @pytest.mark.parametrize("case", [("early", 2, 0.5, 1e-8), ("early", 30, 2.0, 1e-8)])
    def test_relaxation_builds_each_ladder_once(self, built, case):
        # an early crossing lowers the finest level during bisection, one expm each time
        relaxation_time(*relaxation_case(*case))
        assert built == [case[1]]

    def test_evolve_skips_empty_sectors(self, built):
        # at b0 = 60 the weights of the eight sectors with 2J < 16 underflow to 0
        ens, t = SpinEnsemble(40, 1), 0.5
        state0 = gibbs_state(thermal_product_weights(ens, 60.0), 60.0)
        gen = collective_generator(ens, RatePair.thermal(2.0))
        got = evolve(state0, gen, t)
        full = [tj for tj, p in state0.blocks.items() if p.any()]
        assert len(state0.blocks) - len(full) == 8
        assert sorted(built) == sorted(full)
        for tj, p in state0.blocks.items():
            want = settle(_propagator(gen.blocks[tj], t) @ p, p) if p.any() else np.zeros_like(p)
            assert np.array_equal(got.blocks[tj], want)

    def test_blocks_are_built_on_each_read(self, built):
        gen = collective_generator(SpinEnsemble(4, 1), RatePair.thermal(1.0))
        with pytest.raises(TypeError):
            gen.blocks[4] = np.zeros((5, 5))
        with pytest.raises(KeyError):
            gen.blocks[3]
        a = gen.blocks[4]
        a[0, 0] = 1.0  # the caller's own copy: the next read is built afresh
        assert gen.blocks[4][0, 0] < 0.0
        assert built == [4, 4]


# (case, time, gap), pinned bit for bit: relaxation_time's propagators come
# from one dense expm per ladder and repeated squaring, and any change to that
# sequence of operations can move a time. The thermal n = 64, b0 = 0.5 rows
# hold 1.7e-13 of the mass in the top sector; the "early" rows lower the
# finest level during bisection.
_PINNED_RELAXATION = [
    (('ladder', 1, 0.5, 'top'), 4.007081944611939, 1.6065306597126334),
    (('ladder', 2, 2.0, 'bottom'), 2.9241299655250184, 1.5349116841303405),
    (('ladder', 5, 10.0, 'uniform'), 1.995463561724141, 4.9996214871395335),
    (('ladder', 10, math.inf, 'top'), 1.34375, 10.0),
    (('ladder', 40, 0.3, 'top'), 1.3440406624344354, 7.800638249299577),
    (('ladder', 40, 2.0, 'uniform'), 0.35829223226262724, 34.2989922566676),
    (('ladder', 40, 10.0, 'bottom', 1e-08), 0.21055693739098613, 39.998088423756386),
    (('ladder', 200, 2.0, 'top'), 0.11131038269573842, 172.6590955358902),
    (('ladder', 200, 0.5, 'bottom'), 0.0728814800894956, 77.44808753978015),
    (('ladder', 200, 5.0, 'uniform', 1e-06), 0.11004584834560693, 198.63879763413746),
    (('ladder', 521, 2.0, 'top'), 0.046991078545609105, 450.2184383673157),
    (('ladder', 521, 1.0, 'uniform'), 0.043532943856214534, 328.5945362952508),
    (('thermal', 24, 2.0, (0.5, 'gibbs')), 2.149197350640451, 1.5349116841303405),
    (('thermal', 24, 0.5, (1.0, 'uniform')), 2.3171433146556883, 1.6554597532824566),
    (('thermal', 31, 5.0, (0.5, 'gibbs')), 2.0001946693302, 1.0067379469990854),
    (('thermal', 31, 2.0, (0.2, 'uniform')), 2.66819583582753, 1.1353352832366128),
    (('thermal', 40, 1.0, (1.5, 'gibbs')), 0.3341366499103847, 1.5226975629176176),
    (('thermal', 40, 3.0, (0.5, 'uniform'), 1e-06), 5.864169526438172, 1.6533138164388679),
    (('thermal', 48, 2.0, (0.8, 'gibbs')), 0.6298713372214464, 1.5349116841303405),
    (('thermal', 48, 0.7, (0.3, 'uniform')), 2.3171705934699123, 1.5837944281453928),
    (('thermal', 57, 2.0, (0.5, 'gibbs')), 1.2067952152372743, 1.1353352832366128),
    (('thermal', 57, 8.0, (1.0, 'uniform')), 0.6282072287021924, 1.0003354626279024),
    (('thermal', 64, 2.0, (0.5, 'gibbs')), 1.0695088059285367, 1.5349116841303405),
    (('thermal', 64, 2.0, (0.5, 'uniform')), 1.4137112235414688, 1.5349116841303405),
    (('thermal', 64, 0.4, (0.5, 'gibbs'), 1e-08), 6.59153572786771, 1.703178585915315),
    (('thermal', 66, 2.0, (1.0, 'gibbs')), 0.2597423973946016, 1.5349116841303405),
    (('thermal', 66, 1.0, (0.5, 'uniform')), 1.5533185529423261, 1.5226975629176176),
    (('early', 2, 0.5, 1e-08), 4.0720861477752615e-09, 1.6554597532824566),
    (('early', 2, 0.5, 100.0), 2.6097357495001954, 1.6554597532824566),
    (('early', 10, 1.0, 1e-05), 1.0002013734702722e-06, 4.815830575396045),
    (('early', 10, 0.5, 1.0), 0.08470849643135009, 2.7394614925146703),
    (('early', 30, 2.0, 1e-08), 3.3363915565619804e-10, 25.646049059951675),
    (('early', 30, 0.5, 0.01), 0.0003327259456928218, 9.831222805489821),
    (('early', 60, 3.0, 1e-06), 1.667589021956147e-08, 56.909567707512124),
    (('early', 60, 0.5, 100.0), 0.17003228077471394, 22.26139785194779),
]


class TestBitIdentity:
    @pytest.mark.parametrize("case, time, gap", _PINNED_RELAXATION,
                             ids=[" ".join(map(str, case)) for case, _, _ in _PINNED_RELAXATION])
    def test_relaxation_time_and_gap_unchanged(self, case, time, gap):
        res = relaxation_time(*relaxation_case(*case))
        assert (res.time, res.spectral_gap) == (time, gap)


def transition_rate_range(two_j: int, rates: RatePair) -> tuple[float, float]:
    """Exact (min, max) downward rate over the ladder's m grid.

    The m -> m-1 rate is (J+m)(J-m+1) g_down; the minimum 2J sits at the
    ladder edge and the maximum (2J+1)^2 // 4 at the band center (J(J+1)
    for integer J, (J+1/2)^2 for half-integer J). The edge rate is what
    scales as n between the symmetric sector and a single spin.
    """
    if two_j < 1:
        raise ValueError("need two_j >= 1 for at least one transition")
    return two_j * rates.g_down, (two_j + 1) ** 2 // 4 * rates.g_down


class TestTransitionRates:
    def test_qubit_single_rate(self):
        r = RatePair(2.0, 0.1)
        assert transition_rate_range(1, r) == (2.0, 2.0)

    def test_integer_j_extremes(self):
        r = RatePair(1.0, 0.0)
        assert transition_rate_range(20, r) == (20.0, 110.0)  # J = 10
        # the closed form against every (J+m)(J-m+1) on the ladder, both parities
        r = RatePair(0.3, 0.1)
        for two_j in range(1, 2001):
            two_m = np.arange(-two_j + 2, two_j + 1, 2)
            prods = (two_j + two_m) * (two_j - two_m + 2) // 4
            want = (int(prods.min()) * r.g_down, int(prods.max()) * r.g_down)
            assert transition_rate_range(two_j, r) == want

    def test_half_integer_band_center(self):
        r = RatePair(1.0, 0.0)
        lo, hi = transition_rate_range(3, r)  # J = 3/2
        assert lo == 3.0  # 2J
        assert hi == 4.0  # (J + 1/2)^2

    def test_edge_rate_scales_as_n(self):
        r = RatePair(1.0, 0.5)
        for n, two_s in [(3, 1), (5, 2), (7, 3)]:
            lo_col, _ = transition_rate_range(n * two_s, r)
            lo_ind, _ = transition_rate_range(two_s, r)
            assert lo_col / lo_ind == pytest.approx(n, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            transition_rate_range(0, RatePair(1.0, 0.0))
