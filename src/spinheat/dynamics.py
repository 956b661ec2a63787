"""Population dynamics under collective and independent dissipation.

Collective coupling never mixes total-spin sectors, so the populations evolve
under one birth-death generator per ladder; independent coupling is the same
generator on a single spin (an n-spin product state stays a product, so one
spin is simulated and observables are combined). Time is measured in units
of 1/G(omega), the downward rate scale, and the upward rate follows detailed
balance g_up = exp(-b) g_down so each ladder relaxes to its Gibbs vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal, expm
from scipy.sparse.linalg import expm_multiply

from .sectors import BlockWeights, SpinEnsemble, sector_multiplicities
from .special import ladder_boltzmann, ladder_two_m

__all__ = [
    "RatePair",
    "RateGenerator",
    "PopulationState",
    "RelaxationResult",
    "ConvergenceError",
    "ladder_generator",
    "collective_generator",
    "independent_generator",
    "gibbs_state",
    "aligned_state",
    "uniform_state",
    "stationary_state",
    "evolve",
    "spectral_gap",
    "relaxation_time",
    "transition_rate_range",
]

# Block size above which `evolve` trades dense expm for a Krylov semigroup
# action. For one propagation Krylov measured faster or even above it: at 1001
# levels, b = 2, one BLAS thread, 0.12 / 1.2 / 4.3 s of CPU against 2.1 / 2.3 /
# 3.9 s dense for t*gap = 0.1 / 1 / 5. `relaxation_time` propagates many times
# and keeps its dense chain at every size.
_DENSE_EXPM_CAP = 512

# relative width of the final relaxation-time bracket
_RESOLUTION = 1e-3


class ConvergenceError(ArithmeticError):
    """Relaxation did not reach the target within the time budget."""


@dataclass(frozen=True)
class RatePair:
    """Downward/upward transition rate scales G(omega), G(-omega)."""

    g_down: float
    g_up: float

    def __post_init__(self):
        if not (math.isfinite(self.g_down) and self.g_down > 0.0):
            raise ValueError(f"g_down must be finite and > 0, got {self.g_down}")
        if not (math.isfinite(self.g_up) and self.g_up >= 0.0):
            raise ValueError(f"g_up must be finite and >= 0, got {self.g_up}")

    @classmethod
    def thermal(cls, b: float, g_down: float = 1.0) -> "RatePair":
        """Detailed-balance rates for a bath at dimensionless inverse temperature b."""
        return cls(g_down, g_down * math.exp(-b))

    @property
    def bath_b(self) -> float:
        """Inverse temperature implied by the rate ratio; +inf for g_up = 0."""
        if self.g_up == 0.0:
            return math.inf
        return math.log(self.g_down / self.g_up)


def ladder_generator(two_j: int, rates: RatePair) -> np.ndarray:
    """Birth-death rate matrix on one spin-J ladder; columns sum to zero.

    Entry (i, k) is the rate from level k into level i, with index i holding
    two_m = -two_j + 2i. The m <-> m+1 link carries the shared factor
    (J-m)(J+m+1), downward weighted by g_down and upward by g_up.
    """
    dim = two_j + 1
    i = np.arange(two_j)
    two_m = ladder_two_m(two_j)[:-1]
    fac = 0.25 * ((two_j - two_m) * (two_j + two_m + 2))
    up, down = rates.g_up * fac, rates.g_down * fac
    diag = np.zeros(dim)
    diag[1:] -= down
    diag[:-1] -= up
    a = np.zeros((dim, dim))
    a[i + 1, i] = up
    a[i, i + 1] = down
    np.fill_diagonal(a, diag)
    return a


@dataclass(frozen=True)
class RateGenerator:
    """Block-diagonal generator: one ladder matrix per total-spin sector."""

    blocks: dict[int, np.ndarray]
    rates: RatePair


def collective_generator(ensemble: SpinEnsemble, rates: RatePair) -> RateGenerator:
    """Collective-dissipation generator over every sector of the ensemble."""
    table = sector_multiplicities(ensemble)
    return RateGenerator(
        {tj: ladder_generator(tj, rates) for tj in table.multiplicities}, rates
    )


def independent_generator(two_s: int, rates: RatePair) -> RateGenerator:
    """Single-spin generator; n independent spins are n copies of it."""
    return RateGenerator({two_s: ladder_generator(two_s, rates)}, rates)


@dataclass(frozen=True)
class PopulationState:
    """Degeneracy-aggregated ladder populations p_{J,m}, one vector per sector.

    blocks[two_j][i] holds the population of two_m = -two_j + 2i. Total mass
    is 1; collective dynamics conserves each sector's mass separately.
    """

    blocks: dict[int, np.ndarray]
    time: float = 0.0

    def __post_init__(self):
        total = 0.0
        for tj, p in self.blocks.items():
            if len(p) != tj + 1:
                raise ValueError(f"sector two_j={tj} needs {tj + 1} levels, got {len(p)}")
            if not np.min(p) >= -1e-12:  # NaN fails here and in the sum check below
                raise ValueError(f"negative or NaN population in sector two_j={tj}")
            total += float(np.sum(p))
        if not abs(total - 1.0) <= 1e-10:
            raise ValueError(f"populations must sum to 1, got {total!r}")

    def sector_masses(self) -> dict[int, float]:
        return {tj: float(np.sum(p)) for tj, p in self.blocks.items()}

    def energy(self) -> float:
        """Mean J_z in hbar*omega units."""
        return sum(
            float(np.dot(ladder_two_m(tj) * 0.5, p)) for tj, p in self.blocks.items()
        )

    def tv_distance(self, other: "PopulationState") -> float:
        """Total-variation distance, treating absent sectors as empty."""
        d = 0.0
        for tj in set(self.blocks) | set(other.blocks):
            p = self.blocks.get(tj)
            q = other.blocks.get(tj)
            if p is None:
                d += float(np.sum(np.abs(q)))
            elif q is None:
                d += float(np.sum(np.abs(p)))
            else:
                d += float(np.sum(np.abs(p - q)))
        return 0.5 * d


def gibbs_state(weights: BlockWeights, b: float, time: float = 0.0) -> PopulationState:
    """Per-sector Gibbs populations at inverse temperature b, scaled by the weights.

    This is both the collective steady state for a bath at b and the exact
    sector-resolved content of a product thermal state prepared at b0 = b.
    """
    return PopulationState(
        {tj: p * ladder_boltzmann(tj, b) for tj, p in weights.sorted_items()}, time
    )


def aligned_state(weights: BlockWeights, excited: bool = False) -> PopulationState:
    """All in-sector mass at the bottom (m = -J) or, with excited=True, top (m = +J)."""
    blocks = {}
    for tj, p in weights.sorted_items():
        v = np.zeros(tj + 1)
        v[-1 if excited else 0] = p
        blocks[tj] = v
    return PopulationState(blocks)


def uniform_state(weights: BlockWeights) -> PopulationState:
    """In-sector mass spread evenly over the 2J+1 levels."""
    return PopulationState(
        {tj: np.full(tj + 1, p / (tj + 1)) for tj, p in weights.sorted_items()}
    )


def stationary_state(state: PopulationState, rates: RatePair) -> PopulationState:
    """The state `state` relaxes to: per-sector Gibbs with the same sector masses."""
    blocks = {}
    for tj, p in state.blocks.items():
        mass = float(np.sum(p))
        if rates.g_up == 0.0:
            v = np.zeros(tj + 1)
            v[0] = 1.0
        else:
            v = ladder_boltzmann(tj, rates.bath_b)
        blocks[tj] = mass * v
    return PopulationState(blocks, time=math.inf)


def evolve(state: PopulationState, generator: RateGenerator, t: float) -> PopulationState:
    """Propagate populations for a time t (units 1/G(omega)).

    Exact semigroup action per sector. Blocks up to _DENSE_EXPM_CAP levels
    use dense scaling-and-squaring expm (Higham 2005): the ladders are stiff,
    with ||A t|| growing like J, and a Krylov action (Al-Mohy & Higham 2011)
    needs many more steps there than squaring does. Larger blocks take the
    Krylov action, where the O(dim^3) dense cost dominates instead.
    Positivity and per-sector mass are preserved up to roundoff.
    """
    if t < 0.0:
        raise ValueError(f"cannot evolve backwards, t={t}")
    if t == 0.0:
        return state
    blocks = {}
    for tj, p in state.blocks.items():
        a = generator.blocks.get(tj)
        if a is None:
            raise ValueError(f"generator has no block for sector two_j={tj}")
        if a.shape[0] <= _DENSE_EXPM_CAP:
            q = expm(a * t) @ p
        else:
            q = expm_multiply(a * t, p)
        blocks[tj] = np.clip(q, 0.0, None)
    return PopulationState(blocks, time=state.time + t)


def spectral_gap(
    state: PopulationState, generator: RateGenerator, mass_tol: float = 1e-12
) -> float:
    """Smallest nonzero decay rate of the generator on the populated sectors.

    A birth-death ladder is similar (through the square root of its Gibbs
    vector, never formed) to the symmetric tridiagonal matrix with the same
    diagonal and off-diagonal sqrt(upper * lower), so its spectrum comes
    from a symmetric tridiagonal eigensolver. That stays accurate where the
    dense non-symmetric eigenproblem is ill-conditioned, which put errors of
    up to 3e-8 relative into np.linalg.eigvals at 2J ~ 200. The largest
    eigenvalue is the zero mode, so the gap is minus the second largest; at
    g_up = 0 the off-diagonals vanish and the eigenvalues are the diagonal,
    as for the triangular generator itself.

    math.inf when every populated sector is trivially stationary (J = 0).
    """
    gap = math.inf
    for tj, p in state.blocks.items():
        if tj == 0 or float(np.sum(p)) <= mass_tol:
            continue
        a = generator.blocks[tj]
        off = np.sqrt(np.diagonal(a, 1) * np.diagonal(a, -1))
        vals = eigvalsh_tridiagonal(np.diagonal(a), off)
        gap = min(gap, -float(vals[-2]))
    return gap


@dataclass(frozen=True)
class RelaxationResult:
    time: float
    spectral_gap: float


class _PropagatorChain:
    """Propagators exp(A_J h 2^k) of several ladders, by integer level k.

    Only the lowest level comes from a dense expm; each level above it is
    the square of the one below (the semigroup property). Every block is
    held densely, whatever its size: at 1001 levels (b = 2) that made
    relaxation_time about 12x faster than a Krylov action per step, for
    about twice the peak memory.
    """

    def __init__(self, blocks: dict[int, np.ndarray], h: float, floor: int):
        self.blocks, self.h = blocks, h
        self.floor = floor
        self.levels = {floor: self._expm(floor)}

    def _expm(self, k: int) -> dict[int, np.ndarray]:
        t = self.h * 2.0**k
        return {tj: expm(a * t) for tj, a in self.blocks.items()}

    def lower(self, floor: int) -> None:
        """Make `floor` (below the current one) the lowest level, with one more dense expm."""
        self.levels[floor] = self._expm(floor)
        self.floor = floor

    def _level(self, k: int) -> dict[int, np.ndarray]:
        got = self.levels.get(k)
        if got is None:
            below = self._level(k - 1)
            got = self.levels[k] = {tj: e @ e for tj, e in below.items()}
        return got

    def step(self, k: int, blocks: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
        """Populations a time h 2^k after `blocks`; needs k >= floor."""
        level = self._level(k)
        return {tj: np.clip(level[tj] @ p, 0.0, None) for tj, p in blocks.items()}


def relaxation_time(
    state0: PopulationState,
    generator: RateGenerator,
    epsilon: float = 1e-3,
    t_max: float = 1e6,
) -> RelaxationResult:
    """First time the total-variation distance to the stationary state drops below epsilon.

    TV distance to the fixed point is non-increasing under the semigroup, so
    the threshold crossing is found by doubling then bisection (relative
    resolution 1e-3). The spectral gap on the populated sectors is reported
    alongside as a second, initial-state-free timescale.

    With h = 1/gap every doubling step is h 2^k and every bisection step
    halves the last one, so each probe advances the state at the lower
    bracket end by exp(A h 2^k): one matrix-vector product per sector from a
    chain of propagators built by one dense expm at the finest level the
    resolution can need, h 2^floor(log2 1e-3), and repeated squaring above
    it, for every ladder size. Squaring suits these stiff ladders: a Krylov
    action per probe (Al-Mohy & Higham 2011) measured 35-100x slower on
    ladders of 25 to 71 levels, and about 12x slower at 1001. A crossing
    before h can need finer steps; each finer floor then costs one more
    expm, placed at the finest step the bracket still allows.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    target = stationary_state(state0, generator.rates)
    gap = spectral_gap(state0, generator)
    if state0.tv_distance(target) < epsilon:
        return RelaxationResult(0.0, gap)

    # J = 0 and empty sectors sit at their target and add nothing to the distance
    p_lo = {tj: p for tj, p in state0.blocks.items() if tj > 0 and p.any()}
    goal = {tj: target.blocks[tj] for tj in p_lo}

    def dist(blocks: dict[int, np.ndarray]) -> float:
        return 0.5 * sum(float(np.sum(np.abs(p - goal[tj]))) for tj, p in blocks.items())

    h = 1.0 / gap if math.isfinite(gap) else 1.0

    def finest(t_lo: float) -> int:
        """Lowest level a bisection of a bracket above t_lo can still step by."""
        return math.floor(math.log2(_RESOLUTION * t_lo / h))

    chain = _PropagatorChain({tj: generator.blocks[tj] for tj in p_lo}, h, finest(h))
    # bracket [t_lo, t_hi] of width h 2^k, with p_lo the state at t_lo
    t_lo, t_hi, k = 0.0, h, 0
    p = chain.step(k, p_lo)
    while dist(p) >= epsilon:
        if t_lo > 0.0:  # [0, h] is followed by [h, 2h]; later brackets double
            k += 1
        t_lo, t_hi, p_lo = t_hi, 2.0 * t_hi, p
        if t_hi > t_max:
            raise ConvergenceError(
                f"TV distance still >= {epsilon} at t = {t_hi} / G(omega)"
            )
        p = chain.step(k, p_lo)
    while t_hi - t_lo > _RESOLUTION * t_hi:
        mid = 0.5 * (t_lo + t_hi)
        k -= 1
        if k < chain.floor:
            chain.lower(k if t_lo == 0.0 else min(k, finest(t_lo)))
        p = chain.step(k, p_lo)
        if dist(p) < epsilon:
            t_hi = mid
        else:
            t_lo, p_lo = mid, p
    return RelaxationResult(t_hi, gap)


def transition_rate_range(two_j: int, rates: RatePair) -> tuple[float, float]:
    """Exact (min, max) downward rate over the ladder's m grid.

    The m -> m-1 rate is (J+m)(J-m+1) g_down; the minimum 2J sits at the
    ladder edge and the maximum at the band center (J(J+1) for integer J,
    (J+1/2)^2 for half-integer J). The edge rate is what scales as n between
    the symmetric sector and a single spin.
    """
    if two_j < 1:
        raise ValueError("need two_j >= 1 for at least one transition")
    prods = [
        (two_j + two_m) * (two_j - two_m + 2) // 4
        for two_m in range(-two_j + 2, two_j + 1, 2)
    ]
    return min(prods) * rates.g_down, max(prods) * rates.g_down
