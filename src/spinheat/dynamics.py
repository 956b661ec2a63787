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
from collections.abc import Iterator, Mapping
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal, expm
from scipy.linalg.blas import dgbmv
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .sectors import BlockWeights, SpinEnsemble
from .special import ladder_boltzmann, ladder_two_m

__all__ = [
    "RatePair",
    "RateGenerator",
    "PopulationState",
    "RelaxationResult",
    "ConvergenceError",
    "ladder_generator",
    "collective_generator",
    "gibbs_state",
    "aligned_state",
    "uniform_state",
    "stationary_state",
    "evolve",
    "spectral_gap",
    "relaxation_time",
]

# Higham's (2005) bound on ||A t||_1 up to which the degree-13 Pade
# approximant needs no scaling.
_THETA_13 = 5.371920351148152

# Coefficients b_j = (26 - j)! / (j! (13 - j)!) of that approximant,
# sum_j b_j x^j / sum_j b_j (-x)^j, the exact integers scipy's expm uses.
_PADE_13 = np.array([math.factorial(26 - j) // (math.factorial(j) * math.factorial(13 - j))
                     for j in range(14)], dtype=float)

# Propagator entries below this magnitude are zeroed. Off-diagonals of
# exp(A t) on stiff ladders decay like e^(-bJ), deep into the subnormal
# range, where one BLAS squaring of 201 levels (b = 5) ran 9x slower: 3.6 ms
# with 365 subnormal entries against 0.40 ms without. No product of two kept
# entries is subnormal, and exp(A t) is non-negative and column-stochastic,
# so a flush moves a column's mass by at most dim * _FLUSH.
_FLUSH = math.sqrt(np.finfo(float).tiny)

# evolve steps the vector by the banded Pade approximant (_band_action) on
# ladders of at least _BAND_LEVELS levels, where its 2^k steps number at most
# the levels and at most _BAND_STEPS; elsewhere it forms the dense propagator.
# The floor is where the steps stop losing to the dense route on one BLAS
# thread (best of 41, b = 0.5, 2, 5): at 2^k = 64, the most an 81-level
# ladder admits, 0.63 ms against 0.59 ms at 81 levels, 0.64 against 0.68 at
# 85 and 0.69 against 0.76 at 89 (dgbmv's wrapper needs at least 27). The
# cap bounds the rounding that each step adds: against scipy's expm(a t) p,
# the worst l1 distance over 201, 521 and 1001 levels, b = 0.5, 2, 5, 20 and
# inf, and top, bottom and Gibbs starts was 6.0e-15 at 128 steps, 1.1e-14 at
# 256 and 1.2e-14 at 512.
_BAND_LEVELS = 89
_BAND_STEPS = 128

# relative width of the final relaxation-time bracket
_RESOLUTION = 1e-3

# sector mass at or below which spectral_gap ignores a sector
_MASS_TOL = 1e-12

_T_MAX = 1e6  # relaxation_time gives up past this time, units 1/G(omega)


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
    def thermal(cls, b: float) -> "RatePair":
        """Detailed-balance rates at bath inverse temperature b; g_down = 1 sets the time unit 1/G."""
        try:
            return cls(1.0, math.exp(-b))
        except OverflowError:  # g_up past the float range, b below about -709.78
            raise ValueError(f"g_up = exp(-b) overflows at b={b}") from None

    @property
    def bath_b(self) -> float:
        """Inverse temperature implied by the rate ratio; +inf for g_up = 0."""
        if self.g_up == 0.0:
            return math.inf
        return math.log(self.g_down / self.g_up)


def _ladder_rates(two_j: int, rates: RatePair) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(diagonal, up, down) of the spin-J ladder, level i at two_m = ladder_two_m(two_j)[i].

    up[i] = g_up (J-m)(J+m+1) is the rate i -> i+1, down[i] the same with g_down for i+1 -> i.
    """
    tm = ladder_two_m(two_j)[:-1]  # levels 0 .. 2J-1, the ones with a level above
    fac = (two_j - tm) * (two_j + tm + 2) / 4.0  # (J-m)(J+m+1), an exact integer over 4
    up, down = rates.g_up * fac, rates.g_down * fac
    diag = np.zeros(two_j + 1)
    diag[1:] -= down
    diag[:-1] -= up
    return diag, up, down


def ladder_generator(two_j: int, rates: RatePair) -> np.ndarray:
    """Birth-death rate matrix of _ladder_rates: entry (i, k) is the rate k -> i; columns sum to 0."""
    diag, up, down = _ladder_rates(two_j, rates)
    a = np.diag(diag)
    f = a.reshape(-1)  # a[i, i+1] is f[1 + i (2J+2)], a[i+1, i] is f[2J+1 + i (2J+2)]
    f[1::two_j + 2], f[two_j + 1::two_j + 2] = down, up
    return a


@dataclass(frozen=True)
class _LadderBlocks(Mapping):
    """Map two_j -> ladder_generator(two_j, rates) over two_js, built afresh on each read.

    A dense block costs (2J+1)^2 floats, and most callers read only the
    populated sectors: building all 501 blocks at n = 1000, s = 1/2 took
    1.5 s and 1.1 GB where relaxing the symmetric sector reads one.
    """

    two_js: range
    rates: RatePair

    def __getitem__(self, two_j: int) -> np.ndarray:
        if two_j not in self.two_js:
            raise KeyError(two_j)
        return ladder_generator(two_j, self.rates)

    def __contains__(self, two_j) -> bool:
        return two_j in self.two_js

    def __iter__(self) -> Iterator[int]:
        return iter(self.two_js)

    def __len__(self) -> int:
        return len(self.two_js)


@dataclass(frozen=True)
class RateGenerator:
    """Block-diagonal generator: one ladder matrix per total-spin sector.

    Each block is ladder_generator(two_j, rates); evolve reads large ladders
    from the rates without building the block.
    """

    blocks: Mapping[int, np.ndarray]
    rates: RatePair


def collective_generator(ensemble: SpinEnsemble, rates: RatePair) -> RateGenerator:
    """Generator over ensemble.two_js, each sector's dense ladder built on each read.

    At n = 1 it is the single-spin generator; n independent spins are n copies of it.
    """
    return RateGenerator(_LadderBlocks(ensemble.two_js, rates), rates)


@dataclass(frozen=True)
class PopulationState:
    """Degeneracy-aggregated ladder populations p_{J,m}, one vector per sector.

    blocks[two_j][i] holds the population of two_m = ladder_two_m(two_j)[i].
    Total mass is 1; collective dynamics conserves each sector's mass separately.
    """

    blocks: dict[int, np.ndarray]

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
        return 0.5 * sum(
            float(np.sum(np.abs(self.blocks.get(tj, 0.0) - other.blocks.get(tj, 0.0))))
            for tj in set(self.blocks) | set(other.blocks)
        )


def gibbs_state(weights: BlockWeights, b: float) -> PopulationState:
    """Per-sector Gibbs populations at inverse temperature b, scaled by the weights.

    This is both the collective steady state for a bath at b and the exact
    sector-resolved content of a product thermal state prepared at b0 = b.
    """
    return PopulationState({tj: p * ladder_boltzmann(tj, b) for tj, p in weights.weights.items()})


def aligned_state(weights: BlockWeights, excited: bool = False) -> PopulationState:
    """All in-sector mass at m = -J, or at m = +J with excited=True: Gibbs at b = +inf (-inf)."""
    return gibbs_state(weights, -math.inf if excited else math.inf)


def uniform_state(weights: BlockWeights) -> PopulationState:
    """In-sector mass spread evenly over the 2J+1 levels."""
    return PopulationState(
        {tj: np.full(tj + 1, p / (tj + 1)) for tj, p in weights.weights.items()}
    )


def stationary_state(state: PopulationState, rates: RatePair) -> PopulationState:
    """The state `state` relaxes to: per-sector Gibbs with the same sector masses."""
    return PopulationState(
        {tj: float(np.sum(p)) * ladder_boltzmann(tj, rates.bath_b) for tj, p in state.blocks.items()}
    )


def _flush(e: np.ndarray) -> np.ndarray:
    """Zero, in place, every entry of e below _FLUSH in magnitude."""
    e[np.abs(e) < _FLUSH] = 0.0
    return e


def _square(e: np.ndarray) -> np.ndarray:
    """e @ e without entries below _FLUSH, so the next product makes no subnormal."""
    return _flush(e @ e)


def _halvings(rho: float, t: float) -> int:
    """Fewest halvings of t that bring ||a t||_1 to _THETA_13, for a ladder with rho = max|a_ii|.

    Columns of a sum to zero and its off-diagonals are non-negative, so
    ||a t||_1 = 2 t rho with no norm pass. Where that product overflows
    (t near 1e308), the count comes from the logs of its factors.
    """
    norm = 2.0 * t * rho
    if norm <= _THETA_13:
        return 0
    if norm == math.inf:
        return math.ceil(math.log2(t) + math.log2(rho * (2.0 / _THETA_13)))
    return math.ceil(math.log2(norm / _THETA_13))


def _propagator(a: np.ndarray, t: float) -> np.ndarray:
    """exp(a t) for a ladder generator a, by scaling and squaring without subnormals.

    scipy's expm evaluates the Pade approximant at t / 2^k, with k from
    _halvings, and the k squarings follow through _square. Each doubles the
    error in a column's unit sum (evolve lost all mass at t = 1e16 on
    2J = 200), so the columns are rescaled after each one.
    """
    k = _halvings(float(np.max(np.abs(np.diagonal(a)))), t)
    e = _flush(expm(a * math.ldexp(t, -k)))
    for _ in range(k):
        e = _square(e)
        e /= e.sum(axis=0)
    return e


def _band_product(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """s @ x for band matrices, stacked over s's leading axes.

    A matrix of half-bandwidth w is stored as 2w + 1 rows, entry (i, j) at
    row w + i - j of column j (LAPACK's band layout). Column j of s @ x is
    the sum over d of x[j + d, j] times column j + d of s, and the result
    has half-bandwidth w + h for x of half-bandwidth h.
    """
    w, h, n = s.shape[-2] // 2, len(x) // 2, s.shape[-1]
    out = np.zeros(s.shape[:-2] + (2 * (w + h) + 1, n))
    for d in range(-h, h + 1):
        lo, hi = max(0, -d), n - max(0, d)
        out[..., h + d:h + d + 2 * w + 1, lo:hi] += s[..., lo + d:hi + d] * x[h + d, lo:hi]
    return out


def _band_action(diag: np.ndarray, up: np.ndarray, down: np.ndarray, t: float, k: int,
                 p: np.ndarray) -> np.ndarray:
    """exp(A t) p for the ladder A of _ladder_rates, by 2^k steps of the Pade approximant.

    At X = A t / 2^k the approximant is Q^-1 P with P = V + U, Q = V - U,
    V = sum b_2i X^2i and U = X sum b_2i+1 X^2i, as in scipy's expm; V and
    the sum in U come from one Horner recursion in X^2, stacked. X is
    tridiagonal, so U and Q have half-bandwidth w = 13: Q is factored
    once, and each step is p + Q^-1 (2 U p), which equals Q^-1 P p. Stepping
    by the increment keeps a stationary p still: at 2J = 1000, b = 0.5 it
    ended 2.4e-15 from expm's Gibbs vector after 128 steps, where Q^-1 P p
    ended 1.7e-14 away.
    """
    n, w, s = len(p), 13, math.ldexp(t, -k)
    x = np.zeros((3, n))
    x[0, 1:], x[1], x[2, :-1] = down * s, diag * s, up * s
    y = _band_product(x, x)
    pairs = _PADE_13.reshape(7, 2, 1)  # (b_2i, b_2i+1)
    vw = np.zeros((2, 1, n))
    vw[:, 0] = pairs[6]
    for i in range(5, -1, -1):
        vw = _band_product(vw, y)
        vw[:, 2 * (6 - i)] += pairs[i]
    v, u = vw[0], np.asfortranarray(_band_product(vw[1], x))  # dgbmv copies a C array per call
    q = np.zeros((3 * w + 1, n))  # dgbtrf's layout: w rows of fill above the band
    q[w:] = -u
    q[w + 1:-1] += v
    lu, piv, _ = dgbtrf(q, w, w, overwrite_ab=True)
    for _ in range(1 << k):
        p = p + dgbtrs(lu, w, w, dgbmv(n, n, w, w, 2.0, u, p), piv, overwrite_b=True)[0]
    return p


def _ladder_action(generator: RateGenerator, two_j: int, p: np.ndarray, t: float) -> np.ndarray:
    """exp(A t) p for sector two_j's ladder A: by _band_action where the gate admits it, else dense."""
    if two_j + 1 >= _BAND_LEVELS:
        diag, up, down = _ladder_rates(two_j, generator.rates)
        k = _halvings(float(np.max(np.abs(diag))), t)
        if 1 << k <= min(two_j + 1, _BAND_STEPS):
            return _band_action(diag, up, down, t, k, p)
    return _propagator(generator.blocks[two_j], t) @ p


def _check_sectors(state: PopulationState, generator: RateGenerator) -> None:
    for tj in state.blocks:
        if tj not in generator.blocks:
            raise ValueError(f"generator has no block for sector two_j={tj}")


def evolve(state: PopulationState, generator: RateGenerator, t: float) -> PopulationState:
    """Propagate populations for a time t (units 1/G(omega)).

    Exact semigroup action per sector. A ladder of at least _BAND_LEVELS
    levels whose 2^k scaled steps number at most its levels and _BAND_STEPS
    is stepped by the vector through _band_action (the banded Pade
    approximant, with no dense block built). Every other sector goes through
    _propagator (dense scaling and squaring, Higham 2005, with entries below
    _FLUSH dropped), the propagator relaxation_time uses. A sector with no
    mass is returned as it came, without reading its block. Negative
    roundoff is clipped, and each sector is rescaled to its input mass.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and >= 0, got t={t}")
    if t == 0.0:
        return state
    _check_sectors(state, generator)
    blocks = {}
    for tj, p in state.blocks.items():
        if not p.any():
            blocks[tj] = p
            continue
        q = np.clip(_ladder_action(generator, tj, p, t), 0.0, None)
        mass = np.sum(q)
        blocks[tj] = q * (np.sum(p) / mass) if mass > 0.0 else q
    return PopulationState(blocks)


def spectral_gap(state: PopulationState, generator: RateGenerator) -> float:
    """Smallest nonzero decay rate of the generator on the populated sectors.

    A birth-death ladder is similar (through the square root of its Gibbs
    vector, never formed) to the symmetric tridiagonal matrix with the same
    diagonal and off-diagonal sqrt(down * up), both read from _ladder_rates.
    A symmetric tridiagonal eigensolver stays accurate where the dense
    non-symmetric one is ill-conditioned (3e-8 relative error from
    np.linalg.eigvals at 2J ~ 200). The largest eigenvalue is the zero mode,
    so the gap is minus the second largest; at g_up = 0 the off-diagonals
    vanish and the eigenvalues are the diagonal, as for the triangular
    generator itself.

    math.inf when every populated sector is trivially stationary (J = 0).
    """
    _check_sectors(state, generator)
    gap = math.inf
    for tj, p in state.blocks.items():
        if tj == 0 or float(np.sum(p)) <= _MASS_TOL:
            continue
        diag, up, down = _ladder_rates(tj, generator.rates)
        vals = eigvalsh_tridiagonal(diag, np.sqrt(down * up))
        gap = min(gap, -float(vals[-2]))
    return gap


@dataclass(frozen=True)
class RelaxationResult:
    time: float
    spectral_gap: float


def relaxation_time(
    state0: PopulationState,
    generator: RateGenerator,
    epsilon: float = 1e-3,
) -> RelaxationResult:
    """First time the total-variation distance to the stationary state drops below epsilon.

    TV distance to the fixed point is non-increasing under the semigroup, so
    the threshold crossing is found by doubling then bisection (relative
    resolution 1e-3). The spectral gap on the populated sectors is reported
    alongside as a second, initial-state-free timescale.

    With h = 1/gap every doubling step is h 2^k and every bisection step
    halves the last one, so each probe advances the state at the lower
    bracket end by exp(A h 2^k): one matrix-vector product per sector from a
    stack of propagators built by one dense expm at the finest level the
    resolution can need, h 2^floor(log2 1e-3), and repeated squaring above
    it, for every ladder size. Squaring suits these stiff ladders: a Krylov
    action per probe (Al-Mohy & Higham 2011) measured 35-100x slower on
    ladders of 25 to 71 levels, and about 12x slower at 1001, where the
    dense levels doubled peak memory. A crossing before h can need finer
    steps; each finer floor then costs one more expm, placed at the finest
    step the bracket still allows. Every level drops its entries below
    _FLUSH, which keeps its squarings out of the subnormal range.
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

    ladders = {tj: generator.blocks[tj] for tj in p_lo}  # each read builds the ladder

    def expm_level(k: int) -> dict[int, np.ndarray]:
        return {tj: _propagator(a, h * 2.0**k) for tj, a in ladders.items()}

    # levels[i] holds exp(A_J h 2^(floor + i)) for every populated ladder
    floor = finest(h)
    levels = [expm_level(floor)]

    def step(k: int, blocks: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
        """Populations a time h 2^k after `blocks`; needs k >= floor."""
        while len(levels) <= k - floor:
            levels.append({tj: _square(e) for tj, e in levels[-1].items()})
        del levels[k - floor + 1:]  # bisection only steps down
        return {tj: np.clip(levels[-1][tj] @ p, 0.0, None) for tj, p in blocks.items()}

    # bracket [t_lo, t_hi] of width h 2^k, with p_lo the state at t_lo
    t_lo, t_hi, k = 0.0, h, 0
    p = step(k, p_lo)
    while dist(p) >= epsilon:
        if t_lo > 0.0:  # [0, h] is followed by [h, 2h]; later brackets double
            k += 1
        t_lo, t_hi, p_lo = t_hi, 2.0 * t_hi, p
        if t_hi > _T_MAX:
            raise ConvergenceError(
                f"TV distance still >= {epsilon} at t = {t_hi} / G(omega)"
            )
        p = step(k, p_lo)
    while t_hi - t_lo > _RESOLUTION * t_hi:
        mid = 0.5 * (t_lo + t_hi)
        k -= 1
        if k < floor:
            floor = k if t_lo == 0.0 else min(k, finest(t_lo))
            levels = [expm_level(floor)]
        p = step(k, p_lo)
        if dist(p) < epsilon:
            t_hi = mid
        else:
            t_lo, p_lo = mid, p
    return RelaxationResult(t_hi, gap)

