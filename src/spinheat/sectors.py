"""Total-spin sector structure of n identical spin-s systems.

The collective dissipator conserves the total-spin quantum number J, so an
ensemble state is summarized by how much weight sits in each J sector.
Multiplicities are exact Python integers: the number of product states with
total J_z = M is the coefficient c_{ns-M} of (1 + x + ... + x^{2s})^n, and
l_J = c_{ns-J} - c_{ns-J-1}. The coefficients come from J. C. P. Miller's
recurrence for the power of a polynomial, O(n s^2) integer operations, so
n ~ 10^4 is cheap. Weights coming from thermal product states are evaluated
in log space so deep initial temperatures are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .special import log_sinh

__all__ = [
    "SpinEnsemble",
    "SectorTable",
    "BlockWeights",
    "sector_multiplicities",
    "log_block_partition_function",
    "block_partition_function",
    "thermal_product_weights",
    "symmetric_weights",
]


@dataclass(frozen=True)
class SpinEnsemble:
    """n identical spins of magnitude s = two_s / 2."""

    n: int
    two_s: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one spin, got n={self.n}")
        if self.two_s < 1:
            raise ValueError(f"need two_s >= 1, got two_s={self.two_s}")

    @property
    def two_j_max(self) -> int:
        """Doubled total spin of the symmetric sector, 2*n*s."""
        return self.n * self.two_s

    @property
    def two_js(self) -> range:
        """2J of every sector, ascending: the keys of sector_multiplicities."""
        if self.n == 1:
            return range(self.two_s, self.two_s + 1)
        return range(self.two_j_max % 2, self.two_j_max + 1, 2)

    @property
    def dim(self) -> int:
        """Product Hilbert-space dimension (2s+1)**n, exact."""
        return (self.two_s + 1) ** self.n


@dataclass(frozen=True)
class SectorTable:
    """Multiplicity l_J of every total-spin sector of an ensemble."""

    ensemble: SpinEnsemble
    multiplicities: dict[int, int]  # two_j -> l_J


# Bounded: a table costs milliseconds to rebuild, while an unbounded cache
# keeps one for every ensemble a long-running process has ever seen.
@lru_cache(maxsize=16)
def sector_multiplicities(ensemble: SpinEnsemble) -> SectorTable:
    """Sector multiplicities l_J from the J_z-count polynomial.

    With d = two_s, c_k is the coefficient of x^k in P = Q^n, Q = 1 + x + ...
    + x^d: the number of product states with total J_z = ns - k. Since
    Q P' = n Q' P, Miller's recurrence (Knuth, TAOCP vol. 2, sec. 4.7) gives
    c_0 = 1 and k c_k = sum_{j=1..min(d,k)} (n j - (k - j)) c_{k-j}, with
    every division by k exact. c is symmetric, so only k <= n d / 2 is
    needed, and l_J = c_{ns-J} - c_{ns-J-1}. That is O(n d^2) integer
    operations in exact Python integers, for any n.
    """
    n, d = ensemble.n, ensemble.two_s
    c = [1]
    for k in range(1, n * d // 2 + 1):
        acc = 0
        for j in range(1, min(d, k) + 1):
            acc += (n * j - (k - j)) * c[k - j]
        c.append(acc // k)
    counts: dict[int, int] = {}
    for k in range(len(c) - 1, -1, -1):  # ascending two_j = n d - 2k
        l = c[k] - (c[k - 1] if k else 0)
        if l:
            counts[n * d - 2 * k] = l
    return SectorTable(ensemble, counts)


def log_block_partition_function(two_j: int, b: float) -> float:
    """log Z_J(b), with Z_J(b) = sum_{m=-J..J} e^{-m b} = sinh((J+1/2)b)/sinh(b/2).

    Even in b. Log-space evaluation keeps (J+1/2)|b| in the hundreds finite,
    and log_sinh stays accurate as b -> 0: one formula for every b but 0
    (and for J = 0, where Z_0 = 1 even at b = +-inf).
    """
    if two_j < 0:
        raise ValueError("two_j must be >= 0")
    half = 0.5 * abs(b)
    if two_j == 0 or half == 0.0:
        return math.log(two_j + 1.0)
    return log_sinh((two_j + 1) * half) - log_sinh(half)


def block_partition_function(two_j: int, b: float) -> float:
    """Partition function Z_J(b) of one spin-J ladder; >= 1, equals 2J+1 at b=0."""
    if b == 0.0:
        return float(two_j + 1)
    return math.exp(log_block_partition_function(two_j, b))


# how far from 1 the sector weights of a BlockWeights may sum
WEIGHT_SUM_TOL = 1e-9


class _ReadOnlyDict(dict):
    """A dict that refuses writes; unlike a MappingProxyType, it can be deep-copied."""

    def _read_only(self, *args):
        raise TypeError("sector weights are read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):  # copy and pickle rebuild it whole, not item by item
        return (_ReadOnlyDict, (dict(self),))


@dataclass(frozen=True)
class BlockWeights:
    """Probability weight p_J carried by each total-spin sector.

    Degeneracy-aggregated: every quantity downstream depends on the
    multiplicity copies only through their summed weight. Keeps its own
    read-only copy of the mapping, in ascending two_j: the order of every
    sector sum.
    """

    ensemble: SpinEnsemble
    weights: dict[int, float]  # two_j -> p_J, ascending two_j

    def __post_init__(self):
        two_js = self.ensemble.two_js
        total = 0.0
        for tj, p in self.weights.items():
            if tj not in two_js:
                raise ValueError(f"two_j={tj} is not a sector of {self.ensemble}")
            if not p >= 0.0:  # NaN fails here and in the sum check below
                raise ValueError(f"negative or NaN sector weight p[{tj}]={p}")
            total += p
        if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
            raise ValueError(f"sector weights must sum to 1, got {total!r}")
        object.__setattr__(self, "weights", _ReadOnlyDict(sorted(self.weights.items())))


def thermal_product_weights(ensemble: SpinEnsemble, b0: float) -> BlockWeights:
    """Sector weights of the product Gibbs state at initial inverse temperature b0.

    p_J = l_J Z_J(b0) / Z_s(b0)^n, since the product thermal state puts
    population e^{-m b0}/Z_s^n on every ladder level regardless of sector.
    For ensembles prepared deep in a thermal state, |b0| >> 1, the weight
    concentrates on the symmetric sector J = n s.
    """
    table = sector_multiplicities(ensemble)
    log_zs = log_block_partition_function(ensemble.two_s, b0)
    logw = {
        tj: math.log(l) + log_block_partition_function(tj, b0) - ensemble.n * log_zs
        for tj, l in table.multiplicities.items()
    }
    shift = max(logw.values())
    w = {tj: math.exp(lv - shift) for tj, lv in logw.items()}
    norm = sum(w.values())
    return BlockWeights(ensemble, {tj: v / norm for tj, v in w.items()})


def symmetric_weights(ensemble: SpinEnsemble) -> BlockWeights:
    """All weight in the symmetric (maximal-J) sector: the best-case preparation."""
    return BlockWeights(ensemble, {ensemble.two_j_max: 1.0})
