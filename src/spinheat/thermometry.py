"""Temperature-estimation bounds for a spin-ensemble probe in its steady state.

The figure of merit is the Fisher information about the bath temperature,
reported as the dimensionless combination F(T) * T^2 (which equals C/k_B for
the optimal measurement). Three measurement scenarios are covered: the
quantum optimum, a total-energy measurement, and the sector-resolved
projection that saturates the quantum bound for every preparation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sectors import BlockWeights
from .special import ladder_boltzmann, ladder_two_m
from .thermo import collective_heat_capacity

__all__ = [
    "FisherResult",
    "PrecisionBound",
    "ZeroInformationError",
    "block_moments",
    "qfi",
    "qfi_moment_form",
    "fisher_energy_measurement",
    "fisher_collective_projection",
    "min_relative_stddev",
]


class ZeroInformationError(ArithmeticError):
    """The steady state carries no temperature information; the bound diverges."""


@dataclass(frozen=True)
class FisherResult:
    """Fisher information about T scaled by T^2 (dimensionless)."""

    value: float


@dataclass(frozen=True)
class PrecisionBound:
    """Lower bound on the relative temperature error stddev(T)/T after nu measurements."""

    bound: float


def block_moments(two_j: int, b: float) -> tuple[float, float]:
    """Mean and variance of J_z on one Gibbs ladder, by direct summation.

    Deliberately independent of the closed forms in `thermo` (shifted-moment
    accumulation over the explicit level populations), so it can serve as the
    second route of the Fisher-information cross-check.
    """
    pops = ladder_boltzmann(two_j, b)
    m = ladder_two_m(two_j) * 0.5
    mean = float(np.dot(pops, m))
    var = float(np.dot(pops, (m - mean) ** 2))
    return mean, var


def qfi_moment_form(weights: BlockWeights, b: float) -> float:
    """Quantum Fisher information (times T^2) from second moments of J_z.

    b^2 <J_z^2> - b^2 * mean(e_J^2), grouped per sector for stability; this
    is the variance route, as opposed to the closed-form capacity route.
    """
    return b * b * sum(
        p * block_moments(tj, b)[1] for tj, p in weights.sorted_items()
    )


def qfi(weights: BlockWeights, b: float) -> FisherResult:
    """Quantum Fisher information about T, times T^2. Equals C^col/k_B.

    Evaluated through two independent routes (closed-form ladder capacities
    and direct ladder moments) which must agree; disagreement signals a
    numerical defect and raises ArithmeticError.
    """
    closed = collective_heat_capacity(weights, b).c_over_kb
    moment = qfi_moment_form(weights, b)
    if not abs(closed - moment) <= 1e-10 * max(1.0, abs(closed), abs(moment)):
        raise ArithmeticError(
            f"Fisher information cross-check failed: {closed!r} vs {moment!r}"
        )
    return FisherResult(closed)


def _ladder_moments(weights: BlockWeights, a: float):
    """Arrays over sectors of two_j, p_J, Z_J, <k>_J and <k^2>_J on Gibbs ladders at b = a >= 0.

    Counting levels from the bottom, k = m + J, every ladder's unnormalised
    populations are a prefix of one sequence g_k = exp(-k a), k = 0..2J_max.
    So Z_J, <k>_J and <k^2>_J are prefix sums of g, k g and k^2 g read at
    k = 2J: sums of positive terms, O(2J_max) for all sectors at once.
    """
    two_j, p = (np.array(col) for col in zip(*weights.sorted_items()))
    k = np.arange(two_j[-1] + 1, dtype=float)
    g = np.exp(-a * k)
    z = np.cumsum(g)[two_j]
    return two_j, p, z, np.cumsum(k * g)[two_j] / z, np.cumsum(k * k * g)[two_j] / z


def fisher_energy_measurement(weights: BlockWeights, b: float) -> FisherResult:
    """Fisher information (times T^2) of a total-energy measurement.

    The outcome m pools every sector with J >= |m|, which in general discards
    which-sector information; the result is below the quantum bound except
    when a single sector carries all the weight. Derivatives of the outcome
    distribution are analytic, via d(log Z_J)/db = -e_J, where e_J = mu_J - J
    is the direct-sum mean and mu_J = <m + J>_J.

    The information is even in b; with a = |b|, r = e^{-a}, w_J = p_J / Z_J
    and j = |m|, outcome m has probability e^{-(m+|m|)a} A(j) and score
    N(m) / A(j), where

        A(j) = sum_{J>=j} w_J r^(J-j),   M(j) = sum_{J>=j} w_J mu_J r^(J-j),
        C(j) = sum_{J>=j} w_J (J-j) r^(J-j),   N(m) = M(j) - C(j) - (m+|m|) A(j).

    This uses e_J - m = mu_J - (J-j) - (m+|m|), so no score is a difference
    of two numbers of size J. One backward recursion over j builds all three
    sums of positive terms, with C(j) = r (C(j+1) + A(j+1)). An outcome with
    A(j) = 0 adds nothing, and no probability is divided by.

    Cost: O(2J_max) array work and one scalar pass over the J_max + 1 values
    of j, with no array call per sector (about 2 ms at 1,486 sectors).
    Accuracy: within 5e-16 relative of a 60-digit reference on four thermal
    ensembles for |b| up to 30; forming e_J - m directly lost up to 8.6e-3
    relative there (at b = 30, 2e-6 at b = 20).
    """
    a = abs(b)
    two_j, p, z, mu, _ = _ladder_moments(weights, a)
    r = math.exp(-a)
    # index i of the sums stands for j = i, or i + 1/2 on half-integer ladders
    top = int(two_j[-1])
    w, w_mu = np.zeros(top // 2 + 1), np.zeros(top // 2 + 1)
    w[two_j // 2] = p / z
    w_mu[two_j // 2] = p / z * mu
    sums = []
    a_j = m_j = c_j = 0.0
    for wi, wmi in zip(reversed(w.tolist()), reversed(w_mu.tolist())):
        c_j = r * (c_j + a_j)
        a_j = wi + r * a_j
        m_j = wmi + r * m_j
        sums.append((a_j, m_j, c_j))
    big_a, big_m, big_c = np.array(sums[::-1]).T
    two_m = np.arange(-top, top + 1, 2)
    i = np.abs(two_m) // 2
    up = np.maximum(two_m, 0)  # m + |m|
    seen = big_a[i] > 0.0
    i, up = i[seen], up[seen]
    prob = np.exp(-a * up) * big_a[i]
    score = (big_m[i] - big_c[i]) / big_a[i] - up
    return FisherResult(b * b * float(np.dot(prob, score * score)))


def fisher_collective_projection(weights: BlockWeights, b: float) -> FisherResult:
    """Fisher information (times T^2) of the joint (J, m) projection.

    Resolving the sector restores the pooled information: this measurement
    saturates the quantum bound for every weight vector. Each outcome
    (J, m) has probability p_J q_m and score e_J - m, and e_J is the ladder's
    mean, so sector J adds p_J var_J, with the variance from prefix sums. No
    outcome probability is divided by, so one that underflows to zero
    simply adds nothing.
    """
    _, p, _, mu, k2 = _ladder_moments(weights, abs(b))
    return FisherResult(b * b * float(np.dot(p, k2 - mu * mu)))


def min_relative_stddev(weights: BlockWeights, b: float, nu: int = 1) -> PrecisionBound:
    """Cramer-Rao bound on the relative temperature error, 1/sqrt(nu C^col/k_B)."""
    if nu < 1:
        raise ValueError(f"need nu >= 1 measurements, got {nu}")
    c = collective_heat_capacity(weights, b).c_over_kb
    if c <= 0.0:
        raise ZeroInformationError(
            f"collective heat capacity vanishes at b={b}; no temperature bound"
        )
    return PrecisionBound(1.0 / math.sqrt(c) / math.sqrt(nu))
