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
from .thermo import block_energy, collective_heat_capacity

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
    """Fisher information about T scaled by T^2 (dimensionless).

    kind is one of "qfi", "energy", "projection".
    """

    value: float
    b: float
    kind: str


@dataclass(frozen=True)
class PrecisionBound:
    """Lower bound on the relative temperature error stddev(T)/T.

    min_rel_stddev is the single-measurement (nu = 1) value; repeating the
    measurement nu times tightens the bound by 1/sqrt(nu).
    """

    min_rel_stddev: float
    nu: int

    @property
    def bound(self) -> float:
        return self.min_rel_stddev / math.sqrt(self.nu)


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
    if abs(closed - moment) > 1e-10 * max(1.0, abs(closed), abs(moment)):
        raise ArithmeticError(
            f"Fisher information cross-check failed: {closed!r} vs {moment!r}"
        )
    return FisherResult(closed, b, "qfi")


def fisher_energy_measurement(weights: BlockWeights, b: float) -> FisherResult:
    """Fisher information (times T^2) of a total-energy measurement.

    The outcome m pools every sector with J >= |m|, which in general discards
    which-sector information; the result is below the quantum bound except
    when a single sector carries all the weight. Derivatives of the outcome
    distribution are analytic, via d(log Z_J)/db = -e_J.
    """
    if b == 0.0:
        return FisherResult(0.0, b, "energy")
    tj_top = weights.max_two_j()
    prob = np.zeros(tj_top + 1)
    dprob = np.zeros(tj_top + 1)
    for tj, p in weights.sorted_items():
        if p == 0.0:
            continue
        q = ladder_boltzmann(tj, b)
        m = ladder_two_m(tj) * 0.5
        idx = (ladder_two_m(tj) + tj_top) // 2
        e = block_energy(tj, b)
        prob[idx] += p * q
        dprob[idx] += p * q * (e - m)
    mask = prob > 0.0
    fb = float(np.sum(dprob[mask] ** 2 / prob[mask]))
    return FisherResult(b * b * fb, b, "energy")


def fisher_collective_projection(weights: BlockWeights, b: float) -> FisherResult:
    """Fisher information (times T^2) of the joint (J, m) projection.

    Resolving the sector restores the pooled information: this measurement
    saturates the quantum bound for every weight vector. Each outcome
    (J, m) has probability p_J q_m and score e_J - m, so sector J adds
    p_J sum_m q_m (e_J - m)^2; written this way no outcome probability is
    divided by, and one that underflows to zero simply adds nothing.
    """
    if b == 0.0:
        return FisherResult(0.0, b, "projection")
    fb = 0.0
    for tj, p in weights.sorted_items():
        q = ladder_boltzmann(tj, b)
        m = ladder_two_m(tj) * 0.5
        fb += p * float(np.dot(q, (block_energy(tj, b) - m) ** 2))
    return FisherResult(b * b * fb, b, "projection")


def min_relative_stddev(weights: BlockWeights, b: float, nu: int = 1) -> PrecisionBound:
    """Cramer-Rao bound on the relative temperature error, 1/sqrt(nu C^col/k_B)."""
    if nu < 1:
        raise ValueError(f"need nu >= 1 measurements, got {nu}")
    c = collective_heat_capacity(weights, b).c_over_kb
    if c <= 0.0:
        raise ZeroInformationError(
            f"collective heat capacity vanishes at b={b}; no temperature bound"
        )
    return PrecisionBound(1.0 / math.sqrt(c), nu)
