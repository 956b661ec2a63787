"""Steady-state energy and heat capacity of collectively vs independently
thermalized spin ensembles.

Collective bath coupling freezes the sector weights, so the steady state is a
mixture of per-sector Gibbs ladders and its heat capacity is the weighted sum
of single-ladder capacities. Independent coupling thermalizes each spin on
its own, giving n copies of the single-spin capacity. Everything here is
dimensionless: energies in units of hbar*omega, capacities in units of k_B,
temperatures in units of hbar*omega/k_B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .sectors import BlockWeights, SpinEnsemble
from .special import coth, xcsch2

__all__ = [
    "HeatCapacityResult",
    "BracketError",
    "block_energy",
    "block_heat_capacity",
    "collective_heat_capacity",
    "independent_heat_capacity",
    "steady_state_energy",
    "independent_energy",
    "heat_capacity_ratio",
    "critical_temperature_approx",
    "critical_temperature_numeric",
]

# series/closed-form switch for (J+1/2)|b|; below this the closed form loses
# digits to cancellation of two terms that both approach 1/b (resp. 1)
_SMALL = 0.02


class BracketError(ArithmeticError):
    """Capacity-crossing root could not be bracketed or resolved."""


def block_energy(two_j: int, b: float) -> float:
    """Mean J_z of a spin-J Gibbs ladder, in units of hbar*omega.

    Closed form (1/2)coth(b/2) - (J+1/2)coth((J+1/2)b); odd in b, zero at
    b = 0, decreasing in b, saturating to -J as b -> +inf.
    """
    if two_j == 0 or b == 0.0:
        return 0.0
    jp = 0.5 * (two_j + 1)  # J + 1/2
    v = jp * b
    if abs(v) < _SMALL:
        jj = 0.25 * two_j * (two_j + 2)  # J(J+1)
        b2 = b * b
        return b * (
            -jj / 3.0
            + b2 * ((jp**4 - 0.0625) / 45.0 - b2 * 2.0 * (jp**6 - 1.0 / 64.0) / 945.0)
        )
    return 0.5 * coth(0.5 * b) - jp * coth(v)


def block_heat_capacity(two_j: int, b: float) -> float:
    """Heat capacity C_J/k_B of one spin-J Gibbs ladder.

    b^2 [ (1/2 / sinh(b/2))^2 - ((J+1/2)/sinh((J+1/2)b))^2 ], which reduces to
    a difference of (x/sinh x)^2 terms. Even in b; zero at b = 0 and for the
    trivial J = 0 sector; small-b limit (J(J+1)/3) b^2.
    """
    if two_j == 0 or b == 0.0:
        return 0.0
    ab = abs(b)
    u = 0.5 * ab
    v = 0.5 * (two_j + 1) * ab
    if v < _SMALL:
        u2, v2 = u * u, v * v
        return (
            (v2 - u2) / 3.0
            - (v2 * v2 - u2 * u2) / 15.0
            + 2.0 * (v2**3 - u2**3) / 189.0
        )
    return xcsch2(u) - xcsch2(v)


@dataclass(frozen=True)
class HeatCapacityResult:
    """Heat capacity in units of k_B."""

    c_over_kb: float


def collective_heat_capacity(weights: BlockWeights, b: float) -> HeatCapacityResult:
    """Weighted sector sum sum_J p_J C_J(b); the capacity of the collective steady state."""
    c = sum(p * block_heat_capacity(tj, b) for tj, p in weights.sorted_items())
    return HeatCapacityResult(c)


def independent_heat_capacity(ensemble: SpinEnsemble, b: float) -> HeatCapacityResult:
    """n times the single-spin capacity: independent coupling thermalizes each spin."""
    return HeatCapacityResult(ensemble.n * block_heat_capacity(ensemble.two_s, b))


def steady_state_energy(weights: BlockWeights, b: float) -> float:
    """Energy sum_J p_J e_J(b) of the collective steady state (hbar*omega units)."""
    return sum(p * block_energy(tj, b) for tj, p in weights.sorted_items())


def independent_energy(ensemble: SpinEnsemble, b: float) -> float:
    """Energy n e_s(b) of the product Gibbs state (hbar*omega units)."""
    return ensemble.n * block_energy(ensemble.two_s, b)


def heat_capacity_ratio(ensemble: SpinEnsemble, b: float) -> float:
    """Best-case collective over independent capacity, C_{J=ns}(b) / (n C_s(b)).

    Removable singularities are filled with the analytic limits:
    (ns+1)/(s+1) at b = 0 and 1/n when both capacities have decayed below
    the floating-point floor at large |b|.
    """
    if b == 0.0:
        return (ensemble.two_j_max + 2.0) / (ensemble.two_s + 2.0)
    den = ensemble.n * block_heat_capacity(ensemble.two_s, b)
    if den == 0.0:
        return 1.0 / ensemble.n
    return block_heat_capacity(ensemble.two_j_max, b) / den


def critical_temperature_approx(ensemble: SpinEnsemble) -> float:
    """Closed-form crossover temperature sqrt((4 n s (s+1) + 1)/12), units hbar*omega/k_B.

    Above this temperature the collective capacity (and with it the
    thermometric precision) beats the independent one.
    """
    n, ts = ensemble.n, ensemble.two_s
    return math.sqrt((n * ts * (ts + 2) + 1) / 12.0)


def critical_temperature_numeric(ensemble: SpinEnsemble) -> float:
    """Crossover temperature from the defining equality C_{ns}(b) = n C_s(b).

    Bisection on the sign change of the capacity gap, positive at small b and
    negative at large b with a single crossing for n >= 2, inside the bracket
    b in [0.5, 2] / critical_temperature_approx (the root lies within 9% of
    the closed form for 2s <= 5000, n <= 1e6). The gap subtracts n copies of
    a capacity near 1, so its rounding floor, and the accepted residual,
    grow like n eps. Returns 1/b_cr in units hbar*omega/k_B.
    """
    if ensemble.n < 2:
        raise ValueError("collective and independent capacities only cross for n >= 2")
    tjm, n, ts = ensemble.two_j_max, ensemble.n, ensemble.two_s

    def gap(b: float) -> float:
        return block_heat_capacity(tjm, b) - n * block_heat_capacity(ts, b)

    t_est = critical_temperature_approx(ensemble)
    lo, hi = 0.5 / t_est, 2.0 / t_est
    if not gap(lo) > 0.0 >= gap(hi):
        raise BracketError(f"no capacity crossing bracketed in b = [{lo!r}, {hi!r}] for {ensemble}")
    while hi - lo > 1e-15 * hi:
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    b_cr = 0.5 * (lo + hi)
    if not abs(gap(b_cr)) <= 64 * n * math.ulp(1.0):
        raise BracketError(f"crossing residual {gap(b_cr)!r} too large at b={b_cr}")
    return 1.0 / b_cr
