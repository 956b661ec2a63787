"""Quantum Otto cycle on a spin ensemble working medium.

Two isentropic strokes sweep the compression factor between lambda_c and
lambda_h; two isochoric strokes thermalize against cold/hot baths at
dimensionless inverse temperatures b_c, b_h. With collective bath coupling
the isochores land on the sector-frozen steady state instead of the Gibbs
state, so per-cycle work is controlled by the collective heat capacity at
theta_h = lambda_h * b_h. All outputs are in units of hbar*omega; extracted
work is reported positive.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .sectors import BlockWeights, SpinEnsemble, symmetric_weights
from .special import xcsch2
from .thermo import collective_heat_capacity, critical_temperature_approx, steady_state_energy

__all__ = [
    "OttoParams",
    "CycleResult",
    "cycle_exact",
    "normalized_work",
    "work_near_carnot",
    "work_max_bounds",
    "work_saturation_bound",
    "critical_spin_number",
    "critical_compression",
    "power_near_carnot",
]


def _check_positive(**values: float) -> None:
    """ValueError naming the first value that is not finite and > 0 (NaN included)."""
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class OttoParams:
    """Cycle parameters: compression factors and bath inverse temperatures."""

    lambda_c: float
    lambda_h: float
    b_c: float
    b_h: float

    def __post_init__(self):
        _check_positive(lambda_c=self.lambda_c, lambda_h=self.lambda_h, b_c=self.b_c, b_h=self.b_h)

    @property
    def theta_c(self) -> float:
        return self.lambda_c * self.b_c

    @property
    def theta_h(self) -> float:
        return self.lambda_h * self.b_h

    @property
    def efficiency(self) -> float:
        return 1.0 - self.lambda_c / self.lambda_h

    @property
    def carnot_efficiency(self) -> float:
        return 1.0 - self.b_h / self.b_c

    @property
    def delta_eta(self) -> float:
        """Gap to the Carnot efficiency, lambda_c/lambda_h - b_h/b_c."""
        return self.lambda_c / self.lambda_h - self.b_h / self.b_c

    @property
    def extraction_regime(self) -> bool:
        """True when 1 < lambda_h/lambda_c < b_c/b_h, i.e. the cycle can output work."""
        return self.lambda_h > self.lambda_c and self.theta_h < self.theta_c


@dataclass(frozen=True)
class CycleResult:
    """Per-cycle energy accounting, hbar*omega units, extracted work positive."""

    work_extracted: float
    heat_hot: float
    heat_cold: float


def cycle_exact(weights: BlockWeights, params: OttoParams) -> CycleResult:
    """Exact per-cycle work and heats from the two isochore endpoint energies.

    work_extracted = (lambda_h - lambda_c) [E(theta_h) - E(theta_c)]; positive
    exactly in the extraction regime. n independently coupled spins are n
    one-spin engines: n times the cycle of symmetric_weights(SpinEnsemble(1, two_s)).
    """
    de = steady_state_energy(weights, params.theta_h) - steady_state_energy(
        weights, params.theta_c
    )
    return CycleResult(
        work_extracted=(params.lambda_h - params.lambda_c) * de,
        heat_hot=params.lambda_h * de,
        heat_cold=-params.lambda_c * de,
    )


def normalized_work(c: float, theta_h: float) -> float:
    """C(theta_h) / theta_h^2, the near-Carnot work per unit prefactor.

    0.0 where theta_h**2 overflows (|theta_h| > ~1.3e154), as c / inf would be;
    ArithmeticError where it underflows (|theta_h| < ~1.5e-154).
    """
    try:
        theta2 = theta_h**2
    except OverflowError:
        return 0.0
    if theta2 < sys.float_info.min:
        raise ArithmeticError(f"theta_h = {theta_h!r} is too small: theta_h**2 underflows")
    return c / theta2


def _near_carnot_work(params: OttoParams, c: float) -> float:
    """delta_eta * lambda_h^2 * (b_c - b_h) * normalized_work(c, theta_h).

    lambda_h^2 / theta_h^2 = 1 / b_h^2, so it is formed as
    delta_eta (b_c - b_h) * c / b_h^2: finite where only lambda_h**2 overflows,
    and 0.0, not NaN, where either factor is 0.0 and the other overflows.
    """
    normalized_work(c, params.theta_h)  # raises where theta_h**2 underflows
    gap = (params.b_c - params.b_h) * params.delta_eta
    w = c / params.b_h / params.b_h
    return 0.0 if gap == 0.0 or w == 0.0 else gap * w


def work_near_carnot(weights: BlockWeights, params: OttoParams) -> float:
    """First-order extracted work near the Carnot point.

    delta_eta * lambda_h^2 * (b_c - b_h) * C(theta_h) / theta_h^2, with C the
    collective capacity of the weights; matches cycle_exact up to
    O(delta_eta^2).
    """
    return _near_carnot_work(params, collective_heat_capacity(weights, params.theta_h).c_over_kb)


def work_max_bounds(
    ensemble: SpinEnsemble, delta_eta: float, lambda_h: float, b_c: float
) -> tuple[float, float]:
    """Hot-bath-optimized work ceilings (independent, collective).

    Reached as b_h -> 0: delta_eta lambda_h^2 b_c / 12 times n[(2s+1)^2 - 1]
    and [(2ns+1)^2 - 1]; their ratio is (ns+1)/(s+1) exactly.
    """
    if not (math.isfinite(delta_eta) and delta_eta >= 0.0):
        raise ValueError(f"delta_eta must be finite and >= 0, got {delta_eta}")
    _check_positive(lambda_h=lambda_h, b_c=b_c)
    pref = delta_eta * lambda_h * lambda_h * b_c / 12.0  # inf on overflow, 0.0 at delta_eta = 0
    w_ind = pref * ensemble.n * ((ensemble.two_s + 1) ** 2 - 1)
    w_col = pref * ((ensemble.two_j_max + 1) ** 2 - 1)
    return w_ind, w_col


def work_saturation_bound(params: OttoParams) -> float:
    """Size-independent ceiling on the collective near-Carnot work.

    delta_eta lambda_h^2 (b_c - b_h) (1/(2 sinh(theta_h/2)))^2: the large-J
    limit of C_J(theta_h)/theta_h^2. Growing the ensemble at fixed theta_h
    only saturates this bound, which is why collective effects cannot buy
    finite power at the Carnot point.
    """
    return _near_carnot_work(params, xcsch2(0.5 * params.theta_h))


def critical_spin_number(t_h_over_lambda: float, two_s: int) -> float:
    """Ensemble size above which the independent engine out-works the collective one.

    (3 t^2 - 1/4)/(s(s+1)) with t = k_B T_h / (hbar omega lambda_h); inverts
    the capacity-crossover temperature at the hot isochore.
    """
    _check_positive(t_h_over_lambda=t_h_over_lambda)
    if two_s < 1:
        raise ValueError("need two_s >= 1")
    return (12.0 * t_h_over_lambda * t_h_over_lambda - 1.0) / (two_s * (two_s + 2))


def critical_compression(t_h: float, ensemble: SpinEnsemble) -> float:
    """Compression factor above which the collective engine under-performs per cycle.

    t_h / T_cr(n, s), with t_h = k_B T_h / (hbar omega).
    """
    _check_positive(t_h=t_h)
    return t_h / critical_temperature_approx(ensemble)


def power_near_carnot(ensemble: SpinEnsemble, params: OttoParams, tau_ind: float) -> float:
    """Collective output power near the Carnot point, n W_col^+ / tau_ind.

    Uses the best-case symmetric preparation and the n-fold equilibration
    speed-up (tau_col = tau_ind / n). The independent engine is n one-spin
    engines, n * power_near_carnot(SpinEnsemble(1, two_s), params, tau_ind);
    the collective/independent ratio is C_{ns}(theta_h)/C_s(theta_h) >= 1,
    approaching n(ns+1)/(s+1) as theta_h -> 0 and 1 as theta_h -> infinity.
    """
    _check_positive(tau_ind=tau_ind)
    return ensemble.n * work_near_carnot(symmetric_weights(ensemble), params) / tau_ind
