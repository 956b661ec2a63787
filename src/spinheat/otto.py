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
from dataclasses import dataclass

from .sectors import BlockWeights, SpinEnsemble, symmetric_weights
from .special import xcsch2
from .thermo import (
    collective_heat_capacity,
    critical_temperature_approx,
    independent_energy,
    independent_heat_capacity,
    steady_state_energy,
)

__all__ = [
    "OttoParams",
    "CycleResult",
    "cycle_exact",
    "work_near_carnot",
    "work_max_bounds",
    "work_saturation_bound",
    "critical_spin_number",
    "critical_compression",
    "power_near_carnot",
]

_MODES = ("collective", "independent")


@dataclass(frozen=True)
class OttoParams:
    """Cycle parameters: compression factors and bath inverse temperatures."""

    lambda_c: float
    lambda_h: float
    b_c: float
    b_h: float

    def __post_init__(self):
        for name in ("lambda_c", "lambda_h", "b_c", "b_h"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be finite and > 0, got {value}")

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


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")


def _stroke_energy(weights: BlockWeights, theta: float, mode: str) -> float:
    if mode == "independent":
        return independent_energy(weights.ensemble, theta)
    return steady_state_energy(weights, theta)


def cycle_exact(
    weights: BlockWeights, params: OttoParams, mode: str = "collective"
) -> CycleResult:
    """Exact per-cycle work and heats from the two isochore endpoint energies.

    work_extracted = (lambda_h - lambda_c) [E(theta_h) - E(theta_c)]; positive
    exactly in the extraction regime. The independent mode runs the same
    cycle on the product-thermal energies n e_s instead of the sector mixture.
    """
    _check_mode(mode)
    de = _stroke_energy(weights, params.theta_h, mode) - _stroke_energy(
        weights, params.theta_c, mode
    )
    return CycleResult(
        work_extracted=(params.lambda_h - params.lambda_c) * de,
        heat_hot=params.lambda_h * de,
        heat_cold=-params.lambda_c * de,
    )


def work_near_carnot(
    weights: BlockWeights, params: OttoParams, mode: str = "collective"
) -> float:
    """First-order extracted work near the Carnot point.

    delta_eta * lambda_h^2 * (b_c - b_h) * C(theta_h) / theta_h^2, with C the
    collective or independent capacity; matches cycle_exact up to
    O(delta_eta^2).
    """
    _check_mode(mode)
    if mode == "independent":
        c = independent_heat_capacity(weights.ensemble, params.theta_h).c_over_kb
    else:
        c = collective_heat_capacity(weights, params.theta_h).c_over_kb
    return (
        params.delta_eta
        * params.lambda_h**2
        * (params.b_c - params.b_h)
        * c
        / params.theta_h**2
    )


def work_max_bounds(
    ensemble: SpinEnsemble, delta_eta: float, lambda_h: float, b_c: float
) -> tuple[float, float]:
    """Hot-bath-optimized work ceilings (independent, collective).

    Reached as b_h -> 0: delta_eta lambda_h^2 b_c / 12 times n[(2s+1)^2 - 1]
    and [(2ns+1)^2 - 1]; their ratio is (ns+1)/(s+1) exactly.
    """
    if delta_eta < 0.0 or lambda_h <= 0.0 or b_c <= 0.0:
        raise ValueError("need delta_eta >= 0, lambda_h > 0, b_c > 0")
    pref = delta_eta * lambda_h**2 * b_c / 12.0
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
    th = params.theta_h
    return (
        params.delta_eta
        * params.lambda_h**2
        * (params.b_c - params.b_h)
        * xcsch2(0.5 * th)
        / (th * th)
    )


def critical_spin_number(t_h_over_lambda: float, two_s: int) -> float:
    """Ensemble size above which the independent engine out-works the collective one.

    (3 t^2 - 1/4)/(s(s+1)) with t = k_B T_h / (hbar omega lambda_h); inverts
    the capacity-crossover temperature at the hot isochore.
    """
    if t_h_over_lambda <= 0.0:
        raise ValueError("need a positive hot-bath temperature")
    if two_s < 1:
        raise ValueError("need two_s >= 1")
    return (12.0 * t_h_over_lambda**2 - 1.0) / (two_s * (two_s + 2))


def critical_compression(t_h: float, ensemble: SpinEnsemble) -> float:
    """Compression factor above which the collective engine under-performs per cycle.

    t_h / T_cr(n, s), with t_h = k_B T_h / (hbar omega).
    """
    if t_h <= 0.0:
        raise ValueError("need a positive hot-bath temperature")
    return t_h / critical_temperature_approx(ensemble)


def power_near_carnot(
    ensemble: SpinEnsemble, params: OttoParams, tau_ind: float, mode: str
) -> float:
    """Output power near the Carnot point, with the collective cycle n-fold faster.

    Independent: W_ind / tau_ind. Collective: n W_col^+ / tau_ind, using the
    best-case symmetric preparation and the n-fold equilibration speed-up
    (tau_col = tau_ind / n). The collective/independent ratio is
    C_{ns}(theta_h)/C_s(theta_h) >= 1, approaching n(ns+1)/(s+1) as
    theta_h -> 0 and 1 as theta_h -> infinity.
    """
    _check_mode(mode)
    if tau_ind <= 0.0:
        raise ValueError(f"tau_ind must be > 0, got {tau_ind}")
    weights = symmetric_weights(ensemble)
    if mode == "independent":
        return work_near_carnot(weights, params, "independent") / tau_ind
    return ensemble.n * work_near_carnot(weights, params, "collective") / tau_ind
