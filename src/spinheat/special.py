"""Numerically stable scalar kernels used throughout the package.

Temperatures enter only through the dimensionless combination
b = hbar*omega/(k_B*T); angular momenta are carried as doubled integers
(two_j = 2J) so half-integer spins stay exact.
"""

from __future__ import annotations

import math

import numpy as np

_LOG2 = math.log(2.0)


def log_sinh(x: float) -> float:
    """log(sinh x) for x > 0, overflow-free; expm1 keeps it accurate down to subnormal x."""
    if x <= 0.0:
        raise ValueError("log_sinh needs x > 0")
    return x + math.log(-math.expm1(-2.0 * x)) - _LOG2


def coth(x: float) -> float:
    """Hyperbolic cotangent; tanh saturates, so this never overflows."""
    return 1.0 / math.tanh(x)


def xcsch2(x: float) -> float:
    """(x / sinh x)**2 via 4 x^2 e^{-2x} / (1 - e^{-2x})^2.

    Accurate from the x -> 0 limit (value 1) down to where the true value
    underflows; 0.0 once e^{-2x} underflows, where 4 x^2 may be inf.
    """
    x = abs(x)
    if x == 0.0:
        return 1.0
    e = math.exp(-2.0 * x)
    if e == 0.0:
        return 0.0
    d = -math.expm1(-2.0 * x)
    return 4.0 * x * x * e / (d * d)


def ladder_two_m(two_j: int) -> np.ndarray:
    """Doubled magnetic numbers -two_j, -two_j+2, ..., two_j (ascending)."""
    return np.arange(-two_j, two_j + 1, 2)


def ladder_boltzmann(two_j: int, b: float) -> np.ndarray:
    """Normalized Gibbs populations exp(-m*b)/Z along one spin-J ladder.

    Index i holds two_m = -two_j + 2*i. Evaluated with a shifted exponent so
    large |b| never overflows; b = +inf (-inf) puts all weight on the bottom
    (top) level.
    """
    if math.isinf(b):
        w = np.zeros(two_j + 1)
        w[0 if b > 0.0 else -1] = 1.0
        return w
    expo = ladder_two_m(two_j) * (-0.5 * b)
    expo -= expo.max()
    w = np.exp(expo)
    return w / w.sum()
