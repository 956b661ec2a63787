"""Reference computations for the benchmark's correctness checks.

Nothing here imports spinheat: every quantity is recomputed from its
definition by a different route than the package takes (binomial and
generating-function counts instead of iterated coupling, direct sums over
ladder levels instead of closed forms, a symmetric tridiagonal eigensolver
and a sparse Krylov propagator instead of dense non-symmetric routines).
Angular momenta are doubled integers, as in the package's public API.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.sparse import block_diag, csr_matrix, diags
from scipy.sparse.linalg import expm_multiply


# --- sector multiplicities -------------------------------------------------

def multiplicities_half(n: int) -> dict[int, int]:
    """l_J for n spin-1/2: C(n, n/2 - J) - C(n, n/2 - J - 1), keyed by 2J."""
    out = {}
    for two_j in range(n % 2, n + 1, 2):
        k = (n - two_j) // 2
        out[two_j] = math.comb(n, k) - (math.comb(n, k - 1) if k else 0)
    return out


def m_counts(n: int, two_s: int) -> list[int]:
    """Coefficients of (1 + x + ... + x^{2s})^n: the number of product states per M.

    Index k holds 2M = 2k - 2ns. Evaluated exactly by Kronecker substitution:
    the polynomial is raised to the n-th power as one big integer whose
    byte-aligned digit blocks are the coefficients.
    """
    width = (n * (two_s + 1).bit_length() + 15) // 8
    base = sum(1 << (8 * width * i) for i in range(two_s + 1))
    raw = (base**n).to_bytes(width * (n * two_s + 1), "little")
    return [
        int.from_bytes(raw[i * width : (i + 1) * width], "little")
        for i in range(n * two_s + 1)
    ]


def multiplicities_from_m_counts(n: int, two_s: int) -> dict[int, int]:
    """l_J = c(M = J) - c(M = J + 1), keyed by 2J, zero entries dropped."""
    c = m_counts(n, two_s)
    top = n * two_s
    out = {}
    for k in range(top // 2 + 1):
        l = c[k] - (c[k - 1] if k else 0)
        if l:
            out[top - 2 * k] = l
    return out


def sum_rule_holds(n: int, two_s: int, table: dict[int, int]) -> bool:
    """Exact dimension count sum_J l_J (2J+1) == (2s+1)^n."""
    return sum(l * (tj + 1) for tj, l in table.items()) == (two_s + 1) ** n


# --- single ladders by direct summation over levels ------------------------

def _levels(two_j: int) -> np.ndarray:
    return 0.5 * np.arange(-two_j, two_j + 1, 2, dtype=float)


def ladder_moments(two_j: int, b) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of J_z on a Gibbs ladder at each b (shifted moments)."""
    b = np.atleast_1d(np.asarray(b, dtype=float))
    m = _levels(two_j)
    expo = -np.outer(b, m)
    expo -= expo.max(axis=1, keepdims=True)
    w = np.exp(expo)
    z = w.sum(axis=1)
    mean = (w @ m) / z
    d = m[None, :] - mean[:, None]
    var = (w * d * d).sum(axis=1) / z
    return mean, var


def ladder_capacity(two_j: int, b) -> np.ndarray:
    """C_J/k_B = b^2 Var(J_z), by direct summation."""
    b = np.atleast_1d(np.asarray(b, dtype=float))
    return b * b * ladder_moments(two_j, b)[1]


def ladder_energy(two_j: int, b) -> np.ndarray:
    """Mean J_z of a Gibbs ladder, by direct summation."""
    return ladder_moments(two_j, b)[0]


def log_ladder_partition(two_j: int, b: float) -> float:
    """log sum_m exp(-m b), as a shifted log-sum-exp over the levels."""
    expo = -b * _levels(two_j)
    top = float(expo.max())
    return top + math.log(float(np.exp(expo - top).sum()))


def ladder_gibbs(two_j: int, b: float) -> np.ndarray:
    """Gibbs populations, index i holding 2m = -2J + 2i."""
    expo = -b * _levels(two_j)
    w = np.exp(expo - expo.max())
    return w / w.sum()


def thermal_weights(n: int, two_s: int, table: dict[int, int], b0: float) -> dict[int, float]:
    """p_J = l_J Z_J(b0) / Z_s(b0)^n, normalised in log space."""
    log_zs = log_ladder_partition(two_s, b0)
    logw = {
        tj: math.log(l) + log_ladder_partition(tj, b0) - n * log_zs
        for tj, l in table.items()
    }
    top = max(logw.values())
    w = {tj: math.exp(v - top) for tj, v in logw.items()}
    norm = sum(w.values())
    return {tj: v / norm for tj, v in w.items()}


def mixture_moments(weights: dict[int, float], b) -> tuple[np.ndarray, np.ndarray]:
    """sum_J p_J e_J(b) and sum_J p_J C_J(b) at each b, by direct summation."""
    b = np.atleast_1d(np.asarray(b, dtype=float))
    energy = np.zeros_like(b)
    capacity = np.zeros_like(b)
    for tj, p in weights.items():
        if p > 0.0:
            mean, var = ladder_moments(tj, b)
            energy += p * mean
            capacity += p * b * b * var
    return energy, capacity


def energy_measurement_fisher(weights: dict[int, float], b: float) -> float:
    """b^2 sum_m (dP(m)/db)^2 / P(m) for the pooled outcome distribution of J_z.

    P(m) = sum_J p_J q_J(m) over the sectors holding level m; its derivative
    follows from d q_J(m)/db = q_J(m) (e_J - m).
    """
    top = max(tj for tj, p in weights.items() if p > 0.0)
    prob = np.zeros(top + 1)
    dprob = np.zeros(top + 1)
    for tj, p in weights.items():
        if p > 0.0:
            q = ladder_gibbs(tj, b)
            m = _levels(tj)
            at = slice((top - tj) // 2, (top + tj) // 2 + 1)
            prob[at] += p * q
            dprob[at] += p * q * (float(q @ m) - m)
    keep = prob > 0.0
    return float(b * b * np.sum(dprob[keep] ** 2 / prob[keep]))


# --- birth-death ladders ---------------------------------------------------

def _link_factors(two_j: int) -> np.ndarray:
    """(J - m)(J + m + 1) for the link between levels m and m + 1."""
    two_m = np.arange(-two_j, two_j, 2, dtype=float)
    return 0.25 * (two_j - two_m) * (two_j + two_m + 2)


def ladder_gap(two_j: int, g_down: float, g_up: float) -> float:
    """Smallest nonzero decay rate of one ladder, from its symmetrised form.

    The birth-death generator is similar to a symmetric tridiagonal matrix
    with off-diagonals fac * sqrt(g_up g_down), so its spectrum comes from a
    symmetric eigensolver; the largest eigenvalue is the zero mode.
    """
    if two_j == 0:
        return math.inf
    fac = _link_factors(two_j)
    diag = np.zeros(two_j + 1)
    diag[:-1] -= g_up * fac
    diag[1:] -= g_down * fac
    ev = np.sort(eigvalsh_tridiagonal(diag, fac * math.sqrt(g_up * g_down)))
    return float(-ev[-2])


def ladder_operator(two_j: int, g_down: float, g_up: float):
    """Sparse rate matrix (columns sum to zero) built from the link rates."""
    if two_j == 0:
        return csr_matrix((1, 1))
    fac = _link_factors(two_j)
    diag = np.zeros(two_j + 1)
    diag[:-1] -= g_up * fac
    diag[1:] -= g_down * fac
    return diags([g_up * fac, diag, g_down * fac], [-1, 0, 1], format="csr")


def propagate(blocks: dict[int, np.ndarray], g_down: float, g_up: float,
              stop: float, num: int) -> list[dict[int, np.ndarray]]:
    """Populations at num evenly spaced times from 0 to stop.

    Krylov action (Al-Mohy & Higham) of the sparse block-diagonal generator
    on all sectors at once, so the step count is set by the stiffest ladder.
    Always starts at t = 0: with start > 0, scipy 1.17's expm_multiply loses
    the state on stiff ladders.
    """
    keys = sorted(blocks)
    op = block_diag([ladder_operator(tj, g_down, g_up) for tj in keys], format="csr")
    rows = expm_multiply(op, np.concatenate([blocks[tj] for tj in keys]),
                         start=0.0, stop=stop, num=num, endpoint=True)
    cuts = np.cumsum([tj + 1 for tj in keys])[:-1]
    return [dict(zip(keys, np.split(row, cuts))) for row in rows]


def stationary(blocks: dict[int, np.ndarray], b: float) -> dict[int, np.ndarray]:
    """Per-sector Gibbs populations carrying each sector's mass."""
    return {tj: float(p.sum()) * ladder_gibbs(tj, b) for tj, p in blocks.items()}


def tv_distance(a: dict[int, np.ndarray], b: dict[int, np.ndarray]) -> float:
    return 0.5 * sum(float(np.abs(a[tj] - b[tj]).sum()) for tj in a)
