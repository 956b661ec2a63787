"""Dense product-basis reference implementation for small ensembles.

Builds the collective operators and the full total-spin eigenstructure
explicitly, and propagates the complete master equation by the action of its
sparse Liouvillian (scipy's `expm_multiply`), so that the fast
sector-population code can be validated against an entirely independent
route. Capped at Hilbert dimension 64; the package guarantees nothing above
that and raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

from .dynamics import ConvergenceError, PopulationState, RatePair
from .special import ladder_boltzmann, ladder_two_m
from .sectors import SpinEnsemble

__all__ = [
    "DIM_CAP",
    "DensityMatrix",
    "collective_operators",
    "product_thermal_state",
    "state_from_populations",
    "sector_isometries",
    "sector_populations",
    "expected_steady_state",
    "trajectory",
    "steady_state",
    "trace_distance",
]

DIM_CAP = 64

_T_MAX = 1e6  # steady_state gives up past this time, units 1/G(omega)


def _check_dim(ensemble: SpinEnsemble) -> int:
    dim = ensemble.dim
    if dim > DIM_CAP:
        # (2s+1)**n, not its digits: str() refuses an int of over 4300 of them
        raise ValueError(f"Hilbert dimension {ensemble.two_s + 1}**{ensemble.n} exceeds the "
                         f"dense-oracle cap {DIM_CAP}")
    return dim


def _single_spin(two_s: int) -> tuple[np.ndarray, np.ndarray]:
    """(j_z, j_plus) for one spin, basis ordered by ascending two_m."""
    m = ladder_two_m(two_s) * 0.5
    jz = np.diag(m)
    jp = np.zeros((two_s + 1, two_s + 1))
    s = 0.5 * two_s
    for i in range(two_s):
        jp[i + 1, i] = math.sqrt((s - m[i]) * (s + m[i] + 1))
    return jz, jp


@lru_cache(maxsize=None)
def collective_operators(ensemble: SpinEnsemble) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(J_z, J_plus, J_minus) in the product basis."""
    dim = _check_dim(ensemble)
    jz1, jp1 = _single_spin(ensemble.two_s)
    d1 = ensemble.two_s + 1
    jz = np.zeros((dim, dim))
    jp = np.zeros((dim, dim))
    for k in range(ensemble.n):
        left = np.eye(d1**k)
        right = np.eye(d1 ** (ensemble.n - k - 1))
        jz += np.kron(np.kron(left, jz1), right)
        jp += np.kron(np.kron(left, jp1), right)
    return jz, jp, jp.T.copy()


@dataclass(frozen=True)
class DensityMatrix:
    """Dense density operator in the product basis, validated on construction."""

    ensemble: SpinEnsemble
    matrix: np.ndarray

    def __post_init__(self):
        dim = _check_dim(self.ensemble)
        m = self.matrix
        if m.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} matrix, got {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > 1e-9:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > 1e-9:
            raise ValueError(f"trace must be 1, got {np.trace(m)!r}")
        if np.linalg.eigvalsh(m).min() < -1e-10:
            raise ValueError("density matrix has a negative eigenvalue")

    def energy(self) -> float:
        """Tr[J_z rho] in hbar*omega units."""
        jz, _, _ = collective_operators(self.ensemble)
        return float(np.trace(jz @ self.matrix).real)


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def product_thermal_state(ensemble: SpinEnsemble, b0: float) -> DensityMatrix:
    """Product Gibbs state exp(-b0 J_z)/Z in the product basis."""
    jz, _, _ = collective_operators(ensemble)
    expo = -b0 * np.diag(jz)
    expo -= expo.max()
    w = np.exp(expo)
    return DensityMatrix(ensemble, np.diag(w / w.sum()).astype(complex))


@lru_cache(maxsize=None)
def sector_isometries(ensemble: SpinEnsemble) -> dict[int, list[np.ndarray]]:
    """Isometries onto every (J, m) eigenspace, ladder-consistent across m.

    For each sector the m = J level is an eigenspace of the total-spin
    Casimir inside the top J_z eigenspace; lower levels are generated by
    applying J_minus, which keeps the degeneracy index aligned between
    neighboring m. Returns {two_j: [V_0, ..., V_2J]} in level order (V_i at
    two_m = ladder_two_m(two_j)[i], the order of every population vector),
    each V of shape (dim, l_J).
    """
    jz, jp, jm = collective_operators(ensemble)
    dim = ensemble.dim
    j2 = jz @ jz + 0.5 * (jp @ jm + jm @ jp)
    two_mz = np.rint(2.0 * np.diag(jz)).astype(int)

    # eigenvectors of the Casimir within each J_z eigenspace, grouped by J
    top: dict[int, dict[int, np.ndarray]] = {}
    for two_m in np.unique(two_mz):
        idx = np.where(two_mz == two_m)[0]
        evals, evecs = np.linalg.eigh(j2[np.ix_(idx, idx)])
        full = np.zeros((dim, len(idx)))
        full[idx, :] = evecs
        for col, lam in enumerate(evals):
            two_j = int(round(math.sqrt(4.0 * lam + 1.0) - 1.0))
            top.setdefault(two_j, {}).setdefault(int(two_m), []).append(full[:, col])

    iso: dict[int, list[np.ndarray]] = {}
    for two_j, by_m in top.items():
        v = np.column_stack(by_m[two_j])  # the m = J level
        ladder = [v]
        j = 0.5 * two_j
        for two_m in range(two_j, -two_j, -2):
            m = 0.5 * two_m
            v = (jm @ v) / math.sqrt((j + m) * (j - m + 1))
            ladder.append(v)
        iso[two_j] = ladder[::-1]
    return iso


def sector_populations(rho: DensityMatrix) -> PopulationState:
    """Degeneracy-aggregated (J, m) populations Tr[P_{J,m} rho]."""
    return PopulationState({
        tj: np.array([max(float(np.trace(v.T @ rho.matrix @ v).real), 0.0) for v in ladder])
        for tj, ladder in sector_isometries(rho.ensemble).items()
    })


def state_from_populations(state: PopulationState, ensemble: SpinEnsemble) -> DensityMatrix:
    """Diagonal density matrix realizing given (J, m) populations.

    Each population is spread evenly over its degeneracy copies, so the state
    carries no inter-degeneracy coherences.
    """
    iso = sector_isometries(ensemble)
    out = np.zeros((ensemble.dim, ensemble.dim), dtype=complex)
    for tj, p in state.blocks.items():
        for p_m, v in zip(p, iso[tj]):
            out += (p_m / v.shape[1]) * (v @ v.T)
    return DensityMatrix(ensemble, out)


def expected_steady_state(rho0: DensityMatrix, rates: RatePair) -> DensityMatrix:
    """Analytic long-time state of the collective dissipation.

    Per sector, the ladder factor relaxes to the Gibbs distribution while the
    multiplicity-space matrix sigma_J (the partial trace of rho0 over the
    ladder) is conserved: rho_ss = sum_{J,m} pi_J(m) V_{J,m} sigma_J V_{J,m}^T.
    For initial states without inter-degeneracy coherences this is exactly
    the sector-weighted mixture of Gibbs ladders.
    """
    dim = rho0.ensemble.dim
    out = np.zeros((dim, dim), dtype=complex)
    for tj, ladder in sector_isometries(rho0.ensemble).items():
        sigma = sum(v.T @ rho0.matrix @ v for v in ladder)
        for pi_m, v in zip(ladder_boltzmann(tj, rates.bath_b), ladder):
            out += pi_m * (v @ sigma @ v.T)
    return DensityMatrix(rho0.ensemble, _hermitize(out))


def _liouvillian(ensemble: SpinEnsemble, rates: RatePair) -> sparse.csr_matrix:
    """Sparse superoperator of the collective dissipator on row-major vec(rho)."""
    _, jp, jm = (sparse.csr_matrix(a) for a in collective_operators(ensemble))
    eye = sparse.identity(ensemble.dim, format="csr")
    jpjm = jp @ jm
    jmjp = jm @ jp

    def sandwich(a, b):  # vec(A rho B) = (A kron B^T) vec(rho), row-major
        return sparse.kron(a, b.T, format="csr")

    down = sandwich(jm, jp) - 0.5 * (sandwich(jpjm, eye) + sandwich(eye, jpjm))
    up = sandwich(jp, jm) - 0.5 * (sandwich(jmjp, eye) + sandwich(eye, jmjp))
    return rates.g_down * down + rates.g_up * up


def _propagate(liou: sparse.csr_matrix, rho: DensityMatrix, t: float) -> DensityMatrix:
    """exp(L t) applied to rho."""
    vec = expm_multiply(liou * t, rho.matrix.ravel())
    return DensityMatrix(rho.ensemble, _hermitize(vec.reshape(rho.ensemble.dim, -1)))


def trajectory(
    rho0: DensityMatrix, rates: RatePair, times: np.ndarray
) -> list[DensityMatrix]:
    """Propagate the full master equation through the given times (ascending, from 0)."""
    steps = np.diff(np.asarray(times, dtype=float), prepend=0.0)
    if np.any(steps < 0.0):
        raise ValueError("times must be ascending and nonnegative")
    liou = _liouvillian(rho0.ensemble, rates)
    out = []
    rho = rho0
    for dt in steps.tolist():
        rho = _propagate(liou, rho, dt)
        out.append(rho)
    return out


def steady_state(rho0: DensityMatrix, rates: RatePair, tol: float = 1e-9) -> DensityMatrix:
    """Long-time state of the master equation, propagated until stationary.

    Doubling time chunks until one more chunk moves the state by less than
    tol/10 in trace distance.
    """
    liou = _liouvillian(rho0.ensemble, rates)
    rho = rho0
    t_chunk = 1.0 / rates.g_down
    elapsed = 0.0
    while elapsed < _T_MAX:
        nxt = _propagate(liou, rho, t_chunk)
        moved = trace_distance(rho, nxt)
        rho = nxt
        elapsed += t_chunk
        t_chunk *= 2.0
        if moved < 0.1 * tol:
            return rho
    raise ConvergenceError(f"no steady state within t = {_T_MAX}/G(omega)")


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """(1/2)||a - b||_1 for Hermitian density matrices."""
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a.matrix - b.matrix))))
