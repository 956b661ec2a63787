"""Brute-force product-basis helpers for tests.

Independent of the package's own dense oracle: builds the total-spin Casimir
directly and diagonalizes it inside each J_z eigenspace, giving sector
multiplicities and sector weights of diagonal states for dimensions up to
~1024. Also holds the iterated-coupling count of sector multiplicities, an
exact integer oracle for any n, and the per-sector loops that computed the
energy-measurement and projection Fisher information before ladder prefix
sums replaced them, and the random-weights strategies the property tests share.
"""

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from spinheat.sectors import (
    BlockWeights,
    SpinEnsemble,
    sector_multiplicities,
    symmetric_weights,
    thermal_product_weights,
)
from spinheat.special import ladder_boltzmann, ladder_two_m
from spinheat.thermo import block_energy


def _single_spin(two_s):
    m = np.arange(-two_s, two_s + 1, 2) * 0.5
    s = 0.5 * two_s
    jz = np.diag(m)
    jp = np.zeros((two_s + 1, two_s + 1))
    for i in range(two_s):
        jp[i + 1, i] = np.sqrt((s - m[i]) * (s + m[i] + 1))
    return jz, jp


def casimir_and_mvec(n, two_s):
    """Dense J^2 = Jz^2 + (J+J- + J-J+)/2 and the diagonal of 2*Jz."""
    jz1, jp1 = _single_spin(two_s)
    d1 = two_s + 1
    dim = d1**n
    jz = np.zeros((dim, dim))
    jp = np.zeros((dim, dim))
    for k in range(n):
        left = np.eye(d1**k)
        right = np.eye(d1 ** (n - k - 1))
        jz += np.kron(np.kron(left, jz1), right)
        jp += np.kron(np.kron(left, jp1), right)
    jm = jp.T
    j2 = jz @ jz + 0.5 * (jp @ jm + jm @ jp)
    return j2, np.rint(2.0 * np.diag(jz)).astype(int)


def sector_data(n, two_s):
    """(multiplicities, coeffs): l_J per two_j, and per-sector weight vectors.

    coeffs[two_j] dotted with the diagonal of a product-basis-diagonal state
    gives its sector weight p_J.
    """
    j2, two_mz = casimir_and_mvec(n, two_s)
    dim = j2.shape[0]
    mult: dict[int, int] = {}
    coeffs: dict[int, np.ndarray] = {}
    for two_m in np.unique(two_mz):
        idx = np.where(two_mz == two_m)[0]
        evals, evecs = np.linalg.eigh(j2[np.ix_(idx, idx)])
        for col, lam in enumerate(evals):
            two_j = int(round(np.sqrt(4.0 * lam + 1.0) - 1.0))
            if two_j == two_m:
                mult[two_j] = mult.get(two_j, 0) + 1
            w = coeffs.setdefault(two_j, np.zeros(dim))
            w[idx] += evecs[:, col] ** 2
    return mult, coeffs


def coupling_multiplicities(n, two_s):
    """Exact l_J per two_j by iterated angular-momentum coupling, O(n^2 s^2).

    Couples one spin at a time: a sector (two_j, count) feeds every
    two_j' in |two_j - two_s| .. two_j + two_s (step 2). Python integers
    throughout, so counts are exact for any n.
    """
    counts = {two_s: 1}
    for _ in range(n - 1):
        nxt = {}
        for tj, c in counts.items():
            for tj2 in range(abs(tj - two_s), tj + two_s + 1, 2):
                nxt[tj2] = nxt.get(tj2, 0) + c
        counts = nxt
    return dict(sorted(counts.items()))


def mvec_doubled(n, two_s):
    """Doubled total J_z per product-basis state (site index fastest-varying last)."""
    v = np.zeros(1, dtype=int)
    site = np.arange(-two_s, two_s + 1, 2)
    for _ in range(n):
        v = (v[:, None] + site[None, :]).ravel()
    return v


def thermal_diag(n, two_s, b0):
    """Diagonal of the product Gibbs state exp(-b0 Jz)/Z in the product basis."""
    expo = -0.5 * b0 * mvec_doubled(n, two_s)
    expo -= expo.max()
    w = np.exp(expo)
    return w / w.sum()


def all_small_ensembles(max_dim=1024):
    """Every (n, two_s) with n >= 1, two_s in 1..9 and (2s+1)^n <= max_dim."""
    out = []
    for two_s in range(1, 10):
        n = 1
        while (two_s + 1) ** n <= max_dim:
            out.append((n, two_s))
            n += 1
    return out


def fisher_energy_by_sector(weights, b):
    """Energy-measurement Fisher information (times T^2), one numpy pass per sector.

    Accumulates each sector's outcome probabilities p_J q_m and derivatives
    p_J q_m (e_J - m), with the closed-form e_J, then sums dprob^2 / prob.
    The score e_J - m is a difference of numbers of size J, so this loses
    relative accuracy at large |b| (up to 1e-9 at b = 13, 1e-2 at b = 30).
    """
    if b == 0.0:
        return 0.0
    tj_top = max(weights.weights)
    prob = np.zeros(tj_top + 1)
    dprob = np.zeros(tj_top + 1)
    for tj, p in weights.weights.items():
        if p == 0.0:
            continue
        q = ladder_boltzmann(tj, b)
        m = ladder_two_m(tj) * 0.5
        idx = np.searchsorted(ladder_two_m(tj_top), ladder_two_m(tj))  # same m on the top ladder
        e = block_energy(tj, b)
        prob[idx] += p * q
        dprob[idx] += p * q * (e - m)
    mask = prob > 0.0
    fb = float(np.sum(dprob[mask] ** 2 / prob[mask]))
    return b * b * fb


def fisher_projection_by_sector(weights, b):
    """(J, m)-projection Fisher information (times T^2), one numpy pass per sector.

    Sector J adds p_J sum_m q_m (e_J - m)^2 with the closed-form e_J.
    """
    if b == 0.0:
        return 0.0
    fb = 0.0
    for tj, p in weights.weights.items():
        q = ladder_boltzmann(tj, b)
        m = ladder_two_m(tj) * 0.5
        fb += p * float(np.dot(q, (block_energy(tj, b) - m) ** 2))
    return b * b * fb


small_ensembles = st.builds(SpinEnsemble, st.integers(1, 40), st.integers(1, 5))


@st.composite
def block_weights(draw):
    """Random weights, some of them zero, over the sectors of an ensemble with n <= 40, 2s <= 5."""
    ens = draw(small_ensembles)
    keys = sorted(sector_multiplicities(ens).multiplicities)
    raw = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                        min_size=len(keys), max_size=len(keys)))
    assume(sum(raw) > 0.0)
    return BlockWeights(ens, {tj: r / sum(raw) for tj, r in zip(keys, raw)})


def weights_of_every_kind():
    """Random weights with zeros, thermal weights at b0 in [-40, 40], or symmetric weights."""
    return st.one_of(
        block_weights(),
        st.builds(thermal_product_weights, small_ensembles, st.floats(-40.0, 40.0)),
        st.builds(symmetric_weights, small_ensembles),
    )
