"""Each benchmark check rejects a perturbed result.

    python3 -m pytest bench/test_checks.py

Runs one small operation per workload against the program in `src`, shows
that its checks accept the untouched output, then perturbs one output at a
time and expects the check to refuse it.
"""

import copy
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import reference as ref  # noqa: E402
import workloads as W  # noqa: E402
from worker import Tracer  # noqa: E402

TR = Tracer()


def rejected(wl, op, out):
    with pytest.raises(W.CheckFailed):
        wl.check(op, out, TR, False)


# --- reference routes agree with each other --------------------------------

def test_binomial_and_m_count_multiplicities_agree():
    for n in range(1, 30):
        table = ref.multiplicities_half(n)
        assert table == ref.multiplicities_from_m_counts(n, 1)
        assert ref.sum_rule_holds(n, 1, table)


def test_sum_rule_rejects_perturbed_table():
    table = ref.multiplicities_from_m_counts(7, 3)
    assert ref.sum_rule_holds(7, 3, table)
    table[min(table)] += 1
    assert not ref.sum_rule_holds(7, 3, table)


def test_ladder_gap_matches_dense_spectrum():
    two_j, g_down, g_up = 12, 1.0, math.exp(-2.0)
    dense = ref.ladder_operator(two_j, g_down, g_up).toarray()
    rates = np.sort(-np.linalg.eigvals(dense).real)
    assert ref.ladder_gap(two_j, g_down, g_up) == pytest.approx(rates[1], rel=1e-12)


# --- figures ---------------------------------------------------------------

def _figures(argv):
    wl = W.Figures(0)
    op = W.Op(argv[0].replace("_", "-"), {"argv": argv})
    return wl, op, wl.run(op, TR)


def _bump(text, line, col, factor):
    lines = text.split("\n")
    cells = lines[line].split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[line] = ",".join(cells)
    return "\n".join(lines)


@pytest.mark.parametrize("argv,line,col", [
    (["figure", "1b"], 100, 2),  # capacity ratio column vs direct sums
    (["figure", "1b"], -2, 1),  # last row: high-temperature limit (ns+1)/(s+1)
    (["sweep", "--n", "7", "--spin", "3/2", "--quantity", "work", "--grid", "0.05:20:31:log",
      "--lambda-h", "1.2", "--bc", "3.0", "--delta-eta", "0.01"], 10, 3),  # exact-cycle work
    (["sweep", "--n", "7", "--spin", "1", "--quantity", "precision", "--grid", "0.05:20:31:log",
      "--nu", "9"], 5, 1),  # precision column vs 1/sqrt(nu C)
    (["tcr", "--spin", "1/2", "--grid", "6:600:5:log"], 2, 2),  # numeric crossover root
])
def test_figures_reject_perturbed_value(argv, line, col):
    wl, op, (rc, text) = _figures(argv)
    wl.check(op, (rc, text), TR, False)
    wl.finish(TR)
    wl.first.clear()
    wl.check(op, (rc, _bump(text, line, col, 1.0 + 1e-6)), TR, False)
    with pytest.raises(W.CheckFailed):
        wl.finish(TR)


def test_figures_reject_perturbed_si_report():
    wl, op, (rc, text) = _figures(["si-report", "--n", "10", "--spin", "1/2", "--hbar-omega", "1.9e-24"])
    wl.check(op, (rc, text), TR, False)
    wl.finish(TR)
    wl.first.clear()
    key = "tcr_numeric_K = "
    value = float(text.split(key)[1].split("\n")[0])
    wl.check(op, (rc, text.replace(f"{key}{value!r}", f"{key}{value * (1 + 1e-6)!r}")), TR, False)
    with pytest.raises(W.CheckFailed):
        wl.finish(TR)


def test_figures_reject_changed_repeat():
    wl, op, (rc, text) = _figures(["figure", "1a"])
    wl.check(op, (rc, text), TR, False)
    rejected(wl, op, (rc, text.replace("\n", "\n ", 1)))


def test_figures_count_error_exit_as_failure():
    wl, op, out = _figures(["sweep", "--n", "3", "--spin", "1/2", "--quantity", "precision",
                            "--nu", "0", "--grid", "1:2:2:lin"])
    with pytest.raises(W.OpFailed):
        wl.check(op, out, TR, False)


# --- thermal_sweep ---------------------------------------------------------

def _ensemble_op(n, two_s):
    wl = W.ThermalSweep(0)
    op = W.Op("ensemble", {"n": n, "two_s": two_s, "b0": 0.5, "b_fisher": (0.7, 1.5), "lambda_h": 1.0,
                           "b_c": 3.0, "b_h": 0.8, "delta_eta": 2e-4})
    out = wl.run(op, TR)
    wl.check(op, out, TR, False)
    return wl, op, out


def _swap_preserving_sum_rule(table):
    """Move weight between two sectors without changing sum_J l_J (2J+1)."""
    a, b = sorted(table)[-2:]
    t = dict(table)
    t[a] += b + 1
    t[b] -= a + 1
    return t


@pytest.mark.parametrize("n,two_s,perturb", [
    (60, 1, _swap_preserving_sum_rule),  # binomial difference
    (20, 3, _swap_preserving_sum_rule),  # generating-function M-counts
    (160, 9, lambda t: {**t, min(t): t[min(t)] + 1}),  # sum rule (beyond the M-count subset)
])
def test_thermal_rejects_perturbed_multiplicities(monkeypatch, n, two_s, perturb):
    wl, op, out = _ensemble_op(n, two_s)
    table = W.sectors.sector_multiplicities(out["ensemble"])
    bad = W.sectors.SectorTable(table.ensemble, perturb(table.multiplicities))
    monkeypatch.setattr(W.sectors, "sector_multiplicities", lambda ens: bad)
    rejected(wl, op, out)


def _edit(out, key, fn):
    out = copy.deepcopy(out)
    out[key] = fn(out[key])
    return out


def _scale_item(i, factor):
    def fn(values):
        values = list(values)
        values[i] = values[i] * factor if not isinstance(values[i], tuple) else (values[i][0] * factor, values[i][1])
        return values
    return fn


@pytest.mark.parametrize("key,fn", [
    ("weights", lambda w: {tj: (p * (1 + 1e-6) if tj == max(w) else p) for tj, p in w.items()}),
    ("c_col", _scale_item(8, 1.0 + 1e-6)),  # direct-sum capacity at mid grid
    ("c_col", _scale_item(0, -1.0)),  # C >= 0
    ("c_col", _scale_item(-1, 1.0 + 1e-6)),  # at b0
    ("c_ind", _scale_item(3, 1.0 + 1e-6)),
    ("e0", lambda e: e * (1.0 + 1e-6)),  # energy at b0 = n e_s(b0)
    ("qfi", _scale_item(0, 1.0 + 1e-6)),
    ("fisher_energy", _scale_item(0, 1.0 - 1e-6)),  # pooled-outcome direct sum
    ("fisher_energy", lambda fe: [fe[0], 1.001 * fe[1] + 1.0]),  # fisher_energy <= qfi
    ("cycle", _scale_item(0, 1.0 + 1e-6)),  # cycle_exact vs direct-sum energies
    ("cycle", lambda c: [c[0], (c[1][1] + (c[0][0] - c[0][1]), c[1][1])]),  # O(delta_eta^2)
])
def test_thermal_rejects_perturbed_output(key, fn):
    wl, op, out = _ensemble_op(60, 1)
    rejected(wl, op, _edit(out, key, fn))


def test_thermal_projection_nan_is_a_failure_and_wrong_value_is_rejected():
    wl = W.ThermalSweep(0)
    op = W.Op("projection")
    want = list(ref.mixture_moments(wl.projection_weights, wl.PROJECTION[3])[1])
    wl.check(op, want, TR, False)
    rejected(wl, op, [want[0] * (1 + 1e-8), want[1]])
    with pytest.raises(W.OpFailed):
        wl.check(op, [want[0], math.nan], TR, False)


# --- relaxation ------------------------------------------------------------

def _relax_op(kind, n, two_s, b0, b):
    wl = W.Relaxation(0)
    op = W.Op(kind, {"n": n, "two_s": two_s, "b0": b0, "b": b})
    out = wl.run(op, TR)
    wl.check(op, out, TR, False)
    return wl, op, out


def _trace_edit(fn):
    def edit(out):
        out = copy.deepcopy(out)
        fn(out)
        return out
    return edit


def _first_block(st):
    """The sector carrying the most mass."""
    return max(st.blocks.values(), key=lambda v: float(v.sum()))


def _shift_mass(out):  # per-sector mass
    _first_block(out["trace"][2])[:] *= 1.0 + 1e-6


def _negative(out):  # population >= -1e-12 (mass kept)
    v = _first_block(out["trace"][1])
    v[1] += v[0] + 1e-9
    v[0] = -1e-9


def _reverse(out):  # TV never increases
    out["trace"].reverse()


def _later(out):  # relaxation time brackets epsilon
    out["relax"] = type(out["relax"])(out["relax"].time * 1.01, out["relax"].spectral_gap)


def _earlier(out):
    out["relax"] = type(out["relax"])(out["relax"].time * 0.99, out["relax"].spectral_gap)


def _gap(out):  # gap vs tridiagonal reference
    out["gap"] *= 1.0 + 1e-6
    out["relax"] = type(out["relax"])(out["relax"].time, out["gap"])


@pytest.mark.parametrize("edit", [_shift_mass, _negative, _reverse, _later, _earlier, _gap])
@pytest.mark.parametrize("kind,n,two_s,b0,b", [("ladder", 40, 1, None, 2.0), ("sectors", 14, 1, 0.5, 5.0)])
def test_relaxation_rejects_perturbed_output(edit, kind, n, two_s, b0, b):
    wl, op, out = _relax_op(kind, n, two_s, b0, b)
    rejected(wl, op, _trace_edit(edit)(out))


def test_relaxation_oracle_rejects_perturbed_trace():
    wl, op, out = _relax_op("tiny", 3, 1, 0.5, 2.0)
    wl.finish(TR)
    v = _first_block(out["trace"][3])
    v[0] += 1e-5
    v[1] -= 1e-5
    with pytest.raises(W.CheckFailed):
        wl.finish(TR)


def test_relaxation_rejects_changed_repeat():
    wl = W.Relaxation(0)
    op = wl.tiny[0]
    out = wl.run(op, TR)
    wl.check(op, out, TR, False)
    rejected(wl, op, _trace_edit(_later)(out))
