"""The three workloads: seeded inputs, the timed operation, and its checks.

Each workload hands out whole passes of operations. `run` is the timed part
and calls the program only through `tr.call`, so a traced pass records a
span around every call into a public spinheat function. `check` runs after
the clock stops and compares the outputs with `reference` (which shares no
code with spinheat) or with properties the method must have; it raises
`OpFailed` when the program produced no usable number and `CheckFailed` when
it produced a wrong one. Nothing is compared with a stored copy of earlier
output.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
from dataclasses import dataclass, field

import numpy as np

import reference as ref
from spinheat import cli, dynamics, oracle, otto, sectors, thermo, thermometry

K_B = 1.380649e-23  # J/K, exact in SI
HBAR = 1.054571817e-34  # J*s, CODATA 2018


class CheckFailed(Exception):
    """The program returned a finite result that disagrees with the reference."""


class OpFailed(Exception):
    """The program returned no usable result (error exit, NaN or infinity)."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def expect_close(got, want, rtol: float, atol: float = 0.0, what: str = "") -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    err = np.abs(got - want)
    bad = err > rtol * np.abs(want) + atol
    if np.any(bad):
        i = int(np.argmax(bad.ravel()))
        raise CheckFailed(
            f"{what}: {got.ravel()[i]!r} vs reference {want.ravel()[i]!r} "
            f"(rtol {rtol}, atol {atol})"
        )


def expect_finite(values, what: str) -> None:
    if not np.all(np.isfinite(np.asarray(values, dtype=float))):
        raise OpFailed(f"{what}: non-finite result")


@dataclass
class Op:
    kind: str
    params: dict = field(default_factory=dict)


class SizeDraws:
    """Seeded ensemble sizes near a centre, never repeating a (n, two_s) pair.

    Fresh ensembles keep the package's multiplicity cache cold for every
    operation, as it is in each command-line run.
    """

    def __init__(self, rng: random.Random, spread: float):
        self.rng = rng
        self.spread = spread
        self.used: set[tuple[int, int]] = set()

    def draw(self, two_s: int, centre: int) -> int:
        lo = max(2, round(centre * (1.0 - self.spread)))
        hi = max(lo, round(centre * (1.0 + self.spread)))
        free = [n for n in range(lo, hi + 1) if (n, two_s) not in self.used]
        if free:
            n = self.rng.choice(free)
        else:  # band used up: the unused size nearest the centre
            n = min((m for m in range(max(2, lo - hi), 2 * hi + 2) if (m, two_s) not in self.used),
                    key=lambda m: abs(m - centre))
        self.used.add((n, two_s))
        return n


class Workload:
    name = ""
    tail_pct = 90.0  # op_tail_ms percentile; min_samples leaves ten samples beyond it

    @property
    def min_samples(self) -> int:
        return round(10.0 / (1.0 - self.tail_pct / 100.0))

    def ops(self, pass_index: int) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op, tr):
        raise NotImplementedError

    def check(self, op: Op, out, tr, traced: bool) -> None:
        raise NotImplementedError

    def instrument(self, tr) -> None:
        """Install (tr) or remove (None) counters inside the program."""

    def finish(self, tr) -> None:
        """Checks deferred until after the timed loop (and the memory reading)."""


# --- figures ---------------------------------------------------------------

SPINS = {"1/2": 1, "1": 2, "3/2": 3, "5/2": 5, "9/2": 9}

# preset -> quantity and curves (n, two_s), as the package documents them
_N2 = {(2, 1), (2, 3), (2, 9)}
_SIZES = {(2, 1), (5, 1), (10, 1), (100, 1), (100, 3)}
PRESETS = {
    "1a": ("heat-capacity", _N2),
    "1b": ("hc-ratio", _N2),
    "2a": ("heat-capacity", _SIZES),
    "2b": ("hc-ratio", _SIZES),
    "3a": ("precision", _SIZES),
    "3b": ("precision-ratio", _SIZES),
    "4": ("work", _SIZES),
    "5a": ("power", _SIZES),
    "5b": ("power-ratio", _SIZES),
}
QUANTITIES = ("heat-capacity", "hc-ratio", "precision", "precision-ratio", "work", "power", "power-ratio")
BASE_COLUMNS = {
    "heat-capacity": ["C_col_over_kB", "C_ind_over_kB"],
    "hc-ratio": ["hc_ratio"],
    "precision": ["D_col", "D_ind"],
    "precision-ratio": ["precision_ratio"],
    "work": ["w_col", "w_ind"],
    "power": ["p_col", "p_ind"],
    "power-ratio": ["power_ratio"],
}
_CURVE = re.compile(r"_n(\d+)_s([0-9.]+)$")


def _parse_csv(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    expect(data.ndim == 2 and data.shape[1] == len(header), "ragged CSV table")
    return header, data


def _expected_columns(quantity: str, n: int, two_s: int, x: np.ndarray, nu: int) -> list[np.ndarray]:
    """Column values from direct-sum capacities, by the quantity's definition."""
    b = 1.0 / x
    c_col = ref.ladder_capacity(n * two_s, b)
    c_ind = n * ref.ladder_capacity(two_s, b)
    if quantity == "heat-capacity":
        return [c_col, c_ind]
    if quantity == "hc-ratio":
        return [c_col / c_ind]
    if quantity == "precision":
        return [1.0 / np.sqrt(nu * c_col), 1.0 / np.sqrt(nu * c_ind)]
    if quantity == "precision-ratio":
        return [np.sqrt(c_ind / c_col)]
    if quantity == "work":
        return [c_col / b**2, c_ind / b**2]
    if quantity == "power":
        return [n * c_col / b**2, c_ind / b**2]
    return [n * c_col / c_ind]  # power-ratio


def _asymptote_tolerance(n: int, two_s: int, b: float) -> float:
    """Leading relative correction to the high-temperature ratio limit, ~ ((ns+1/2) b)^2 / 5."""
    v = 0.5 * (n * two_s + 1) * b
    return 0.25 * v * v


class Figures(Workload):
    """In-process `spinheat` command lines with captured output.

    A pass is all nine figure presets, one sweep per quantity (work and power
    with the exact-cycle columns), two `tcr` and one `si-report`; the same
    command lines repeat in every pass, so every later output must equal the
    first byte for byte.
    """

    name = "figures"
    tail_pct = 99.0

    def __init__(self, seed: int):
        rng = random.Random(seed)
        calls = [Op("figure", {"argv": ["figure", p]}) for p in PRESETS]
        for q in QUANTITIES:
            spin = rng.choice(sorted(SPINS))
            argv = [
                "sweep", "--n", str(rng.randint(2, 300)), "--spin", spin, "--quantity", q,
                "--grid", f"{rng.uniform(0.02, 0.1):.4f}:{rng.uniform(20.0, 200.0):.2f}:121:log",
            ]
            if q == "precision":
                argv += ["--nu", str(rng.randint(1, 100))]
            if q in ("work", "power"):
                argv += [
                    "--lambda-h", f"{rng.uniform(0.8, 1.5):.3f}",
                    "--bc", f"{rng.uniform(2.0, 6.0):.3f}",
                    "--delta-eta", f"{rng.uniform(0.005, 0.05):.4f}",
                ]
            if q == "power":
                argv += ["--tau-ind", f"{rng.uniform(0.5, 2.0):.3f}"]
            calls.append(Op("sweep", {"argv": argv}))
        for spin in ("1/2", rng.choice(["1", "3/2", "5/2"])):  # 19 calls: the median is one call
            calls.append(Op("tcr", {"argv": [
                "tcr", "--spin", spin, "--grid", f"{rng.randint(6, 12)}:{rng.randint(400, 1500)}:12:log",
            ]}))
        calls.append(Op("si-report", {"argv": [
            "si-report", "--n", str(rng.randint(2, 50)), "--spin", rng.choice(sorted(SPINS)),
            "--hbar-omega", f"{10.0 ** rng.uniform(-30.0, -22.0):.4e}",
        ]}))
        self.calls = calls
        self.first: dict[tuple, str] = {}

    def ops(self, pass_index):
        return self.calls

    def run(self, op, tr):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = tr.call("cli." + op.kind.replace("-", "_"), cli.main, op.params["argv"])
        return rc, buf.getvalue()

    def check(self, op, out, tr, traced):
        rc, text = out
        if rc != 0:
            raise OpFailed(f"{' '.join(op.params['argv'])}: exit code {rc}")
        if traced and op.kind != "si-report":
            tr.add("cli.rows", text.count("\n") - 1)
        key = tuple(op.params["argv"])
        if key in self.first:
            expect(text == self.first[key], f"{' '.join(key)}: output differs from its first run")
        else:
            self.first[key] = text

    def finish(self, tr):
        """Verify each command line's first output (later ones are byte-identical to it).

        Deferred so that the reference arrays stay out of the memory reading.
        """
        for argv, text in self.first.items():
            getattr(self, "_check_" + argv[0].replace("-", "_"))(list(argv), text)

    def _check_figure(self, argv, text):
        which = argv[1]
        quantity, curves = PRESETS[which]
        header, data = _parse_csv(text)
        x = data[:, 0]
        expect(bool(np.all(np.diff(x) > 0.0)), f"figure {which}: grid not increasing")
        base = BASE_COLUMNS[quantity]
        seen = set()
        col = 1
        while col < len(header):
            m = _CURVE.search(header[col])
            expect(m is not None, f"figure {which}: unexpected column {header[col]!r}")
            n, two_s = int(m.group(1)), round(2.0 * float(m.group(2)))
            names = [c + m.group(0) for c in base]
            expect(header[col : col + len(base)] == names, f"figure {which}: columns {header[col:col + len(base)]}")
            want = _expected_columns(quantity, n, two_s, x, 1)
            for k, w in enumerate(want):
                expect_close(data[:, col + k], w, 1e-9, what=f"figure {which} {names[k]}")
            if quantity == "hc-ratio":
                expect_close(data[0, col], 1.0 / n, 1e-9, what=f"figure {which} low-T limit 1/n")
                expect_close(data[-1, col], (n * two_s + 2.0) / (two_s + 2.0),
                             _asymptote_tolerance(n, two_s, 1.0 / x[-1]),
                             what=f"figure {which} high-T limit (ns+1)/(s+1)")
            if quantity == "power-ratio":
                expect_close(data[0, col], 1.0, 1e-9, what=f"figure {which} low-T limit 1")
                expect_close(data[-1, col], n * (n * two_s + 2.0) / (two_s + 2.0),
                             _asymptote_tolerance(n, two_s, 1.0 / x[-1]),
                             what=f"figure {which} high-T limit n(ns+1)/(s+1)")
            seen.add((n, two_s))
            col += len(base)
        expect(seen == curves, f"figure {which}: curves {sorted(seen)}")

    def _check_sweep(self, argv, text):
        opt = dict(zip(argv[1::2], argv[2::2]))
        quantity = opt["--quantity"]
        n, two_s = int(opt["--n"]), SPINS[opt["--spin"]]
        header, data = _parse_csv(text)
        base = BASE_COLUMNS[quantity]
        exact = "--lambda-h" in opt
        extra = {"work": ["W_col_exact", "W_ind_exact"], "power": ["P_col_exact", "P_ind_exact"]}
        want_header = header[:1] + base + (extra[quantity] if exact else [])
        expect(header == want_header, f"sweep {quantity}: columns {header}")
        lo, hi, pts, _ = opt["--grid"].split(":")
        expect_close(data[:, 0], np.geomspace(float(lo), float(hi), int(pts)), 1e-12, what="sweep grid")
        x = data[:, 0]
        for k, w in enumerate(_expected_columns(quantity, n, two_s, x, int(opt.get("--nu", 1)))):
            expect_close(data[:, 1 + k], w, 1e-9, what=f"sweep {quantity} {base[k]}")
        if exact:
            lam_h, bc, de = float(opt["--lambda-h"]), float(opt["--bc"]), float(opt["--delta-eta"])
            tau = float(opt.get("--tau-ind", 1.0))
            b_h = 1.0 / (x * lam_h)
            lam_c = lam_h * (b_h / bc + de)
            th, tc = lam_h * b_h, lam_c * bc
            e_col = [ref.ladder_energy(n * two_s, t) for t in (th, tc)]
            e_ind = [n * ref.ladder_energy(two_s, t) for t in (th, tc)]
            power = quantity == "power"
            for k, ((e_h, e_c), mult) in enumerate(((e_col, n if power else 1), (e_ind, 1))):
                scale = mult / tau if power else 1.0
                want = scale * (lam_h - lam_c) * (e_h - e_c)
                floor = 1e-12 * scale * np.abs(lam_h - lam_c) * (np.abs(e_h) + np.abs(e_c) + 1.0)
                expect_close(data[:, len(base) + 1 + k], want, 1e-9, floor,
                             what=f"sweep {quantity} {extra[quantity][k]}")

    @staticmethod
    def _capacity_gap(n: int, two_s: int, b: float) -> tuple[float, float]:
        c_ind = n * float(ref.ladder_capacity(two_s, b)[0])
        return float(ref.ladder_capacity(n * two_s, b)[0]) - c_ind, c_ind

    def _check_root(self, n: int, two_s: int, t_cr: float, what: str) -> None:
        b = 1.0 / t_cr
        gap, scale = self._capacity_gap(n, two_s, b)
        expect(abs(gap) <= 1e-9 * scale, f"{what}: C_ns - n C_s = {gap!r} at the root")
        below, _ = self._capacity_gap(n, two_s, b * (1.0 - 1e-6))
        above, _ = self._capacity_gap(n, two_s, b * (1.0 + 1e-6))
        expect(below > 0.0 > above, f"{what}: root is not a sign change of C_ns - n C_s")

    def _check_tcr(self, argv, text):
        two_s = SPINS[argv[2]]
        lo, hi, pts, _ = argv[4].split(":")
        ns = sorted({int(round(v)) for v in np.geomspace(float(lo), float(hi), int(pts))})
        header, data = _parse_csv(text)
        expect(header == ["n", "tcr_approx", "tcr_numeric", "rel_gap"], f"tcr columns {header}")
        expect(data[:, 0].tolist() == ns, "tcr: ensemble sizes")
        for n, approx, numeric, rel_gap in data:
            n = int(n)
            expect_close(approx, math.sqrt((n * two_s * (two_s + 2) + 1) / 12.0), 1e-12, what="tcr closed form")
            expect_close(rel_gap, abs(numeric - approx) / numeric, 1e-12, what="tcr rel_gap")
            self._check_root(n, two_s, numeric, f"tcr n={n}")

    def _check_si_report(self, argv, text):
        opt = dict(zip(argv[1::2], argv[2::2]))
        n, two_s, hw = int(opt["--n"]), SPINS[opt["--spin"]], float(opt["--hbar-omega"])
        fields = dict(line.split(" = ", 1) for line in text.strip().splitlines())
        t_unit = hw / K_B
        enh = (n * two_s + 2.0) / (two_s + 2.0)
        expect(int(fields["n"]) == n and float(fields["spin"]) == 0.5 * two_s, "si-report: ensemble")
        expect_close(float(fields["hbar_omega_J"]), hw, 1e-15, what="si-report hbar_omega_J")
        expect_close(float(fields["omega_rad_per_s"]), hw / HBAR, 1e-12, what="si-report omega")
        expect_close(float(fields["temperature_unit_K"]), t_unit, 1e-12, what="si-report temperature unit")
        expect_close(float(fields["tcr_closed_form_K"]),
                     math.sqrt((n * two_s * (two_s + 2) + 1) / 12.0) * t_unit, 1e-12,
                     what="si-report closed-form crossover")
        self._check_root(n, two_s, float(fields["tcr_numeric_K"]) / t_unit, "si-report crossover")
        expect_close(float(fields["qfi_enhancement_high_T"]), enh, 1e-12, what="si-report enhancement")
        expect_close(float(fields["precision_ratio_high_T"]), 1.0 / math.sqrt(enh), 1e-12,
                     what="si-report precision ratio")


# --- thermal_sweep ---------------------------------------------------------

class ThermalSweep(Workload):
    """Thermal-product sector weights and sector sums on fresh ensembles.

    Each pass has one operation per size class (a spin and a centre size,
    from a few hundred to about 1500 sectors) on a newly drawn ensemble, and
    one fixed sector-resolved projection that fails in every pass because
    `fisher_collective_projection` returns NaN once p_J q_m underflows.
    """

    name = "thermal_sweep"
    tail_pct = 80.0
    # (two_s, centre n, b0): 201 to 1486 sectors. b0 changes the cost (weights that
    # underflow are skipped), so it is fixed per class and every seed draws the same
    # cost mix. The 13 classes are spaced in cost so that the median (7th) and the
    # 80th percentile (11th) each fall inside one class.
    CLASSES = ((1, 400, 0.25), (1, 550, 0.5), (1, 750, 1.0), (1, 900, 2.0), (1, 1350, 0.25),
               (3, 150, 0.5), (3, 250, 1.0), (3, 360, 2.0), (3, 500, 0.25),
               (9, 60, 0.5), (9, 90, 1.0), (9, 150, 2.0), (9, 330, 0.5))
    B_FISHER = (0.3, 0.7, 1.5, 3.0)
    GRID = tuple(np.geomspace(0.05, 20.0, 16))
    M_COUNT_MAX_DEGREE = 1400  # full generating-function check on ensembles up to this 2ns
    NEGLIGIBLE = 1e-20  # sector weights below this share of the largest add nothing at 1e-9
    PROJECTION = (400, 1, 0.5, (1.0, 2.0))  # n, two_s, b0, b values

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.sizes = SizeDraws(self.rng, spread=0.04)
        n, two_s, b0, _ = self.PROJECTION
        table = ref.multiplicities_half(n)
        self.projection_weights = ref.thermal_weights(n, two_s, table, b0)
        self.projection_input = sectors.BlockWeights(
            sectors.SpinEnsemble(n, two_s), self.projection_weights
        )

    def ops(self, pass_index):
        rng = self.rng
        out = []
        for two_s, centre, b0 in self.CLASSES:
            b_h = rng.uniform(0.3, 1.5)
            out.append(Op("ensemble", {
                "n": self.sizes.draw(two_s, centre), "two_s": two_s, "b0": b0,
                "b_fisher": tuple(sorted(rng.sample(self.B_FISHER, 2))),
                "lambda_h": 1.0, "b_c": rng.uniform(2.0, 5.0), "b_h": b_h, "delta_eta": 2e-4,
            }))
        out.append(Op("projection"))
        return out

    def run(self, op, tr):
        if op.kind == "projection":
            w = self.projection_input
            return [tr.call("thermometry.fisher_collective_projection",
                            thermometry.fisher_collective_projection, w, b).value
                    for b in self.PROJECTION[3]]
        p = op.params
        ens = sectors.SpinEnsemble(p["n"], p["two_s"])
        w = tr.call("sectors.thermal_product_weights", sectors.thermal_product_weights, ens, p["b0"])
        bs = self.GRID + (p["b0"],)
        c_col = [tr.call("thermo.collective_heat_capacity", thermo.collective_heat_capacity, w, b).c_over_kb
                 for b in bs]
        c_ind = [tr.call("thermo.independent_heat_capacity", thermo.independent_heat_capacity, ens, b).c_over_kb
                 for b in bs]
        e0 = tr.call("thermo.steady_state_energy", thermo.steady_state_energy, w, p["b0"])
        q = [tr.call("thermometry.qfi", thermometry.qfi, w, b).value for b in p["b_fisher"]]
        fe = [tr.call("thermometry.fisher_energy_measurement", thermometry.fisher_energy_measurement, w, b).value
              for b in p["b_fisher"]]
        cycle = []
        for de in (p["delta_eta"], 0.5 * p["delta_eta"]):
            params = otto.OttoParams(lambda_c=p["lambda_h"] * (p["b_h"] / p["b_c"] + de),
                                     lambda_h=p["lambda_h"], b_c=p["b_c"], b_h=p["b_h"])
            cycle.append((tr.call("otto.cycle_exact", otto.cycle_exact, w, params).work_extracted,
                          tr.call("otto.work_near_carnot", otto.work_near_carnot, w, params)))
        return {"ensemble": ens, "weights": w.weights, "c_col": c_col, "c_ind": c_ind, "e0": e0,
                "qfi": q, "fisher_energy": fe, "cycle": cycle}

    def check(self, op, out, tr, traced):
        if op.kind == "projection":
            expect_finite(out, "fisher_collective_projection")
            want = ref.mixture_moments(self.projection_weights, self.PROJECTION[3])[1]
            expect_close(out, want, 1e-10, what="projection Fisher information vs capacity")
            return
        p = op.params
        n, two_s, b0 = p["n"], p["two_s"], p["b0"]
        expect_finite(out["c_col"] + out["c_ind"] + out["qfi"] + out["fisher_energy"]
                      + [out["e0"]] + [v for pair in out["cycle"] for v in pair], "thermal_sweep outputs")
        table = sectors.sector_multiplicities(out["ensemble"]).multiplicities  # cached by the op
        if traced:
            tr.add("sectors.count", len(table))
            tr.add("thermo.sector_points", len(out["weights"]) * len(out["c_col"]))
        expect(ref.sum_rule_holds(n, two_s, table), f"sum rule fails for n={n}, 2s={two_s}")
        if two_s == 1:
            expect(table == ref.multiplicities_half(n), f"binomial multiplicities differ, n={n}")
        elif n * two_s <= self.M_COUNT_MAX_DEGREE:
            expect(table == ref.multiplicities_from_m_counts(n, two_s),
                   f"M-count multiplicities differ, n={n}, 2s={two_s}")
        w_ref = ref.thermal_weights(n, two_s, table, b0)
        got = np.array([out["weights"][tj] for tj in w_ref])
        want = np.array(list(w_ref.values()))
        expect(set(out["weights"]) == set(w_ref), "weight sectors differ from the multiplicity table")
        expect_close(got, want, 1e-8, 1e-290, what="thermal product weights")
        # the negligible tail is dropped from the direct sums below
        top = max(w_ref.values())
        heavy = {tj: v for tj, v in w_ref.items() if v > self.NEGLIGIBLE * top}

        bs = np.array(self.GRID + (b0,))
        expect(min(out["c_col"]) >= 0.0 and min(out["c_ind"]) >= 0.0, "negative heat capacity")
        expect_close(out["c_ind"], n * ref.ladder_capacity(two_s, bs), 1e-9, what="independent capacity")
        expect(out["c_col"][-1] <= out["c_ind"][-1] * (1.0 + 1e-10), "C_col > C_ind at b = b0")
        e_ind = n * float(ref.ladder_energy(two_s, b0)[0])
        expect_close(out["e0"], e_ind, 1e-9, 1e-12 * n, what="collective energy at b0 vs n e_s(b0)")

        # one direct-sum pass over the sectors for every b the remaining checks need
        lam_h, b_c, b_h = p["lambda_h"], p["b_c"], p["b_h"]
        lam_cs = [lam_h * (b_h / b_c + de) for de in (p["delta_eta"], 0.5 * p["delta_eta"])]
        mid = len(self.GRID) // 2
        probe = [bs[mid], b0, *p["b_fisher"], lam_h * b_h] + [lam_c * b_c for lam_c in lam_cs]
        energy, capacity = ref.mixture_moments(heavy, probe)
        expect_close([out["c_col"][mid], out["c_col"][-1]], capacity[:2], 1e-9, what="collective capacity")
        for b, q, fe, c in zip(p["b_fisher"], out["qfi"], out["fisher_energy"], capacity[2:4]):
            expect_close(q, c, 1e-9, what="qfi vs direct-sum capacity")
            expect_close(fe, ref.energy_measurement_fisher(heavy, b), 1e-8, what="energy-measurement Fisher")
            expect(0.0 <= fe <= q * (1.0 + 1e-10), f"energy-measurement Fisher {fe!r} above qfi {q!r}")

        theta_h, e_h, c_h = probe[4], energy[4], capacity[4]
        resid = []
        for de, lam_c, e_c, (w_exact, w_nc) in zip((p["delta_eta"], 0.5 * p["delta_eta"]), lam_cs,
                                                   energy[5:], out["cycle"]):
            floor = 1e-12 * lam_h * (abs(e_h) + abs(e_c) + 1.0)
            expect_close(w_exact, (lam_h - lam_c) * (e_h - e_c), 1e-8, floor, what="cycle_exact work")
            expect_close(w_nc, de * lam_h**2 * (b_c - b_h) * c_h / theta_h**2, 1e-9,
                         what="work_near_carnot")
            resid.append((w_exact - w_nc, floor, w_nc))
        (r1, _, w1), (r2, f2, _) = resid
        expect(abs(r1) <= 0.1 * abs(w1), "cycle_exact and work_near_carnot differ at first order")
        expect(abs(r2) <= 0.3 * abs(r1) + 2.0 * f2,
               f"cycle_exact - work_near_carnot not O(delta_eta^2): {r1!r} then {r2!r}")


# --- relaxation ------------------------------------------------------------

class Relaxation(Workload):
    """Sector rate equations: generator, gap, a short trace, relaxation time.

    A pass holds single large ladders (symmetric weights, top-aligned start),
    many-sector thermal ensembles (Gibbs start at b0, bath at b), both on
    freshly drawn sizes, and two tiny ensembles of Hilbert dimension <= 64
    that repeat every pass and are checked once against the dense oracle.
    """

    name = "relaxation"
    tail_pct = 90.0
    EPSILON = 1e-3
    # b is fixed per class, so every seed draws the same cost mix. The 15
    # operations of a pass are spaced in cost so that the median (8th) and the
    # 90th percentile (14th) each fall inside one class, well apart from the next.
    LADDERS = ((1, 70, 1.0), (1, 90, 2.0), (1, 110, 5.0), (1, 150, 1.0), (1, 160, 2.0),
               (1, 180, 5.0), (1, 200, 5.0), (3, 45, 5.0), (3, 50, 2.0))  # (two_s, centre n, b)
    THERMAL = ((24, 0.25, 2.0), (32, 0.5, 5.0), (40, 0.75, 1.0), (64, 0.5, 2.0))  # (centre n, b0, b)
    B = (1.0, 2.0, 5.0)
    B0 = (0.25, 0.5, 0.75)
    TINY_SYMMETRIC = ((4, 1), (3, 2), (2, 3))
    TINY_THERMAL = ((6, 1), (3, 3), (2, 7))

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        n, two_s = self.rng.choice(self.TINY_SYMMETRIC)
        tiny = [{"n": n, "two_s": two_s, "b0": None, "b": self.rng.choice(self.B)}]
        n, two_s = self.rng.choice(self.TINY_THERMAL)
        tiny.append({"n": n, "two_s": two_s, "b0": self.rng.choice(self.B0), "b": self.rng.choice(self.B)})
        self.tiny = [Op("tiny", t) for t in tiny]
        self.first: dict[tuple, tuple] = {}
        self.oracle_queue: list[tuple[Op, dict]] = []
        self._evolve = dynamics.evolve

    def _size(self, centre: int) -> int:
        """Within 2% of the centre: the dense-expm cost grows as n^3."""
        return self.rng.randint(round(0.98 * centre), round(1.02 * centre))

    def ops(self, pass_index):
        out = [Op("ladder", {"n": self._size(c), "two_s": two_s, "b0": None, "b": b})
               for two_s, c, b in self.LADDERS]
        out += [Op("sectors", {"n": self._size(c), "two_s": 1, "b0": b0, "b": b})
                for c, b0, b in self.THERMAL]
        return out + self.tiny

    def instrument(self, tr):
        """Count every propagation, including those relaxation_time makes itself."""
        if tr is None:
            dynamics.evolve = self._evolve
            return
        orig = self._evolve

        def counted(*args, **kwargs):
            tr.add("dynamics.evolve_calls", 1)
            return orig(*args, **kwargs)

        dynamics.evolve = counted

    def run(self, op, tr):
        p = op.params
        ens = sectors.SpinEnsemble(p["n"], p["two_s"])
        if p["b0"] is None:
            w = tr.call("sectors.symmetric_weights", sectors.symmetric_weights, ens)
            state = tr.call("dynamics.aligned_state", dynamics.aligned_state, w, excited=True)
        else:
            w = tr.call("sectors.thermal_product_weights", sectors.thermal_product_weights, ens, p["b0"])
            state = tr.call("dynamics.gibbs_state", dynamics.gibbs_state, w, p["b0"])
        rates = tr.call("dynamics.RatePair.thermal", dynamics.RatePair.thermal, p["b"])
        gen = tr.call("dynamics.collective_generator", dynamics.collective_generator, ens, rates)
        gap = tr.call("dynamics.spectral_gap", dynamics.spectral_gap, state, gen)
        times = np.linspace(0.0, 2.0 / gap, 5)
        trace = [tr.call("dynamics.evolve", dynamics.evolve, state, gen, float(t)) for t in times]
        relax = tr.call("dynamics.relaxation_time", dynamics.relaxation_time, state, gen, self.EPSILON)
        return {"ensemble": ens, "weights": w.weights, "state": state, "rates": rates, "gen": gen,
                "gap": gap, "times": times, "trace": trace, "relax": relax}

    @staticmethod
    def _fingerprint(out) -> tuple:
        return (out["gap"], out["relax"].time, out["relax"].spectral_gap,
                tuple(tuple(np.concatenate([s.blocks[tj] for tj in sorted(s.blocks)])) for s in out["trace"]))

    def check(self, op, out, tr, traced):
        p = op.params
        blocks0 = out["state"].blocks
        populated = [tj for tj, v in blocks0.items() if float(v.sum()) > 1e-12]
        if traced:
            tr.add("dynamics.generator_mb", sum(a.nbytes for a in out["gen"].blocks.values()) / 1e6)
            tr.add("dynamics.ladder_levels", sum(tj + 1 for tj in populated))
        expect_finite([out["gap"], out["relax"].time], "relaxation outputs")
        if op.kind == "tiny":
            key = tuple(sorted(p.items()))
            if key in self.first:
                expect(self._fingerprint(out) == self.first[key], "tiny ensemble: output differs from its first run")
                return
            self.first[key] = self._fingerprint(out)
            self.oracle_queue.append((op, out))
        n, two_s, b = p["n"], p["two_s"], p["b"]
        g_down, g_up = out["rates"].g_down, out["rates"].g_up
        expect_close([g_down, g_up], [1.0, math.exp(-b)], 1e-15, what="thermal rates")

        # initial state from the reference weights
        if p["b0"] is None:
            expect(set(blocks0) == {n * two_s} and blocks0[n * two_s][-1] == 1.0
                   and float(blocks0[n * two_s].sum()) == 1.0, "top-aligned symmetric start")
        else:
            table = ref.multiplicities_half(n) if two_s == 1 else ref.multiplicities_from_m_counts(n, two_s)
            w_ref = ref.thermal_weights(n, two_s, table, p["b0"])
            expect(set(blocks0) == set(w_ref), "thermal start: sectors")
            for tj, v in w_ref.items():
                expect_close(blocks0[tj], v * ref.ladder_gibbs(tj, p["b0"]), 1e-8, 1e-300,
                             what=f"Gibbs start in sector 2J={tj}")

        gap_ref = min(ref.ladder_gap(tj, g_down, g_up) for tj in populated)
        expect_close(out["gap"], gap_ref, 1e-9, what="spectral gap vs tridiagonal reference")

        target = ref.stationary(blocks0, b)
        mass0 = {tj: float(v.sum()) for tj, v in blocks0.items()}
        times = out["times"]
        want = ref.propagate(blocks0, g_down, g_up, times[-1], len(times))
        tv_prev = math.inf
        for k, st in enumerate(out["trace"]):
            expect(set(st.blocks) == set(blocks0), "evolve changed the sector set")
            for tj, v in st.blocks.items():
                expect(float(v.min()) >= -1e-12, f"negative population in sector 2J={tj}")
                expect(abs(float(v.sum()) - mass0[tj]) <= 1e-10, f"sector 2J={tj} mass not conserved")
                expect_close(v, want[k][tj], 0.0, 1e-9, what=f"evolve at t={times[k]:.4g}, 2J={tj}")
            tv = ref.tv_distance(st.blocks, target)
            expect(tv <= tv_prev + 1e-12, f"TV distance rose from {tv_prev!r} to {tv!r}")
            tv_prev = tv

        t_relax = out["relax"].time
        expect(out["relax"].spectral_gap == out["gap"], "relaxation_time reports a different gap")
        expect(t_relax > 0.0, "relaxation time must be positive from these starts")
        # the bracket is read with evolve itself, checked above against the reference
        tv_before, tv_at = (ref.tv_distance(self._evolve(out["state"], out["gen"], t).blocks, target)
                            for t in (t_relax * (1.0 - 1e-3), t_relax))
        expect(tv_at < self.EPSILON + 1e-9 and tv_before >= self.EPSILON - 1e-9,
               f"relaxation time {t_relax!r} does not bracket epsilon: TV {tv_before!r} -> {tv_at!r}")

    def finish(self, tr):
        """Dense-oracle route for the tiny ensembles (checked once per run)."""
        for op, out in self.oracle_queue:
            ens, rates, state = out["ensemble"], out["rates"], out["state"]
            rho0 = tr.call("oracle.state_from_populations", oracle.state_from_populations, state, ens)
            traj = tr.call("oracle.trajectory", oracle.trajectory, rho0, rates, out["times"])
            # interior times come from the integrator's dense-output interpolant,
            # measured up to 2.4e-7 off (1e-12 at the last time), hence 1e-6
            for t, rho, st in zip(out["times"], traj, out["trace"]):
                pops = tr.call("oracle.sector_populations", oracle.sector_populations, rho).blocks
                for tj, v in st.blocks.items():
                    expect_close(v, pops[tj], 0.0, 1e-6, what=f"evolve vs oracle.trajectory at t={t:.4g}")
            ss = tr.call("oracle.steady_state", oracle.steady_state, rho0, rates)
            exp = tr.call("oracle.expected_steady_state", oracle.expected_steady_state, rho0, rates)
            dist = oracle.trace_distance(ss, exp)
            expect(dist <= 1e-7, f"oracle steady state {dist!r} from the expected one (dim {ens.dim})")


WORKLOADS = {w.name: w for w in (Figures, ThermalSweep, Relaxation)}
