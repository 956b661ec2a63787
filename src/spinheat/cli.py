"""Command-line front end: sweeps, figure-data presets, SI reports, dynamics traces.

Everything is emitted as CSV (default) or JSON with self-describing column
names; output for a fixed invocation is deterministic. Exit codes: 0 on
success, 2 for usage/specification errors, 3 for numeric failures.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from functools import partial

import numpy as np

from . import __version__
from .dynamics import (
    PopulationState,
    RatePair,
    aligned_state,
    collective_generator,
    evolve,
    gibbs_state,
    relaxation_time,
    stationary_state,
    uniform_state,
)
from .sectors import (
    WEIGHT_SUM_TOL,
    BlockWeights,
    SpinEnsemble,
    symmetric_weights,
    thermal_product_weights,
)
from .thermo import (
    _capacity_ratio,
    collective_heat_capacity,
    critical_temperature_approx,
    critical_temperature_numeric,
    heat_capacity_ratio,
    independent_heat_capacity,
)
from .otto import OttoParams, cycle_exact, normalized_work
from . import oracle

K_B = 1.380649e-23  # J/K
HBAR = 1.054571817e-34  # J*s

_T = "kT_over_hw"
_TH = "kTh_over_hw_lambda_h"  # work and power take theta_h = lambda_h b_h


def _fisher(c: float, x: float) -> float:
    """Fisher information per measurement, which equals the heat capacity c; must not vanish."""
    if c <= 0.0:
        raise ArithmeticError(f"heat capacity vanished at kT/hw = {x}; precision bound diverges")
    return c


# Every quantity is a function of the collective and independent capacities at
# one grid point x, b = 1/x: quantity -> (x column, value columns,
# values(c_col, c_ind, weights, b, x, nu)).
_QUANTITIES = {
    "heat-capacity": (_T, ("C_col_over_kB", "C_ind_over_kB"),
                      lambda c_col, c_ind, w, b, x, nu: [c_col, c_ind]),
    "hc-ratio": (_T, ("hc_ratio",),
                 lambda c_col, c_ind, w, b, x, nu: [_capacity_ratio(c_col, c_ind, w, b)]),
    "precision": (_T, ("D_col", "D_ind"), lambda c_col, c_ind, w, b, x, nu: [
        1.0 / math.sqrt(nu * _fisher(c_col, x)), 1.0 / math.sqrt(nu * _fisher(c_ind, x))]),
    "precision-ratio": (_T, ("precision_ratio",), lambda c_col, c_ind, w, b, x, nu: [
        1.0 / math.sqrt(_fisher(_capacity_ratio(c_col, c_ind, w, b), x))]),
    "work": (_TH, ("w_col", "w_ind"), lambda c_col, c_ind, w, b, x, nu: [
        normalized_work(c_col, b), normalized_work(c_ind, b)]),
    "power": (_TH, ("p_col", "p_ind"), lambda c_col, c_ind, w, b, x, nu: [
        normalized_work(w.ensemble.n * c_col, b), normalized_work(c_ind, b)]),
    "power-ratio": (_TH, ("power_ratio",), lambda c_col, c_ind, w, b, x, nu: [
        _capacity_ratio(c_col, c_ind, w, b, w.ensemble.n)]),
}

# figure presets: quantity, (n, two_s) curves, default grid spec
_FIG_SPINS_N2 = ((2, 1), (2, 3), (2, 9))
_FIG_SIZES = ((2, 1), (5, 1), (10, 1), (100, 1), (100, 3))
FIGURES: dict[str, tuple[str, tuple[tuple[int, int], ...], str]] = {
    "1a": ("heat-capacity", _FIG_SPINS_N2, "0.01:100.0:241:log"),
    "1b": ("hc-ratio", _FIG_SPINS_N2, "0.025:1000.0:241:log"),
    "2a": ("heat-capacity", _FIG_SIZES, "0.01:100.0:241:log"),
    "2b": ("hc-ratio", _FIG_SIZES, "0.025:1000.0:241:log"),
    "3a": ("precision", _FIG_SIZES, "0.01:100.0:241:log"),
    "3b": ("precision-ratio", _FIG_SIZES, "0.01:100.0:241:log"),
    "4": ("work", _FIG_SIZES, "0.01:100.0:241:log"),
    "5a": ("power", _FIG_SIZES, "0.01:100.0:241:log"),
    "5b": ("power-ratio", _FIG_SIZES, f"{1.0 / 30.0}:15000.0:241:log"),
}


class CliError(Exception):
    """Usage or specification error (exit code 2)."""


def parse_spin(text: str) -> int:
    """Spin magnitude as a doubled integer: accepts '1/2', '3/2', '1', '2.5'."""
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            if int(den) != 2:
                raise ValueError
            two_s = int(num)
        else:
            val = 2.0 * float(text)
            two_s = int(round(val))
            if abs(val - two_s) > 1e-9:
                raise ValueError
    except ValueError:
        raise CliError(f"cannot parse spin {text!r}; use forms like 1/2, 3/2, 1, 2.5") from None
    if two_s < 1:
        raise CliError(f"spin must be >= 1/2, got {text!r}")
    return two_s


def parse_grid(text: str, positive: bool = True) -> np.ndarray:
    """Grid spec lo:hi:points:log|lin -> array of grid values."""
    parts = text.split(":")
    if len(parts) != 4:
        raise CliError(f"grid must look like lo:hi:points:log|lin, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        points = int(parts[2])
    except ValueError:
        raise CliError(f"bad grid numbers in {text!r}") from None
    if not math.isfinite(hi - lo):  # a NaN or infinite bound, or a span that overflows
        raise CliError(f"grid bounds and their span must be finite, got {text!r}")
    kind = parts[3]
    if kind not in ("log", "lin"):
        raise CliError(f"grid kind must be log or lin, got {kind!r}")
    if points < 0:
        raise CliError("grid point count must be >= 0")
    if hi < lo:
        raise CliError(f"grid bounds must be ordered, got {lo} > {hi}")
    if kind == "log" and lo <= 0.0:
        raise CliError("log grid needs lo > 0")
    if positive and lo <= 0.0:
        raise CliError("grid values must be positive here")
    # numpy gives an empty grid for 0 points and [lo] for 1
    if kind == "log":
        return np.geomspace(lo, hi, points)
    return np.linspace(lo, hi, points)


def load_weights_file(path: str, ensemble: SpinEnsemble) -> BlockWeights:
    """Weights file: whitespace-separated 'two_J p_J' lines, '#' comments."""
    raw: dict[int, float] = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise CliError(f"{path}:{lineno}: expected 'two_J p_J', got {line!r}")
                try:
                    tj, p = int(parts[0]), float(parts[1])
                except ValueError:
                    raise CliError(f"{path}:{lineno}: cannot parse {line!r}") from None
                raw[tj] = raw.get(tj, 0.0) + p
    except OSError as exc:
        raise CliError(f"cannot read weights file {path}: {exc}") from None
    if not raw:
        raise CliError(f"weights file {path} has no entries")
    raw = dict(sorted(raw.items()))  # one total, and one rescaling, for any line order
    total = sum(raw.values())
    if not abs(total - 1.0) <= 1e-6:  # written so that a NaN total fails too
        raise CliError(f"weights in {path} sum to {total!r}, expected 1")
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        # rescale only what BlockWeights would refuse, so that a file of
        # repr(p_J) lines gives back the weights it was written from
        raw = {tj: p / total for tj, p in raw.items()}
    try:
        return BlockWeights(ensemble, raw)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _parse_b0(text: str, what: str) -> float:
    """Finite initial inverse temperature b0 of a thermal=<b0> or gibbs:<b0> value."""
    try:
        b0 = float(text)
    except ValueError:
        raise CliError(f"bad {what}") from None
    if not math.isfinite(b0):
        raise CliError(f"{what} needs a finite b0")
    return b0


def resolve_weights(spec: str, ensemble: SpinEnsemble) -> tuple[BlockWeights, str]:
    """--weights value -> (weights, provenance tag)."""
    if spec == "symmetric":
        return symmetric_weights(ensemble), "symmetric"
    if spec.startswith("thermal="):
        b0 = _parse_b0(spec.split("=", 1)[1], f"thermal weights spec {spec!r}")
        return thermal_product_weights(ensemble, b0), spec
    if spec.startswith("file="):
        path = spec.split("=", 1)[1]
        return load_weights_file(path, ensemble), spec
    raise CliError(f"--weights must be symmetric, thermal=<b0> or file=<path>, got {spec!r}")


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write(text: str, out: str | None) -> None:
    """Write text to the path `out`, or to stdout when it is not given."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def emit_table(columns, rows, meta, args, trailing: dict[str, float] | None = None) -> None:
    """Write the table as CSV or JSON to --out (or stdout)."""
    if args.format == "json":
        payload = {"metadata": meta, "columns": list(columns), "rows": [list(r) for r in rows]}
        if trailing:
            payload["metadata"].update(trailing)
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [",".join(columns)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        if trailing:
            lines.extend(f"# {k} = {_fmt(v)}" for k, v in trailing.items())
        text = "\n".join(lines) + "\n"
    _write(text, args.out)


def _spin_label(two_s: int) -> str:
    return f"{0.5 * two_s:g}"


def _rows(quantity, curves, grid, nu, extra=None) -> list[list[float]]:
    """One row per grid point x: x, each (ensemble, weights) curve's columns, then extra(x).

    C_col and C_ind are computed once per curve and point, at b = 1/x.
    """
    values = _QUANTITIES[quantity][2]
    rows = []
    for x in grid:
        x = float(x)
        b = 1.0 / x
        row = [x]
        for ensemble, weights in curves:
            c_col = collective_heat_capacity(weights, b).c_over_kb
            c_ind = independent_heat_capacity(ensemble, b).c_over_kb
            row += values(c_col, c_ind, weights, b, x, nu)
        if extra is not None:
            row += extra(x)
        rows.append(row)
    return rows


def _exact_cycle_columns(args) -> list[str]:
    """Names of the exact-cycle columns a work or power sweep adds; none without cycle flags.

    Cycle flags on another quantity, an incomplete set, both --lambda-c and
    --delta-eta, or a value that is not finite (or not > 0, --delta-eta
    aside) are usage errors named by their flag.
    """
    flags = {"--lambda-h": args.lambda_h, "--lambda-c": args.lambda_c, "--bc": args.bc,
             "--delta-eta": args.delta_eta}
    given = ", ".join(flag for flag, value in flags.items() if value is not None)
    if not given:
        return []
    if args.quantity not in ("work", "power"):
        raise CliError(f"{given} only apply to --quantity work or power")
    one_lambda_c = (args.lambda_c is None) != (args.delta_eta is None)
    if args.lambda_h is None or args.bc is None or not one_lambda_c:
        raise CliError("exact-cycle columns need --lambda-h, --bc and exactly one of "
                       f"--lambda-c or --delta-eta, got {given}")
    for flag, value in flags.items():
        if value is None:
            continue
        if not math.isfinite(value):
            raise CliError(f"{flag} must be finite, got {value}")
        if value <= 0.0 and flag != "--delta-eta":
            raise CliError(f"{flag} must be > 0, got {value}")
    return ["W_col_exact", "W_ind_exact"] if args.quantity == "work" else ["P_col_exact", "P_ind_exact"]


def _exact_cycle_values(args, ensemble, weights, one_spin, x) -> list[float]:
    """Exact-cycle work (or power) of the collective engine and of n one-spin engines."""
    b_h = 1.0 / (x * args.lambda_h)
    if args.lambda_c is not None:
        lambda_c = args.lambda_c
    else:
        lambda_c = args.lambda_h * (b_h / args.bc + args.delta_eta)
        if not lambda_c > 0.0:
            raise CliError(f"--delta-eta {args.delta_eta} drives lambda_c to {lambda_c} <= 0 "
                           f"at {_TH} = {x}")
    params = OttoParams(lambda_c=lambda_c, lambda_h=args.lambda_h, b_c=args.bc, b_h=b_h)
    w_col = cycle_exact(weights, params).work_extracted
    w_ind = ensemble.n * cycle_exact(one_spin, params).work_extracted
    if args.quantity == "power":
        return [ensemble.n * w_col / args.tau_ind, w_ind / args.tau_ind]
    return [w_col, w_ind]


def cmd_sweep(args) -> None:
    if args.nu < 1:
        raise CliError(f"--nu must be a measurement count >= 1, got {args.nu}")
    if not (math.isfinite(args.tau_ind) and args.tau_ind > 0.0):
        raise CliError(f"--tau-ind must be a finite cycle time > 0, got {args.tau_ind}")
    ensemble = SpinEnsemble(args.n, parse_spin(args.spin))
    weights, provenance = resolve_weights(args.weights, ensemble)
    grid = parse_grid(args.grid)
    x_name, names, _ = _QUANTITIES[args.quantity]
    exact = _exact_cycle_columns(args)
    extra = None
    if exact:
        one_spin = symmetric_weights(SpinEnsemble(1, ensemble.two_s))
        extra = partial(_exact_cycle_values, args, ensemble, weights, one_spin)
    rows = _rows(args.quantity, [(ensemble, weights)], grid, args.nu, extra)
    meta = {
        "version": __version__,
        "command": "sweep",
        "quantity": args.quantity,
        "n": ensemble.n,
        "two_s": ensemble.two_s,
        "weights": provenance,
        "grid": args.grid,
    }
    emit_table([x_name, *names, *exact], rows, meta, args)


def cmd_figure(args) -> None:
    quantity, curves, default_grid = FIGURES[args.which]
    grid_label = default_grid if args.grid is None else args.grid
    grid = parse_grid(grid_label)
    x_name, names, _ = _QUANTITIES[quantity]
    columns = [x_name]
    for n, two_s in curves:
        columns += [f"{name}_n{n}_s{_spin_label(two_s)}" for name in names]
    ensembles = [SpinEnsemble(n, two_s) for n, two_s in curves]
    rows = _rows(quantity, [(ens, symmetric_weights(ens)) for ens in ensembles], grid, 1)
    meta = {
        "version": __version__,
        "command": f"figure {args.which}",
        "quantity": quantity,
        "curves": [{"n": n, "two_s": ts} for n, ts in curves],
        "weights": "symmetric",
        "grid": grid_label,
    }
    emit_table(columns, rows, meta, args)


def cmd_tcr(args) -> None:
    two_s = parse_spin(args.spin)
    grid = parse_grid(args.grid)
    ns = sorted({int(round(x)) for x in grid})
    if any(n < 2 for n in ns):
        raise CliError("tcr needs n >= 2 (no crossover for a single spin)")
    rows = []
    for n in ns:
        ens = SpinEnsemble(n, two_s)
        approx = critical_temperature_approx(ens)
        numeric = critical_temperature_numeric(ens)
        rows.append([n, approx, numeric, float(abs(numeric - approx) / numeric)])
    meta = {
        "version": __version__,
        "command": "tcr",
        "two_s": two_s,
        "grid": args.grid,
    }
    emit_table(["n", "tcr_approx", "tcr_numeric", "rel_gap"], rows, meta, args)


_CESIUM_NOTE = (
    "closed form is a high-temperature expansion of the capacity crossover; "
    "nanokelvin-scale estimates sometimes quoted for cesium quasispin ensembles "
    "do not follow from it (it lands in the microkelvin range at this splitting)"
)


def cmd_si_report(args) -> None:
    if not (math.isfinite(args.hbar_omega) and args.hbar_omega > 0.0):
        raise CliError("--hbar-omega must be a positive energy in joules")
    ensemble = SpinEnsemble(args.n, parse_spin(args.spin))
    t_unit = args.hbar_omega / K_B
    fields: dict[str, object] = {
        "n": ensemble.n,
        "spin": _spin_label(ensemble.two_s),
        "hbar_omega_J": args.hbar_omega,
        "omega_rad_per_s": args.hbar_omega / HBAR,
        "temperature_unit_K": t_unit,
    }
    enhancement = heat_capacity_ratio(ensemble, 0.0)
    if ensemble.n >= 2:
        fields["tcr_closed_form_K"] = critical_temperature_approx(ensemble) * t_unit
        fields["tcr_numeric_K"] = critical_temperature_numeric(ensemble) * t_unit
    else:
        fields["tcr_closed_form_K"] = None  # single spin: collective = independent
    fields["qfi_enhancement_high_T"] = enhancement
    fields["precision_ratio_high_T"] = 1.0 / math.sqrt(enhancement)
    if args.hbar_omega < 1e-27:
        fields["note"] = _CESIUM_NOTE
    if args.format == "json":
        payload = {"metadata": {"version": __version__, "command": "si-report"}}
        payload.update(fields)
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = "".join(f"{k} = {v}\n" for k, v in fields.items())
    _write(text, args.out)


def _initial_state(args, weights, provenance) -> PopulationState:
    init = args.init
    if init == "auto":
        init = f"gibbs:{provenance.split('=', 1)[1]}" if provenance.startswith("thermal=") else "top"
    if init == "top":
        return aligned_state(weights, excited=True)
    if init == "bottom":
        return aligned_state(weights)
    if init == "uniform":
        return uniform_state(weights)
    if init.startswith("gibbs:"):
        return gibbs_state(weights, _parse_b0(init.split(":", 1)[1], f"--init value {init!r}"))
    raise CliError(f"--init must be auto, top, bottom, uniform or gibbs:<b0>, got {init!r}")


def cmd_dynamics(args) -> None:
    if not 0.0 < args.epsilon < 1.0:  # NaN fails here too
        raise CliError(f"--epsilon must be in (0, 1), got {args.epsilon}")
    ensemble = SpinEnsemble(args.n, parse_spin(args.spin))
    weights, provenance = resolve_weights(args.weights, ensemble)
    if args.bh is None:
        raise CliError("dynamics needs --bh, the bath inverse temperature hbar*omega*beta")
    rates = RatePair.thermal(args.bh)
    times = parse_grid(args.grid, positive=False) if args.grid else np.empty(0)
    if times.size and times[0] < 0.0:
        raise CliError("dynamics times must be >= 0")
    state0 = _initial_state(args, weights, provenance)
    target = stationary_state(state0, rates)
    gen = collective_generator(ensemble, rates)

    pop_keys = []
    if args.populations:
        for tj, p in state0.blocks.items():
            pop_keys += [(tj, -tj + 2 * i) for i in range(len(p))]
    columns = ["t_in_inv_G", "energy_over_hw", "tv_to_steady"]
    columns += [f"pop_2J{tj}_2m{tm}" for tj, tm in pop_keys]

    # (energy, sector populations) at each time; each route keeps its own energy
    if args.oracle:
        rho0 = oracle.state_from_populations(state0, ensemble)
        states = (
            (rho.energy(), oracle.sector_populations(rho))
            for rho in oracle.trajectory(rho0, rates, times)
        )
    else:
        states = ((st.energy(), st) for st in (evolve(state0, gen, float(t)) for t in times))
    rows = []
    for t, (energy, pops) in zip(times, states):
        row = [float(t), energy, pops.tv_distance(target)]
        row += [float(pops.blocks[tj][(tm + tj) // 2]) for tj, tm in pop_keys]
        rows.append(row)

    trailing = None
    if times.size:
        relax = relaxation_time(state0, gen, args.epsilon)
        trailing = {
            "relaxation_time_inv_G": relax.time,
            "spectral_gap_G": relax.spectral_gap,
        }
    meta = {
        "version": __version__,
        "command": "dynamics",
        "n": ensemble.n,
        "two_s": ensemble.two_s,
        "weights": provenance,
        "bath_b": args.bh,
        "epsilon": args.epsilon,
        "oracle": bool(args.oracle),
    }
    emit_table(columns, rows, meta, args, trailing)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def _add_ensemble(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="number of spins")
    p.add_argument("--spin", required=True, help='spin magnitude, e.g. "1/2", "3/2", "1"')


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinheat",
        description="Collective vs independent spin-ensemble thermodynamics: "
        "heat capacities, thermometry bounds, Otto engine output, dynamics.",
        epilog="`--config FILE` (anywhere on the line) loads flag defaults from an "
        "INI file with one section per subcommand; explicit flags take precedence.",
    )
    parser.add_argument("--version", action="version", version=f"spinheat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="sweep one quantity over a temperature grid")
    _add_ensemble(p)
    p.add_argument("--quantity", choices=tuple(_QUANTITIES), required=True)
    p.add_argument("--weights", default="symmetric", help="symmetric | thermal=<b0> | file=<path>")
    p.add_argument("--grid", required=True, help="lo:hi:points:log|lin over kT/hw (or kT_h/(hw*lambda_h))")
    p.add_argument("--nu", type=int, default=1, help="measurement count for precision bounds")
    p.add_argument("--lambda-h", type=float, default=None, help="hot compression factor (exact cycle columns)")
    p.add_argument("--lambda-c", type=float, default=None, help="cold compression factor (exact cycle columns)")
    p.add_argument("--bc", type=float, default=None, help="cold bath hbar*omega*beta_c (exact cycle columns)")
    p.add_argument("--delta-eta", type=float, default=None, help="fixed Carnot gap (exact cycle columns)")
    p.add_argument("--tau-ind", type=float, default=1.0, help="independent-coupling cycle time")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("figure", help="emit the data behind one of the reference figures")
    p.add_argument("which", choices=sorted(FIGURES))
    p.add_argument("--grid", default=None, help="override the preset grid")
    _add_common(p)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("tcr", help="crossover temperature: closed form vs numeric root")
    p.add_argument("--spin", required=True)
    p.add_argument("--grid", required=True, help="lo:hi:points:log|lin over n (rounded to integers)")
    _add_common(p)
    p.set_defaults(func=cmd_tcr)

    p = sub.add_parser("si-report", help="SI-unit crossover and enhancement report")
    _add_ensemble(p)
    p.add_argument("--hbar-omega", type=float, required=True, help="level splitting in joules")
    _add_common(p)
    p.set_defaults(func=cmd_si_report)

    p = sub.add_parser("dynamics", help="sector-population relaxation trace")
    _add_ensemble(p)
    p.add_argument("--weights", default="symmetric", help="symmetric | thermal=<b0> | file=<path>")
    p.add_argument("--bh", type=float, default=None, help="bath inverse temperature hbar*omega*beta")
    p.add_argument("--grid", default=None, help="time grid lo:hi:points:log|lin, units 1/G")
    p.add_argument("--epsilon", type=float, default=1e-3, help="TV threshold for the relaxation time")
    p.add_argument("--init", default="auto", help="auto | top | bottom | uniform | gibbs:<b0>")
    p.add_argument("--populations", action="store_true", help="include per-(J,m) population columns")
    p.add_argument("--oracle", action="store_true", help="propagate the dense master equation (sparse Liouvillian) instead")
    _add_common(p)
    p.set_defaults(func=cmd_dynamics)

    return parser


def _apply_config(argv: list[str]) -> list[str]:
    """Fold `--config FILE` defaults into argv; explicit flags still win.

    The file is INI-style with one section per subcommand, keys named after
    the long flags (`grid = 0.1:10:50:log`). Injected tokens go right after
    the subcommand, so anything typed on the command line overrides them.
    """
    if "--config" not in argv:
        return argv
    at = argv.index("--config")
    if at + 1 >= len(argv):
        raise CliError("--config needs a file path")
    path = argv[at + 1]
    argv = argv[:at] + argv[at + 2 :]
    if not argv:
        raise CliError("--config given but no subcommand")
    cfg = configparser.ConfigParser()
    try:
        with open(path) as fh:
            cfg.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise CliError(f"cannot read config {path}: {exc}") from None
    command = argv[0]
    injected: list[str] = []
    if cfg.has_section(command):
        for key, value in cfg.items(command):
            flag = "--" + key.replace("_", "-")
            if value.strip().lower() in ("true", "false"):
                if value.strip().lower() == "true":
                    injected.append(flag)
            else:
                injected += [flag, value.strip()]
    return [command] + injected + argv[1:]


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        argv = _apply_config(list(argv))
    except CliError as exc:
        print(f"spinheat: error: {exc}", file=sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args)
    except (CliError, ValueError, MemoryError) as exc:  # a bare MemoryError has no message
        print(f"spinheat: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"spinheat: numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
