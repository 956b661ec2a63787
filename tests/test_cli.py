import argparse
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinheat import __version__, cli
from spinheat.cli import FIGURES, main, parse_grid, parse_spin
from spinheat.cli import CliError
from spinheat.dynamics import (
    RatePair,
    aligned_state,
    collective_generator,
    relaxation_time,
    uniform_state,
)
from spinheat.sectors import SpinEnsemble, symmetric_weights, thermal_product_weights
from spinheat.thermo import collective_heat_capacity, independent_heat_capacity

from brute import weights_of_every_kind


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return header, rows


def _digest(out):
    return hashlib.sha256(out.encode()).hexdigest()


_SWEEP = ("--n", "37", "--spin", "3/2", "--weights", "thermal=0.5", "--grid", "0.03:80:33:log")
_DELTA_ETA = ("--lambda-h", "1.0", "--bc", "1.5", "--delta-eta", "1e-3")
_LAMBDA_C = ("--lambda-h", "1.0", "--lambda-c", "0.8", "--bc", "1.5", "--tau-ind", "1.7")
# later flags override earlier ones, so a test appends the one it varies
_HC = ("sweep", "--n", "2", "--spin", "1/2", "--quantity", "heat-capacity", "--grid", "1:2:2:lin")
_DYNAMICS = ("dynamics", "--n", "4", "--spin", "1/2", "--weights", "thermal=0.5", "--bh", "2",
             "--grid", "0:3:7:lin", "--populations")

# SHA-256 of stdout for each invocation, as the CLI printed it before its
# quantity table, row builder and output writer were merged: any changed byte
# in a figure preset, sweep column, trailing line or JSON document shows here.
# The `_DYNAMICS` digest was re-pinned once `evolve` rescaled each sector to
# its input mass: its population rows moved by at most 8.9e-16 absolute. It
# was re-pinned again once propagators dropped entries below sqrt(tiny): three
# cells of the t = 2.5 row moved, by at most 4.2e-17 absolute. It was
# re-pinned a third time once propagators scaled their columns back to unit
# sum after each squaring: 37 cells moved, by at most 2.2e-16 absolute, and
# the trailing relaxation time and gap did not move. The `--oracle`
# digest was re-pinned once the oracle propagated by the sparse Liouvillian's
# action in place of adaptive integration: 65 cells of the t > 0 rows moved,
# and the table's largest gap to the rate-equation table fell from 4.8e-11 to
# 4.4e-16 absolute. The `figure 3b` (CSV and JSON) and `precision-ratio`
# digests were re-pinned once that column became 1/sqrt of the shared
# capacity ratio in place of sqrt(c_ind/c_col): 357, 357 and 14 cells moved,
# each by 1 ulp. The four exact-cycle sweep digests were re-pinned once the
# independent columns became n times the one-spin cycle,
# n ((lambda_h - lambda_c)(e_h - e_c)) in place of
# (lambda_h - lambda_c)(n e_h - n e_c): with `_LAMBDA_C` 16 work and 14 power
# cells moved, by at most 9 ulp; with `_DELTA_ETA` 21 cells of each moved, all
# by less than 1e-4 of the cancellation floor
# 1e-12 |lambda_h - lambda_c| (|E_h| + |E_c| + 1), the largest relative move
# (0.4%) at x = 0.038, where |W_ind| ~ 4e-12 is cancellation on both sides.
GOLDEN_DIGESTS = {
    ("figure", "1a"):
        "49827d3618576ac10005daa20bc376a45bbf1a0fcbbec24dae15033726dbb16f",
    ("figure", "1a", "--format", "json"):
        "87f981cbe693289cf77d1c2d2013672af782ccd263607249e1cad34a10c206a2",
    ("figure", "1b"):
        "597d662c667fbbac646cf08b2600b48995b27535328eca4848a92d39b21eeae1",
    ("figure", "1b", "--format", "json"):
        "f5061f07de2ea0594bf0b14e73fa071c7f313b3946c24087232d9a2724e52cc5",
    ("figure", "2a"):
        "74f1594118caa120de48664bd5ae3a7f09f9abfc8a17de61ec7759a856cfedfa",
    ("figure", "2a", "--format", "json"):
        "61692d4eaee19f24c12fdbdb81e7d850d14eec5075aa573a144c4becd4857b54",
    ("figure", "2b"):
        "4bb62897b0f15af25143ec1ca60ea15c45a0ea385310dfc96f71e785336ed07c",
    ("figure", "2b", "--format", "json"):
        "c5f5f5639488d7ab01f8946779f7500a31b9de46b18b2ca257b23551673c24b8",
    ("figure", "3a"):
        "e22f9ae2188522e9dc28da10412bf8128014a139a2c1826b0f3cd97413a9e06d",
    ("figure", "3a", "--format", "json"):
        "3b664ed3035272120c5f25fff5898d4041ae8c1bb89c0c007aceef3c6318350c",
    ("figure", "3b"):
        "445ebc75833f99d66fd1981539aed9e3042843980eb643a57f8b9f653080d966",
    ("figure", "3b", "--format", "json"):
        "13a4b6a761d396040dde7cb68b9b16411e8f19f670b041e67be839bb6d84a183",
    ("figure", "4"):
        "1e363c7bc4e9e11d6953c5daf8fc87ab36011d06b26c1ad564beda6c82d52ca8",
    ("figure", "4", "--format", "json"):
        "6429b2350c1dab3e58a2b0d1a8b9c53c6b729c7c409ee909219c7b347f1496ac",
    ("figure", "5a"):
        "75b238696bf958d50cc418fca1b75932c4f74958af802875fe2ba8fdd62c6b5b",
    ("figure", "5a", "--format", "json"):
        "04e802848d83aeb33252ed9cdb0571b8d6d221dc554f573184dd80a0c5816f93",
    ("figure", "5b"):
        "8ed131f735ec9f5eee46039f7ac76c9d37fe3f2389148f08fdda4f76efb10c9d",
    ("figure", "5b", "--format", "json"):
        "38afc88ed5a368c6dbd7d0b86a36d0e8537cca19cbb40a107be352caa4f4b90d",
    ("figure", "3a", "--grid", "0.5:3:7:lin"):
        "ca48980b7640b3ae5a986a6c305d41cd2ac9efb23a6cc5eeea02677057555517",
    ("sweep", "--quantity", "heat-capacity") + _SWEEP:
        "43d69c4a42f33487e5a879fa9b8b348fe50db5b59553f49bab110935cd3aff5f",
    ("sweep", "--quantity", "hc-ratio") + _SWEEP:
        "cd33eef09001091726dde3801bd58684032d13868ba49afeab136293898a6a83",
    ("sweep", "--quantity", "precision") + _SWEEP:
        "64a07814729739fa2cbd21660dad623253c21fbd6e4429f3d5e3abc08ff5690b",
    ("sweep", "--quantity", "precision-ratio") + _SWEEP:
        "365b17269f4b014882af2e3afa817fb291e939c1527439e152b8c50c25efba2d",
    ("sweep", "--quantity", "work") + _SWEEP:
        "ea239bf21873963fd658f2f14f505e185a086b0d39b5a0d2d5f764f19248b946",
    ("sweep", "--quantity", "power") + _SWEEP:
        "7852ce7d4284acc8d511b67cb11f150159858347a866f3e194adcade7a0166d0",
    ("sweep", "--quantity", "power-ratio") + _SWEEP:
        "8096475c1fad58d1d2dbea392699ab9a1e996e93fff9c87ee399b9c674a3322e",
    ("sweep", "--quantity", "precision", "--nu", "7") + _SWEEP:
        "5b0073a66b4562b213a6762c3c29d78a216d8f392ec556aecc62036126da9ccf",
    ("sweep", "--quantity", "work") + _SWEEP + _DELTA_ETA:
        "9e8f44dece99a7fe129388f3d2e67b2dfda8aa47dffaa03796b1883e7d4f3ecf",
    ("sweep", "--quantity", "work") + _SWEEP + _LAMBDA_C:
        "b3f2a5a6ae93ac723ab752bc28f79f069f9731c69c74ab1b1fe7ae6bf00a28e2",
    ("sweep", "--quantity", "power") + _SWEEP + _DELTA_ETA:
        "560636f66a1fca542a67e6db30d070c8bf795abf929fbe85ae88085600bd6d98",
    ("sweep", "--quantity", "power") + _SWEEP + _LAMBDA_C:
        "67f2fbca90db9cc5d0f0239e27816da0e691e3923479f25949795870f92ec033",
    ("tcr", "--spin", "1/2", "--grid", "2:300:7:log"):
        "ae037243d7c616c4bedbed8282df279e2ea04e6d83f311f3ae32f00afda52839",
    _DYNAMICS:
        "e17381dfbc065fc9602eff24665240c7083b8f55d492468ceccc231aa7394a0c",
    _DYNAMICS + ("--oracle",):
        "9bf39f17d91fac104259fb5230ee50e5367fe7e59b10c75d5c9243093c719b73",
}


class TestGoldenDigests:
    @pytest.mark.parametrize("argv", sorted(GOLDEN_DIGESTS), ids=" ".join)
    def test_stdout_digest(self, capsys, argv):
        rc, out, _ = run(capsys, *argv)
        assert rc == 0
        assert _digest(out) == GOLDEN_DIGESTS[argv]


class TestOneParser:
    def test_calls_in_one_process_share_no_state(self, capsys, tmp_path):
        flags = ("--quantity", "precision", "--nu", "7") + _SWEEP
        cfg = tmp_path / "sweep.ini"
        cfg.write_text("[sweep]\n" + "".join(
            f"{flag[2:].replace('-', '_')} = {value}\n" for flag, value in zip(flags[::2], flags[1::2])))
        calls = [("sweep", "--config", str(cfg)), ("sweep", "--n", "2"), ("--version",),
                 ("sweep", *flags)] + [("figure", which) for which in sorted(FIGURES)]
        cli.build_parser.cache_clear()
        first = [run(capsys, *argv) for argv in calls]
        assert [run(capsys, *argv) for argv in calls] == first
        (rc_cfg, via_config, _), (rc_usage, _, usage), (rc_version, version, _), (rc_direct, direct, _) = first[:4]
        assert (rc_cfg, rc_usage, rc_version, rc_direct) == (0, 2, 0, 0)
        assert "required" in usage
        assert version == f"spinheat {__version__}\n"
        assert _digest(via_config) == _digest(direct) == GOLDEN_DIGESTS[("sweep", *flags)]
        for argv, (rc, out, _) in zip(calls[4:], first[4:]):
            assert rc == 0
            assert _digest(out) == GOLDEN_DIGESTS[argv]

    def test_parser_is_built_at_the_first_call_only(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        counts = []
        for _ in range(5):
            assert run(capsys, "tcr", "--spin", "1/2", "--grid", "2:3:2:lin")[0] == 0
            counts.append(len(built))
        assert counts[0] > 0
        assert counts == counts[:1] * 5


class TestCells:
    def test_cells_are_python_numbers(self, capsys, monkeypatch):
        # CSV cells are printed with repr, which spells a numpy scalar np.float64(...)
        tables = []
        emit = cli.emit_table

        def recording_emit(columns, rows, meta, args, trailing=None):
            tables.append((meta["command"], rows, trailing or {}))
            emit(columns, rows, meta, args, trailing)

        monkeypatch.setattr(cli, "emit_table", recording_emit)
        calls = [("sweep", "--quantity", quantity) + _SWEEP for quantity in cli._QUANTITIES]
        calls += [("sweep", "--quantity", "work") + _SWEEP + _LAMBDA_C,
                  ("sweep", "--quantity", "power") + _SWEEP + _DELTA_ETA]
        calls += [("figure", which, "--grid", "0.5:2:3:log") for which in sorted(FIGURES)]
        calls += [("tcr", "--spin", "1/2", "--grid", "2:300:7:log"), _DYNAMICS, _DYNAMICS + ("--oracle",)]
        for argv in calls:
            assert run(capsys, *argv)[0] == 0
        assert len(tables) == len(calls)
        for command, rows, trailing in tables:
            cells = [value for row in rows for value in row] + list(trailing.values())
            assert cells and {type(value) for value in cells} <= {float, int}, command
        assert all(len(trailing) == 2 for _, _, trailing in tables[-2:])


class TestParsers:
    def test_spin_forms(self):
        assert parse_spin("1/2") == 1
        assert parse_spin("3/2") == 3
        assert parse_spin("1") == 2
        assert parse_spin("2.5") == 5

    def test_spin_rejects(self):
        for bad in ("0", "2/3", "x", "-1/2", "inf", "-inf", "1e400"):
            with pytest.raises(CliError):
                parse_spin(bad)

    def test_grid_forms(self):
        g = parse_grid("1:100:3:log")
        assert g == pytest.approx([1.0, 10.0, 100.0])
        assert parse_grid("0:2:3:lin", positive=False) == pytest.approx([0.0, 1.0, 2.0])
        assert parse_grid("5:9:0:lin").size == 0
        assert parse_grid("5:9:0:log").size == 0
        assert parse_grid("3.7:5e9:1:log").tolist() == [3.7]

    def test_grid_rejects(self):
        for bad in ("1:2:3", "2:1:5:log", "0:1:4:log", "1:2:-1:lin", "a:b:c:lin",
                    "nan:nan:2:lin", "1:inf:3:log", "-inf:1:3:lin"):
            with pytest.raises(CliError):
                parse_grid(bad)
        for bad in ("-1e308:1e308:1:lin", "-1e308:1e308:3:lin"):  # hi - lo overflows
            with pytest.raises(CliError, match="span must be finite"):
                parse_grid(bad, positive=False)
        for bad in ("-2.1:5:1:lin", "-1e-300:0:3:lin"):
            with pytest.raises(CliError, match="must be >= 0 here"):
                parse_grid(bad, positive=False)


class TestSweep:
    def test_hc_ratio_endpoints(self, capsys):
        rc, out, _ = run(
            capsys, "sweep", "--n", "2", "--spin", "1/2",
            "--quantity", "hc-ratio", "--grid", "0.025:100:9:log",
        )
        assert rc == 0
        header, rows = parse_csv(out)
        assert header == ["kT_over_hw", "hc_ratio"]
        assert rows[0][1] == pytest.approx(0.5, rel=0.02)  # b = 40 -> 1/n
        assert rows[-1][1] == pytest.approx(4.0 / 3.0, rel=0.02)

    def test_deterministic_output(self, capsys):
        argv = ("sweep", "--n", "5", "--spin", "3/2", "--quantity", "heat-capacity",
                "--grid", "0.1:10:25:log")
        rc1, out1, _ = run(capsys, *argv)
        rc2, out2, _ = run(capsys, *argv)
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_json_mode(self, capsys):
        rc, out, _ = run(
            capsys, "sweep", "--n", "3", "--spin", "1/2", "--quantity", "precision",
            "--grid", "1:2:2:lin", "--format", "json",
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["columns"] == ["kT_over_hw", "D_col", "D_ind"]
        assert doc["metadata"]["weights"] == "symmetric"
        assert doc["metadata"]["n"] == 3
        assert "version" in doc["metadata"]
        assert len(doc["rows"]) == 2

    def test_weights_file(self, capsys, tmp_path):
        from spinheat.thermo import block_heat_capacity

        path = tmp_path / "w.txt"
        # the second file sums to 1 + 5e-7 and is rescaled to 1
        for text, p2 in (("# two_J p_J\n0 0.25\n2 0.75\n", 0.75),
                         ("0 0.25\n2 0.7500005\n", 0.7500005 / 1.0000005)):
            path.write_text(text)
            rc, out, _ = run(
                capsys, "sweep", "--n", "2", "--spin", "1/2", "--quantity", "heat-capacity",
                "--weights", f"file={path}", "--grid", "1:1:1:lin",
            )
            assert rc == 0
            _, rows = parse_csv(out)
            assert rows[0][1] == pytest.approx(p2 * block_heat_capacity(2, 1.0), rel=1e-12)

    @pytest.mark.parametrize("n, spin, b0", [(2, "1/2", "0.3"), (3, "1/2", "0.3"), (12, "1", "1.7"),
                                             (37, "3/2", "0.5")])
    def test_weights_file_round_trip(self, capsys, tmp_path, n, spin, b0):
        # thermal weights written as repr(p_J) lines read back as the same weights
        path = tmp_path / "w.txt"
        weights = thermal_product_weights(SpinEnsemble(n, parse_spin(spin)), float(b0))
        path.write_text("".join(f"{tj} {p!r}\n" for tj, p in weights.weights.items()))
        rows = []
        for spec in (f"thermal={b0}", f"file={path}"):
            rc, out, _ = run(capsys, "sweep", "--n", str(n), "--spin", spin, "--quantity",
                             "heat-capacity", "--weights", spec, "--grid", "0.03:80:33:log")
            assert rc == 0
            rows.append(out.splitlines()[1:])
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("argv", [
        ("sweep", "--quantity", "heat-capacity", "--grid", "0.03:80:9:log"),
        ("sweep", "--quantity", "precision", "--nu", "100", "--grid", "0.1:10:5:log"),
        ("sweep", "--quantity", "work", *_DELTA_ETA, "--grid", "0.1:10:5:log"),
        ("dynamics", "--bh", "2", "--grid", "0:3:4:lin", "--populations"),
    ], ids=["heat-capacity", "precision", "work", "dynamics"])
    def test_weights_file_order_is_irrelevant(self, capsys, tmp_path, argv):
        # a file in descending two_J prints the same bytes as the ascending one
        path = tmp_path / "w.txt"
        items = list(thermal_product_weights(SpinEnsemble(5, 1), 0.4).weights.items())
        outs = []
        for order in (items, items[::-1]):
            path.write_text("".join(f"{tj} {p!r}\n" for tj, p in order))
            rc, out, _ = run(capsys, *argv, "--n", "5", "--spin", "1/2", "--weights", f"file={path}")
            assert rc == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_rescaled_weights_file_order_is_irrelevant(self, capsys, tmp_path):
        # a file off by more than WEIGHT_SUM_TOL is rescaled by one total,
        # summed in ascending two_J whatever the line order
        path = tmp_path / "w.txt"
        weights = thermal_product_weights(SpinEnsemble(40, 1), 0.4).weights
        items = [(tj, p * (1 + 5e-7)) for tj, p in weights.items()]
        outs = []
        for order in (items, items[::-1]):
            path.write_text("".join(f"{tj} {p!r}\n" for tj, p in order))
            rc, out, _ = run(capsys, "sweep", "--n", "40", "--spin", "1/2", "--quantity",
                             "heat-capacity", "--weights", f"file={path}",
                             "--grid", "0.03:80:33:log")
            assert rc == 0
            outs.append(out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("grid", ["1e-160:1e-150:2:log", "1e-320:1e-310:2:log"])
    def test_zero_temperature_grid(self, capsys, grid):
        # b = 1/x reaches 1e160 and inf: capacities vanish instead of turning NaN
        argv = ("sweep", "--n", "3", "--spin", "1/2", "--grid", grid, "--quantity")
        rc, out, _ = run(capsys, *argv, "heat-capacity")
        assert rc == 0
        assert [row[1:] for row in parse_csv(out)[1]] == [[0.0, 0.0], [0.0, 0.0]]
        rc, _, err = run(capsys, *argv, "precision")
        assert rc == 3
        assert "vanished" in err

    @pytest.mark.parametrize("grid", ["1e150:1e160:2:log", "1e300:1e308:2:log"])
    def test_high_temperature_grid(self, capsys, grid):
        # b = 1/x falls to 1e-160 and below, where n C_s(b) leaves the normal
        # range: the ratios read their b -> 0 limits, (ns+1)/(s+1) and n times it
        argv = ("sweep", "--n", "5", "--spin", "1/2", "--grid", grid, "--quantity")
        for quantity, want in (("hc-ratio", 7.0 / 3.0), ("power-ratio", 35.0 / 3.0)):
            rc, out, _ = run(capsys, *argv, quantity)
            assert rc == 0
            assert [row[1] for row in parse_csv(out)[1]] == pytest.approx([want] * 2, rel=1e-15)
        for quantity in ("work", "power"):
            rc, _, err = run(capsys, *argv, quantity)
            assert rc == 3
            assert "is too small: theta_h**2 underflows" in err

    @pytest.mark.parametrize("grid, want", [("1e150:1e300:4:log", (3.0 / 7.0) ** 0.5),
                                            ("1e-300:1e-2:4:log", 5.0 ** 0.5)])
    def test_precision_ratio_limits(self, capsys, grid, want):
        # 1/sqrt of the hc-ratio limits (ns+1)/(s+1) = 7/3 and 1/n = 1/5, also
        # where n C_s(b) leaves the normal range at either end of the axis
        rc, out, _ = run(capsys, "sweep", "--n", "5", "--spin", "1/2", "--quantity",
                         "precision-ratio", "--grid", grid)
        assert rc == 0
        assert [row[1] for row in parse_csv(out)[1]] == pytest.approx([want] * 4, rel=1e-15)

    def test_low_temperature_ratios_of_thermal_weights(self, capsys):
        # n C_s(b) underflows below x ~ 1.3e-3; across that the ratios hold
        # (1 - p_0)/n and 1 - p_0, with p_0 the weight of the J = 0 sector
        p0 = thermal_product_weights(SpinEnsemble(4, 1), 0.1).weights[0]
        for quantity, want in (("hc-ratio", (1.0 - p0) / 4), ("power-ratio", 1.0 - p0)):
            rc, out, _ = run(capsys, "sweep", "--n", "4", "--spin", "1/2", "--weights",
                             "thermal=0.1", "--grid", "1e-3:2e-3:5:log", "--quantity", quantity)
            assert rc == 0
            assert [row[1] for row in parse_csv(out)[1]] == pytest.approx([want] * 5, rel=1e-14)

    @pytest.mark.parametrize("quantity", ["work", "power"])
    @pytest.mark.parametrize("grid", ["1e-160:1e-150:2:log", "1e-320:1e-310:2:log"])
    def test_zero_temperature_work_and_power(self, capsys, grid, quantity):
        # b**2 overflows past b ~ 1.3e154, where the capacities are already 0.0
        rc, out, _ = run(capsys, "sweep", "--n", "3", "--spin", "1/2", "--grid", grid,
                         "--quantity", quantity)
        assert rc == 0
        assert [row[1:] for row in parse_csv(out)[1]] == [[0.0, 0.0], [0.0, 0.0]]

    def test_thermal_weights(self, capsys):
        rc, out, _ = run(
            capsys, "sweep", "--n", "4", "--spin", "1/2", "--quantity", "hc-ratio",
            "--weights", "thermal=2.0", "--grid", "1:1:1:lin",
        )
        assert rc == 0

    def test_exact_cycle_columns(self, capsys):
        rc, out, _ = run(
            capsys, "sweep", "--n", "2", "--spin", "1/2", "--quantity", "work",
            "--grid", "1:4:4:log", "--lambda-h", "1.0", "--lambda-c", "0.8", "--bc", "1.5",
        )
        assert rc == 0
        header, rows = parse_csv(out)
        assert header[-2:] == ["W_col_exact", "W_ind_exact"]
        from spinheat.otto import OttoParams, cycle_exact

        x = rows[-1][0]
        p = OttoParams(0.8, 1.0, 1.5, 1.0 / x)
        want = cycle_exact(symmetric_weights(SpinEnsemble(2, 1)), p).work_extracted
        assert rows[-1][3] == pytest.approx(want, rel=1e-12)

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "table.csv"
        rc, out, _ = run(
            capsys, "sweep", "--n", "2", "--spin", "1", "--quantity", "power-ratio",
            "--grid", "0.5:5:4:log", "--out", str(dest),
        )
        assert rc == 0
        assert out == ""
        header, rows = parse_csv(dest.read_text())
        assert header == ["kTh_over_hw_lambda_h", "power_ratio"]
        assert len(rows) == 4


class TestFigures:
    def test_all_presets_emit(self, capsys):
        for which, (quantity, curves, _) in sorted(FIGURES.items()):
            rc, out, _ = run(capsys, "figure", which, "--grid", "0.5:2:3:log")
            assert rc == 0
            header, rows = parse_csv(out)
            per_curve = 2 if quantity in ("heat-capacity", "precision", "work", "power") else 1
            assert len(header) == 1 + per_curve * len(curves)
            assert len(rows) == 3

    def test_figure_1b_default_grid_endpoints(self, capsys):
        rc, out, _ = run(capsys, "figure", "1b")
        assert rc == 0
        header, rows = parse_csv(out)
        assert rows[0][0] == pytest.approx(0.025)
        assert rows[-1][0] == pytest.approx(1000.0)
        # columns follow the preset curve order: s = 1/2, 3/2, 9/2 at n = 2
        for col, (n, two_s) in zip((1, 2, 3), ((2, 1), (2, 3), (2, 9))):
            s = 0.5 * two_s
            assert rows[-1][col] == pytest.approx((n * s + 1) / (s + 1), rel=0.02)
            assert rows[0][col] == pytest.approx(1.0 / n, rel=0.02)

    @pytest.mark.parametrize("which", ["2a", "3a", "4", "5a"])
    def test_independent_columns_are_exact(self, capsys, which):
        quantity, curves, _ = FIGURES[which]
        _, names, values = cli._QUANTITIES[quantity]
        rc, out, _ = run(capsys, "figure", which)
        assert rc == 0
        header, *lines = out.splitlines()
        header = header.split(",")
        for n, two_s in curves:
            ensemble = SpinEnsemble(n, two_s)
            weights = symmetric_weights(ensemble)
            col = header.index(f"{names[1]}_n{n}_s{0.5 * two_s:g}")
            for line in lines:
                cells = line.split(",")
                x = float(cells[0])
                b = 1.0 / x
                c_col = collective_heat_capacity(weights, b).c_over_kb
                c_ind = independent_heat_capacity(ensemble, b).c_over_kb
                assert cells[col] == repr(values(c_col, c_ind, weights, b, x, 1)[1])


def rows_by_point(quantity, curves, grid, nu):
    """_rows written point by point: both capacities from the thermo calls at each x."""
    values = cli._QUANTITIES[quantity][2]
    rows = []
    for x in map(float, grid):
        b = 1.0 / x
        row = [x]
        for ensemble, weights in curves:
            row += values(collective_heat_capacity(weights, b).c_over_kb,
                          independent_heat_capacity(ensemble, b).c_over_kb, weights, b, x, nu)
        rows.append(row)
    return rows


class TestRows:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(quantity=st.sampled_from(sorted(cli._QUANTITIES)),
           weights=st.lists(weights_of_every_kind(), min_size=1, max_size=4),
           grid=st.lists(st.one_of(st.floats(1e-3, 1e3), st.sampled_from(
               [5e-324, 1e-300, 1e-155, 1e155, 1e300, 1.7976931348623157e308])), max_size=25),
           nu=st.integers(1, 100))
    def test_columns_equal_the_pointwise_rows(self, quantity, weights, grid, nu):
        # curves mix spins and weight kinds; a capacity that vanishes or a
        # theta_h**2 that underflows must fail at the same point with the same message
        curves = [(w.ensemble, w) for w in weights]
        try:
            want = rows_by_point(quantity, curves, grid, nu)
        except ArithmeticError as exc:
            with pytest.raises(type(exc)) as got:
                cli._rows(quantity, curves, grid, nu)
            assert str(got.value) == str(exc)
            return
        got = cli._rows(quantity, curves, grid, nu)
        assert [list(map(repr, row)) for row in got] == [list(map(repr, row)) for row in want]


class TestTcr:
    def test_table(self, capsys):
        rc, out, _ = run(capsys, "tcr", "--spin", "1/2", "--grid", "2:100:4:log")
        assert rc == 0
        header, rows = parse_csv(out)
        assert header == ["n", "tcr_approx", "tcr_numeric", "rel_gap"]
        assert all(row[3] < 0.10 for row in rows)

    def test_large_ensemble_resolves(self, capsys):
        # the capacity gap's rounding floor here is about 1e-12
        rc, out, _ = run(capsys, "tcr", "--spin", "1/2", "--grid", "10000:10000:1:log")
        assert rc == 0
        _, rows = parse_csv(out)
        assert rows[0][3] < 1e-3

    def test_single_spin_rejected(self, capsys):
        rc, _, err = run(capsys, "tcr", "--spin", "1/2", "--grid", "1:4:4:lin")
        assert rc == 2
        assert "n >= 2" in err

    def test_zero_spins_rejected(self, capsys):
        # 0.2 rounds to n = 0
        rc, out, err = run(capsys, "tcr", "--spin", "1/2", "--grid", "0.2:4:3:lin")
        assert (rc, out) == (2, "")
        assert "at least one spin" in err


class TestSiReport:
    def test_nv_center_numbers(self, capsys):
        rc, out, _ = run(
            capsys, "si-report", "--n", "10", "--spin", "1/2", "--hbar-omega", "1.9e-24",
            "--format", "json",
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["tcr_closed_form_K"] == pytest.approx(0.22, rel=0.05)
        assert doc["qfi_enhancement_high_T"] == pytest.approx(4.0, abs=1e-12)
        assert doc["precision_ratio_high_T"] == pytest.approx(0.5, abs=1e-12)
        assert "note" not in doc

    def test_cesium_note(self, capsys):
        rc, out, _ = run(
            capsys, "si-report", "--n", "10", "--spin", "7/2", "--hbar-omega", "2.4e-30",
            "--format", "json",
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["qfi_enhancement_high_T"] == pytest.approx(8.0, abs=1e-12)
        assert "microkelvin" in doc["note"]

    @pytest.mark.parametrize(
        "args,fmt,expected",
        [
            (
                ("--n", "10", "--spin", "1/2", "--hbar-omega", "1.9e-24"), "csv",
                "n = 10\nspin = 0.5\nhbar_omega_J = 1.9e-24\n"
                "omega_rad_per_s = 18016790979.727085\n"
                "temperature_unit_K = 0.1376164398047585\n"
                "tcr_closed_form_K = 0.22118748074138342\n"
                "tcr_numeric_K = 0.21543174327585224\n"
                "qfi_enhancement_high_T = 4.0\nprecision_ratio_high_T = 0.5\n",
            ),
            (
                ("--n", "7", "--spin", "3/2", "--hbar-omega", "1e-23"), "csv",
                "n = 7\nspin = 1.5\nhbar_omega_J = 1e-23\n"
                "omega_rad_per_s = 94825215682.77412\n"
                "temperature_unit_K = 0.7242970516039919\n"
                "tcr_closed_form_K = 2.1526777745015817\n"
                "tcr_numeric_K = 2.0764353240784805\n"
                "qfi_enhancement_high_T = 4.6\nprecision_ratio_high_T = 0.4662524041201569\n",
            ),
            (
                ("--n", "10", "--spin", "1/2", "--hbar-omega", "1.9e-24"), "json",
                '{\n  "metadata": {\n    "version": "0.1.0",\n    "command": "si-report"\n  },\n'
                '  "n": 10,\n  "spin": "0.5",\n  "hbar_omega_J": 1.9e-24,\n'
                '  "omega_rad_per_s": 18016790979.727085,\n'
                '  "temperature_unit_K": 0.1376164398047585,\n'
                '  "tcr_closed_form_K": 0.22118748074138342,\n'
                '  "tcr_numeric_K": 0.21543174327585224,\n'
                '  "qfi_enhancement_high_T": 4.0,\n  "precision_ratio_high_T": 0.5\n}\n',
            ),
            (
                ("--n", "7", "--spin", "3/2", "--hbar-omega", "1e-23"), "json",
                '{\n  "metadata": {\n    "version": "0.1.0",\n    "command": "si-report"\n  },\n'
                '  "n": 7,\n  "spin": "1.5",\n  "hbar_omega_J": 1e-23,\n'
                '  "omega_rad_per_s": 94825215682.77412,\n'
                '  "temperature_unit_K": 0.7242970516039919,\n'
                '  "tcr_closed_form_K": 2.1526777745015817,\n'
                '  "tcr_numeric_K": 2.0764353240784805,\n'
                '  "qfi_enhancement_high_T": 4.6,\n'
                '  "precision_ratio_high_T": 0.4662524041201569\n}\n',
            ),
        ],
    )
    def test_golden_output(self, capsys, args, fmt, expected):
        # the enhancement factor now comes from heat_capacity_ratio(ensemble, 0.0);
        # the report must read exactly as when the CLI computed (2ns+2)/(2s+2) itself
        rc, out, _ = run(capsys, "si-report", *args, "--format", fmt)
        assert rc == 0
        assert out == expected

    def test_single_spin_has_no_crossover(self, capsys):
        rc, out, _ = run(capsys, "si-report", "--n", "1", "--spin", "1/2", "--hbar-omega", "1e-24")
        assert rc == 0
        assert "tcr_numeric_K" not in out
        assert "qfi_enhancement_high_T = 1.0" in out


class TestDynamics:
    @pytest.mark.parametrize("epsilon", ["nan", "0", "1", "-0.5", "2", "inf"])
    @pytest.mark.parametrize("grid", [(), ("--grid", "0:1:3:lin")], ids=["no_grid", "grid"])
    def test_epsilon_outside_unit_interval(self, capsys, epsilon, grid):
        rc, out, err = run(capsys, "dynamics", "--n", "2", "--spin", "1/2", "--bh", "1",
                           "--epsilon", epsilon, "--format", "json", *grid)
        assert rc == 2
        assert out == ""
        assert err.startswith("spinheat: error: --epsilon must be in (0, 1)")

    @pytest.mark.parametrize("n", ["3", "10"])
    @pytest.mark.parametrize("b0, energy", [("1e308", -1.0), ("-1e308", 1.0)])
    def test_gibbs_init_past_exponent_overflow(self, capsys, n, b0, energy):
        # |b0| J overflows; the initial state is the bottom (top) level exactly
        rc, out, err = run(capsys, "dynamics", "--n", n, "--spin", "1/2", "--bh", "1",
                           "--grid", "0:1:2:lin", "--init", f"gibbs:{b0}")
        assert (rc, err) == (0, "")
        _, rows = parse_csv(out)
        assert rows[0][1] == energy * int(n) / 2

    def test_header_only_for_empty_grid(self, capsys):
        rc, out, _ = run(
            capsys, "dynamics", "--n", "2", "--spin", "1/2", "--bh", "5", "--grid", "0:1:0:lin",
        )
        assert rc == 0
        assert out.strip() == "t_in_inv_G,energy_over_hw,tv_to_steady"

    def test_monotone_tv_decay_with_annotations(self, capsys):
        rc, out, _ = run(
            capsys, "dynamics", "--n", "2", "--spin", "1/2", "--bh", "10",
            "--grid", "0:4:9:lin", "--populations",
        )
        assert rc == 0
        assert "# relaxation_time_inv_G" in out
        assert "# spectral_gap_G" in out
        header, rows = parse_csv(out)
        assert header[3:] == ["pop_2J2_2m-2", "pop_2J2_2m0", "pop_2J2_2m2"]
        tv = [row[2] for row in rows]
        assert all(a >= b for a, b in zip(tv, tv[1:]))

    def test_uniform_init_populations(self, capsys):
        # the t = 0 row is the initial state itself, one cell per level in level order
        rc, out, err = run(capsys, "dynamics", "--n", "3", "--spin", "1/2", "--weights", "thermal=0.5",
                           "--bh", "1", "--init", "uniform", "--grid", "0:1:2:lin", "--populations")
        assert (rc, err) == (0, "")
        header, rows = parse_csv(out)
        assert header[3:] == ["pop_2J1_2m-1", "pop_2J1_2m1",
                              "pop_2J3_2m-3", "pop_2J3_2m-1", "pop_2J3_2m1", "pop_2J3_2m3"]
        want = uniform_state(thermal_product_weights(SpinEnsemble(3, 1), 0.5))
        assert rows[0][3:] == [*want.blocks[1].tolist(), *want.blocks[3].tolist()]

    def test_json_metadata_carries_the_csv_trailer(self, capsys):
        rc, csv_out, _ = run(capsys, *_DYNAMICS)
        rc_json, json_out, err = run(capsys, *_DYNAMICS, "--format", "json")
        assert (rc, rc_json, err) == (0, 0, "")
        trailer = dict(line[2:].split(" = ") for line in csv_out.splitlines() if line.startswith("# "))
        assert sorted(trailer) == ["relaxation_time_inv_G", "spectral_gap_G"]
        payload = json.loads(json_out)
        assert {k: payload["metadata"][k] for k in trailer} == {k: float(v) for k, v in trailer.items()}
        assert [payload["columns"], payload["rows"]] == list(parse_csv(csv_out))

    def test_oracle_matches_rate_equations(self, capsys):
        argv = ("dynamics", "--n", "2", "--spin", "1/2", "--bh", "2",
                "--grid", "0:2:5:lin", "--init", "top")
        rc1, out1, _ = run(capsys, *argv)
        rc2, out2, _ = run(capsys, *argv, "--oracle")
        assert rc1 == rc2 == 0
        _, rows1 = parse_csv(out1)
        _, rows2 = parse_csv(out2)
        for r1, r2 in zip(rows1, rows2):
            assert r1[1] == pytest.approx(r2[1], abs=1e-6)  # energy column

    def test_oracle_dimension_cap(self, capsys):
        # 2**20000 has more digits than str() of an int will print
        for n in ("7", "20000"):
            rc, _, err = run(
                capsys, "dynamics", "--n", n, "--spin", "1/2", "--bh", "2",
                "--grid", "0:1:2:lin", "--oracle",
            )
            assert rc == 2
            assert f"Hilbert dimension 2**{n} exceeds the dense-oracle cap" in err

    def test_huge_times_reach_the_steady_state(self, capsys):
        rc, out, err = run(
            capsys, "dynamics", "--n", "3", "--spin", "1/2", "--bh", "2", "--grid", "0:1e300:3:lin",
        )
        assert (rc, err) == (0, "")
        assert [row[2] < 1e-15 for row in parse_csv(out)[1]] == [False, True, True]

    def test_nan_bath_is_usage_error(self, capsys):
        rc, _, err = run(
            capsys, "dynamics", "--n", "2", "--spin", "1/2", "--bh", "nan", "--grid", "0:1:2:lin",
        )
        assert rc == 2
        assert "g_up must be finite" in err

    def test_infinite_bath_is_zero_temperature(self, capsys):
        # g_up = 0: the symmetric n = 2 ladder decays at its edge rate 2J = 2
        rc, out, _ = run(
            capsys, "dynamics", "--n", "2", "--spin", "1/2", "--bh", "inf", "--grid", "0:1:2:lin",
        )
        assert rc == 0
        assert float(out.split("spectral_gap_G = ")[1].splitlines()[0]) == pytest.approx(2.0)

    def test_negative_times_are_usage_error(self, capsys):
        rc, out, err = run(capsys, "dynamics", "--n", "2", "--spin", "1/2", "--bh", "1",
                           "--grid=-1:1:3:lin")
        assert (rc, out) == (2, "")
        assert "grid values must be >= 0 here" in err

    def test_negative_temperature_bath(self, capsys):
        argv = ("dynamics", "--n", "2", "--spin", "1/2", "--grid", "0:1:2:lin")
        assert run(capsys, *argv, "--bh", "-700")[0] == 0
        rc, out, err = run(capsys, *argv, "--bh", "-800")
        assert (rc, out) == (2, "")
        assert "overflows at b=-800.0" in err

    def test_missing_bath_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "dynamics", "--n", "2", "--spin", "1/2", "--grid", "0:1:2:lin")
        assert rc == 2
        assert "--bh" in err

    def test_collective_halves_two_spin_relaxation(self, capsys):
        # n = 2 at strong bias: the reported time is half the single-spin one
        rc, out, _ = run(
            capsys, "dynamics", "--n", "2", "--spin", "1/2", "--bh", "10",
            "--grid", "0:1:2:lin", "--init", "bottom", "--epsilon", "1e-8",
        )
        assert rc == 0
        reported = float(out.split("relaxation_time_inv_G = ")[1].splitlines()[0])
        rates = RatePair.thermal(10.0)
        single = relaxation_time(
            aligned_state(symmetric_weights(SpinEnsemble(1, 1))),
            collective_generator(SpinEnsemble(1, 1), rates),
            1e-8,
        ).time
        assert single / reported == pytest.approx(2.0, rel=0.05)


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, capsys, tmp_path):
        cfg = tmp_path / "spinheat.ini"
        cfg.write_text("[sweep]\nn = 2\nspin = 1/2\ngrid = 1:4:2:log\n")
        rc, out, _ = run(
            capsys, "sweep", "--config", str(cfg), "--quantity", "hc-ratio",
        )
        assert rc == 0
        _, rows = parse_csv(out)
        assert len(rows) == 2 and rows[0][0] == pytest.approx(1.0)
        # an explicit flag beats the config value
        rc, out, _ = run(
            capsys, "sweep", "--config", str(cfg), "--quantity", "hc-ratio",
            "--grid", "2:2:1:lin",
        )
        assert rc == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1 and rows[0][0] == pytest.approx(2.0)

    @pytest.mark.parametrize("flags", [
        ("--quantity", "precision", "--nu", "7") + _SWEEP,
        ("--quantity", "power") + _SWEEP + _LAMBDA_C + ("--format", "json"),
    ], ids=" ".join)
    def test_config_round_trip(self, capsys, tmp_path, flags):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text("[sweep]\n" + "".join(
            f"{flag[2:].replace('-', '_')} = {value}\n" for flag, value in zip(flags[::2], flags[1::2])))
        rc, direct, _ = run(capsys, "sweep", *flags)
        assert rc == 0
        rc, via_config, _ = run(capsys, "sweep", "--config", str(cfg))
        assert rc == 0
        assert via_config == direct

    def test_boolean_keys(self, capsys, tmp_path):
        cfg = tmp_path / "dyn.ini"
        cfg.write_text("[dynamics]\nbh = 5\npopulations = true\ngrid = 0:1:2:lin\n")
        rc, out, _ = run(capsys, "dynamics", "--config", str(cfg), "--n", "2", "--spin", "1/2")
        assert rc == 0
        header, _ = parse_csv(out)
        assert any(col.startswith("pop_") for col in header)

    def test_missing_config_file(self, capsys):
        rc, _, err = run(capsys, "sweep", "--config", "/nonexistent.ini",
                         "--n", "2", "--spin", "1/2", "--quantity", "work", "--grid", "1:2:2:lin")
        assert rc == 2
        assert "config" in err


class TestExitCodes:
    def test_usage_error_from_argparse(self, capsys):
        assert main(["sweep", "--n", "2"]) == 2  # missing required flags

    @pytest.mark.parametrize("dest", [("missing", "x.csv"), ()], ids=["missing directory", "directory"])
    def test_unwritable_out(self, capsys, tmp_path, dest):
        rc, out, err = run(capsys, "sweep", "--n", "3", "--spin", "1/2", "--quantity", "heat-capacity",
                           "--grid", "1:2:3:log", "--out", str(tmp_path.joinpath(*dest)))
        assert (rc, out) == (2, "")
        assert err.startswith(f"spinheat: error: cannot write {tmp_path.joinpath(*dest)}: ")
        assert err.count("\n") == 1

    def test_memory_error_is_an_input_error(self, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "thermal_product_weights", exhausted)
        rc, out, err = run(capsys, "sweep", "--n", "300000", "--spin", "1/2", "--quantity",
                           "heat-capacity", "--weights", "thermal=0.5", "--grid", "1:2:2:lin")
        assert rc == 2
        assert out == ""
        assert err == "spinheat: error: out of memory\n"

    def test_bad_grid(self, capsys):
        rc, _, err = run(
            capsys, "sweep", "--n", "2", "--spin", "1/2", "--quantity", "work",
            "--grid", "10:1:5:log",
        )
        assert rc == 2
        assert "ordered" in err

    @pytest.mark.parametrize("spin", ["inf", "-inf", "1e400"])
    def test_infinite_spin(self, capsys, spin):
        rc, out, err = run(capsys, "sweep", "--n", "2", f"--spin={spin}", "--quantity",
                           "heat-capacity", "--grid", "1:2:2:lin")
        assert (rc, out) == (2, "")
        assert "cannot parse spin" in err

    def test_non_finite_grid(self, capsys):
        rc, out, err = run(
            capsys, "sweep", "--n", "3", "--spin", "1/2", "--quantity", "heat-capacity",
            "--grid", "nan:nan:2:lin",
        )
        assert rc == 2
        assert out == ""
        assert "finite" in err

    def test_non_finite_thermal_weights(self, capsys):
        for b0 in ("nan", "inf", "-inf"):
            for argv in (
                ("sweep", "--quantity", "heat-capacity", "--weights", f"thermal={b0}",
                 "--grid", "1:2:2:lin"),
                ("dynamics", "--bh", "1", "--init", f"gibbs:{b0}", "--grid", "0:1:2:lin"),
            ):
                rc, out, err = run(capsys, *argv, "--n", "3", "--spin", "1/2")
                assert rc == 2
                assert out == ""
                assert "finite b0" in err

    def test_non_finite_cycle_parameter(self, capsys):
        rc, out, err = run(
            capsys, "sweep", "--n", "3", "--spin", "1/2", "--quantity", "work",
            "--lambda-h", "nan", "--bc", "2", "--delta-eta", "1e-3", "--grid", "1:2:2:lin",
        )
        assert rc == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("flag,value,why", [
        ("--lambda-h", "nan", "finite"), ("--lambda-h", "inf", "finite"),
        ("--bc", "nan", "finite"), ("--delta-eta", "nan", "finite"), ("--bc", "0", "> 0"),
    ])
    def test_bad_cycle_flag_is_named(self, capsys, flag, value, why):
        cycle = {"--lambda-h": "1", "--bc": "2", "--delta-eta": "1e-3", flag: value}
        rc, out, err = run(
            capsys, "sweep", "--n", "3", "--spin", "1/2", "--quantity", "work",
            *(word for pair in cycle.items() for word in pair), "--grid", "1:2:2:lin",
        )
        assert rc == 2
        assert out == ""
        assert f"{flag} must be {why}, got {value}" in err

    def test_delta_eta_driving_lambda_c_below_zero_is_named(self, capsys):
        # lambda_c = lambda_h (b_h / b_c + delta_eta) = 1 / (2x) - 0.3 is > 0 at x = 1, not at x = 2
        rc, out, err = run(
            capsys, "sweep", "--n", "3", "--spin", "1/2", "--quantity", "work",
            "--lambda-h", "1", "--bc", "2", "--delta-eta", "-0.3", "--grid", "1:4:4:lin",
        )
        assert rc == 2
        assert out == ""
        assert "--delta-eta -0.3 drives lambda_c to" in err
        assert "<= 0 at kTh_over_hw_lambda_h = 2.0" in err

    @pytest.mark.parametrize("argv", [
        ("--quantity", "heat-capacity", "--lambda-h", "1", "--bc", "2", "--delta-eta", "1e-3"),
        ("--quantity", "precision", "--lambda-c", "0.8"),
        ("--quantity", "hc-ratio", "--bc", "2"),
        ("--quantity", "power-ratio", "--delta-eta", "1e-3"),
        ("--quantity", "work", "--lambda-h", "1", "--delta-eta", "1e-3"),
        ("--quantity", "work", "--bc", "2", "--lambda-c", "0.8"),
        ("--quantity", "power", "--lambda-h", "1", "--bc", "2"),
        ("--quantity", "work", "--lambda-h", "1", "--bc", "2", "--lambda-c", "0.8",
         "--delta-eta", "1e-3"),
    ], ids=" ".join)
    def test_unusable_cycle_flags(self, capsys, argv):
        rc, out, err = run(capsys, "sweep", "--n", "3", "--spin", "1/2", "--grid", "1:2:2:lin", *argv)
        assert rc == 2
        assert out == ""
        assert "--quantity work or power" in err or "exactly one of" in err

    def test_zero_measurement_count(self, capsys):
        rc, _, err = run(
            capsys, "sweep", "--n", "3", "--spin", "1/2", "--quantity", "precision",
            "--nu", "0", "--grid", "1:2:2:lin",
        )
        assert rc == 2
        assert "--nu" in err

    @pytest.mark.parametrize("argv, message", [
        (("dynamics", "--n", "2", "--spin", "1/2", "--bh", "1", "--init", "sideways"),
         "--init must be auto, top, bottom, uniform or gibbs:<b0>, got 'sideways'"),
        (_HC + ("--weights", "bogus"), "--weights must be symmetric, thermal=<b0> or file=<path>, got 'bogus'"),
        (_HC + ("--weights", "thermal=abc"), "bad thermal weights spec 'thermal=abc'"),
        (_HC + ("--grid", "1:2:2:cubic"), "grid kind must be log or lin, got 'cubic'"),
        (_HC + ("--spin", "3/4"), "cannot parse spin '3/4'; use forms like 1/2, 3/2, 1, 2.5"),
        (_HC + ("--spin", "0.75"), "cannot parse spin '0.75'; use forms like 1/2, 3/2, 1, 2.5"),
        (_HC + ("--config",), "--config needs a file path"),
        (("--config", "spinheat.ini"), "--config given but no subcommand"),
    ], ids=" ".join)
    def test_usage_error_message(self, capsys, argv, message):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err == f"spinheat: error: {message}\n"

    @pytest.mark.parametrize("text, message", [
        ("0 0.5 1\n", "{path}:1: expected 'two_J p_J', got '0 0.5 1'"),
        ("# sectors\n2 half\n", "{path}:2: cannot parse '2 half'"),
        ("# no sectors\n\n", "weights file {path} has no entries"),
        (None, "cannot read weights file {path}: [Errno 2] No such file or directory: '{path}'"),
    ], ids=["three fields", "unparsable", "only comments", "missing"])
    def test_unreadable_weights_file(self, capsys, tmp_path, text, message):
        path = tmp_path / "w.txt"
        if text is not None:
            path.write_text(text)
        rc, out, err = run(capsys, *_HC, "--weights", f"file={path}")
        assert (rc, out) == (2, "")
        assert err == f"spinheat: error: {message.format(path=path)}\n"

    def test_numeric_failure_is_exit_3(self, capsys, tmp_path):
        # all weight on the trivial sector: precision bound diverges
        path = tmp_path / "dead.txt"
        path.write_text("0 1.0\n")
        for quantity in ("precision", "precision-ratio"):
            rc, _, err = run(
                capsys, "sweep", "--n", "2", "--spin", "1/2", "--quantity", quantity,
                "--weights", f"file={path}", "--grid", "1:2:2:lin",
            )
            assert rc == 3
            assert "numeric failure: heat capacity vanished at kT/hw = 1.0" in err

    def test_unnormalized_weights_file(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        for text in ("0 0.5\n2 0.9\n", "2 nan\n0 0.5\n"):
            path.write_text(text)
            rc, out, err = run(
                capsys, "sweep", "--n", "2", "--spin", "1/2", "--quantity", "hc-ratio",
                "--weights", f"file={path}", "--grid", "1:2:2:lin",
            )
            assert rc == 2
            assert out == ""
            assert "sum to" in err

    @pytest.mark.parametrize("text, message", [
        ("3 1.0\n", "two_j=3 is not a sector of SpinEnsemble(n=4, two_s=1)"),
        ("0 -0.5\n2 1.5\n", "negative or NaN sector weight p[0]=-0.5"),
    ], ids=["missing sector", "negative weight"])
    def test_weights_file_that_block_weights_refuses(self, capsys, tmp_path, text, message):
        path = tmp_path / "w.txt"
        path.write_text(text)
        rc, out, err = run(
            capsys, "sweep", "--n", "4", "--spin", "1/2", "--quantity", "heat-capacity",
            "--weights", f"file={path}", "--grid", "1:2:2:lin",
        )
        assert (rc, out) == (2, "")
        assert err == f"spinheat: error: {message}\n"

    def test_bad_cycle_time(self, capsys):
        for tau in ("0", "nan", "-1", "inf"):
            rc, out, err = run(
                capsys, "sweep", "--n", "3", "--spin", "1/2", "--quantity", "power",
                "--lambda-h", "1", "--bc", "2", "--delta-eta", "1e-3", "--tau-ind", tau,
                "--grid", "1:2:2:lin",
            )
            assert rc == 2
            assert out == ""
            assert "--tau-ind" in err

    def test_bad_level_splitting(self, capsys):
        for energy in ("0", "-1e-24", "nan", "inf"):
            rc, out, err = run(
                capsys, "si-report", "--n", "3", "--spin", "1/2", "--hbar-omega", energy,
            )
            assert rc == 2
            assert out == ""
            assert "--hbar-omega" in err
