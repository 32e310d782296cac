import argparse
import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import torvdw
from torvdw.cli import _COMMANDS, _config_echo, build_parser, main
from torvdw.dispersion import critical_ratio, particle_model, sweep_contour
from torvdw.errors import FarSourceWarning
from torvdw.geometry import toroid_from_radii
from torvdw.greens import FAR_SOURCE_FACTOR


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, data = rows[0], rows[1:]
    cols = {name: np.array([float(r[i]) for r in data]) for i, name in enumerate(header)}
    return header, cols


class TestGeom:
    def test_happy_path(self, capsys):
        code, out, _ = run_cli(capsys, "geom", "--a", "5", "--b", "3")
        assert code == 0
        assert "f         = 4 nm" in out
        assert "1.66666666667" in out

    def test_thin_ring_focal_scale(self, capsys):
        code, out, _ = run_cli(capsys, "geom", "--a", "5", "--b", "1")
        assert code == 0
        assert "4.89897948557" in out

    def test_thin_hole_residuals(self, capsys):
        # cosh xi0 - cos eta cancelled near eta = 0 and read 1.332e-14 here
        code, out, _ = run_cli(capsys, "geom", "--a", "1.0001", "--b", "1")
        assert code == 0
        residuals = [float(line.split(":")[1]) for line in out.splitlines() if "residual" in line]
        assert len(residuals) == 2 and max(residuals) <= 1e-15

    def test_inverted_radii_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "geom", "--a", "3", "--b", "5")
        assert code == 2
        assert "configuration error" in err


class TestPotential:
    def test_axis_cut_symmetric_and_normalized(self, capsys):
        code, out, _ = run_cli(
            capsys, "potential", "--a", "5", "--b", "1",
            "--zmin", "-12", "--zmax", "12", "--zpoints", "25",
        )
        assert code == 0
        header, cols = read_csv(out)
        assert header == ["z_nm", "VH_V", "VH_norm"]
        mid = 12
        assert cols["z_nm"][mid] == 0.0
        assert cols["VH_norm"][mid] == pytest.approx(-1.0, rel=1e-14)
        np.testing.assert_allclose(cols["VH_V"], cols["VH_V"][::-1], rtol=1e-12)
        assert np.all(np.isfinite(cols["VH_V"]))

    def test_asymmetric_source_skew(self, capsys):
        code, out, _ = run_cli(
            capsys, "potential", "--a", "5", "--b", "1", "--source-z", "3",
            "--zmin", "-10", "--zmax", "10", "--zpoints", "21",
        )
        assert code == 0
        _, cols = read_csv(out)
        v = cols["VH_V"]
        z = cols["z_nm"]
        assert abs(v[z == 5.0][0]) > abs(v[z == -5.0][0])

    def test_plane_cut_even_and_finite(self, capsys):
        code, out, _ = run_cli(
            capsys, "potential", "--a", "4", "--b", "1", "--cut", "plane",
            "--zpoints", "17",
        )
        assert code == 0
        header, cols = read_csv(out)
        assert header[0] == "r_nm"
        assert np.all(np.isfinite(cols["VH_V"]))
        assert cols["VH_norm"][0] == pytest.approx(-1.0, rel=1e-14)
        assert np.all(cols["r_nm"] < 3.0)  # restricted to r < a - b

    def test_axis_cut_even_far_below_the_midplane(self, capsys):
        # eta below the midplane is built near 0, not near 2 pi, where the
        # prefactor's 2 sin^2(eta / 2) would cancel
        code, out, _ = run_cli(
            capsys, "potential", "--a", "1.01", "--b", "1",
            "--zmin=-1e5", "--zmax=1e5", "--zpoints", "3",
        )
        assert code == 0
        _, cols = read_csv(out)
        low, high = cols["VH_V"][0], cols["VH_V"][-1]
        assert abs(low - high) <= 4 * np.spacing(abs(high))

    def test_truncation_is_numerical_failure(self, capsys):
        code, _, err = run_cli(
            capsys, "potential", "--a", "5", "--b", "3", "--ncap", "8",
        )
        assert code == 3
        assert "numerical failure" in err


class TestChargeEnergy:
    def test_normalized_peak_and_decay(self, capsys):
        code, out, _ = run_cli(
            capsys, "charge-energy", "--a", "5", "--b", "1",
            "--zmin", "-16", "--zmax", "16", "--zpoints", "33",
        )
        assert code == 0
        header, cols = read_csv(out)
        assert header == ["zprime_nm", "U_eV", "U_norm"]
        z, u = cols["zprime_nm"], cols["U_norm"]
        assert u[z == 0.0][0] == pytest.approx(-1.0, rel=1e-14)
        right = np.abs(u[z >= 0.0])
        assert np.all(np.diff(right) < 0.0)
        np.testing.assert_allclose(u, u[::-1], rtol=1e-12)


class TestVdw:
    def test_force_zero_at_origin_and_signs_thin(self, capsys):
        code, out, _ = run_cli(
            capsys, "vdw", "--a", "5", "--b", "1", "--quantity", "force",
            "--zmin", "-8", "--zmax", "8", "--zpoints", "33",
        )
        assert code == 0
        header, cols = read_csv(out)
        assert header == ["zp_nm", "F_eV_per_nm", "F_norm"]
        z, force = cols["zp_nm"], cols["F_eV_per_nm"]
        assert force[z == 0.0][0] == 0.0
        assert force[z == 1.0][0] > 0.0   # repulsive close in
        assert force[z == 8.0][0] < 0.0   # attractive far out
        np.testing.assert_allclose(force, -force[::-1], rtol=1e-12, atol=1e-300)

    def test_all_attractive_near_degenerate(self, capsys):
        code, out, _ = run_cli(
            capsys, "vdw", "--a", "5", "--b", "4.5", "--quantity", "force",
            "--zmin", "0", "--zmax", "10", "--zpoints", "21",
        )
        assert code == 0
        _, cols = read_csv(out)
        z, force = cols["zp_nm"], cols["F_eV_per_nm"]
        assert np.all(force[z > 0.0] < 0.0)

    def test_both_quantities_consistent(self, capsys):
        code, out, _ = run_cli(
            capsys, "vdw", "--a", "5", "--b", "1", "--quantity", "both",
            "--zmin", "-5", "--zmax", "5", "--zpoints", "401",
        )
        assert code == 0
        header, cols = read_csv(out)
        assert header == ["zp_nm", "U_eV", "U_norm", "F_eV_per_nm", "F_norm"]
        z, u, force = cols["zp_nm"], cols["U_eV"], cols["F_eV_per_nm"]
        h = z[1] - z[0]
        fd = -(u[2:] - u[:-2]) / (2.0 * h)
        # skip the immediate neighborhood of the force zero, where the
        # absolute h^2 truncation error dominates a vanishing force
        mask = np.abs(force[1:-1]) > 1e-5
        np.testing.assert_allclose(fd[mask], force[1:-1][mask], rtol=2e-3)

    def test_dipole_unit_conversion(self, capsys):
        from torvdw.units import DEBYE2_TO_E2NM2

        base = ["vdw", "--a", "5", "--b", "1", "--quantity", "energy",
                "--zmin", "0", "--zmax", "2", "--zpoints", "3"]
        code, out_e, _ = run_cli(capsys, *base, "--d2z", "1")
        assert code == 0
        code, out_d, _ = run_cli(capsys, *base, "--d2z", "1",
                                 "--d2z-unit", "debye2")
        assert code == 0
        _, cols_e = read_csv(out_e)
        _, cols_d = read_csv(out_d)
        np.testing.assert_allclose(
            cols_d["U_eV"], DEBYE2_TO_E2NM2 * cols_e["U_eV"], rtol=1e-12
        )

    def test_nanoring_past_the_table_horizon(self, capsys):
        # the moments need no table and the diagnostics read none: a/b = 1e40
        # lies past the horizon of any table at its xi0, yet U and F are finite
        code, out, _ = run_cli(
            capsys, "vdw", "--a", "1e40", "--b", "1", "--zmin", "1e39", "--zmax", "2e40",
            "--zpoints", "3", "--no-normalize", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert all(math.isfinite(v) for row in payload["rows"] for v in row)
        assert payload["diagnostics"]["series_terms_available"] == 2001  # n_cap + 1 rows

    def test_energy_normalization_reference(self, capsys):
        code, out, _ = run_cli(
            capsys, "vdw", "--a", "5", "--b", "1", "--quantity", "energy",
            "--zmin", "2", "--zmax", "6", "--zpoints", "5",
        )
        # the normalization reference is |U(0)| even when 0 is off-grid
        assert code == 0
        _, cols = read_csv(out)
        assert cols["U_norm"][0] == pytest.approx(
            cols["U_eV"][0] / 0.0008125136704195568, rel=1e-10
        )


class TestSweepRatio:
    def test_crossings_increase_with_height(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep-ratio", "--b", "1", "--zp", "1", "--zp", "2",
            "--zp", "3", "--ratio-min", "1.5", "--ratio-max", "10",
            "--ratio-points", "120", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        crossings = payload["diagnostics"]["zero_crossings_a_over_b"]
        assert crossings["zp=1"] < crossings["zp=2"] < crossings["zp=3"]
        assert crossings["zp=1"] == pytest.approx(3.5528, rel=2e-2)

    def test_crossings_match_critical_ratio(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep-ratio", "--b", "1", "--zp", "1", "--zp", "2",
            "--zp", "3", "--format", "json",
        )
        assert code == 0
        crossings = json.loads(out)["diagnostics"]["zero_crossings_a_over_b"]
        p = particle_model(1.0)
        for zp in (1.0, 2.0, 3.0):
            assert crossings[f"zp={zp:g}"] == critical_ratio(zp, 1.0, p, search=(1.5, 10.0))

    def test_crossing_outside_the_range_is_null(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep-ratio", "--b", "1", "--zp", "1", "--ratio-min", "1.5",
            "--ratio-max", "3", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["diagnostics"]["zero_crossings_a_over_b"] == {"zp=1": None}

    def test_every_column_turns_repulsive(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep-ratio", "--b", "1", "--zp", "1", "--zp", "4",
            "--ratio-min", "1.5", "--ratio-max", "12", "--ratio-points", "60",
        )
        assert code == 0
        _, cols = read_csv(out)
        for name in ("F_zp1_eV_per_nm", "F_zp4_eV_per_nm"):
            col = cols[name]
            assert col[0] < 0.0 and col[-1] > 0.0
            assert np.count_nonzero(np.diff(col > 0.0)) == 1  # single crossing


class TestContour:
    def test_matrix_and_script(self, tmp_path, capsys):
        out_file = tmp_path / "grid.csv"
        code, _, _ = run_cli(
            capsys, "contour", "--b", "1", "--ratio-min", "2", "--ratio-max", "8",
            "--ratio-points", "7", "--zmin", "-6", "--zmax", "6",
            "--zpoints", "13", "--out", str(out_file),
        )
        assert code == 0
        rows = list(csv.reader(out_file.open()))
        assert int(rows[0][0]) == 7  # nonuniform-matrix column count
        ratios = np.array([float(v) for v in rows[0][1:]])
        zps = np.array([float(r[0]) for r in rows[1:]])
        force = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        np.testing.assert_allclose(force, -force[::-1, :], rtol=1e-12, atol=1e-300)
        script = (out_file.parent / "grid.csv.gp").read_text()
        assert "nonuniform matrix" in script
        assert "grid.csv" in script

        # a cut through the grid agrees with the vdw command
        code, out, _ = run_cli(
            capsys, "vdw", "--a", str(ratios[3]), "--b", "1",
            "--quantity", "force", "--zmin", "-6", "--zmax", "6",
            "--zpoints", "13",
        )
        assert code == 0
        _, cols = read_csv(out)
        np.testing.assert_allclose(force[:, 3], cols["F_eV_per_nm"], rtol=1e-12)

    def test_requires_out(self, capsys):
        code, _, err = run_cli(capsys, "contour", "--b", "1")
        assert code == 2
        assert "requires --out" in err

    def test_json_bytes_unchanged(self, tmp_path, capsys):
        # the JSON file goes through the shared table writer; its bytes must
        # equal those of the command's former dedicated payload code
        out_file = tmp_path / "grid.json"
        argv = ["contour", "--b", "1", "--ratio-min", "2", "--ratio-max", "8",
                "--ratio-points", "5", "--zmin", "-3", "--zmax", "3",
                "--zpoints", "7", "--format", "json", "--out", str(out_file)]
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0

        ratios = np.linspace(2.0, 8.0, 5)
        zps = np.linspace(-3.0, 3.0, 7)
        grid = sweep_contour(ratios, zps, 1.0, particle_model(1.0))
        payload = {
            "config": _config_echo(build_parser().parse_args(argv)),
            "columns": ["zp_over_b"] + [float(r) for r in ratios],
            "rows": [[float(zps[i])] + [v.item() for v in grid.force[i]]
                     for i in range(zps.size)],
            "diagnostics": {"failed_cells": list(grid.diagnostics)},
        }
        expected = io.StringIO()
        json.dump(payload, expected, indent=2, sort_keys=True)
        expected.write("\n")
        assert out_file.read_text() == expected.getvalue()


    def test_json_failed_cells_are_null(self, tmp_path, capsys):
        # every cell's series is starved by --ncap 8 (a/b = 2 needs 16
        # moment rows); JSON has no NaN, so a failed cell is written as null
        # and a strict parser reads the file
        out_file = tmp_path / "g.json"
        code, _, _ = run_cli(capsys, "contour", "--b", "1", "--ratio-min", "1.01",
                             "--ratio-max", "2", "--ratio-points", "3", "--zpoints", "3",
                             "--ncap", "8",
                             "--format", "json", "--out", str(out_file))
        assert code == 0

        def refuse(token):
            raise ValueError(f"not JSON: {token}")

        payload = json.loads(out_file.read_text(), parse_constant=refuse)
        assert [row[1:] for row in payload["rows"]] == [[None] * 3] * 3
        assert len(payload["diagnostics"]["failed_cells"]) == 9


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "argv",
        [
            ["geom", "--a", "inf", "--b", "1"],
            ["vdw", "--a", "5", "--b", "1", "--zmin", "nan"],
            ["vdw", "--a", "5", "--b", "1", "--zmax", "inf"],
            ["sweep-ratio", "--b", "1", "--ratio-max", "nan"],
            ["vdw", "--a", "5", "--b", "1", "--d2z", "inf"],
            ["sweep-ratio", "--b", "1", "--zp", "nan"],
            ["sweep-ratio", "--b", "nan", "--zp", "1"],
            ["charge-energy", "--a", "5", "--b", "1", "--zmin", "nan"],
            ["potential", "--a", "5", "--b", "1", "--source-z", "nan"],
            ["potential", "--a", "5", "--b", "1", "--zmin", "nan"],
            ["contour", "--b", "1", "--zmin", "nan", "--out", "unused.csv"],
        ],
        ids=lambda argv: "_".join(a.lstrip("-") for a in argv),
    )
    def test_configuration_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert "configuration error" in err
        assert "finite" in err
        assert out == ""
        assert not (tmp_path / "unused.csv").exists()


class TestConfigurationBounds:
    """The bounds the front end keeps: series tolerance, term cap, grid
    sizes and a normalized column's nonzero reference."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["vdw", "--a", "5", "--b", "1", "--tol", "1e-3", "--out", "f.csv"],
            ["vdw", "--a", "5", "--b", "1", "--tol", "0", "--out", "f.csv"],
            ["vdw", "--a", "5", "--b", "1", "--zpoints", "1", "--out", "f.csv"],
            ["contour", "--b", "1", "--zpoints", "100001", "--out", "f.csv"],
            # each count is in range, their product is not
            ["contour", "--b", "1", "--ratio-points", "1000", "--zpoints", "1001",
             "--out", "f.csv"],
            ["sweep-ratio", "--b", "1", "--ratio-points", "1", "--out", "f.csv"],
            ["vdw", "--a", "5", "--b", "1", "--ncap", "3", "--out", "f.csv"],
            ["vdw", "--a", "5", "--b", "1", "--zmin", "0", "--zmax", "0", "--zpoints", "2"],
            ["vdw", "--a", "5", "--b", "1", "--zmin=1e80", "--zmax=2e80", "--quantity", "force"],
            ["sweep-ratio", "--b", "1", "--ratio-min", "1"],
            ["sweep-ratio", "--b", "1", "--zp", "0"],
            # refused before any crossing search, whose first height would fail first
            ["sweep-ratio", "--b", "1", "--zp", "1", "--zp", "0", "--ratio-min", "1.00001"],
            # heights that share a column name
            ["sweep-ratio", "--b", "1", "--zp", "1", "--zp", "1.0000001"],
            ["sweep-ratio", "--b", "1", "--zp", "1", "--zp", "1"],
        ],
        ids=lambda argv: "_".join(a.lstrip("-") for a in argv),
    )
    def test_configuration_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert "configuration error" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["geom", "--a", "5", "--b", "1", "--out", "x.csv"],
            ["geom", "--a", "5", "--b", "1", "--format", "json"],
            ["sweep-ratio", "--b", "1", "--no-normalize"],
            ["contour", "--b", "1", "--normalize", "--out", "x.csv"],
            ["validate", "--tol", "1e-14"],
        ],
        ids=lambda argv: "_".join(a.lstrip("-") for a in argv),
    )
    def test_option_not_taken(self, tmp_path, monkeypatch, capsys, argv):
        # a command takes only the options it reads
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["geom", "--a", "5", "--b", "1"],
    ["potential", "--a", "5", "--b", "1"],
    ["charge-energy", "--a", "5", "--b", "1"],
    ["vdw", "--a", "5", "--b", "1"],
    ["sweep-ratio", "--b", "1"],
    ["contour", "--b", "1", "--out", "grid.csv"],
    ["validate"],
], ids=lambda argv: argv[0])
def test_every_option_is_read(tmp_path, monkeypatch, capsys, argv):
    # at its defaults, a command reads every option it accepts
    monkeypatch.chdir(tmp_path)
    read = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    args = build_parser().parse_args(argv, namespace=Recording())
    read.clear()
    assert _COMMANDS[args.command](args) == 0
    assert set(vars(args)) - {"command"} - read == set()


class TestOutOfRangeInputs:
    @pytest.mark.parametrize(
        "argv",
        [
            ["geom", "--a", "1e200", "--b", "1"],
            ["vdw", "--a", "2e-200", "--b", "1e-200"],
            ["vdw", "--a", "5", "--b", "1", "--d2z", "1e308"],
        ],
        ids=lambda argv: "_".join(a.lstrip("-") for a in argv),
    )
    def test_configuration_error(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert "configuration error" in err and "finite" in err
        assert out == ""

    def test_result_overflow(self, capsys):
        argv = ["vdw", "--a", "1.5e-100", "--b", "1e-100", "--d2z", "1e300",
                "--zmin=-1e-100", "--zmax", "1e-100", "--zpoints", "3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert "configuration error" in err and "float64 range" in err
        assert out == ""


class TestValidate:
    def test_battery_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate")
        assert code == 0
        assert out.count("PASS") >= 5
        assert "FAIL" not in out


class TestOutputContracts:
    def test_csv_deterministic_and_rfc4180(self, tmp_path, capsys):
        args = [
            "vdw", "--a", "5", "--b", "1", "--zmin", "-3", "--zmax", "3",
            "--zpoints", "11",
        ]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        b1, b2 = f1.read_bytes(), f2.read_bytes()
        assert b1 == b2
        assert b"\r\n" in b1

    def test_profile_gnuplot_script(self, tmp_path, capsys):
        out_file = tmp_path / "f.csv"
        code, _, _ = run_cli(capsys, "vdw", "--a", "5", "--b", "1", "--zpoints", "5",
                             "--out", str(out_file))
        assert code == 0
        assert out_file.read_text().splitlines()[0] == "zp_nm,U_eV,U_norm,F_eV_per_nm,F_norm"
        assert (tmp_path / "f.csv.gp").read_text() == (
            "set datafile separator ','\n"
            "set key autotitle columnhead\n"
            "set grid\n"
            "set xlabel 'zp_nm'\n"
            "plot 'f.csv' using 1:2 with lines, \\\n"
            "     'f.csv' using 1:3 with lines, \\\n"
            "     'f.csv' using 1:4 with lines, \\\n"
            "     'f.csv' using 1:5 with lines\n"
        )

    @pytest.mark.parametrize("argv, stderr", [
        (["potential", "--a", "5", "--b", "1", "--source-z", "1e7", "--zpoints", "3"],
         "warning: source at |z| = 10000000.0 nm is beyond 1e+06 focal lengths; "
         "the induced potential is vanishingly small\n"),
        (["charge-energy", "--a", "5", "--b", "1", "--zmin=2e80", "--zmax=3e80",
          "--zpoints", "2"],
         "warning: source at |z| = 3e+80 nm is beyond 1e+06 focal lengths; "
         "the induced potential is vanishingly small\n"),
    ], ids=["potential", "charge-energy"])
    def test_warning_is_one_stderr_line(self, tmp_path, argv, stderr):
        # run as a user does, under Python's default warning filters
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = str(Path(torvdw.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "torvdw.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stderr == stderr

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "potential", "--a", "5", "--b", "1", "--zpoints", "5",
            "--zmin", "-2", "--zmax", "2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"config", "columns", "rows", "diagnostics"}
        assert payload["config"]["version"]
        assert payload["config"]["a"] == 5.0
        assert len(payload["diagnostics"]["n_used"]) == 5
        assert len(payload["rows"]) == 5

    @pytest.mark.parametrize("cmd", ["charge-energy", "vdw", "potential"])
    def test_per_point_diagnostics(self, capsys, cmd):
        code, out, _ = run_cli(
            capsys, cmd, "--a", "5", "--b", "1", "--zpoints", "7",
            "--zmin", "-3", "--zmax", "3", "--format", "json",
        )
        assert code == 0
        n_used = json.loads(out)["diagnostics"]["n_used"]
        assert len(n_used) == 7
        assert all(isinstance(n, int) and n >= 3 for n in n_used)

    def test_no_normalize_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "potential", "--a", "5", "--b", "1", "--zpoints", "5",
            "--zmin", "-2", "--zmax", "2", "--no-normalize",
        )
        assert code == 0
        header, _ = read_csv(out)
        assert header == ["z_nm", "VH_V"]

    def test_tol_ordering(self, capsys):
        # looser tolerance must not beat the tighter one on the BC residual
        from torvdw import axial_greens, axial_source, surface_residual, toroid_from_radii

        geom = toroid_from_radii(5.0, 3.0)
        src = axial_source(0.0, geom)
        loose = surface_residual(src, axial_greens(geom, rel_tol=1e-6), 32)
        tight = surface_residual(src, axial_greens(geom, rel_tol=1e-12), 32)
        assert tight < loose


def test_make_figures_script_smoke(tmp_path, capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "make_figures.py"
    spec = importlib.util.spec_from_file_location("make_figures", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.run(tmp_path)
    capsys.readouterr()

    tables = sorted(tmp_path.glob("*.csv"))
    assert len(tables) == 10
    assert sorted(tmp_path.glob("*.csv.gp")) == [t.with_name(t.name + ".gp") for t in tables]
    for table in tables:
        rows = list(csv.reader(table.open(newline="")))
        script_text = table.with_name(table.name + ".gp").read_text()
        assert f"'{table.name}'" in script_text
        if table.name == "force_contour.csv":
            # nonuniform matrix: <N> and the a/b values, then z_p/b and forces
            assert int(rows[0][0]) == len(rows[0]) - 1
            assert np.all(np.isfinite([[float(v) for v in r] for r in rows[1:]]))
            assert "nonuniform matrix" in script_text
            continue
        width = len(rows[0])
        assert np.all(np.isfinite([[float(v) for v in r] for r in rows[1:]]))
        assert all(len(r) == width for r in rows[1:])
        plotted = [int(k) for k in re.findall(r"using 1:(\d+)", script_text)]
        assert plotted and all(2 <= k <= width for k in plotted)



FLOATS_MAX = float(np.finfo(float).max)
FINITE = st.floats(min_value=-FLOATS_MAX, max_value=FLOATS_MAX)
#: a factor 1 + 10^e, e in [-5, 6]: from thin holes to thin rings
ONE_PLUS_GAP = st.floats(min_value=-5.0, max_value=6.0).map(lambda e: 1.0 + 10.0**e)
#: the numeric options of each command, in the order they are drawn
OPTIONS = {
    "geom": ["b", "a"],
    "potential": ["b", "a", "zmin", "zmax", "zpoints", "source-z"],
    "charge-energy": ["b", "a", "zmin", "zmax", "zpoints", "charge"],
    "vdw": ["b", "a", "zmin", "zmax", "zpoints", "d2z"],
    "sweep-ratio": ["b", "ratio-min", "ratio-max", "ratio-points", "d2z", "zp"],
    "contour": ["b", "ratio-min", "ratio-max", "ratio-points", "zmin", "zmax", "zpoints",
                "d2z"],
}


@st.composite
def cli_runs(draw):
    """(command, options, flags): one command with every numeric option
    drawn on its own scale, and up to two of them anywhere in their type's
    range instead; the grids have at most 4 points unless out of bounds."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    names = OPTIONS[command] + ([] if command == "geom" else ["tol", "ncap"])
    wild = draw(st.sets(st.sampled_from(names), max_size=2))
    opts = {}
    height = st.floats(-20.0, 20.0).map(lambda s: s * abs(opts["b"]))
    typical = {
        "b": st.floats(-100.0, 100.0).map(lambda e: 10.0**e),
        "a": ONE_PLUS_GAP.map(lambda x: min(abs(opts["b"]) * x, FLOATS_MAX)),
        "zmin": height, "zmax": height, "source-z": height,
        "charge": st.floats(-3.0, 3.0),
        "d2z": st.floats(1e-3, 1e3),
        "ratio-min": ONE_PLUS_GAP,
        "ratio-max": ONE_PLUS_GAP.map(lambda x: x * opts["ratio-min"]),
        "zp": st.lists(st.floats(0.1, 10.0), min_size=1, max_size=3),
        "tol": st.floats(1e-14, 1e-4),
        "ncap": st.integers(8, 3000),
    }
    for name in names:
        if name.endswith("points"):
            strategy = st.sampled_from([-1, 0, 1, 100001]) if name in wild else st.integers(2, 4)
        elif name == "ncap" and name in wild:
            strategy = st.integers(-2**63, 2**63)
        elif name == "zp" and name in wild:
            strategy = st.lists(FINITE, min_size=1, max_size=3)
        else:
            strategy = FINITE if name in wild else typical[name]
        opts[name] = draw(strategy)
    flags = [f"--zp={z!r}" for z in opts.pop("zp", [])]
    if command in ("potential", "charge-energy", "vdw"):
        flags.append(draw(st.sampled_from(["--normalize", "--no-normalize"])))
    if command != "geom":
        opts["format"] = draw(st.sampled_from(["csv", "json"]))
    if command == "potential":
        opts["cut"] = draw(st.sampled_from(["axis", "plane"]))
    elif command == "vdw":
        opts["quantity"] = draw(st.sampled_from(["energy", "force", "both"]))
    elif command in ("sweep-ratio", "contour"):
        opts["d2z-unit"] = draw(st.sampled_from(["e2nm2", "debye2", "C2m2"]))
    return command, opts, flags


def far_source(argv) -> bool:
    """Whether the run places a source beyond FAR_SOURCE_FACTOR f, the only
    case that may warn."""
    args = build_parser().parse_args(argv)
    heights = {"potential": ["source_z"], "charge-energy": ["zmin", "zmax"]}
    try:
        f = toroid_from_radii(args.a, args.b).f
    except (AttributeError, ValueError):
        return False
    return max((abs(vars(args)[k]) for k in heights.get(args.command, [])),
               default=0.0) > FAR_SOURCE_FACTOR * f


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue(), [w.category for w in caught]


def non_finite_cells(text, fmt):
    """The non-finite numbers of a CSV table, or of a JSON payload (where
    a failed contour cell is null); JSON's NaN tokens are refused."""
    if fmt == "json":
        def refuse(token):
            raise AssertionError(f"not JSON: {token}")
        rows = json.loads(text, parse_constant=refuse)["rows"]
    else:
        rows = list(csv.reader(io.StringIO(text)))[1:]
    return sum(v is not None and not math.isfinite(float(v)) for row in rows for v in row)


class TestWholeRange:
    @given(run=cli_runs())
    @example(run=("charge-energy", {"a": 5.0, "b": 1.0, "charge": 0.0, "format": "csv"}, []))
    @example(run=("charge-energy", {"a": 5.0, "b": 1.0, "charge": 0.0, "format": "json"}, []))
    @example(run=("potential", {"a": 5.0, "b": 1.0, "zmin": -1e308, "zmax": 1e308,
                                "format": "csv"}, []))
    @example(run=("vdw", {"a": 2.0, "b": 1.0, "zmin": 0.0, "zmax": FLOATS_MAX, "zpoints": 4,
                          "format": "csv"}, []))
    @example(run=("contour", {"b": 2.0, "zmax": 1e308, "format": "csv"}, []))
    @example(run=("sweep-ratio", {"b": 1e300, "ratio-max": 1e10, "format": "csv"}, []))
    @example(run=("geom", {"a": 1.0, "b": 1e-242}, []))
    def test_exit_code_no_warning_and_finite_rows(self, tmp_path_factory, run):
        # exit 0, 2 or 3 for extreme but finite options, no warning but a far
        # source's, and no NaN or infinity in any row except contour's
        # failed cells, which its stderr counts
        command, opts, flags = run
        out_file = tmp_path_factory.getbasetemp() / "whole-range-contour"
        argv = ([command] + [f"--{k}={v!r}" if isinstance(v, float) else f"--{k}={v}"
                             for k, v in opts.items()] + flags
                + (["--out", str(out_file)] if command == "contour" else []))
        code, out, err, caught = run_in_process(argv)
        assert code in (0, 2, 3), err
        assert caught == [] or caught == [FarSourceWarning] and far_source(argv)
        if code != 0:
            assert out == "" and err.count("\n") == 1
            return
        if command == "geom":
            assert not re.search(r"\b(nan|inf)\b", out)
            return
        failed = 0
        if command == "contour":
            out = out_file.read_text()
            if opts["format"] == "csv":
                reported = re.match(r"warning: (\d+) cells failed", err)
                failed = int(reported.group(1)) if reported else 0
        assert non_finite_cells(out, opts["format"]) == failed
