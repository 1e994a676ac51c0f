"""CLI: subcommand behavior, exit codes, output formats, config files."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import uavwpt
from uavwpt.cli import entrypoint, main

FIXTURES = resources.files("uavwpt.data").joinpath("fixtures")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCoupling:
    def test_table_point(self, capsys):
        code, out, _ = run(
            capsys, "coupling", "--tx", "default-uav", "--rx", "d100w4", "--dz-mm", "50"
        )
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "dz_mm,k,l2_eff_uH"
        k = float(row.split(",")[1])
        assert k == pytest.approx(0.111, abs=0.003)

    def test_sweep_deterministic(self, capsys):
        args = ("coupling", "--tx", "default-uav", "--rx", "d100w4",
                "--dz-mm", "50", "100", "150", "200")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_misalignment_grid(self, capsys):
        code, out, _ = run(
            capsys, "coupling", "--tx", "default-uav", "--rx", "d100w4",
            "--dz-mm", "100", "--lateral-mm", "0", "20", "--segments", "72",
        )
        assert code == 0
        header, row = out.strip().split("\n")
        assert header.startswith("dz_mm,k_lateral_mm_0")
        k0, k20 = (float(v) for v in row.split(",")[1:])
        assert k0 > k20 > 0

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "--json", "coupling", "--tx", "default-uav", "--rx", "d100w4",
            "--dz-mm", "100",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc[0]["dz_mm"] == 100.0
        assert doc[0]["k"] == pytest.approx(0.040, abs=0.003)

    def test_non_finite_offset_is_domain_error(self, capsys):
        code, out, err = run(
            capsys, "coupling", "--tx", "default-uav", "--rx", "d100w4",
            "--dz-mm", "100", "--lateral-mm", "nan",
        )
        assert code == 1
        assert out == ""
        assert "finite" in err and "Traceback" not in err

    def test_unknown_preset_is_domain_error(self, capsys):
        code, out, err = run(
            capsys, "coupling", "--tx", "nope", "--rx", "d100w4", "--dz-mm", "50"
        )
        assert code == 1
        assert out == ""
        assert "nope" in err


class TestInductanceAndTune:
    def test_inductance(self, capsys):
        code, out, _ = run(capsys, "inductance", "--coil", "default-uav", "d100w4")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "coil,l_uH"
        assert float(lines[1].split(",")[1]) == pytest.approx(1.587, rel=1e-3)
        assert float(lines[2].split(",")[1]) == pytest.approx(2.906, rel=1e-3)

    def test_tune_with_e12(self, capsys):
        code, out, _ = run(capsys, "tune", "--l-uh", "1.9718", "--e12")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "l_uH,freq_MHz,c_pF,c_e12_pF"
        cells = [float(v) for v in row.split(",")]
        assert cells[2] == pytest.approx(279.5, abs=0.5)
        assert cells[3] == pytest.approx(270.0, rel=1e-9)

    def test_tune_needs_one_source(self, capsys):
        code, _, err = run(capsys, "tune", "--l-uh", "2.0", "--coil", "default-uav")
        assert code == 2
        assert "usage" in err


class TestLink:
    def test_measured_point(self, capsys):
        code, out, _ = run(
            capsys, "link", "--l1-uh", "1.9718", "--l2-uh", "3.3568",
            "--k", "0.042", "--rl-ohm", "14.59",
        )
        assert code == 0
        header, row = out.strip().split("\n")
        cells = dict(zip(header.split(","), (float(v) for v in row.split(","))))
        assert cells["efficiency"] == pytest.approx(0.8717, abs=0.001)
        assert cells["rl_opt_ohm"] == pytest.approx(14.59, abs=0.02)
        assert cells["efficiency"] == pytest.approx(cells["efficiency_closed_form"], rel=1e-8)

    def test_source_sizing(self, capsys):
        code, out, _ = run(
            capsys, "link", "--l1-uh", "1.9718", "--l2-uh", "3.3568",
            "--k", "0.042", "--rl-ohm", "14.59", "--target-w", "0.25",
        )
        assert code == 0
        header, row = out.strip().split("\n")
        assert header.endswith("required_vs_V")
        assert float(row.split(",")[-1]) > 0

    def test_unphysical_coupling(self, capsys):
        code, _, err = run(
            capsys, "link", "--l1-uh", "2", "--l2-uh", "3", "--k", "1.5", "--rl-ohm", "10"
        )
        assert code == 1
        assert "error" in err


class TestIngest:
    def test_measured_only(self, capsys, tmp_path):
        path = tmp_path / "dz100.s2p"
        path.write_text(FIXTURES.joinpath("openair_dz100.s2p").read_text())
        code, out, _ = run(capsys, "ingest", str(path), "--dz-mm", "100")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "dz_mm,k_measured"
        assert float(row.split(",")[1]) == pytest.approx(0.042, abs=1e-9)

    def test_comparison_report(self, capsys, tmp_path):
        paths = []
        for dz in (50, 100):
            p = tmp_path / f"dz{dz}.s2p"
            p.write_text(FIXTURES.joinpath(f"openair_dz{dz}.s2p").read_text())
            paths.append(str(p))
        code, out, _ = run(
            capsys, "ingest", *paths, "--dz-mm", "50", "100",
            "--tx", "default-uav", "--rx", "d100w4",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "dz_mm,k_analytic,k_measured,abs_dev,rel_dev"
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(0.111, abs=0.003)
        assert float(first[2]) == pytest.approx(0.107, abs=1e-9)

    def test_file_count_mismatch(self, capsys, tmp_path):
        p = tmp_path / "a.s2p"
        p.write_text(FIXTURES.joinpath("openair_dz50.s2p").read_text())
        code, _, err = run(capsys, "ingest", str(p), "--dz-mm", "50", "100")
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "ingest", "/no/such/file.s2p", "--dz-mm", "50")
        assert code == 1


class TestMission:
    def test_budget(self, capsys):
        code, out, err = run(
            capsys, "mission", "--dz-mm", "50", "--hover-w", "120",
            "--leakage-ua", "1.5",
        )
        assert code == 0
        header, row = out.strip().split("\n")
        cells = dict(zip(header.split(","), (float(v) for v in row.split(","))))
        assert cells["autonomy_yr"] == pytest.approx(4.563, abs=0.001)
        assert cells["energy_drawn_from_uav_Wh"] == pytest.approx(0.3675, abs=0.001)
        assert cells["hover_energy_Wh"] == pytest.approx(12.0)
        assert "user-supplied" in err

    def test_hover_power_mandatory(self, capsys):
        code, _, _ = run(capsys, "mission", "--dz-mm", "50")
        assert code == 2

    def test_out_of_range_distance(self, capsys):
        code, _, err = run(capsys, "mission", "--dz-mm", "200", "--hover-w", "100")
        assert code == 1


class TestGwp:
    def test_inventory(self, capsys):
        code, out, _ = run(capsys, "gwp", "inventory", "--name", "node-low-power")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "component,gwp_kgCO2eq"
        total = float(lines[-1].split(",")[1])
        assert total == pytest.approx(1.66, abs=0.01)

    def test_curve(self, capsys):
        code, out, _ = run(
            capsys, "gwp", "curve", "--scenario", "uav-low", "replace-5yr-low",
            "--horizon-yr", "15", "--step-yr", "5",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t_years,uav-low,replace-5yr-low"
        last = [float(v) for v in lines[-1].split(",")]
        assert last == pytest.approx([15.0, 6.820, 12.771], abs=0.01)

    def test_breakeven(self, capsys):
        code, out, _ = run(capsys, "gwp", "breakeven", "--a", "uav-low", "--b", "replace-5yr")
        assert code == 0
        header, row = out.strip().split("\n")
        assert float(row.split(",")[2]) == pytest.approx(3.33, abs=0.75)

    def test_no_crossing_reported(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "scenarios": {
                "flat-high": {"initial_gwp": 5.0, "annual_rate": 1.0},
                "flat-low": {"initial_gwp": 3.0, "annual_rate": 1.0},
            }
        }))
        code, out, _ = run(
            capsys, "--config", str(config), "gwp", "breakeven",
            "--a", "flat-high", "--b", "flat-low",
        )
        assert code == 0
        assert "no-crossing" in out


class TestConfigFile:
    def test_config_coil_used(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "coils": {"my-coil": {"radii_mm": [49, 47, 45, 43]}}
        }))
        _, out_config, _ = run(
            capsys, "--config", str(config), "coupling",
            "--tx", "default-uav", "--rx", "my-coil", "--dz-mm", "100",
        )
        _, out_preset, _ = run(
            capsys, "coupling", "--tx", "default-uav", "--rx", "d100w4", "--dz-mm", "100"
        )
        assert out_config == out_preset

    def test_preset_name_not_shadowed_elsewhere(self, capsys, tmp_path):
        # config coils override presets of the same name
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "coils": {"default-uav": {"radii_mm": [76.5, 74.5]}}
        }))
        code, out, _ = run(
            capsys, "--config", str(config), "inductance", "--coil", "default-uav"
        )
        assert code == 0
        assert float(out.strip().split("\n")[1].split(",")[1]) == pytest.approx(
            1.587, rel=1e-3
        )


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "coupling", "--no-such-flag")
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_no_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2


class TestModuleExecution:
    def test_python_m_matches_entrypoint(self, capsys, monkeypatch):
        argv = ["tune", "--l-uh", "1.9718"]
        monkeypatch.setattr(sys, "argv", ["uavwpt", *argv])
        with pytest.raises(SystemExit) as exc:
            entrypoint()
        assert exc.value.code == 0
        expected = capsys.readouterr().out
        src = str(Path(uavwpt.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "uavwpt.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout == expected
        assert expected.startswith("l_uH,freq_MHz,c_pF\n")
