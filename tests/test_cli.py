"""End-to-end tests of the trisym command line."""

import csv
import io
import json

import pytest

from trisym.cli import build_parser, run
from trisym.molecules import get_molecule, loads_molecule


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_so3_ss_forbidden_level(self, capsys):
        code, out, _ = invoke(
            capsys, "classify", "--molecule", "so3", "--J", "1", "--K", "0"
        )
        assert code == 0
        assert out.strip() == "Hminus; forbidden by: SS"

    def test_so3_allowed_level(self, capsys):
        code, out, _ = invoke(
            capsys, "classify", "--molecule", "so3", "--J", "3", "--K", "3"
        )
        assert code == 0
        assert out.strip() == "Hminus, Hplus; forbidden by: None"

    def test_bh3_quartet_component(self, capsys):
        code, out, _ = invoke(
            capsys, "classify", "--molecule", "bh3",
            "--J", "2", "--K", "0", "--I", "3/2",
        )
        assert code == 0
        assert out.strip() == "Hplus; forbidden by: SS"

    def test_nh3_requires_species(self, capsys):
        code, _, err = invoke(
            capsys, "classify", "--molecule", "nh3", "--J", "1", "--K", "0"
        )
        assert code == 1
        assert err.startswith("error:")
        assert "--species" in err

    def test_nh3_with_species(self, capsys):
        code, out, _ = invoke(
            capsys, "classify", "--molecule", "nh3",
            "--J", "0", "--K", "0", "--species", "a",
        )
        assert code == 0
        assert out.strip() == "Hminus, Hprime; forbidden by: None"

    def test_species_rejected_for_planar(self, capsys):
        code, _, err = invoke(
            capsys, "classify", "--molecule", "so3",
            "--J", "1", "--K", "0", "--species", "s",
        )
        assert code == 1
        assert "C3v" in err

    def test_json_format(self, capsys):
        code, out, _ = invoke(
            capsys, "classify", "--molecule", "so3",
            "--J", "1", "--K", "1", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {"subspaces": ["Hprime"], "forbidden_by": "SP"}

    def test_bad_i_value(self, capsys):
        code, _, err = invoke(
            capsys, "classify", "--molecule", "bh3",
            "--J", "1", "--K", "0", "--I", "0.5",
        )
        assert code == 1
        assert "--I" in err


class TestEnergies:
    def test_fixture_grid(self, capsys):
        code, out, _ = invoke(
            capsys, "energies", "--molecule", "fixture",
            "--jmax", "2", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 6  # (J,K) pairs with 0 <= K <= J <= 2
        grid = {(int(r["J"]), int(r["K"])): float(r["energy_cm1"]) for r in rows}
        assert grid[(0, 0)] == 0.0
        assert grid[(2, 1)] == 5.5
        assert grid[(2, 2)] == 4.0

    def test_negative_jmax(self, capsys):
        code, _, err = invoke(
            capsys, "energies", "--molecule", "fixture", "--jmax", "-1"
        )
        assert code == 1
        assert "--jmax" in err


class TestLinelist:
    def test_csv_to_stdout(self, capsys):
        code, out, _ = invoke(
            capsys, "linelist", "--molecule", "so3", "--band", "nu2",
            "--jmax", "8",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows
        assert all(r["sp_forbidden"] == "false" for r in rows)

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "lines.csv"
        code, out, _ = invoke(
            capsys, "linelist", "--molecule", "so3", "--band", "nu2",
            "--jmax", "8", "--out", str(path),
        )
        assert code == 0
        assert out == ""
        rerun_code, stdout, _ = invoke(
            capsys, "linelist", "--molecule", "so3", "--band", "nu2",
            "--jmax", "8",
        )
        assert rerun_code == 0
        assert path.read_text() == stdout

    def test_json_format(self, capsys):
        code, out, _ = invoke(
            capsys, "linelist", "--molecule", "bh3", "--band", "nu2",
            "--jmax", "5", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload and {"band", "freq_cm1", "intensity"} <= set(payload[0])

    def test_beta_flags_forbidden_lines(self, capsys):
        code, out, _ = invoke(
            capsys, "linelist", "--molecule", "so3", "--band", "nu2",
            "--jmax", "8", "--beta", "1e-6", "--normalization", "none",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert any(r["sp_forbidden"] == "true" for r in rows)

    def test_unknown_band(self, capsys):
        code, _, err = invoke(
            capsys, "linelist", "--molecule", "so3", "--band", "nu9"
        )
        assert code == 1
        assert "unknown band" in err


class TestGroup:
    def test_table(self, capsys):
        code, out, _ = invoke(capsys, "group", "--show", "table")
        assert code == 0
        assert "P123" in out

    def test_table_json_closure(self, capsys):
        code, out, _ = invoke(
            capsys, "group", "--show", "table", "--format", "json"
        )
        payload = json.loads(out)
        elements = set(payload["elements"])
        assert len(elements) == 6
        for row in payload["table"]:
            assert set(row) <= elements

    def test_matrices(self, capsys):
        code, out, _ = invoke(
            capsys, "group", "--show", "matrices", "--format", "json"
        )
        payload = json.loads(out)
        assert len(payload) == 6
        for mat in payload.values():
            assert len(mat) == 6 and all(len(row) == 6 for row in mat)

    def test_eigenbasis(self, capsys):
        code, out, _ = invoke(
            capsys, "group", "--show", "eigenbasis", "--format", "json"
        )
        payload = json.loads(out)
        assert [e["name"] for e in payload] == ["s", "a", "v1", "v2", "v3", "v4"]

    def test_projectors_text(self, capsys):
        code, out, _ = invoke(capsys, "group", "--show", "projectors")
        assert code == 0
        assert "S:" in out and "P2:" in out


class TestMolecules:
    def test_listing(self, capsys):
        code, out, _ = invoke(capsys, "molecules")
        assert code == 0
        names = out.split()
        assert {"so3", "bh3", "nh3", "fixture"} <= set(names)

    def test_dump_round_trips(self, capsys):
        code, out, _ = invoke(capsys, "molecules", "--dump", "nh3")
        assert code == 0
        assert loads_molecule(out) == get_molecule("nh3")

    def test_unknown_molecule(self, capsys):
        code, _, err = invoke(capsys, "molecules", "--dump", "xy3")
        assert code == 1
        assert "unknown molecule" in err


class TestUsageErrors:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2

    def test_bad_choice_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["group", "--show", "nonsense"])
        assert exc.value.code == 2

    def test_parser_prog_name(self):
        assert build_parser().prog == "trisym"


SO3_YAML = """\
name: toy
point_group: D3h
nuclear_spin: "0"
B_cm1: 0.35
C_cm1: 0.17
bands:
  - {name: nu2, origin_cm1: 498.0, type: parallel}
"""


class TestRejectedInput:
    """Every rejected input exits 1 with a single diagnostic line."""

    def expect_error(self, capsys, argv, field):
        code, out, err = invoke(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert field in err

    def config(self, tmp_path, text):
        path = tmp_path / "toy.yaml"
        path.write_text(text)
        return ["linelist", "--molecule", str(path), "--band", "nu2", "--jmax", "4"]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_temperature(self, capsys, value):
        argv = ["linelist", "--molecule", "so3", "--band", "nu2", "--temp", value]
        self.expect_error(capsys, argv, "temperature")

    def test_nan_rotational_constant(self, capsys, tmp_path):
        argv = self.config(tmp_path, SO3_YAML.replace("0.35", ".nan"))
        self.expect_error(capsys, argv, "B_cm1")

    def test_bands_null(self, capsys, tmp_path):
        text = SO3_YAML.split("bands:")[0] + "bands: null\n"
        self.expect_error(capsys, self.config(tmp_path, text), "bands")

    def test_rotational_constant_list(self, capsys, tmp_path):
        argv = self.config(tmp_path, SO3_YAML.replace("B_cm1: 0.35", "B_cm1: [1]"))
        self.expect_error(capsys, argv, "B_cm1")

    def test_band_origin_list(self, capsys, tmp_path):
        argv = self.config(tmp_path, SO3_YAML.replace("498.0", "[1]"))
        self.expect_error(capsys, argv, "origin_cm1")

    def test_duplicate_band_names(self, capsys, tmp_path):
        text = SO3_YAML + "  - {name: nu2, origin_cm1: 600.0, type: parallel}\n"
        self.expect_error(capsys, self.config(tmp_path, text), "bands")

    def test_yaml_syntax_error(self, capsys, tmp_path):
        argv = self.config(tmp_path, SO3_YAML.replace("D3h", "[D3h"))
        self.expect_error(capsys, argv, "invalid YAML")

    def test_boolean_rotational_constant(self, capsys, tmp_path):
        argv = self.config(tmp_path, SO3_YAML.replace("0.35", "true"))
        self.expect_error(capsys, argv, "B_cm1")

    def test_band_name_not_a_string(self, capsys, tmp_path):
        argv = self.config(tmp_path, SO3_YAML.replace("name: nu2", "name: [1, 2]"))
        self.expect_error(capsys, argv, "bands[0].name")

    @pytest.mark.parametrize("name", ["nu,2", "nu\n2"])
    def test_band_name_that_breaks_the_csv(self, capsys, tmp_path, name):
        # once printed rows with 12 fields, or split rows
        text = SO3_YAML.replace("name: nu2", f"name: {json.dumps(name)}")
        argv = self.config(tmp_path, text)
        argv[argv.index("--band") + 1] = name
        self.expect_error(capsys, argv + ["--beta", "0.1"], "band ")

    @pytest.mark.parametrize("norm", ["max", "total", "none"])
    def test_boltzmann_overflow(self, capsys, norm):
        argv = ["linelist", "--molecule", "nh3", "--band", "nu2", "--temp", "1e-4",
                "--normalization", norm]
        self.expect_error(capsys, argv, "temperature 0.0001 K")

    def test_intensity_overflow(self, capsys):
        argv = ["linelist", "--molecule", "bh3", "--band", "nu3", "--temp", "0.0035",
                "--beta", "1e-9", "--jmax", "8"]
        self.expect_error(capsys, argv, "temperature 0.0035 K")

    def test_no_populated_level(self, capsys):
        argv = ["linelist", "--molecule", "bh3", "--band", "nu3", "--temp", "1e-3"]
        self.expect_error(capsys, argv, "partition function is 0")
