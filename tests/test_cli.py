"""End-to-end tests of the trisym command line."""

import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trisym.cli import build_parser, run
from trisym.molecules import get_molecule, loads_molecule
from trisym.spectrum import rot_energy

SRC = Path(__file__).resolve().parent.parent / "src"


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

    @pytest.mark.parametrize("name", ["so3", "nh3"])
    def test_grid_is_rot_energy_of_every_level(self, capsys, name):
        molecule = get_molecule(name)
        code, out, _ = invoke(
            capsys, "energies", "--molecule", name, "--jmax", "12", "--format", "csv"
        )
        rows = [f"{J},{K},{rot_energy(molecule, J, K):.10g}"
                for J in range(13) for K in range(J + 1)]
        assert (code, out) == (0, "\n".join(["J,K,energy_cm1", *rows]) + "\n")

    def test_negative_jmax(self, capsys):
        # energies once had its own check, with its own message
        for command in (["energies"], ["linelist", "--band", "par"]):
            code, out, err = invoke(
                capsys, *command, "--molecule", "fixture", "--jmax", "-1"
            )
            assert (code, out) == (1, "")
            assert err == "error: jmax must be an integer >= 0, got -1\n"


class TestJmaxBound:
    """A jmax past the memory budget is one line and exit 1, found before any
    level array is built."""

    @pytest.mark.parametrize("argv", [
        ["energies", "--molecule", "so3", "--jmax", "100000"],
        ["linelist", "--molecule", "nh3", "--band", "nu3", "--jmax", "100000"],
        ["energies", "--molecule", "nh3", "--jmax", "510", "--format", "json"],
    ])
    def test_rejected_before_any_array(self, capsys, monkeypatch, argv):
        def refused(*args):
            raise AssertionError("a level table was built")

        monkeypatch.setattr(np, "tril_indices", refused)
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: jmax must be at most 509 ")
        assert err.count("\n") == 1

    def test_largest_accepted_jmax(self, capsys):
        code, out, _ = invoke(
            capsys, "energies", "--molecule", "so3", "--jmax", "509", "--format", "csv"
        )
        assert code == 0
        assert out.count("\n") == 1 + 510 * 511 // 2


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


def loads_numpy(steps):
    """Whether a fresh process that runs ``steps`` has loaded numpy."""
    code = f"import contextlib, io, sys\n{steps}\nprint('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return out.stdout.split()[-1] == "True"


def cli_steps(command, code):
    """Run ``trisym command`` through ``cli.run`` and require its exit code."""
    return (
        "from trisym import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out, "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    try:\n"
        f"        code = cli.run({command.split()!r})\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        f"assert code == {code}, code\n"
        "assert out.getvalue() or code"
    )


class TestNumpyLoading:
    """numpy loads only for array work: the symmetry table, the configs, the
    group table and a usage error run without it."""

    @pytest.mark.parametrize("command", [
        "classify --molecule nh3 --J 3 --K 1 --species s",
        "classify --molecule so3 --J 3 --K 3",
        "classify --molecule bh3 --J 2 --K 1 --I 3/2",
        "classify --molecule nh3 --J 1 --K 0 --species a --format json",
        "molecules",
        "molecules --dump so3",
        "group --show table",
    ])
    def test_not_loaded(self, command):
        assert not loads_numpy(cli_steps(command, 0))

    def test_not_loaded_by_a_usage_error(self):
        assert not loads_numpy(cli_steps("group --show nonsense", 2))

    def test_not_loaded_by_the_package(self):
        steps = (
            "import trisym\n"
            "assert trisym.classify_state(3, 1, trisym.get_molecule('nh3')"
            ".nuclear_spin, trisym.InversionSpecies.S).forbidden_by.value"
        )
        assert not loads_numpy(steps)

    @pytest.mark.parametrize("command,code", [
        ("linelist --molecule so3 --band nu2 --jmax 3", 0),
        ("linelist --molecule so3 --band nu9 --jmax 3", 1),
        ("energies --molecule so3 --jmax 3", 0),
        ("group --show projectors", 0),
    ])
    def test_loaded_for_arrays(self, command, code):
        assert loads_numpy(cli_steps(command, code))

    def test_loaded_by_a_spectrum_name(self):
        assert loads_numpy("import trisym\ntrisym.line_list")


SO3_YAML = """\
name: toy
point_group: D3h
nuclear_spin: "0"
B_cm1: 0.35
C_cm1: 0.17
bands:
  - {name: nu2, origin_cm1: 498.0, type: parallel}
"""

#: Planar spin-1/2 (bh3-like) with finite levels to J = 4 but a nu2 origin
#: that a level difference of about 1e306 pushes past the float maximum.
HUGE_ORIGIN_YAML = (
    SO3_YAML.replace('"0"', '"1/2"').replace("0.35", "1.0e+306")
    .replace("0.17", "1.0e+306").replace("498.0", "1.79e+308")
)


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

    def test_band_origin_whose_frequencies_overflow(self, capsys, tmp_path):
        # once exit 0 with inf frequencies
        argv = self.config(tmp_path, HUGE_ORIGIN_YAML)
        self.expect_error(capsys, argv[:-1] + ["3", "--beta", "0.3"],
                          "origin_cm1 1.79e+308")

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

    # each once printed the bare errno ("error: 2", "error: 21")
    def test_missing_molecule_file(self, capsys, tmp_path):
        path = str(tmp_path / "missing.yaml")
        argv = ["linelist", "--molecule", path, "--band", "nu2"]
        self.expect_error(capsys, argv, f"No such file or directory: {path!r}")

    def test_molecule_path_is_a_directory(self, capsys, tmp_path):
        argv = ["linelist", "--molecule", str(tmp_path), "--band", "nu2"]
        self.expect_error(capsys, argv, f"Is a directory: {str(tmp_path)!r}")

    def test_output_directory_missing(self, capsys, tmp_path):
        out = str(tmp_path / "nodir" / "x.csv")
        argv = ["linelist", "--molecule", "so3", "--band", "nu2", "--jmax", "2",
                "--out", out]
        self.expect_error(capsys, argv, f"No such file or directory: {out!r}")


class TestOverflowingConstants:
    """Rotational constants whose level energies overflow, or that overflow
    a float, exit 1 with one line that names B_cm1."""

    # PyYAML reads an exponent without a sign ("1.0e308") as a string
    @pytest.mark.parametrize("value", ["1.0e+308", "1" + "0" * 400])
    @pytest.mark.parametrize("argv", [
        ["energies", "--jmax", "3", "--format", "csv"],
        ["linelist", "--band", "nu2", "--jmax", "3"],
    ], ids=["energies", "linelist"])
    def test_rejected_with_one_line(self, capsys, tmp_path, argv, value):
        # once inf and nan rows with RuntimeWarnings and exit 0 (energies),
        # a diagnostic blaming the temperature (linelist) or a traceback
        path = tmp_path / "big.yaml"
        path.write_text(SO3_YAML.replace("B_cm1: 0.35", f"B_cm1: {value}"))
        code, out, err = invoke(capsys, *argv, "--molecule", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: B_cm1 ") and err.count("\n") == 1, err


#: Values for one config number: valid ones, a float whose level energies
#: overflow, the same float as PyYAML reads it without an exponent sign (a
#: string), a quoted number, an integer beyond the float range, a bool, NaN.
YAML_NUMBERS = ["0.35", "2", "498.0", "1.0e+308", "1.0e308", '"0.35"',
                "1" + "0" * 400, "true", ".nan"]


@st.composite
def config_text(draw):
    """A valid molecule config, or one with a single value replaced: a
    number from ``YAML_NUMBERS``, spin 0.5, an unknown band type or a
    splitting on a D3h molecule; or rotational constants of 1e306 with a nu2
    origin whose line frequencies overflow the float range."""
    point_group = draw(st.sampled_from(["D3h", "C3v"]))
    values = {"nuclear_spin": draw(st.sampled_from(['"0"', '"1/2"'])),
              "B_cm1": "0.35", "C_cm1": "0.17", "nu2": "498.0", "nu3": "1391.0",
              "type": "perpendicular"}
    if point_group == "C3v":
        values["inversion_splitting_cm1"] = "0.8"
    bad = draw(st.sampled_from([None, "nuclear_spin", "B_cm1", "C_cm1",
                                "inversion_splitting_cm1", "nu2", "nu3", "type",
                                "origin"]))
    if bad == "origin":
        values.update(B_cm1="1.0e+306", C_cm1="1.0e+306", nu2="1.79e+308")
    elif bad == "nuclear_spin":
        values[bad] = "0.5"
    elif bad == "type":
        values[bad] = "sideways"
    elif bad is not None:
        values[bad] = draw(st.sampled_from(YAML_NUMBERS))
    scalars = ("nuclear_spin", "B_cm1", "C_cm1", "inversion_splitting_cm1")
    return "\n".join([
        "name: toy", f"point_group: {point_group}",
        *(f"{key}: {values[key]}" for key in scalars if key in values),
        "bands:",
        f"  - {{name: nu2, origin_cm1: {values['nu2']}, type: parallel}}",
        f"  - {{name: nu3, origin_cm1: {values['nu3']}, type: {values['type']}}}",
    ]) + "\n"


def _flag(name, values):
    """``[name, value]`` half the time, else nothing."""
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


_MOLECULE = st.sampled_from(["so3", "bh3", "nh3", "fixture", "CONFIG", "missing.yaml"])
_J = st.sampled_from([*map(str, range(-2, 41)), "x", "1.5"])
_FORMAT = st.sampled_from(["text", "csv", "json"])


def any_argv():
    """argv for any subcommand: valid and invalid flags and values, jmax at
    most 40.  CONFIG, OUT and NODIR stand for paths the test fills in: a
    drawn config, a writable output and one in a missing directory."""
    group = st.tuples(st.just(["group", "--show"]), st.sampled_from(
        ["table", "matrices", "eigenbasis", "projectors", "bogus"]).map(lambda s: [s]),
        _flag("--format", st.sampled_from(["text", "json"])))
    classify = st.tuples(
        st.just(["classify", "--molecule"]), _MOLECULE.map(lambda m: [m]),
        _J.map(lambda j: ["--J", j]), _J.map(lambda k: ["--K", k]),
        _flag("--I", st.sampled_from(["1/2", "3/2", "2"])),
        _flag("--species", st.sampled_from(["s", "a"])),
        _flag("--format", st.sampled_from(["text", "json"])))
    energies = st.tuples(
        st.just(["energies", "--molecule"]), _MOLECULE.map(lambda m: [m]),
        _J.map(lambda j: ["--jmax", j]), _flag("--format", _FORMAT))
    linelist = st.tuples(
        st.just(["linelist", "--molecule"]), _MOLECULE.map(lambda m: [m]),
        st.sampled_from(["nu1", "nu2", "nu3", "nu4", "nu9"]).map(
            lambda band: ["--band", band]),
        _flag("--jmax", _J),
        _flag("--temp", st.sampled_from(
            ["296", "50", "5000", "1e-4", "0", "-5", "nan", "inf", "1e-400", "1e-320"])),
        _flag("--beta", st.sampled_from(["0", "1e-9", "0.3", "1", "2", "-0.1", "nan"])),
        _flag("--format", _FORMAT),
        _flag("--normalization", st.sampled_from(["max", "total", "none"])),
        _flag("--out", st.sampled_from(["OUT", "NODIR"])))
    molecules = st.tuples(st.just(["molecules"]), _flag("--dump", _MOLECULE))
    return st.one_of(group, classify, energies, linelist, molecules).map(
        lambda parts: [arg for part in parts for arg in part])


class TestRandomArgv:
    """Every CLI run ends in exit 0 with empty stderr and finite output, exit
    1 with one ``error:`` line, or argparse's exit 2: never a traceback or a
    numpy warning (pytest turns RuntimeWarnings into errors)."""

    @settings(deadline=None, derandomize=True, max_examples=500)
    @example(argv=["energies", "--molecule", "CONFIG", "--jmax", "3"],
             config=SO3_YAML.replace("0.35", "1.0e+308"))
    @example(argv=["linelist", "--molecule", "CONFIG", "--band", "nu2"],
             config=SO3_YAML.replace("0.35", "1" + "0" * 400))
    @example(argv=["linelist", "--molecule", "CONFIG", "--band", "nu2",
                   "--jmax", "3", "--beta", "0.3"],
             config=HUGE_ORIGIN_YAML)
    @given(argv=any_argv(), config=config_text())
    def test_one_of_three_endings(self, argv, config):
        with tempfile.TemporaryDirectory() as tmp:
            paths = {"CONFIG": f"{tmp}/toy.yaml", "OUT": f"{tmp}/out.txt",
                     "NODIR": f"{tmp}/nodir/out.txt"}
            Path(paths["CONFIG"]).write_text(config)
            argv = [paths.get(arg, arg) for arg in argv]
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = run(argv)
                except SystemExit as exc:  # argparse's usage error
                    assert exc.code == 2, (argv, err.getvalue())
                    return
        out, err = out.getvalue(), err.getvalue()
        if code == 0:
            assert err == "", (argv, err)
            assert not re.search(r"(?i)\b-?(nan|inf|infinity)\b", out), argv
        else:
            assert code == 1, (argv, code)
            assert out == "", argv
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
