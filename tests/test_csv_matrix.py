"""The vectorised ``%.10g`` of the byte-matrix CSV writer against Python's
own formatting."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisym._csv_matrix import g10_blocks

SRC = Path(__file__).resolve().parent.parent / "src"


def g10_text(values):
    """The kernel's text of each value: its blocks joined, NULs dropped."""
    rows = np.concatenate(g10_blocks(np.array(values, dtype=np.float64)), axis=1)
    return [bytes(row).replace(b"\0", b"").decode() for row in rows]


def assert_matches_python(values):
    values = np.array(values, dtype=np.float64).tolist()
    expected = ["%.10g" % value for value in values]
    got = g10_text(values)
    wrong = [(v, g, e) for v, g, e in zip(values, got, expected) if g != e]
    assert not wrong, wrong[:5]


def with_neighbours(values):
    """The values and the doubles on either side of each."""
    values = np.array(values, dtype=np.float64)
    with np.errstate(over="ignore"):
        return np.concatenate([
            values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf),
        ])


def test_random_doubles_in_every_decade():
    rng = np.random.default_rng(20261019)
    decades = np.arange(-307, 308)
    mantissas = rng.uniform(1.0, 10.0, (len(decades), 40))
    assert_matches_python((mantissas * 10.0 ** decades[:, None]).ravel())


def test_decimal_exact_values_and_ties():
    rng = np.random.default_rng(7)
    digits = rng.integers(1, 10**10, 20000)  # at most ten significant digits
    scale = 10.0 ** rng.integers(-30, 30, 20000)
    exact = digits * scale
    ties = (10 * digits + 5) * scale  # halfway at the eleventh digit
    assert_matches_python(with_neighbours(np.concatenate([exact, ties])))


def test_integer_ties_are_rounded_half_even():
    # exact binary ties at the eleventh digit: Python rounds them to even
    assert_matches_python([12345678905.0, 12345678915.0, 99999999995.0, 10000000005.0])


def test_powers_of_ten_and_notation_boundaries():
    powers = 10.0 ** np.arange(-320, 309)
    boundaries = [1e-4, 1e-5, 9.9999999995e-5, 9.99999999949e-5, 1e10, 1e9,
                  9999999999.0, 9999999999.5, 9999999999.49, 99999.999995]
    assert_matches_python(with_neighbours(np.concatenate([powers, boundaries])))


def test_rounding_up_to_the_next_power_of_ten():
    values = [9.9999999995, 999999999.95, 9.99999999995e-5, 9.9999999995e99,
              9.9999999995e-100, 9.9999999995e290, 0.99999999995]
    assert_matches_python(with_neighbours(values))


def test_values_the_kernel_leaves_to_python():
    subnormal = [5e-324, 2.5e-320, sys.float_info.min / 3]
    tiny_and_huge = [sys.float_info.min, 1e-300, 1e300, sys.float_info.max]
    not_positive = [0.0, -0.0, -1.5, -1e-300, -1e10]
    assert_matches_python([
        *with_neighbours(subnormal + tiny_and_huge + not_positive),
        math.nan, -math.nan, math.inf, -math.inf,
    ])


def test_empty_input():
    before, body, after = g10_blocks(np.array([]))
    assert before.shape[0] == body.shape[0] == after.shape[0] == 0


@settings(deadline=None, derandomize=True, max_examples=300)
@given(st.lists(st.floats(), min_size=1, max_size=50))
def test_any_doubles(values):
    assert_matches_python(values)


def loads_the_module(steps):
    """Whether a fresh process that runs ``steps``, with ``cli``, ``spectrum``
    and ``lines``, a 2,402-line nh3 nu3 engine list, at hand, has loaded
    ``_csv_matrix``."""
    code = (
        "import contextlib, io, sys\n"
        "from trisym import cli, spectrum\n"
        "from trisym.molecules import get_molecule\n"
        "lines = spectrum.line_list(get_molecule('nh3'), 'nu3', "
        "spectrum.ThermalEnsemble(jmax=20))\n"
        f"{steps}\n"
        "print('trisym._csv_matrix' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return out.stdout.split()[-1] == "True"


def test_not_loaded_without_a_csv():
    # every trisym process imports the package; one that writes no CSV line
    # list never compiles the module or builds its tables
    commands = [
        "classify --molecule nh3 --J 3 --K 1 --species s",
        "energies --molecule nh3 --jmax 30 --format csv",
        "linelist --molecule nh3 --band nu3 --jmax 30 --format json",
        "linelist --molecule nh3 --band nu3 --jmax 30 --format text",
    ]
    steps = (
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert all(cli.run(c.split()) == 0 for c in {commands!r})\n"
        "spectrum.linelist_json(lines), spectrum.linelist_text(lines)"
    )
    assert not loads_the_module(steps)


@pytest.mark.parametrize("size", [1, 15, 1_100])
def test_loaded_by_the_first_csv_of_any_size(size):
    assert loads_the_module(f"spectrum.linelist_csv(lines[:{size}])")
