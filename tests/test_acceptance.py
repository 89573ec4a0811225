"""Acceptance gate: ten numbered end-to-end criteria.

Each test exercises one criterion at its stated tolerance and records a
PASS/FAIL line that the conftest terminal-summary hook prints after the
run.  Timing-sensitive criteria warm the JIT kernels first.
"""

import csv
import functools
import hashlib
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from trisym import group_algebra as ga
from trisym.classify import (
    InversionSpecies,
    classify_state,
    sector_weights,
    spin_statistical_weight,
)
from trisym.molecules import get_molecule
from trisym.spectrum import (
    ThermalEnsemble,
    ViolationModel,
    line_list,
    linelist_csv,
    rot_energy,
)

from oracle import brute_statistical_weight

RESULTS = {}

TOL = 1e-12

SO3 = get_molecule("so3")
BH3 = get_molecule("bh3")
NH3 = get_molecule("nh3")
MOLECULES = (SO3, BH3, NH3)


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                RESULTS[number] = ("FAIL", description)
                raise
            RESULTS[number] = ("PASS", description)

        return wrapper

    return decorate


# The two cyclic-permutation matrices, written out entry by entry.
MAT_P123 = np.array(
    [
        [0, 0, 0, 0, 1, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 0, 0],
    ]
)
MAT_P321 = np.array(
    [
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
    ]
)


@criterion(1, "cyclic regular-representation matrices exact, < 1 ms")
def test_criterion_1_regular_rep_exact():
    for _ in range(3):  # warm up
        ga.regular_rep(ga.P123)
    start = time.perf_counter()
    m123 = ga.regular_rep(ga.P123)
    m321 = ga.regular_rep(ga.P321)
    elapsed = time.perf_counter() - start
    assert np.array_equal(m123.real.astype(int), MAT_P123)
    assert np.array_equal(m321.real.astype(int), MAT_P321)
    assert np.all(m123.imag == 0) and np.all(m321.imag == 0)
    assert elapsed < 1e-3


@criterion(2, "worked column-vector example reproduced exactly")
def test_criterion_2_worked_example():
    out = ga.apply_perm(ga.P23, ga.V1)
    assert np.array_equal(out, ga.V4)  # exact, component for component


@criterion(3, "projector suite: idempotent, orthogonal, complete, ranks 1,1,2,2")
def test_criterion_3_projectors():
    p1, p2 = ga.invariant_projectors()
    projs = [ga.symmetrizer(), ga.antisymmetrizer(), p1, p2]
    for i, p in enumerate(projs):
        assert np.max(np.abs(p @ p - p)) < TOL
        for q in projs[i + 1 :]:
            assert np.max(np.abs(p @ q)) < TOL
    total = sum(projs)
    assert np.max(np.abs(total - np.eye(6))) < TOL
    for g in ga.ELEMENTS:
        mat = ga.regular_rep(g)
        for p in projs:
            assert np.max(np.abs(mat @ p - p @ mat)) < TOL
    ranks = [int(np.linalg.matrix_rank(p, tol=1e-9)) for p in projs]
    assert ranks == [1, 1, 2, 2]


@criterion(4, "cycle eigenbasis with exchanged eigenvalues, eigensolver checked")
def test_criterion_4_eigenstructure():
    m123 = ga.regular_rep(ga.P123)
    m321 = ga.regular_rep(ga.P321)
    basis = ga.cycle_eigenbasis()
    spectrum = []
    for vec, lam in basis:
        assert np.max(np.abs(m123 @ vec - lam * vec)) < TOL
        # the other cycle has the conjugate (exchanged) eigenvalue
        assert np.max(np.abs(m321 @ vec - np.conj(lam) * vec)) < TOL
        spectrum.append(lam)
    expected = sorted(
        [1, 1, ga.LAMBDA_MINUS, ga.LAMBDA_MINUS, ga.LAMBDA_PLUS, ga.LAMBDA_PLUS],
        key=lambda z: (round(z.real, 12), round(z.imag, 12)),
    )
    got = sorted(spectrum, key=lambda z: (round(z.real, 12), round(z.imag, 12)))
    assert np.allclose(got, expected, atol=TOL)
    numeric = np.sort_complex(np.linalg.eigvals(m123))
    assert np.allclose(numeric, np.sort_complex(np.array(expected)), atol=1e-9)


@criterion(5, "classification tables reproduced against golden file, J <= 10, < 1 s")
def test_criterion_5_golden_tables():
    path = Path(__file__).parent / "data" / "classification_golden.csv"
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) >= 300
    start = time.perf_counter()
    for row in rows:
        out = classify_state(
            int(row["J"]),
            int(row["K"]),
            Fraction(row["nuclear_spin"]),
            InversionSpecies(row["species"]),
            Fraction(row["I"]) if row["I"] else None,
        )
        assert ";".join(sorted(s.value for s in out.subspaces)) == row["subspaces"]
        assert out.forbidden_by.value == row["forbidden_by"]
    assert time.perf_counter() - start < 1.0


@criterion(6, "statistical weights equal brute-force projector ranks, J <= 6")
def test_criterion_6_weight_oracle():
    for spin in (Fraction(0), Fraction(1, 2)):
        for J in range(7):
            for K in range(-J, J + 1):
                assert spin_statistical_weight(
                    J, K, nuclear_spin=spin
                ) == brute_statistical_weight(J, K, spin), (spin, J, K)
    # the hallmark spin-1/2 values
    assert spin_statistical_weight(1, 1, nuclear_spin=Fraction(1, 2)) == 2
    assert spin_statistical_weight(2, 2, nuclear_spin=Fraction(1, 2)) == 2
    assert spin_statistical_weight(1, 0, nuclear_spin=Fraction(1, 2)) == 4
    assert spin_statistical_weight(2, 0, nuclear_spin=Fraction(1, 2)) == 0


@criterion(7, "spin-0 planar: over two thirds of rotational levels are missing")
def test_criterion_7_forbidden_fraction():
    levels = [(J, K) for J in range(31) for K in range(J + 1)]
    missing = sum(
        1
        for J, K in levels
        if spin_statistical_weight(J, K, nuclear_spin=Fraction(0)) == 0
    )
    assert missing / len(levels) >= 2.0 / 3.0


@criterion(8, "superselection closure; no forbidden flags at beta = 0")
def test_criterion_8_superselection():
    ens = ThermalEnsemble(temperature=296.0, jmax=30)
    for molecule in MOLECULES:
        for band in ("nu2", "nu3"):
            for beta in (0.0, 1e-9):
                lines = line_list(
                    molecule, band, ens, ViolationModel(beta),
                    normalization="none",
                )
                for l in lines:
                    lo = sector_weights(
                        l.lower.J, l.lower.K, molecule.nuclear_spin,
                        l.lower.species,
                    )
                    up = sector_weights(
                        l.upper.J, l.upper.K, molecule.nuclear_spin,
                        l.upper.species,
                    )
                    shared = {
                        s for s in ("A1", "A2", "E") if lo[s] > 0 and up[s] > 0
                    }
                    assert shared, (molecule.name, band, l)
                    if beta == 0.0:
                        assert not l.sp_forbidden and not l.ss_forbidden


@criterion(9, "forbidden lines double with beta to 1e-12; allowed shift < 1e-8")
def test_criterion_9_beta_linearity():
    ens = ThermalEnsemble(temperature=296.0, jmax=30)

    def key(l):
        return (
            l.lower.J, l.lower.K, l.lower.species,
            l.upper.J, l.upper.K, l.upper.species,
        )

    flagged_total = 0
    for molecule, band in (
        (SO3, "nu2"), (BH3, "nu2"), (BH3, "nu3"), (NH3, "nu2"),
    ):
        one = {
            key(l): l
            for l in line_list(
                molecule, band, ens, ViolationModel(1e-9), normalization="none"
            )
        }
        two = {
            key(l): l
            for l in line_list(
                molecule, band, ens, ViolationModel(2e-9), normalization="none"
            )
        }
        assert set(one) == set(two)
        for k, l in one.items():
            ratio = two[k].intensity / l.intensity
            if l.sp_forbidden or l.ss_forbidden:
                flagged_total += 1
                assert abs(ratio - 2.0) < TOL, (molecule.name, band, k)
            else:
                assert abs(ratio - 1.0) < 1e-8, (molecule.name, band, k)
    assert flagged_total > 0


@criterion(10, "energies exact to J = 100; Jmax = 50 line list < 1 s, byte-stable")
def test_criterion_10_energies_and_determinism():
    # exact rational arithmetic on the binary values of the constants
    B, C = Fraction(SO3.B_cm1), Fraction(SO3.C_cm1)
    for J in range(101):
        for K in range(J + 1):
            exact = float(B * J * (J + 1) - (B - C) * K * K)
            got = rot_energy(SO3, J, K)
            # rounding of the two intermediate products bounds the error
            scale = max(abs(float(B) * J * (J + 1)), abs(exact))
            assert abs(got - exact) <= 4 * np.spacing(scale), (J, K)
            assert rot_energy(SO3, J, -K) == got

    ens = ThermalEnsemble(temperature=296.0, jmax=50)
    beta = ViolationModel(1e-9)
    line_list(BH3, "nu3", ThermalEnsemble(jmax=2), beta)  # warm-up call
    start = time.perf_counter()
    first = linelist_csv(line_list(BH3, "nu3", ens, beta, normalization="none"))
    assert time.perf_counter() - start < 1.0
    second = linelist_csv(line_list(BH3, "nu3", ens, beta, normalization="none"))
    assert first == second

    # determinism across interpreter runs: compare against a fresh process
    script = (
        "from trisym.spectrum import ThermalEnsemble, ViolationModel, "
        "line_list, linelist_csv\n"
        "from trisym.molecules import get_molecule\n"
        "import hashlib, sys\n"
        "text = linelist_csv(line_list(get_molecule('bh3'), 'nu3', "
        "ThermalEnsemble(temperature=296.0, jmax=50), ViolationModel(1e-9), "
        "normalization='none'))\n"
        "sys.stdout.write(hashlib.sha256(text.encode()).hexdigest())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == hashlib.sha256(first.encode()).hexdigest()
