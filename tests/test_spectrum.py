"""Tests for energies, populations and line lists."""

import csv
import dataclasses
import gc
import inspect
import io
import itertools
import json
import math
import pickle
import re
import sys
import threading
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import (
    loop_level_energy,
    loop_line_list,
    loop_linelist_csv,
    loop_linelist_json,
    loop_linelist_text,
    loop_partition_function,
    loop_state_population,
)
from trisym import spectrum
from trisym.classify import (
    SPIN_HALF,
    InversionSpecies,
    RotationalState,
    SymmetryAssignment,
    classify_state,
    sector_weights,
)
from trisym.molecules import (
    Band,
    BandType,
    MoleculeSpec,
    PointGroup,
    dump_molecule,
    get_molecule,
    loads_molecule,
    shipped_molecules,
)
from trisym.spectrum import (
    CSV_HEADER,
    KB_CM1,
    SpectralLine,
    ThermalEnsemble,
    ViolationModel,
    honl_london,
    line_list,
    linelist_csv,
    linelist_json,
    linelist_text,
    partition_function,
    rot_energy,
    state_energy,
    state_population,
)

FIXTURE = get_molecule("fixture")
SO3 = get_molecule("so3")
BH3 = get_molecule("bh3")
NH3 = get_molecule("nh3")

S = InversionSpecies.S
A = InversionSpecies.A


class TestEnergies:
    def test_values(self):
        assert rot_energy(FIXTURE, 0, 0) == 0.0
        # B=1, C=0.5: E(2,1) = 1*6 - 0.5*1 = 5.5
        assert rot_energy(FIXTURE, 2, 1) == 5.5
        assert rot_energy(FIXTURE, 2, 2) == 4.0

    def test_even_in_k(self):
        for J in range(6):
            for K in range(J + 1):
                assert rot_energy(SO3, J, K) == rot_energy(SO3, J, -K)

    def test_exact_for_large_j(self):
        B, C = FIXTURE.B_cm1, FIXTURE.C_cm1
        for J in range(0, 101, 7):
            for K in (0, J // 2, J):
                exact = Fraction(B) * J * (J + 1) - (Fraction(B) - Fraction(C)) * K**2
                assert rot_energy(FIXTURE, J, K) == float(exact)

    def test_validation(self):
        with pytest.raises(ValueError):
            rot_energy(FIXTURE, -1, 0)
        with pytest.raises(ValueError):
            rot_energy(FIXTURE, 1, 2)

    def test_inversion_offsets(self):
        delta = NH3.inversion_splitting_cm1
        base = rot_energy(NH3, 2, 1)
        assert state_energy(NH3, 2, 1, S) == base - delta / 2
        assert state_energy(NH3, 2, 1, A) == base + delta / 2
        assert state_energy(SO3, 2, 1) == rot_energy(SO3, 2, 1)


class TestHonlLondon:
    def test_parallel_values(self):
        assert honl_london(0, 0, "R", BandType.PARALLEL) == 1.0
        assert honl_london(1, 1, "Q", BandType.PARALLEL) == 0.5
        assert honl_london(2, 0, "P", BandType.PARALLEL) == pytest.approx(0.4)
        assert honl_london(2, 0, "Q", BandType.PARALLEL) == 0.0

    def test_branch_sum_is_one(self):
        for band_type in (BandType.PARALLEL, BandType.PERPENDICULAR):
            for dk in (1, -1):
                for J in range(1, 21):
                    for K in range(J + 1):
                        if band_type is BandType.PERPENDICULAR and K + dk < 0:
                            continue
                        total = sum(
                            honl_london(J, K, b, band_type, dk)
                            for b in ("P", "Q", "R")
                        )
                        assert total == pytest.approx(1.0, abs=1e-12), (
                            band_type, dk, J, K,
                        )

    def test_j0_admits_only_r(self):
        for branch in ("P", "Q"):
            with pytest.raises(ValueError):
                honl_london(0, 0, branch, BandType.PARALLEL)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            honl_london(1, 0, "X", BandType.PARALLEL)
        with pytest.raises(ValueError):
            honl_london(1, 0, "R", BandType.PERPENDICULAR, delta_k=0)

    # a bool or a float once passed because True == 1 and 1.0 == 1
    @pytest.mark.parametrize("delta_k", [True, False, 1.0, -1.0, np.float64(1)])
    @pytest.mark.parametrize("band_type", list(BandType))
    def test_delta_k_must_be_an_integer_sign(self, delta_k, band_type):
        with pytest.raises(ValueError, match="^delta_k must be the integer"):
            honl_london(1, 0, "R", band_type, delta_k=delta_k)
        with pytest.raises(ValueError):
            honl_london(1, 2, "R", BandType.PARALLEL)


class TestModels:
    def test_violation_model_range(self):
        ViolationModel(0.0)
        ViolationModel(1.0)
        with pytest.raises(ValueError):
            ViolationModel(-0.1)
        with pytest.raises(ValueError):
            ViolationModel(1.5)

    def test_ensemble_validation(self):
        with pytest.raises(ValueError):
            ThermalEnsemble(temperature=0.0)
        with pytest.raises(ValueError):
            ThermalEnsemble(jmax=-1)


class TestPartitionFunction:
    def test_jmax0_so3(self):
        # only (J,K) = (0,0) with unit statistical weight contributes
        q = partition_function(SO3, ThermalEnsemble(temperature=296.0, jmax=0))
        assert q == pytest.approx(1.0, abs=1e-15)

    def test_jmax0_nh3(self):
        # s-component of J=0 is SS-forbidden; the a-component carries g=4
        T = 296.0
        ens = ThermalEnsemble(temperature=T, jmax=0)
        q = partition_function(NH3, ens)
        offset = NH3.inversion_splitting_cm1 / 2
        assert q == pytest.approx(4 * np.exp(-offset / (KB_CM1 * T)), rel=1e-12)

    def test_low_temperature_limit(self):
        # far below the first excited level only the ground level survives
        q = partition_function(SO3, ThermalEnsemble(temperature=0.005, jmax=10))
        assert q == pytest.approx(1.0, rel=1e-9)

    def test_converged_at_large_jmax(self):
        q60 = partition_function(SO3, ThermalEnsemble(temperature=30.0, jmax=60))
        q80 = partition_function(SO3, ThermalEnsemble(temperature=30.0, jmax=80))
        assert q80 == pytest.approx(q60, rel=1e-9)
        assert q80 >= q60

    def test_insensitive_to_tiny_beta(self):
        ens = ThermalEnsemble(jmax=20)
        q0 = partition_function(SO3, ens)
        q1 = partition_function(SO3, ens, ViolationModel(1e-9))
        assert q1 > q0
        assert abs(q1 - q0) / q0 < 1e-8


class TestPopulations:
    def test_forbidden_states_empty_at_beta_zero(self):
        ens = ThermalEnsemble(jmax=10)
        assert state_population(SO3, RotationalState(1, 0), ens) == 0.0
        assert state_population(SO3, RotationalState(1, 1), ens) == 0.0
        assert state_population(BH3, RotationalState(0, 0), ens) == 0.0

    def test_populations_sum_to_one(self):
        ens = ThermalEnsemble(jmax=15)
        for mol in (SO3, BH3, NH3):
            species = (S, A) if mol is NH3 else (InversionSpecies.NONE,)
            total = sum(
                state_population(mol, RotationalState(J, K, sp), ens)
                for J in range(16)
                for K in range(J + 1)
                for sp in species
            )
            assert total == pytest.approx(1.0, rel=1e-12)

    def test_population_ratio_by_hand(self):
        # bh3: g(1,1)=2 vs g(1,0)=4, K degeneracy 2 vs 1, same 2J+1
        ens = ThermalEnsemble(temperature=296.0, jmax=10)
        p11 = state_population(BH3, RotationalState(1, 1), ens)
        p10 = state_population(BH3, RotationalState(1, 0), ens)
        kt = KB_CM1 * 296.0
        expect = (2 * 2 * np.exp(-rot_energy(BH3, 1, 1) / kt)) / (
            4 * 1 * np.exp(-rot_energy(BH3, 1, 0) / kt)
        )
        assert p11 / p10 == pytest.approx(expect, rel=1e-12)

    # each once returned a number, such as 0.006127 for so3-a, 0.7 for
    # energy-so3-a and 0.0393 for so3-j-12, though the levels up to jmax
    # already sum to 1
    @pytest.mark.parametrize("field,call", [
        ("species", lambda e: state_population(SO3, RotationalState(1, 0, A), e)),
        ("species", lambda e: state_population(NH3, RotationalState(1, 0), e)),
        ("species", lambda e: state_energy(SO3, 1, 0, A)),
        ("species", lambda e: state_energy(NH3, 1, 0)),
        ("J", lambda e: state_population(SO3, RotationalState(12, 0), e)),
    ], ids=["so3-a", "nh3-none", "energy-so3-a", "energy-nh3-none", "so3-j-12"])
    def test_level_outside_ensemble_rejected(self, field, call):
        with pytest.raises(ValueError, match=f"^{field} must") as info:
            call(ThermalEnsemble(296.0, 10))
        assert "\n" not in str(info.value)

    def test_beta_populates_forbidden_states(self):
        ens = ThermalEnsemble(jmax=10)
        state = RotationalState(1, 1)
        p = state_population(SO3, state, ens, ViolationModel(1e-6))
        assert p > 0
        p2 = state_population(SO3, state, ens, ViolationModel(2e-6))
        assert p2 == pytest.approx(2 * p, rel=1e-5)


class TestLineList:
    ENS = ThermalEnsemble(temperature=296.0, jmax=10)

    def test_beta_zero_has_no_forbidden_lines(self):
        for mol, band in ((SO3, "nu2"), (BH3, "nu2"), (BH3, "nu3"), (NH3, "nu2")):
            lines = line_list(mol, band, self.ENS)
            assert lines, (mol.name, band)
            assert not any(l.sp_forbidden or l.ss_forbidden for l in lines)

    def test_so3_perpendicular_band_fully_suppressed(self):
        # dK = +-1 always links a K = 3q level to a K = 3q +- 1 one; for
        # spin-0 nuclei those never share a sector, so nothing survives
        assert line_list(SO3, "nu3", self.ENS) == []

    def test_so3_allowed_lines_keep_k_multiple_of_three(self):
        lines = line_list(SO3, "nu2", self.ENS)
        assert {l.lower.K % 3 for l in lines} == {0}
        assert {l.upper.K % 3 for l in lines} == {0}
        assert all(l.lower.K != 0 for l in lines)  # K=0 pairs share no sector

    def test_selection_rules(self):
        for band, dks in (("nu2", {0}), ("nu3", {1, -1})):
            for l in line_list(SO3, band, self.ENS, ViolationModel(1e-6)):
                assert l.upper.J - l.lower.J in (-1, 0, 1)
                assert l.upper.K - l.lower.K in dks
                assert not (l.lower.J == 0 and l.upper.J == 0)
                assert l.lower.K >= 0 and l.upper.K >= 0

    def test_perpendicular_from_k0_only_positive_dk(self):
        lines = line_list(BH3, "nu3", self.ENS)
        from_k0 = [l for l in lines if l.lower.K == 0]
        assert from_k0
        assert all(l.upper.K == 1 for l in from_k0)

    def test_frequencies_sorted_and_positive(self):
        lines = line_list(BH3, "nu3", self.ENS, ViolationModel(1e-6))
        freqs = [l.frequency for l in lines]
        assert freqs == sorted(freqs)
        assert all(f > 0 for f in freqs)

    def test_forbidden_intensity_is_exactly_beta_scaled(self):
        """An SP-forbidden line carries only violator population: its raw
        intensity is beta times an independently computed thermal weight."""
        beta = 1e-7
        kt = KB_CM1 * self.ENS.temperature
        lines = line_list(
            SO3, "nu2", self.ENS, ViolationModel(beta), normalization="none"
        )
        forbidden = [l for l in lines if l.sp_forbidden]
        assert forbidden
        for l in forbidden[:25]:
            J, K = l.lower.J, l.lower.K
            hl = honl_london(J, K, {1: "R", 0: "Q", -1: "P"}[l.upper.J - J],
                             BandType.PARALLEL)
            expect = beta * (2 * J + 1) * 2 * np.exp(-rot_energy(SO3, J, K) / kt) * hl
            assert l.intensity == pytest.approx(expect, rel=1e-12), (J, K)

    def test_beta_linearity_exact_in_raw_mode(self):
        beta = 1e-8

        def key(l):
            return (l.lower.J, l.lower.K, l.lower.species, l.upper.J,
                    l.upper.K, l.upper.species)

        one = {key(l): l for l in line_list(
            SO3, "nu2", self.ENS, ViolationModel(beta), normalization="none")}
        two = {key(l): l for l in line_list(
            SO3, "nu2", self.ENS, ViolationModel(2 * beta), normalization="none")}
        assert set(one) == set(two)
        flagged = 0
        for k, l in one.items():
            if l.sp_forbidden or l.ss_forbidden:
                flagged += 1
                assert two[k].intensity == 2.0 * l.intensity  # bit-exact
        assert flagged > 0

    def test_normalization_modes(self):
        # "total" divides by the very float partition_function returns: one Z
        maxed = 0
        for name in shipped_molecules():
            mol = get_molecule(name)
            for band, beta, jmax in itertools.product(
                    mol.bands, (0.0, 1e-9, 0.3), (0, 3, 20)):
                ens, violation = ThermalEnsemble(296.0, jmax), ViolationModel(beta)
                q = partition_function(mol, ens, violation)
                if q == 0:  # no populated level: the list is not defined
                    with pytest.raises(ValueError, match="partition function is 0"):
                        line_list(mol, band, ens, violation)
                    continue
                raw, by_max, by_total = (
                    line_list(mol, band, ens, violation, normalization=mode)
                    for mode in ("none", "max", "total")
                )
                allowed = [
                    l.intensity for l in by_max
                    if not (l.sp_forbidden or l.ss_forbidden)
                ]
                assert max(allowed, default=1.0) == 1.0
                maxed += bool(allowed)
                assert [l.intensity for l in by_total] == [
                    l.intensity / q for l in raw
                ], (name, band.name, beta, jmax)
        assert maxed > 0

    def test_max_mode_without_allowed_lines_keeps_raw(self):
        # bh3 parallel band from K=0-only ensemble: the J=0 level is forbidden
        beta = ViolationModel(1e-6)
        ens = ThermalEnsemble(temperature=296.0, jmax=1)
        by_max = line_list(BH3, "nu2", ens, beta, normalization="max")
        raw = line_list(BH3, "nu2", ens, beta, normalization="none")
        if all(l.sp_forbidden or l.ss_forbidden for l in by_max):
            assert [l.intensity for l in by_max] == [l.intensity for l in raw]

    def test_nh3_species_alternation_and_offsets(self):
        delta = NH3.inversion_splitting_cm1
        lines = line_list(NH3, "nu2", self.ENS)
        assert lines
        k0 = [l for l in lines if l.lower.K == 0]
        assert k0
        for l in lines:
            assert {l.lower.species, l.upper.species} == {S, A}
            base = (
                NH3.bands[1].origin_cm1
                + rot_energy(NH3, l.upper.J, l.upper.K)
                - rot_energy(NH3, l.lower.J, l.lower.K)
            )
            shift = delta if l.lower.species is S else -delta
            assert l.frequency == pytest.approx(base + shift, rel=1e-12)

    def test_band_lookup_and_errors(self):
        with pytest.raises(KeyError):
            line_list(SO3, "nu9", self.ENS)
        with pytest.raises(KeyError):
            line_list(SO3, NH3.bands[0], self.ENS)
        with pytest.raises(ValueError):
            line_list(SO3, "nu2", self.ENS, normalization="sideways")
        by_name = line_list(SO3, "nu2", self.ENS)
        by_band = line_list(SO3, SO3.band("nu2"), self.ENS)
        assert by_name == by_band

    def test_symmetry_derived_once_per_level_class(self, monkeypatch):
        calls = {"classify_state": 0, "sector_weights": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(spectrum, name)):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(spectrum, name, counted)
        line_list(NH3, "nu3", ThermalEnsemble(jmax=30), ViolationModel(1e-6),
                  normalization="none")
        assert calls == {"classify_state": 4, "sector_weights": 4}

    def test_levels_and_states_built_once_per_level(self, monkeypatch):
        # once two `_levels` passes (lower, then upper) and two states per line
        calls = {"_levels": 0, "states": 0}
        levels, post_init = spectrum._levels, RotationalState.__post_init__

        def counted_levels(*args):
            calls["_levels"] += 1
            return levels(*args)

        def counted_post_init(state):
            calls["states"] += 1
            post_init(state)

        monkeypatch.setattr(spectrum, "_state_tables", {})
        monkeypatch.setattr(spectrum, "_levels", counted_levels)
        monkeypatch.setattr(RotationalState, "__post_init__", counted_post_init)
        lines = line_list(NH3, "nu3", ThermalEnsemble(jmax=30), ViolationModel(1e-6),
                          normalization="none")
        table_rows = 2 * (32 * 33 // 2)  # s and a levels with J <= 31
        assert calls["_levels"] == 1
        assert calls["states"] == table_rows
        assert len({id(s) for l in lines for s in (l.lower, l.upper)}) <= table_rows

    def test_each_state_built_once_per_process(self, monkeypatch):
        # once only the levels a kept line reached, scanned on every call
        built, post_init = [], RotationalState.__post_init__

        def counted_post_init(state):
            built.append((state.J, state.K, state.species))
            post_init(state)

        def labels(jmax):
            J, K, code = spectrum._level_table(SO3, jmax + 1)
            return [(j, k, spectrum._SPECIES[c])
                    for j, k, c in zip(J.tolist(), K.tolist(), code.tolist())]

        monkeypatch.setattr(spectrum, "_state_tables", {})
        monkeypatch.setattr(RotationalState, "__post_init__", counted_post_init)
        assert line_list(SO3, "nu3", ThermalEnsemble(jmax=30)) == []
        assert built == labels(30)
        built.clear()
        assert line_list(SO3, "nu3", ThermalEnsemble(jmax=30)) == []
        assert built == []
        large = line_list(SO3, "nu2", ThermalEnsemble(jmax=40))
        assert built == labels(40)[len(labels(30)):]
        built.clear()
        small = line_list(SO3, "nu2", ThermalEnsemble(jmax=20))
        assert small and built == []
        shared = {(s.J, s.K, s.species): s for l in large for s in (l.lower, l.upper)}
        assert all(shared[s.J, s.K, s.species] is s
                   for l in small for s in (l.lower, l.upper))
        monkeypatch.undo()
        for line in large:
            for s in (line.lower, line.upper):
                assert type(s) is RotationalState
                assert s == RotationalState(s.J, s.K, s.species)

    def test_order_matches_label_lexsort(self):
        # frequency, then J, K and species of the lower level and of the
        # upper one; nh3/nu3 (C3v) ties on nearly every line, so3 and bh3 are
        # D3h with spin 0 and 1/2.  Without splitting, s and a lines tie, and
        # with B = C a line's upper row can be lower than a tied line's while
        # its lower row is higher.
        degenerate = dataclasses.replace(NH3, C_cm1=NH3.B_cm1,
                                         inversion_splitting_cm1=0.0)
        for molecule, band, jmax in ((NH3, "nu3", 120), (SO3, "nu2", 60),
                                     (BH3, "nu3", 60), (degenerate, "nu3", 30)):
            lines = line_list(molecule, band, ThermalEnsemble(jmax=jmax),
                              ViolationModel(0.5), "none")
            rows = [(l.frequency, l.lower.J, l.lower.K, l.lower.species.value,
                     l.upper.J, l.upper.K, l.upper.species.value) for l in lines]
            order = np.lexsort(list(zip(*rows))[::-1])  # last key sorts first
            assert np.array_equal(order, np.arange(len(lines))), molecule

    @pytest.mark.parametrize("seed", range(12))
    def test_packed_order_matches_six_keys(self, seed):
        # the two table rows packed into one key sort frequency ties as the
        # six-key sort on frequency, lower J, K and species and upper J and K
        # does; a random molecule per seed, on even seeds with B = C and no
        # inversion splitting so that every key ties often
        rng = np.random.default_rng(seed)
        c3v = bool(rng.integers(2))
        B = float(rng.choice([0.5, 1.0, 2.0]))
        C = B if seed % 2 == 0 else float(rng.uniform(0.1, 10.0))
        split = None if not c3v else 0.0 if seed % 2 == 0 else float(rng.uniform(0, 5))
        band = Band("b", 1000.0, BandType.PERPENDICULAR if rng.integers(2)
                    else BandType.PARALLEL)
        molecule = MoleculeSpec("random", PointGroup.C3V if c3v else PointGroup.D3H,
                                Fraction(int(rng.integers(2)), 2), B, C, (band,),
                                split)
        ensemble = ThermalEnsemble(jmax=int(rng.integers(0, 40)))
        (J, K, code), (freq, _, lo, up, _, _), order = spectrum._line_columns(
            molecule, band, ensemble, ViolationModel(0.5), "none")
        six = np.lexsort((K[up], J[up], code[lo], K[lo], J[lo], freq))
        assert np.array_equal(order, six)

    def test_deterministic_output(self):
        beta = ViolationModel(1e-6)
        first = linelist_csv(line_list(BH3, "nu3", self.ENS, beta))
        second = linelist_csv(line_list(BH3, "nu3", self.ENS, beta))
        assert first == second


class TestRecordBuild:
    """States come from one table per point group shared by every call, and
    records are built with the cyclic collector paused."""

    ARGS = (ThermalEnsemble(jmax=8), ViolationModel(1e-6))

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_restored(self, enabled):
        before = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            assert line_list(NH3, "nu3", *self.ARGS)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if before else gc.disable)()

    def test_collector_paused_while_states_are_built(self, monkeypatch):
        enabled, post_init = [], RotationalState.__post_init__

        def recorded_post_init(state):
            enabled.append(gc.isenabled())
            post_init(state)

        monkeypatch.setattr(spectrum, "_state_tables", {})
        monkeypatch.setattr(RotationalState, "__post_init__", recorded_post_init)
        assert gc.isenabled()
        assert line_list(NH3, "nu3", *self.ARGS)
        assert enabled and not any(enabled)
        assert gc.isenabled()

    def test_collector_enabled_after_an_exception(self, monkeypatch):
        def refused(state):
            raise RuntimeError("refused")

        monkeypatch.setattr(spectrum, "_state_tables", {})
        monkeypatch.setattr(RotationalState, "__post_init__", refused)
        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="refused"):
            line_list(NH3, "nu3", *self.ARGS)
        assert gc.isenabled()

    def test_threads_grow_one_table(self, monkeypatch):
        # each round starts from empty tables, and each thread calls at its
        # own jmax, so the table grows under the threads that read it
        jmaxes = (4, 11, 19, 26)

        def csv_at(jmax):
            return linelist_csv(line_list(
                NH3, "nu3", ThermalEnsemble(jmax=jmax), ViolationModel(1e-6)
            ))

        serial = {jmax: csv_at(jmax) for jmax in jmaxes}
        start, found = threading.Barrier(len(jmaxes)), {jmax: [] for jmax in jmaxes}
        post_init = RotationalState.__post_init__

        def yielding_post_init(state):  # widen the window in which a table grows
            time.sleep(0)
            post_init(state)

        monkeypatch.setattr(RotationalState, "__post_init__", yielding_post_init)

        def work(jmax):
            start.wait(timeout=60)
            found[jmax].append(csv_at(jmax))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                monkeypatch.setattr(spectrum, "_state_tables", {})
                threads = [threading.Thread(target=work, args=(jmax,))
                           for jmax in jmaxes]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(RotationalState, "__post_init__", post_init)
        assert found == {jmax: [text] * 10 for jmax, text in serial.items()}
        table = spectrum._state_tables[NH3.point_group]
        J, K, code = spectrum._level_table(NH3, max(jmaxes) + 1)
        assert len(table) == len(J)
        for state, j, k, c in zip(table, J.tolist(), K.tolist(), code.tolist()):
            assert state == RotationalState(j, k, spectrum._SPECIES[c])


EDGE_FLOATS = st.one_of(  # the float maximum's 10-digit string reads as inf
    st.sampled_from([0.0, -0.0, 5e-324, 1e300, sys.float_info.max, math.nan,
                     math.inf, -math.inf]),
    st.floats(),
)


@st.composite
def hand_built_lines(draw):
    """Lines built directly, with float edge cases the engine never emits."""
    def state():
        J = draw(st.integers(0, 10**6))
        species = draw(st.sampled_from(list(InversionSpecies)))
        return RotationalState(J, draw(st.integers(-J, J)), species)

    return SpectralLine(
        draw(st.sampled_from(["nu2", "b", "\u03bd3"])), draw(EDGE_FLOATS),
        draw(EDGE_FLOATS), state(), state(), draw(st.booleans()), draw(st.booleans()),
    )


class TestSerialization:
    LINES = line_list(
        SO3, "nu2", ThermalEnsemble(jmax=6), ViolationModel(1e-6)
    )

    def test_csv_schema(self):
        text = linelist_csv(self.LINES)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert text.splitlines()[0] == CSV_HEADER
        assert len(rows) == len(self.LINES)
        for row, line in zip(rows, self.LINES):
            assert row["band"] == "nu2"
            assert int(row["J_lo"]) == line.lower.J
            assert int(row["K_up"]) == line.upper.K
            assert row["species_lo"] == line.lower.species.value
            assert row["sp_forbidden"] in ("true", "false")
            assert float(row["freq_cm1"]) == pytest.approx(
                line.frequency, rel=1e-9
            )

    def test_json_mirrors_csv(self):
        rows_csv = list(csv.DictReader(io.StringIO(linelist_csv(self.LINES))))
        rows_json = json.loads(linelist_json(self.LINES))
        assert len(rows_json) == len(rows_csv)
        for rc, rj in zip(rows_csv, rows_json):
            assert set(rj) == set(rc)
            assert rj["freq_cm1"] == float(rc["freq_cm1"])
            assert rj["intensity"] == float(rc["intensity"])
            assert rj["sp_forbidden"] == (rc["sp_forbidden"] == "true")

    @settings(deadline=None, derandomize=True, max_examples=200)
    @example([])
    @given(st.lists(hand_built_lines(), max_size=6))
    def test_hand_built_lines_match_loop_serializers(self, lines):
        assert linelist_csv(lines) == loop_linelist_csv(lines)
        assert linelist_json(lines) == loop_linelist_json(lines)
        assert linelist_text(lines) == loop_linelist_text(lines)

    def test_line_is_an_immutable_named_tuple(self):
        line = self.LINES[0]
        assert line == tuple(line)
        assert SpectralLine(**line._asdict()) == line
        assert line._replace(intensity=0.5) == (*line[:2], 0.5, *line[3:])
        with pytest.raises(AttributeError):
            line.intensity = 0.5

    def test_state_labels_survive_id_reuse(self):
        # Each line's states are built with it and freed after it, so CPython
        # hands a freed state's memory, and with it its id, to the next line's
        # states; labels cached under a bare id(state) would repeat.
        def fresh_lines():
            for n in range(300):
                J = n % 40
                yield SpectralLine(
                    "nu2", 100.0 + n, 1.0 / (n + 1),
                    RotationalState(J, n % (J + 1), (S, A)[n % 2]),
                    RotationalState(J + 1, -(n % (J + 2)), (A, S)[n % 2]),
                    n % 3 == 0, n % 5 == 0,
                )

        lines = list(fresh_lines())
        assert linelist_csv(fresh_lines()) == loop_linelist_csv(lines)
        assert linelist_json(fresh_lines()) == loop_linelist_json(lines)

    def test_state_label_stays_out_of_the_dataclass(self):
        # the CSV label is kept in the instance once read, but is no field
        fields = {"J": 3, "K": -2, "species": S}
        state, plain = RotationalState(**fields), RotationalState(**fields)
        assert state._csv_label == "3,-2,s"
        assert state == plain and hash(state) == hash(plain)
        assert repr(state) == repr(plain) == (
            "RotationalState(J=3, K=-2, species=<InversionSpecies.S: 's'>)"
        )
        assert [f.name for f in dataclasses.fields(state)] == list(fields)
        assert dataclasses.asdict(state) == fields
        moved = dataclasses.replace(state, K=1, species=A)
        assert moved == RotationalState(3, 1, A)
        assert moved._csv_label == "3,1,a"
        for original in (state, plain):  # label read, and not read
            copy = pickle.loads(pickle.dumps(original))
            assert copy == original and hash(copy) == hash(original)
            assert copy._csv_label == "3,-2,s"
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.J = 4

    def test_numpy_integer_labels_render_like_ints(self):
        def numpy_ints(state):
            return RotationalState(np.int64(state.J), np.int32(state.K), state.species)

        hand_built = RotationalState(5, -3, A)
        for line in (*self.LINES[:3], self.LINES[0]._replace(upper=hand_built)):
            numpy_line = line._replace(
                lower=numpy_ints(line.lower), upper=numpy_ints(line.upper)
            )
            assert linelist_csv([numpy_line]) == linelist_csv([line])
            assert linelist_csv([numpy_line]) == loop_linelist_csv([line])


def repeat_to(lines, size):
    """``size`` lines, cycling through ``lines``."""
    return [lines[n % len(lines)] for n in range(size)]


#: List sizes, in lines: one line, 15, two of about 1,100 and two of about
#: 10,000, each written by the one CSV writer.
SIZES = [1, 15, 1_099, 1_100, 9_999, 10_000]


class TestMatrixCsvWriter:
    """CSV from one byte matrix, on records ``line_list`` never builds, in
    lists of every size."""

    STATES = [RotationalState(3, 2, S), RotationalState(4, -3, A),
              RotationalState(10**6, -(10**6), InversionSpecies.NONE)]

    @staticmethod
    def plain_fields(n):
        return 100.0 + n / 7, 1.0 / (n + 3), n % 3 == 0, n % 5 == 0

    def lines(self, bands, fields=plain_fields):
        """60 lines over the bands in turn; ``fields(n)`` gives line n's
        frequency, intensity and flags."""
        return [
            SpectralLine(bands[n % len(bands)], *fields(n)[:2], self.STATES[n % 3],
                         self.STATES[(n + 1) % 3], *fields(n)[2:])
            for n in range(60)
        ]

    @staticmethod
    def check(lines, size):
        """``size`` lines written as the loop writer writes them."""
        lines = repeat_to(lines, size)
        assert linelist_csv(lines) == loop_linelist_csv(lines)

    @pytest.mark.parametrize("size", SIZES)
    def test_non_ascii_band_names(self, size):
        self.check(self.lines(["ν3", "bé", "\U0001f600", "\udcff"]), size)

    @pytest.mark.parametrize("size", SIZES)
    def test_band_name_with_nul_rejected(self, size):
        # NUL is the matrix's padding byte: the band rule keeps it out of
        # specs, configs and hand-built lines alike
        name = "nu\x003"
        message = re.escape(f"band {name!r}:")
        with pytest.raises(ValueError, match=message):
            Band(name, 1.0, BandType.PARALLEL)
        with pytest.raises(ValueError, match=message):
            loads_molecule(dump_molecule(SO3).replace("name: nu2", 'name: "nu\\03"'))
        lines = repeat_to(self.lines([name, "nu2"]), size)
        for writer in (linelist_csv, linelist_json):
            with pytest.raises(ValueError, match=message):
                writer(lines)

    @pytest.mark.parametrize("size", SIZES)
    def test_several_bands_in_runs_and_interleaved(self, size):
        runs = [line._replace(band="nu4") for line in self.lines(["nu2"])[:30]]
        self.check(runs + self.lines(["nu2", "nu3", "nu2"]), size)

    @pytest.mark.parametrize("size", SIZES)
    def test_numpy_scalar_and_int_fields(self, size):
        def fields(n):
            freq = (np.float64(1e3 + n), np.float32(0.1 * n + 1), 7 + n, np.int64(n + 1))
            intensity = (np.float32(1.0 / (n + 1)), 3, np.float64(2.5e-7 * n), True)
            flags = (np.bool_(n % 2), n % 3, np.int8(0), 1.0)
            return freq[n % 4], intensity[n % 4], flags[n % 4], flags[(n + 1) % 4]

        lines = self.lines(["nu2"], fields)
        numpy_state = RotationalState(np.int64(7), np.int32(-5), A)
        self.check(lines + [lines[0]._replace(upper=numpy_state)], size)

    @pytest.mark.parametrize("size", SIZES)
    def test_generator_argument(self, size):
        lines = repeat_to(self.lines(["nu2"]), size)
        assert linelist_csv(iter(lines)) == loop_linelist_csv(lines)

    def test_empty_list(self):
        assert linelist_csv([]) == linelist_csv(iter([])) == CSV_HEADER + "\n"

    @settings(deadline=None, derandomize=True, max_examples=100)
    @given(band=st.one_of(st.text(max_size=6), st.text(",\"\r\n\0ab", max_size=4),
                          st.integers(), st.none(), st.lists(st.text(), max_size=2)),
           size=st.sampled_from([15, 1_100]))
    @example(band="a,b", size=15)
    @example(band="x\ny", size=1_100)
    @example(band=5, size=1_100)
    @example(band=["nu2"], size=15)
    def test_band_names_follow_the_band_rule(self, band, size):
        # once written as they came: a row of 12 fields, a split row, a
        # JSON band of 5; a list band was a bare TypeError from a band set
        lines = repeat_to(self.lines(["nu2", band]), size)
        try:
            Band(band, 1.0, BandType.PARALLEL)
        except ValueError:
            for writer in (linelist_csv, linelist_json):
                with pytest.raises(ValueError, match=re.escape(f"band {band!r}:")):
                    writer(lines)
        else:
            assert linelist_csv(lines) == loop_linelist_csv(lines)
            assert linelist_json(lines) == loop_linelist_json(lines)

    @pytest.mark.parametrize("size", SIZES)
    def test_records_of_another_length_rejected_as_before(self, size):
        with pytest.raises(ValueError):
            linelist_csv(repeat_to([tuple(self.lines(["nu2"])[0])[:6]], size))

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("field", ["frequency", "intensity"])
    @pytest.mark.parametrize("value", [None, "1.5"])
    def test_non_numbers_rejected_as_before(self, size, field, value):
        # numpy's object cast would give NaN for None and 1.5 for "1.5"
        lines = repeat_to(self.lines(["nu2"]), size)
        lines[-1] = lines[-1]._replace(**{field: value})
        with pytest.raises(TypeError):
            linelist_csv(lines)

    def test_engine_list_above_the_threshold(self):
        ens, violation = ThermalEnsemble(jmax=45), ViolationModel(0.3)
        lines = line_list(NH3, "nu3", ens, violation, "none")
        assert len(lines) >= 10_000
        oracle = loop_line_list(NH3, "nu3", ens, violation, "none")
        assert linelist_csv(lines) == loop_linelist_csv(oracle)


class TestEnsembleDomain:
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_temperature_must_be_finite(self, value):
        with pytest.raises(ValueError, match="temperature"):
            ThermalEnsemble(temperature=value)

    @pytest.mark.parametrize("value", [2.5, 3.0, "3"])
    def test_jmax_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match="jmax"):
            ThermalEnsemble(jmax=value)

    def test_jmax_bound_follows_from_the_memory_budget(self):
        limit, per_level = spectrum._JMAX_LIMIT, spectrum._BYTES_PER_LEVEL
        # two species per (J, K) in the table to jmax + 1
        assert (limit + 2) * (limit + 3) * per_level <= 2 * 1024**3
        assert (limit + 3) * (limit + 4) * per_level > 2 * 1024**3
        assert limit >= 200
        assert ThermalEnsemble(jmax=limit).jmax == limit

    @pytest.mark.parametrize("value", [
        spectrum._JMAX_LIMIT + 1, 100_000, 10**400, np.int64(2**62)])
    def test_jmax_over_the_bound_rejected(self, value):
        with pytest.raises(ValueError, match=r"jmax must be at most \d+ .*, got"):
            ThermalEnsemble(jmax=value)

    def test_numpy_integer_jmax_accepted(self):
        assert ThermalEnsemble(jmax=np.int64(3)).jmax == 3

    # bools were once read as T = 1 K, jmax = 1 and beta = 1; a string
    # temperature and a None beta were bare TypeErrors
    @pytest.mark.parametrize("field,make", [
        ("temperature", lambda: ThermalEnsemble(True)),
        ("jmax", lambda: ThermalEnsemble(296.0, True)),
        ("temperature", lambda: ThermalEnsemble("300")),
        ("temperature", lambda: ThermalEnsemble(10**400)),
        ("beta", lambda: ViolationModel(True)),
        ("beta", lambda: ViolationModel(None)),
        ("beta", lambda: ViolationModel("0.1")),
    ], ids=["bool-T", "bool-jmax", "str-T", "huge-T", "bool-beta", "None-beta",
            "str-beta"])
    def test_bool_and_non_real_rejected(self, field, make):
        with pytest.raises(ValueError, match=field):
            make()

    def test_fraction_beta_matches_its_float(self):
        # once numpy's UFuncOutputCastingError from an object-dtype pair
        # table; each call computes its own result, so the exact beta is
        # never answered from a result computed for 0.25
        ensemble, state = ThermalEnsemble(296.0, 5), RotationalState(2, 0)
        exact, rounded = ViolationModel(Fraction(1, 4)), ViolationModel(0.25)
        csv_exact = linelist_csv(line_list(SO3, "nu2", ensemble, exact, "none"))
        assert csv_exact == linelist_csv(
            line_list(SO3, "nu2", ensemble, rounded, "none"))
        for fn, args in ((partition_function, ()), (state_population, (state,))):
            value = fn(SO3, *args, ensemble, exact)
            assert value == fn(SO3, *args, ensemble, rounded)

    # a float32 inf once passed with a warning, every Boltzmann factor then 1,
    # every float32 value warned of an overflow casting the float maximum,
    # and a float16 296 K computed kT in float16; no result is memoised, so
    # the float16 call and the 296.0 one each compute their own
    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    @pytest.mark.parametrize("field,lines", [
        ("temperature", lambda x: line_list(SO3, "nu2", ThermalEnsemble(x, 5))),
        ("B_cm1", lambda x: line_list(
            dataclasses.replace(SO3, B_cm1=x), "nu2", ThermalEnsemble(296.0, 5))),
        ("origin_cm1", lambda x: line_list(
            dataclasses.replace(SO3, bands=(Band("nu2", x, BandType.PARALLEL),)),
            "nu2", ThermalEnsemble(296.0, 5))),
    ], ids=["temperature", "B_cm1", "origin_cm1"])
    def test_narrow_numpy_floats(self, dtype, field, lines):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for value in ("inf", "nan"):
                with pytest.raises(
                    ValueError, match=f"{field} must be a finite number > 0, got"
                ):
                    lines(dtype(value))
            kept = lines(dtype(296))
        assert kept == lines(296.0)

    def test_non_band_named_in_key_error(self):
        # once an AttributeError raised while formatting the KeyError
        with pytest.raises(KeyError, match="band None does not belong to 'so3'"):
            line_list(SO3, None, ThermalEnsemble(jmax=2))

#: Candidate J, K, species and nuclear-spin values: valid and invalid
#: integers of any size (Python and numpy), bools, floats with NaN and inf,
#: strings, None and the species enum.
QUANTUM_LABELS = st.one_of(
    st.booleans(),
    st.integers(-3, 40),
    st.integers(),
    st.integers(-3, 40).map(np.int64),
    st.floats(),
    st.text(max_size=2),
    st.none(),
    st.sampled_from(list(InversionSpecies)),
)


def _half_valid(valid, invalid=QUANTUM_LABELS):
    """Half the draws from ``valid``, half from ``invalid`` (by default any
    kind of label)."""
    return st.booleans().flatmap(lambda ok: valid if ok else invalid)


class TestQuantumLabels:
    """Every (J, K, species) the level functions accept gives a finite
    result; every other one is a ValueError."""

    def test_species_string_rejected_by_state_energy(self):
        # once failed with a bare tuple.index error
        with pytest.raises(ValueError, match="species"):
            state_energy(NH3, 1, 0, "s")

    def test_half_integer_j_rejected_by_rot_energy(self):
        # once returned 2.8825
        with pytest.raises(ValueError, match="integers"):
            rot_energy(SO3, 2.5, 1)

    def test_nan_j_rejected_by_rot_energy(self):
        with pytest.raises(ValueError, match="integers"):
            rot_energy(SO3, float("nan"), 0)

    def test_half_integer_state_rejected_before_state_population(self):
        # once a bare TypeError inside state_population
        with pytest.raises(ValueError, match="integers"):
            state_population(SO3, RotationalState(2.5, 1), ThermalEnsemble(jmax=5))

    @settings(deadline=None, derandomize=True, max_examples=400)
    @given(J=_half_valid(st.integers(0, 12)), K=_half_valid(st.integers(-12, 12)),
           species=_half_valid(st.sampled_from(list(InversionSpecies))),
           spin=_half_valid(st.sampled_from([0, SPIN_HALF, 0.5])),
           branch=st.sampled_from("PQR"), band_type=st.sampled_from(list(BandType)),
           delta_k=st.sampled_from([1, -1]))
    @example(J=10**400, K=0, species=InversionSpecies.S, spin=SPIN_HALF, branch="R",
             band_type=BandType.PARALLEL, delta_k=1)
    def test_finite_or_value_error(self, J, K, species, spin, branch, band_type,
                                   delta_k):
        calls = [
            (RotationalState, (J, K, species), RotationalState),
            (classify_state, (J, K, Fraction(0), species), SymmetryAssignment),
            (classify_state, (J, K, SPIN_HALF, species), SymmetryAssignment),
            (classify_state, (J, K, spin, species), SymmetryAssignment),
            (sector_weights, (J, K, SPIN_HALF, species), dict),
            (sector_weights, (J, K, spin, species), dict),
            (rot_energy, (SO3, J, K), float),
            (state_energy, (NH3, J, K, species), float),
            (honl_london, (J, K, branch, band_type, delta_k), float),
        ]
        for fn, args, kind in calls:
            try:
                out = fn(*args)
            except ValueError:
                continue
            assert type(out) is kind, (fn.__name__, args)
            numbers = out.values() if kind is dict else [out] if kind is float else []
            assert all(math.isfinite(x) for x in numbers), (fn.__name__, args, out)


#: Ensemble, band and normalization inputs outside the domain: NaN, +-inf,
#: 0, negative values, bools, strings, None, a band of another molecule, and
#: objects of the wrong type for the molecule, ensemble, violation and state.
OUT_OF_DOMAIN = st.sampled_from([
    math.nan, math.inf, -math.inf, 0, 0.0, -1, -0.5, True, False, "1", "nu9", None,
    Band("nu9", 100.0, BandType.PARALLEL), (296.0, 3), (1, 1), "so3",
    ThermalEnsemble(), ViolationModel(), RotationalState(1, 1),
])


class TestEnsembleInputs:
    """Every molecule, ensemble, violation model, state, band and
    normalization the line-list functions accept gives finite values; every
    other one is a ValueError, or a KeyError for a band the molecule does
    not have."""

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(molecule_band=st.sampled_from([SO3, BH3, NH3, FIXTURE]).flatmap(
               lambda m: st.tuples(st.just(m), st.sampled_from(
                   [*m.bands, *(b.name for b in m.bands)]))),
           inputs=st.fixed_dictionaries({
               "temperature": st.floats(10, 1000) | st.floats(0, exclude_min=True),
               "jmax": st.integers(0, 6),
               "beta": st.floats(0, 1),
               "normalization": st.sampled_from(["max", "total", "none"]),
           }),
           bad=st.sampled_from([None, "temperature", "jmax", "beta", "normalization",
                                "band", "molecule", "ensemble", "violation",
                                "state"]),
           bad_value=OUT_OF_DOMAIN,
           J=st.integers(0, 8), K=st.integers(-8, 8), a_species=st.booleans())
    def test_finite_value_error_or_unknown_band(
        self, molecule_band, inputs, bad, bad_value, J, K, a_species
    ):
        molecule, inputs["band"] = molecule_band  # a band by name or by object
        if bad is not None:  # one input, or none, out of the domain
            inputs[bad] = bad_value
        band, normalization = inputs["band"], inputs["normalization"]
        try:
            ensemble = ThermalEnsemble(inputs["temperature"], inputs["jmax"])
            violation = ViolationModel(inputs["beta"])
        except ValueError:
            return
        species = (A if a_species else S) if molecule is NH3 else InversionSpecies.NONE
        args = dict(molecule=molecule, ensemble=ensemble, violation=violation,
                    state=RotationalState(J, max(-J, min(K, J)), species))
        if bad in args:  # an argument of the wrong type
            args[bad] = bad_value
        molecule, ensemble, violation, state = args.values()
        try:
            lines = line_list(molecule, band, ensemble, violation, normalization)
        except KeyError:
            assert band not in molecule.bands
            assert band not in [b.name for b in molecule.bands]
        except ValueError:
            pass
        else:
            values = [x for l in lines for x in (l.frequency, l.intensity)]
            assert all(math.isfinite(x) for x in values)
        for fn, args in ((partition_function, ()), (state_population, (state,))):
            try:
                out = fn(molecule, *args, ensemble, violation)
            except ValueError:
                continue
            assert type(out) is float and math.isfinite(out), (fn.__name__, out)


class TestLowTemperature:
    """Temperatures whose Boltzmann factors, intensities or partition
    function leave the float range are rejected with one line."""

    def test_partition_function_overflow(self):
        with pytest.raises(ValueError, match="temperature 0.0001 K"):
            partition_function(NH3, ThermalEnsemble(1e-4, 5))

    @pytest.mark.parametrize("norm", ["max", "total", "none"])
    def test_boltzmann_overflow_in_line_list(self, norm):
        with pytest.raises(ValueError, match="Boltzmann factors"):
            line_list(NH3, "nu2", ThermalEnsemble(1e-4, 5), normalization=norm)

    def test_intensity_overflow_in_max_mode(self):
        # the strongest allowed line underflows, so forbidden/allowed overflows
        with pytest.raises(ValueError, match="line intensities"):
            line_list(BH3, "nu3", ThermalEnsemble(0.0035, 8), ViolationModel(1e-9))

    def test_population_with_underflowing_partition_function(self):
        with pytest.raises(ValueError, match="temperature 0.001 K"):
            state_population(BH3, RotationalState(1, 1), ThermalEnsemble(1e-3, 5))

    # every Boltzmann factor of a populated level underflows; at jmax 0 the
    # only level is forbidden
    @pytest.mark.parametrize("ensemble", [ThermalEnsemble(1e-3, 5),
                                          ThermalEnsemble(jmax=0)])
    @pytest.mark.parametrize("norm", ["max", "total", "none"])
    def test_line_list_with_no_populated_level(self, ensemble, norm):
        with pytest.raises(ValueError, match="partition function is 0"):
            line_list(BH3, "nu3", ensemble, normalization=norm)

    def test_population_with_no_populated_level(self):
        # the only level up to jmax 0 is forbidden, so Z = 0 at any temperature
        with pytest.raises(ValueError, match="partition function is 0"):
            state_population(BH3, RotationalState(0, 0), ThermalEnsemble(jmax=0))


class TestArgumentTypes:
    """Arguments of the wrong type are a field-named ValueError, not an
    AttributeError, and an enum value is not read as another member."""

    @pytest.mark.parametrize("field,call", [
        ("ensemble", lambda: line_list(SO3, "nu2", None)),
        ("violation", lambda: line_list(SO3, "nu2", ThermalEnsemble(jmax=3), 0.1)),
        ("molecule", lambda: line_list(None, "nu2", ThermalEnsemble(jmax=3))),
        ("ensemble", lambda: partition_function(SO3, (296.0, 3))),
        ("state", lambda: state_population(SO3, (1, 1), ThermalEnsemble(jmax=3))),
        # once returned the perpendicular value 0.5
        ("band_type", lambda: honl_london(1, 0, "R", "parallel")),
    ], ids=["line_list-ensemble", "line_list-violation", "line_list-molecule",
            "partition_function-ensemble", "state_population-state",
            "honl_london-band_type"])
    def test_wrong_type_rejected(self, field, call):
        with pytest.raises(ValueError, match=field):
            call()


class TestOverflowingInputs:
    """A temperature whose kT rounds to 0, and rotational constants whose
    level energies overflow, are rejected before any numpy warning."""

    def test_temperature_with_zero_kt(self):
        # once accepted; partition_function then warned before it raised
        with pytest.raises(ValueError, match="temperature"):
            ThermalEnsemble(Fraction(1, 10**400), 3)

    @pytest.mark.parametrize("field", ["B_cm1", "C_cm1"])
    @pytest.mark.parametrize("call", [
        lambda m: rot_energy(m, 2, 2),
        lambda m: state_energy(m, 2, 2),
        lambda m: partition_function(m, ThermalEnsemble(jmax=3)),
        lambda m: line_list(m, "nu2", ThermalEnsemble(jmax=3)),
    ], ids=["rot_energy", "state_energy", "partition_function", "line_list"])
    def test_level_energies_that_overflow(self, field, call):
        # once inf and nan energies with RuntimeWarnings, or a ValueError
        # blaming the temperature
        molecule = dataclasses.replace(SO3, **{field: 1.0e308})
        with pytest.raises(ValueError, match=r"B_cm1 .* not finite"):
            call(molecule)

    def test_largest_constants_at_j0(self):
        molecule = dataclasses.replace(SO3, B_cm1=1.0e308)
        assert rot_energy(molecule, 0, 0) == 0.0
        # Z sums the levels up to jmax only; a line list's table reaches
        # J = 1, where E = 2B overflows
        ens = ThermalEnsemble(jmax=0)
        assert partition_function(molecule, ens) == 1.0
        assert state_population(molecule, RotationalState(0, 0), ens) == 1.0
        with pytest.raises(ValueError, match=r"B_cm1 .* up to J = 1 not finite"):
            line_list(molecule, "nu2", ens)

    @pytest.mark.parametrize("band_type", list(BandType))
    def test_band_origin_whose_frequencies_overflow(self, band_type):
        # once lines with inf frequencies: finite levels, an origin near the
        # float maximum, and a level difference that tips the sum over it
        molecule = dataclasses.replace(NH3, B_cm1=1e306, C_cm1=1e306, bands=(
            Band("nu2", 1.79e308, band_type),))
        with pytest.raises(ValueError, match=(
                r"^band 'nu2': origin_cm1 1\.79e\+308 is out of range: "
                r"line frequencies not finite$")):
            line_list(molecule, "nu2", ThermalEnsemble(jmax=3), ViolationModel(0.5),
                      normalization="none")


class TestLoopOracle:
    """The column engine against the per-transition loop it replaced."""

    CASES = [
        (name, band.name, beta, norm)
        for name in shipped_molecules()
        for band in get_molecule(name).bands
        for beta in (0.0, 1e-9, 0.3)
        for norm in ("max", "total", "none")
    ]

    @pytest.mark.parametrize("name,band,beta,norm", CASES)
    def test_csv_and_partition_function_identical(self, name, band, beta, norm):
        mol = get_molecule(name)
        ens, violation = ThermalEnsemble(jmax=25), ViolationModel(beta)
        lines = line_list(mol, band, ens, violation, norm)
        loop = loop_line_list(mol, band, ens, violation, norm)
        # each list rendered by its own engine's serializers, JSON included
        assert linelist_csv(lines) == loop_linelist_csv(loop)
        assert linelist_json(lines) == loop_linelist_json(loop)
        assert partition_function(mol, ens, violation) == (
            loop_partition_function(mol, ens, violation)
        )

    def test_oracle_computes_its_own_numbers(self):
        # energies and line strengths are closed forms of its own, so an
        # error in the engine's numeric kernels cannot cancel out
        import oracle

        assert "_kernels" not in inspect.getsource(oracle)

    @pytest.mark.parametrize("name,band,beta", sorted({c[:3] for c in CASES}))
    def test_text_matches_loop_writer(self, name, band, beta):
        lines = line_list(get_molecule(name), band, ThermalEnsemble(jmax=25),
                          ViolationModel(beta))
        assert linelist_text(lines) == loop_linelist_text(lines)

    @pytest.mark.parametrize("name", shipped_molecules())
    @pytest.mark.parametrize("beta", [0.0, 1e-9, 0.3])
    def test_state_population_identical(self, name, beta):
        # every label to jmax + 1: the ensemble's levels agree with the loop
        # oracle, and the rest are rejected
        mol = get_molecule(name)
        ens, violation = ThermalEnsemble(jmax=12), ViolationModel(beta)
        for J in range(ens.jmax + 2):
            for K in range(-J, J + 1):
                for species in InversionSpecies:
                    state = RotationalState(J, K, species)
                    if not _in_ensemble(mol, state, ens):
                        with pytest.raises(ValueError, match="^(J|species) must"):
                            state_population(mol, state, ens, violation)
                        continue
                    assert state_population(mol, state, ens, violation) == (
                        loop_state_population(mol, state, ens, violation)
                    )


@st.composite
def random_cases(draw):
    c3v = draw(st.booleans())
    band = Band(
        "b",
        draw(st.floats(0.5, 3000.0)),
        draw(st.sampled_from(list(BandType))),
    )
    molecule = MoleculeSpec(
        name="random",
        point_group=PointGroup.C3V if c3v else PointGroup.D3H,
        nuclear_spin=draw(st.sampled_from([Fraction(0), Fraction(1, 2)])),
        B_cm1=draw(st.floats(0.05, 10.0)),
        C_cm1=draw(st.floats(0.05, 10.0)),
        bands=(band,),
        inversion_splitting_cm1=(
            draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0))) if c3v else None
        ),
    )
    ensemble = ThermalEnsemble(
        temperature=draw(st.floats(1.0, 3000.0)), jmax=draw(st.integers(0, 15))
    )
    beta = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    norm = draw(st.sampled_from(["max", "total", "none"]))
    return molecule, ensemble, ViolationModel(beta), norm


#: Planar spin-1/2 molecule of the kind the strategy draws.
_PLANAR_HALF = MoleculeSpec("random", PointGroup.D3H, SPIN_HALF, 5.0, 2.5,
                            (Band("b", 1000.0, BandType.PERPENDICULAR),))
#: Ensembles with Z == 0, which the strategy alone does not reach: at jmax 0
#: and beta 0 the only level is forbidden, and at 1e-3 K the Boltzmann factor
#: of every populated level underflows.
Z_ZERO_CASES = [
    (_PLANAR_HALF, ThermalEnsemble(296.0, 0), ViolationModel(0.0), "max"),
    (_PLANAR_HALF, ThermalEnsemble(1e-3, 5), ViolationModel(0.0), "total"),
]


def _in_ensemble(molecule, state, ensemble):
    """Whether a state labels a level of the ensemble: J at most its jmax,
    species s or a for C3v and none for D3h."""
    c3v = molecule.point_group is PointGroup.C3V
    none = state.species is InversionSpecies.NONE
    return state.J <= ensemble.jmax and c3v != none


def _levels_key(l):
    return (l.lower.J, l.lower.K, l.lower.species, l.upper.J, l.upper.K,
            l.upper.species)


class TestRandomMolecules:
    @settings(deadline=None, derandomize=True, max_examples=150)
    @example(case=Z_ZERO_CASES[0], jk=(1, 0))
    @example(case=Z_ZERO_CASES[1], jk=(1, 1))
    @given(case=random_cases(),
           jk=st.integers(1, 500).flatmap(lambda J: st.tuples(st.just(J),
                                                              st.integers(0, J))))
    def test_engine_matches_loop_oracle(self, case, jk):
        J, K = jk  # Hönl-London branch sums, independent of the molecule
        for band_type in BandType:
            for dk in (1, -1):
                if band_type is BandType.PERPENDICULAR and K + dk < 0:
                    continue
                total = sum(honl_london(J, K, b, band_type, dk) for b in "PQR")
                assert total == pytest.approx(1.0, abs=1e-12), (band_type, dk)

        molecule, ensemble, violation, norm = case
        if loop_partition_function(molecule, ensemble, violation) == 0:
            with pytest.raises(ValueError, match="partition function is 0"):
                line_list(molecule, "b", ensemble, violation, norm)
            return
        lines = line_list(molecule, "b", ensemble, violation, norm)
        oracle = loop_line_list(molecule, "b", ensemble, violation, norm)
        assert linelist_csv(lines) == loop_linelist_csv(oracle)
        assert linelist_json(lines) == loop_linelist_json(oracle)
        origin, spin = molecule.bands[0].origin_cm1, molecule.nuclear_spin
        for l in lines:
            upper = loop_level_energy(molecule, l.upper.J, l.upper.K, l.upper.species)
            lower = loop_level_energy(molecule, l.lower.J, l.lower.K, l.lower.species)
            assert l.frequency == origin + upper - lower
            # superselection closure: the two levels share a sector
            lo, up = (classify_state(s.J, s.K, spin, s.species).subspaces
                      for s in (l.lower, l.upper))
            assert lo & up, l

        # raw forbidden intensities are exactly linear in beta while both the
        # beta-weighted population and the intensity are normal floats
        beta = violation.beta
        if norm == "none" and sys.float_info.min <= beta <= 0.5:
            doubled = {_levels_key(l): l.intensity for l in line_list(
                molecule, "b", ensemble, ViolationModel(2 * beta), "none")}
            for l in lines:
                if (l.sp_forbidden or l.ss_forbidden) and (
                        l.intensity >= sys.float_info.min):
                    assert doubled[_levels_key(l)] == 2 * l.intensity, l

    @settings(deadline=None, derandomize=True, max_examples=150)
    @example(Z_ZERO_CASES[0])
    @example(Z_ZERO_CASES[1])
    @given(random_cases())
    def test_state_population_matches_loop_oracle(self, case):
        molecule, ensemble, violation, _ = case
        states = [RotationalState(J, K, sp) for J in range(ensemble.jmax + 2)
                  for K in range(J + 1) for sp in InversionSpecies]
        for state in states:
            if not _in_ensemble(molecule, state, ensemble):
                with pytest.raises(ValueError, match="^(J|species) must"):
                    state_population(molecule, state, ensemble, violation)
        states = [s for s in states if _in_ensemble(molecule, s, ensemble)]
        if loop_partition_function(molecule, ensemble, violation) == 0:
            with pytest.raises(ValueError, match="partition function is 0"):
                state_population(molecule, states[0], ensemble, violation)
            return
        for state in states:
            assert state_population(molecule, state, ensemble, violation) == (
                loop_state_population(molecule, state, ensemble, violation)
            )
        c3v = molecule.point_group is PointGroup.C3V
        species = (S, A) if c3v else (InversionSpecies.NONE,)
        total = math.fsum(
            state_population(molecule, RotationalState(J, K, sp), ensemble, violation)
            for J in range(ensemble.jmax + 1) for K in range(J + 1) for sp in species
        )
        assert total == pytest.approx(1, rel=1e-12)
