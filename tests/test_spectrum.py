"""Tests for energies, populations and line lists."""

import csv
import io
import json
import math
import sys
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
    get_molecule,
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
        beta = ViolationModel(1e-6)
        raw = line_list(SO3, "nu2", self.ENS, beta, normalization="none")
        by_max = line_list(SO3, "nu2", self.ENS, beta, normalization="max")
        by_total = line_list(SO3, "nu2", self.ENS, beta, normalization="total")
        allowed_max = max(
            l.intensity for l in by_max if not (l.sp_forbidden or l.ss_forbidden)
        )
        assert allowed_max == 1.0
        q = partition_function(SO3, self.ENS, beta)
        for lr, lt in zip(raw, by_total):
            assert lt.intensity == pytest.approx(lr.intensity / q, rel=1e-12)

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

    def test_deterministic_output(self):
        beta = ViolationModel(1e-6)
        first = linelist_csv(line_list(BH3, "nu3", self.ENS, beta))
        second = linelist_csv(line_list(BH3, "nu3", self.ENS, beta))
        assert first == second


EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e300, math.nan, math.inf, -math.inf]),
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
    @given(st.lists(hand_built_lines(), max_size=4))
    def test_hand_built_lines_match_loop_serializers(self, lines):
        assert linelist_csv(lines) == loop_linelist_csv(lines)
        assert linelist_json(lines) == loop_linelist_json(lines)


class TestEnsembleDomain:
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_temperature_must_be_finite(self, value):
        with pytest.raises(ValueError, match="temperature"):
            ThermalEnsemble(temperature=value)

    @pytest.mark.parametrize("value", [2.5, 3.0, "3"])
    def test_jmax_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match="jmax"):
            ThermalEnsemble(jmax=value)

    def test_numpy_integer_jmax_accepted(self):
        assert ThermalEnsemble(jmax=np.int64(3)).jmax == 3


#: Candidate J, K and species values: valid and invalid integers (Python and
#: numpy), floats with NaN and inf, strings, None and the species enum.
#: Integers stay below 1e6, where every energy is a finite float.
QUANTUM_LABELS = st.one_of(
    st.integers(-3, 40),
    st.integers(-10**6, 10**6),
    st.integers(-3, 40).map(np.int64),
    st.floats(),
    st.text(max_size=2),
    st.none(),
    st.sampled_from(list(InversionSpecies)),
)


def _half_valid(valid):
    """Half the draws from ``valid``, half from any kind of label."""
    return st.booleans().flatmap(lambda ok: valid if ok else QUANTUM_LABELS)


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
           branch=st.sampled_from("PQR"), band_type=st.sampled_from(list(BandType)),
           delta_k=st.sampled_from([1, -1]))
    def test_finite_or_value_error(self, J, K, species, branch, band_type, delta_k):
        calls = [
            (RotationalState, (J, K, species), RotationalState),
            (classify_state, (J, K, Fraction(0), species), SymmetryAssignment),
            (classify_state, (J, K, SPIN_HALF, species), SymmetryAssignment),
            (sector_weights, (J, K, SPIN_HALF, species), dict),
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

    @pytest.mark.parametrize("name", shipped_molecules())
    @pytest.mark.parametrize("beta", [0.0, 1e-9, 0.3])
    def test_state_population_identical(self, name, beta):
        mol = get_molecule(name)
        ens, violation = ThermalEnsemble(jmax=12), ViolationModel(beta)
        for J in range(ens.jmax + 2):
            for K in range(-J, J + 1):
                for species in InversionSpecies:
                    state = RotationalState(J, K, species)
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
