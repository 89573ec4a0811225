"""Tests for the symmetry classification of rotational / spin states.

The statistical-weight values are checked two independent ways: against the
character-free brute-force oracle in oracle.py (explicit matrix reps,
projector ranks) and against hand-computed expected values for the small
quantum numbers.
"""

import csv
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from trisym.classify import (
    ForbiddenBy,
    InversionSpecies,
    RotationalState,
    SPIN_HALF,
    SPIN_THREE_HALF,
    SymmetryAssignment,
    classify_state,
    product_decompose,
    rotation_phase_axis,
    rotation_phase_inplane,
    sector_weights,
    spin_space_decomposition,
    spin_statistical_weight,
)
from trisym.group_algebra import LAMBDA_MINUS, LAMBDA_PLUS, SubspaceLabel

from oracle import (
    brute_sector_dimension,
    brute_statistical_weight,
    rotational_rep,
    rule_classify_state,
)

S0 = Fraction(0)
NONE = InversionSpecies.NONE
HP, HM, HPR = SubspaceLabel.HPLUS, SubspaceLabel.HMINUS, SubspaceLabel.HPRIME


class TestPhaseRules:
    def test_inplane_phase_cases(self):
        assert rotation_phase_inplane(0, 1) == 1
        assert rotation_phase_inplane(3, 1) == 1
        assert rotation_phase_inplane(1, 1) == LAMBDA_PLUS
        assert rotation_phase_inplane(2, 1) == LAMBDA_MINUS
        assert rotation_phase_inplane(1, -1) == LAMBDA_MINUS
        assert rotation_phase_inplane(-1, 1) == LAMBDA_MINUS

    def test_inplane_phase_matches_exponential(self):
        for K in range(-9, 10):
            for eps in (1, -1):
                expected = np.exp(1j * eps * 2 * np.pi * K / 3)
                assert rotation_phase_inplane(K, eps) == pytest.approx(
                    expected, abs=1e-14
                )

    def test_axis_phase(self):
        assert rotation_phase_axis(0, 1) == 1
        assert rotation_phase_axis(1, 1) == -1
        assert rotation_phase_axis(2, -1) == 1
        assert rotation_phase_axis(2, 1, InversionSpecies.A) == -1
        assert rotation_phase_axis(3, 1, InversionSpecies.A) == 1

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            rotation_phase_inplane(1, 2)
        with pytest.raises(ValueError):
            rotation_phase_axis(1, 0)

    # each once returned a phase: NaN gave LAMBDA_MINUS, "a" the s-species -1
    @pytest.mark.parametrize("call,field", [
        (lambda: rotation_phase_inplane(float("nan"), 1), "K"),
        (lambda: rotation_phase_inplane(1.5, 1), "K"),
        (lambda: rotation_phase_inplane(1, True), "epsilon"),
        (lambda: rotation_phase_inplane(1, 1.0), "epsilon"),
        (lambda: rotation_phase_axis(1.5, 1), "J"),
        (lambda: rotation_phase_axis(float("nan"), 1), "J"),
        (lambda: rotation_phase_axis(1, True), "epsilon"),
        (lambda: rotation_phase_axis(1, -1.0), "epsilon"),
        (lambda: rotation_phase_axis(1, 1, "a"), "species"),
    ], ids=["inplane-nan-K", "inplane-half-K", "inplane-bool-eps",
            "inplane-float-eps", "axis-half-J", "axis-nan-J", "axis-bool-eps",
            "axis-float-eps", "axis-species-str"])
    def test_bad_arguments_rejected(self, call, field):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            call()

    def test_numpy_integers_accepted(self):
        assert rotation_phase_inplane(np.int64(1), np.int64(-1)) == LAMBDA_MINUS
        assert rotation_phase_axis(np.int64(3), np.int64(1), InversionSpecies.A) == 1


class TestSpin0Planar:
    """Spin-0 planar rules: only K = 3q levels survive, K = 0 needs even J."""

    @pytest.mark.parametrize(
        "J,K,labels,forbidden",
        [
            (0, 0, {HP}, ForbiddenBy.NONE),
            (2, 0, {HP}, ForbiddenBy.NONE),
            (1, 0, {HM}, ForbiddenBy.SS),
            (3, 0, {HM}, ForbiddenBy.SS),
            (3, 3, {HP, HM}, ForbiddenBy.NONE),
            (6, 6, {HP, HM}, ForbiddenBy.NONE),
            (6, 3, {HP, HM}, ForbiddenBy.NONE),
            (1, 1, {HPR}, ForbiddenBy.SP),
            (2, 2, {HPR}, ForbiddenBy.SP),
            (4, 4, {HPR}, ForbiddenBy.SP),
            (5, 5, {HPR}, ForbiddenBy.SP),
        ],
    )
    def test_table(self, J, K, labels, forbidden):
        out = classify_state(J, K, S0)
        assert out.subspaces == frozenset(labels)
        assert out.forbidden_by is forbidden

    def test_k_sign_irrelevant(self):
        for J in range(1, 8):
            for K in range(1, J + 1):
                assert classify_state(J, K, S0) == classify_state(J, -K, S0)

    def test_sp_forbidden_iff_k_not_multiple_of_three(self):
        for J in range(11):
            for K in range(J + 1):
                out = classify_state(J, K, S0)
                assert out.sp_forbidden == (K % 3 != 0)

    def test_invalid_jk(self):
        with pytest.raises(ValueError):
            classify_state(-1, 0, S0)
        with pytest.raises(ValueError):
            classify_state(2, 3, S0)


class TestSpinHalfPlanar:
    @pytest.mark.parametrize(
        "J,K,I,labels,forbidden",
        [
            (0, 0, SPIN_THREE_HALF, {HP}, ForbiddenBy.SS),
            (2, 0, SPIN_THREE_HALF, {HP}, ForbiddenBy.SS),
            (1, 0, SPIN_THREE_HALF, {HM}, ForbiddenBy.NONE),
            (0, 0, SPIN_HALF, {HPR}, ForbiddenBy.SP),
            (1, 0, SPIN_HALF, {HPR}, ForbiddenBy.SP),
            (3, 3, SPIN_THREE_HALF, {HP, HM}, ForbiddenBy.NONE),
            (3, 3, SPIN_HALF, {HPR}, ForbiddenBy.SP),
            (1, 1, SPIN_THREE_HALF, {HPR}, ForbiddenBy.SP),
            (1, 1, SPIN_HALF, {HP, HM, HPR}, ForbiddenBy.NONE),
            (4, 2, SPIN_HALF, {HP, HM, HPR}, ForbiddenBy.NONE),
        ],
    )
    def test_per_component(self, J, K, I, labels, forbidden):
        out = classify_state(J, K, SPIN_HALF, NONE, I)
        assert out.subspaces == frozenset(labels)
        assert out.forbidden_by is forbidden

    @pytest.mark.parametrize(
        "J,K,labels,forbidden",
        [
            # aggregate over I: forbidden only when every component is
            (0, 0, {HP, HPR}, ForbiddenBy.SP_AND_SS),
            (2, 0, {HP, HPR}, ForbiddenBy.SP_AND_SS),
            (1, 0, {HM, HPR}, ForbiddenBy.NONE),
            (3, 3, {HP, HM, HPR}, ForbiddenBy.NONE),
            (1, 1, {HP, HM, HPR}, ForbiddenBy.NONE),
        ],
    )
    def test_aggregate(self, J, K, labels, forbidden):
        out = classify_state(J, K, SPIN_HALF)
        assert out.subspaces == frozenset(labels)
        assert out.forbidden_by is forbidden

    def test_aggregate_union_property(self):
        for J in range(8):
            for K in range(J + 1):
                agg = classify_state(J, K, SPIN_HALF)
                parts = [
                    classify_state(J, K, SPIN_HALF, NONE, i)
                    for i in (SPIN_HALF, SPIN_THREE_HALF)
                ]
                assert agg.subspaces == parts[0].subspaces | parts[1].subspaces
                if any(p.forbidden_by is ForbiddenBy.NONE for p in parts):
                    assert agg.forbidden_by is ForbiddenBy.NONE

    def test_invalid_i(self):
        with pytest.raises(ValueError):
            classify_state(1, 0, SPIN_HALF, NONE, Fraction(5, 2))


class TestC3vK0:
    """K = 0 inversion doublets: the a-component behaves like flipped J parity."""

    @pytest.mark.parametrize(
        "J,species,labels,forbidden",
        [
            (0, InversionSpecies.S, {HP}, ForbiddenBy.NONE),
            (0, InversionSpecies.A, {HM}, ForbiddenBy.SS),
            (1, InversionSpecies.S, {HM}, ForbiddenBy.SS),
            (1, InversionSpecies.A, {HP}, ForbiddenBy.NONE),
            (2, InversionSpecies.S, {HP}, ForbiddenBy.NONE),
            (2, InversionSpecies.A, {HM}, ForbiddenBy.SS),
        ],
    )
    def test_spin0(self, J, species, labels, forbidden):
        out = classify_state(J, 0, S0, species)
        assert out.subspaces == frozenset(labels)
        assert out.forbidden_by is forbidden

    @pytest.mark.parametrize(
        "J,species,I,labels,forbidden",
        [
            (0, InversionSpecies.S, SPIN_THREE_HALF, {HP}, ForbiddenBy.SS),
            (0, InversionSpecies.A, SPIN_THREE_HALF, {HM}, ForbiddenBy.NONE),
            (1, InversionSpecies.S, SPIN_THREE_HALF, {HM}, ForbiddenBy.NONE),
            (1, InversionSpecies.A, SPIN_THREE_HALF, {HP}, ForbiddenBy.SS),
            (0, InversionSpecies.S, SPIN_HALF, {HPR}, ForbiddenBy.SP),
            (1, InversionSpecies.A, SPIN_HALF, {HPR}, ForbiddenBy.SP),
        ],
    )
    def test_spin_half(self, J, species, I, labels, forbidden):
        out = classify_state(J, 0, SPIN_HALF, species, I)
        assert out.subspaces == frozenset(labels)
        assert out.forbidden_by is forbidden

    def test_i_rejected_for_spin0(self):
        with pytest.raises(ValueError):
            classify_state(1, 0, S0, InversionSpecies.S, SPIN_HALF)


class TestClassifyStateDispatch:
    def test_c3v_k_nonzero_uses_planar_rules(self):
        for J in range(1, 6):
            for K in range(1, J + 1):
                for sp in (InversionSpecies.S, InversionSpecies.A):
                    assert classify_state(J, K, SPIN_HALF, sp) == (
                        classify_state(J, K, SPIN_HALF)
                    )

    @pytest.mark.parametrize("forbidden", list(ForbiddenBy))
    def test_flags_read_forbidden_by(self, forbidden):
        assignment = SymmetryAssignment(frozenset(), forbidden)
        assert assignment.sp_forbidden == ("SP" in forbidden.value)
        assert assignment.ss_forbidden == ("SS" in forbidden.value)

    def test_one_entry_point(self):
        # three per-case wrappers once repeated classify_state, and
        # spin_statistical_weight also took a molecule, importing molecules
        import ast
        import inspect

        import trisym
        from trisym import classify

        for name in ("classify_spin0_planar", "classify_spin_half_planar",
                     "classify_c3v_k0"):
            assert not hasattr(trisym, name) and not hasattr(classify, name)
        assert list(inspect.signature(spin_statistical_weight).parameters) == [
            "J", "K", "nuclear_spin", "species"
        ]
        tree = ast.parse(Path(classify.__file__).read_text())
        imports = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
        assert "molecules" not in {n.module for n in imports}

    def test_i_rejected_for_spin0(self):
        with pytest.raises(ValueError):
            classify_state(1, 0, S0, I=SPIN_HALF)

    @pytest.mark.parametrize(
        "J,K,spin,I",
        [
            (1, 1, Fraction(1), None),
            (1, 0, Fraction(3, 2), None),
            (1, 0, Fraction(1), SPIN_HALF),
            (2, 2, Fraction(-1, 2), None),
        ],
    )
    def test_rejects_unsupported_spin(self, J, K, spin, I):
        with pytest.raises(ValueError):
            classify_state(J, K, spin, I=I)

    def test_rotational_state_validation(self):
        with pytest.raises(ValueError):
            RotationalState(J=-1, K=0)
        with pytest.raises(ValueError):
            RotationalState(J=1, K=2)


class TestRuleOracle:
    """The character derivation reproduces the explicit rule tables."""

    COMBOS = [(S0, sp, None) for sp in InversionSpecies] + [
        (SPIN_HALF, sp, I)
        for sp in InversionSpecies
        for I in (None, SPIN_HALF, SPIN_THREE_HALF)
    ]

    @pytest.mark.parametrize("spin,species,I", COMBOS)
    def test_matches_rule_tables(self, spin, species, I):
        for J in range(41):
            for K in range(-J, J + 1):
                assert classify_state(J, K, spin, species, I) == (
                    rule_classify_state(J, K, spin, species, I)
                ), (J, K)

    def test_level_class_characters_are_traces(self):
        """Each level's class character is the trace of its explicit rep."""
        from trisym.classify import _ROT_CHARS, _level_class
        from trisym.group_algebra import IDENTITY, P23, P123

        grid = []
        for J in range(13):
            for K in range(J + 1):
                for sp in InversionSpecies:
                    rep = rotational_rep(J, K, sp)
                    traces = tuple(
                        round(np.trace(rep[g]).real) for g in (IDENTITY, P23, P123)
                    )
                    is_a = sp is InversionSpecies.A
                    cls = _level_class(J, K, is_a)
                    assert _ROT_CHARS[cls] == traces, (J, K, sp)
                    grid.append((J, K, is_a, cls))
        # the same expression over arrays, as the line-list engine calls it
        J, K, is_a, scalar = map(np.array, zip(*grid))
        assert _level_class(J, K, is_a).tolist() == scalar.tolist()


class TestSpinAndProducts:
    def test_spin_space_decomposition(self):
        dec = spin_space_decomposition()
        assert dec[HP] == [(SPIN_THREE_HALF, 4)]
        assert dec[HM] == []
        assert dec[HPR] == [(SPIN_HALF, 2), (SPIN_HALF, 2)]
        total = sum(d for parts in dec.values() for _, d in parts)
        assert total == 8  # 2^3 spin states accounted for

    def test_product_table(self):
        assert product_decompose(HP, HP) == (HP,)
        assert product_decompose(HM, HM) == (HP,)
        assert product_decompose(HP, HM) == (HM,)
        assert product_decompose(HP, HPR) == (HPR,)
        assert product_decompose(HM, HPR) == (HPR,)
        assert set(product_decompose(HPR, HPR)) == {HP, HM, HPR}

    def test_product_symmetric(self):
        labels = (HP, HM, HPR)
        for a in labels:
            for b in labels:
                assert product_decompose(a, b) == product_decompose(b, a)

    def test_product_rejects_fine_labels(self):
        with pytest.raises(ValueError):
            product_decompose(SubspaceLabel.HPRIME1, HP)

    def test_spin_half_rows_consistent_with_products(self):
        """The per-I assignment is the product of rot and spin sectors."""
        rot_sector = {
            ("3q", "even"): HP,
            ("3q", "odd"): HM,
        }
        spin_sector = {SPIN_THREE_HALF: HP, SPIN_HALF: HPR}
        for J in range(8):
            for K in range(J + 1):
                if K % 3 != 0:
                    rot = HPR
                elif K == 0:
                    rot = HP if J % 2 == 0 else HM
                else:
                    rot = None  # both HP and HM occur in the +-K pair
                for I in (SPIN_HALF, SPIN_THREE_HALF):
                    got = classify_state(J, K, SPIN_HALF, NONE, I).subspaces
                    if rot is not None:
                        expect = frozenset(product_decompose(rot, spin_sector[I]))
                    else:
                        expect = frozenset(
                            product_decompose(HP, spin_sector[I])
                        ) | frozenset(product_decompose(HM, spin_sector[I]))
                    assert got == expect, (J, K, I)


class TestStatisticalWeights:
    @pytest.mark.parametrize(
        "J,K,expected",
        [
            (1, 1, 2),
            (2, 1, 2),
            (2, 2, 2),
            (1, 0, 4),
            (3, 0, 4),
            (0, 0, 0),
            (2, 0, 0),
            (3, 3, 4),
            (6, 6, 4),
            (6, 3, 4),
        ],
    )
    def test_spin_half_values(self, J, K, expected):
        assert spin_statistical_weight(J, K, nuclear_spin=SPIN_HALF) == expected

    @pytest.mark.parametrize(
        "J,K,expected",
        [
            (0, 0, 1),
            (1, 0, 0),
            (2, 0, 1),
            (1, 1, 0),
            (2, 2, 0),
            (3, 3, 1),
            (6, 3, 1),
        ],
    )
    def test_spin0_values(self, J, K, expected):
        assert spin_statistical_weight(J, K, nuclear_spin=S0) == expected

    def test_weight_zero_iff_level_forbidden(self):
        for spin in (S0, SPIN_HALF):
            for J in range(9):
                for K in range(J + 1):
                    w = spin_statistical_weight(J, K, nuclear_spin=spin)
                    out = classify_state(J, K, spin)
                    forbidden = out.forbidden_by is not ForbiddenBy.NONE
                    assert (w == 0) == forbidden, (spin, J, K)

    def test_brute_force_oracle_spin_half(self):
        for J in range(7):
            for K in range(J + 1):
                assert spin_statistical_weight(
                    J, K, nuclear_spin=SPIN_HALF
                ) == brute_statistical_weight(J, K, SPIN_HALF), (J, K)

    def test_brute_force_oracle_spin0(self):
        for J in range(7):
            for K in range(J + 1):
                assert spin_statistical_weight(
                    J, K, nuclear_spin=S0
                ) == brute_statistical_weight(J, K, S0), (J, K)

    def test_brute_force_oracle_c3v_species(self):
        for J in range(5):
            for sp in (InversionSpecies.S, InversionSpecies.A):
                for spin in (S0, SPIN_HALF):
                    assert spin_statistical_weight(
                        J, 0, nuclear_spin=spin, species=sp
                    ) == brute_statistical_weight(J, 0, spin, sp), (J, sp, spin)

    def test_sector_weights_spin_half(self):
        assert sector_weights(2, 0, SPIN_HALF) == {"A1": 4, "A2": 0, "E": 4}
        assert sector_weights(1, 0, SPIN_HALF) == {"A1": 0, "A2": 4, "E": 4}
        assert sector_weights(3, 3, SPIN_HALF) == {"A1": 4, "A2": 4, "E": 8}
        assert sector_weights(1, 1, SPIN_HALF) == {"A1": 2, "A2": 2, "E": 12}

    def test_sector_weights_match_brute_dimensions(self):
        """A1/A2 slots equal the explicit-rep sector dimensions; the E slot
        is the dimension for spin 1/2 and half of it for spin 0."""
        for spin in (S0, SPIN_HALF):
            for J in range(6):
                for K in range(J + 1):
                    w = sector_weights(J, K, spin)
                    for irrep in ("A1", "A2"):
                        assert w[irrep] == brute_sector_dimension(
                            J, K, spin, irrep
                        ), (spin, J, K, irrep)
                    assert w["E"] * (2 if spin == 0 else 1) == (
                        brute_sector_dimension(J, K, spin, "E")
                    ), (spin, J, K, "E")

    def test_sector_weights_total_dimension_spin_half(self):
        # E slot for spin-1/2 is a true dimension: sectors partition the level
        for J in range(6):
            for K in range(J + 1):
                w = sector_weights(J, K, SPIN_HALF)
                dim = 8 * (2 if K != 0 else 1)
                assert w["A1"] + w["A2"] + w["E"] == dim

    def test_molecule_argument(self):
        from trisym.molecules import get_molecule

        so3 = get_molecule("so3")
        nh3 = get_molecule("nh3")
        assert spin_statistical_weight(2, 0, so3.nuclear_spin) == 1
        assert spin_statistical_weight(1, 1, nh3.nuclear_spin) == 2

    def test_rejects_unsupported_spin(self):
        with pytest.raises(ValueError):
            sector_weights(1, 1, Fraction(1))


class TestGoldenTable:
    def test_matches_golden_file(self):
        """Full classification grid for J <= 10 against the frozen table."""
        path = Path(__file__).parent / "data" / "classification_golden.csv"
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) > 300
        start = time.perf_counter()
        for row in rows:
            J, K = int(row["J"]), int(row["K"])
            spin = Fraction(row["nuclear_spin"])
            species = InversionSpecies(row["species"])
            I = Fraction(row["I"]) if row["I"] else None
            out = classify_state(J, K, spin, species, I)
            labels = ";".join(sorted(s.value for s in out.subspaces))
            assert labels == row["subspaces"], row
            assert out.forbidden_by.value == row["forbidden_by"], row
            if not row["I"]:
                w = spin_statistical_weight(
                    J, K, nuclear_spin=spin, species=species
                )
                assert w == int(row["weight"]), row
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0


class TestQuantumLabelDomain:
    """J, K, species and nuclear spin each have one check, and every entry
    point that takes the label runs it."""

    def test_species_string_rejected_by_classify_state(self):
        # "a" once fell through to the s/none rules: Hminus, SS-forbidden
        with pytest.raises(ValueError, match="species"):
            classify_state(1, 0, S0, "a")

    def test_species_string_rejected_by_sector_weights(self):
        with pytest.raises(ValueError, match="species"):
            sector_weights(1, 0, S0, "a")

    def test_species_string_rejected_by_rotational_state(self):
        with pytest.raises(ValueError, match="species"):
            RotationalState(1, 0, "s")

    def test_half_integer_jk_rejected(self):
        # once classified as SP-forbidden Hprime
        with pytest.raises(ValueError, match="integers"):
            classify_state(1.5, 0.5, S0)

    @pytest.mark.parametrize(
        "J,K", [(2.5, 1), (2, 1.0), (float("nan"), 0), (True, False), ("2", 1)]
    )
    def test_rotational_state_requires_integers(self, J, K):
        with pytest.raises(ValueError, match="integers"):
            RotationalState(J, K)

    def test_numpy_integers_accepted(self):
        J, K = np.int64(3), np.int32(3)
        assert RotationalState(J, K) == RotationalState(3, 3)
        assert classify_state(J, K, SPIN_HALF) == classify_state(3, 3, SPIN_HALF)
        assert sector_weights(J, K, S0) == sector_weights(3, 3, S0)

    def test_one_spin_message_for_molecule_and_classifier(self):
        from trisym.molecules import MoleculeSpec, PointGroup

        with pytest.raises(ValueError) as from_classifier:
            classify_state(1, 1, Fraction(1))
        with pytest.raises(ValueError) as from_molecule:
            MoleculeSpec("x", PointGroup.D3H, Fraction(1), 1.0, 0.5, ())
        assert str(from_classifier.value) == str(from_molecule.value)
        assert str(from_molecule.value) == "nuclear_spin must be 0 or 1/2, got 1"

    # once a bare TypeError (None), an OverflowError (inf), spin 1/2 ("1/2")
    # and spin 0 (False): sector_weights coerced the spin before the check
    @pytest.mark.parametrize("spin", [None, float("inf"), "1/2", False, np.False_])
    def test_spin_checked_before_use(self, spin):
        with pytest.raises(ValueError, match="nuclear_spin must be 0 or 1/2"):
            sector_weights(1, 1, spin)
        with pytest.raises(ValueError, match="nuclear_spin"):
            spin_statistical_weight(1, 1, nuclear_spin=spin)
        with pytest.raises(ValueError, match="nuclear_spin must be 0 or 1/2"):
            classify_state(1, 1, spin)

    def test_float_spin_accepted(self):
        assert sector_weights(1, 1, 0.5) == sector_weights(1, 1, SPIN_HALF)
        assert sector_weights(1, 1, 0.0) == sector_weights(1, 1, S0)

    @pytest.mark.parametrize("J", [2**53 + 1, 10**160, 10**400],
                             ids=["2**53+1", "10**160", "10**400"])
    def test_j_bounded_where_floats_are_exact(self, J):
        # once an overflow RuntimeWarning (1e160) or OverflowError (10**400)
        # in the float paths, while the classifier accepted the level
        with pytest.raises(ValueError, match=r"J must be at most 2\*\*53"):
            RotationalState(J, 0)
        with pytest.raises(ValueError, match=r"J must be at most 2\*\*53"):
            classify_state(J, 0, S0)

    def test_largest_exact_j_accepted(self):
        assert RotationalState(2**53, 2**53).J == 2**53
