"""Tests for the exact S3 regular-representation machinery."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trisym import group_algebra as ga
from trisym.group_algebra import (
    A_VEC,
    ELEMENTS,
    IDENTITY,
    LAMBDA_MINUS,
    LAMBDA_PLUS,
    P12,
    P13,
    P23,
    P123,
    P321,
    S_VEC,
    TRANSPOSITIONS,
    V1,
    V2,
    V3,
    V4,
    ClassLabel,
    Permutation,
    SubspaceLabel,
    apply_perm,
    class_of,
    compose,
    cycle_eigenbasis,
    decompose,
    invariant_projectors,
    regular_rep,
    symmetrizer,
    antisymmetrizer,
)

TOL = 1e-12

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
# Exchange of labels 2 and 3, used in the worked column-vector example.
MAT_P23 = np.array(
    [
        [0, 1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 1, 0],
    ]
)


class TestPermutation:
    def test_six_elements(self):
        assert len(set(ELEMENTS)) == 6

    def test_invalid_images_rejected(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))

    @pytest.mark.parametrize(
        "p,q,expected",
        [
            (IDENTITY, P12, P12),
            (P123, P123, P321),
            (P12, P12, IDENTITY),
            (P321, P123, IDENTITY),
        ],
    )
    def test_compose(self, p, q, expected):
        assert compose(p, q) == expected

    def test_inverse(self):
        for p in ELEMENTS:
            assert compose(p, p.inverse()) == IDENTITY

    @pytest.mark.parametrize(
        "p,expected",
        [
            (P23, ClassLabel.TRANSPOSITION),
            (P13, ClassLabel.TRANSPOSITION),
            (P12, ClassLabel.TRANSPOSITION),
            (P123, ClassLabel.THREE_CYCLE),
            (P321, ClassLabel.THREE_CYCLE),
            (IDENTITY, ClassLabel.IDENTITY),
        ],
    )
    def test_class_of(self, p, expected):
        assert class_of(p) is expected

    def test_class_sizes(self):
        counts = {label: 0 for label in ClassLabel}
        for p in ELEMENTS:
            counts[class_of(p)] += 1
        assert counts == {
            ClassLabel.IDENTITY: 1,
            ClassLabel.TRANSPOSITION: 3,
            ClassLabel.THREE_CYCLE: 2,
        }

    def test_conjugation_preserves_class(self):
        for p in ELEMENTS:
            for g in ELEMENTS:
                conj = compose(compose(g, p), g.inverse())
                assert class_of(conj) is class_of(p)

    def test_signs(self):
        assert IDENTITY.sign == 1
        for t in TRANSPOSITIONS:
            assert t.sign == -1
        assert P123.sign == 1 and P321.sign == 1


class TestRegularRep:
    def test_cycle_matrices_entrywise(self):
        assert np.array_equal(regular_rep(P123).real.astype(int), MAT_P123)
        assert np.array_equal(regular_rep(P321).real.astype(int), MAT_P321)
        assert not np.any(regular_rep(P123).imag)

    def test_exchange_matrix_entrywise(self):
        assert np.array_equal(regular_rep(P23).real.astype(int), MAT_P23)

    def test_identity(self):
        assert np.array_equal(regular_rep(IDENTITY), np.eye(6))

    def test_permutation_matrices(self):
        for p in ELEMENTS:
            mat = regular_rep(p).real
            assert np.array_equal(mat @ mat.T, np.eye(6))
            assert np.all((mat == 0) | (mat == 1))

    def test_homomorphism_all_pairs(self):
        # Exact integer equality over all 36 products.
        for p in ELEMENTS:
            for q in ELEMENTS:
                lhs = regular_rep(compose(p, q))
                rhs = regular_rep(p) @ regular_rep(q)
                assert np.array_equal(lhs, rhs)


class TestProjectors:
    @pytest.fixture
    def all_projectors(self):
        p1, p2 = invariant_projectors()
        return [symmetrizer(), antisymmetrizer(), p1, p2]

    def test_symmetrizer_column(self):
        e1 = np.zeros(6)
        e1[0] = 1.0
        out = symmetrizer() @ e1
        assert np.allclose(out, np.full(6, 1.0 / 6.0), atol=TOL)
        assert np.allclose(out, S_VEC / np.sqrt(6.0), atol=TOL)

    def test_antisymmetrizer_kills_symmetric(self):
        assert np.linalg.norm(antisymmetrizer() @ S_VEC) < TOL

    def test_antisymmetrizer_image_is_a(self):
        # Image spans |a>; the stored |a> keeps the documented component signs,
        # which differ from the sign-sum image by a global phase.
        out = antisymmetrizer() @ np.eye(6)[:, 0]
        overlap = np.vdot(A_VEC, out)
        assert abs(abs(overlap) - np.linalg.norm(out)) < TOL
        assert np.linalg.norm(out) == pytest.approx(1 / np.sqrt(6), abs=TOL)

    def test_idempotence_and_orthogonality(self, all_projectors):
        for i, a in enumerate(all_projectors):
            assert np.abs(a @ a - a).max() < TOL
            assert np.abs(a - a.conj().T).max() < TOL
            for j, b in enumerate(all_projectors):
                if i != j:
                    assert np.abs(a @ b).max() < TOL

    def test_completeness(self, all_projectors):
        total = sum(all_projectors)
        assert np.abs(total - np.eye(6)).max() < TOL

    def test_ranks(self, all_projectors):
        ranks = [int(round(np.trace(p).real)) for p in all_projectors]
        assert ranks == [1, 1, 2, 2]

    def test_commute_with_group(self, all_projectors):
        for proj in all_projectors:
            for g in ELEMENTS:
                mat = regular_rep(g)
                assert np.abs(proj @ mat - mat @ proj).max() < TOL

    def test_projector_images(self):
        p1, p2 = invariant_projectors()
        assert np.abs(p1 @ V1 - V1).max() < TOL
        assert np.abs(p1 @ V4 - V4).max() < TOL
        assert np.abs(p1 @ V2).max() < TOL
        assert np.abs(p2 @ V2 - V2).max() < TOL
        assert np.abs(p2 @ V3 - V3).max() < TOL
        assert np.abs(p2 @ V1).max() < TOL


class TestEigenbasis:
    def test_eigen_relations_p123(self):
        mat = regular_rep(P123)
        basis = cycle_eigenbasis()
        for vec, lam in basis:
            assert np.abs(mat @ vec - lam * vec).max() < TOL
        # the named vectors, built on first access, are the basis: the same
        # object on every read and equal to their closed forms
        lp, lm = LAMBDA_PLUS, LAMBDA_MINUS
        closed = {
            "S_VEC": np.full(6, 1 / np.sqrt(6)),
            "A_VEC": np.array([-1, 1, 1, -1, -1, 1]) / np.sqrt(6),
            "V1": [0, lm, lp, 0, 0, 1],
            "V2": [lp, 0, 0, lm, 1, 0],
            "V3": [0, lp, lm, 0, 0, 1],
            "V4": [lm, 0, 0, lp, 1, 0],
        }
        for (name, form), (vec, _) in zip(closed.items(), basis):
            assert getattr(ga, name) is getattr(ga, name)
            assert getattr(ga, name).dtype == np.complex128
            assert np.array_equal(getattr(ga, name), form), name
            assert np.array_equal(vec, form), name

    def test_eigenvalues_exchanged_for_p321(self):
        mat = regular_rep(P321)
        for vec, lam in cycle_eigenbasis():
            swapped = lam.conjugate()  # lambda+- trade places; 1 stays
            assert np.abs(mat @ vec - swapped * vec).max() < TOL

    def test_eigenvalue_multiset_against_numerical_solver(self):
        numeric = np.linalg.eigvals(regular_rep(P123))
        expected = sorted(
            [1.0, 1.0, LAMBDA_MINUS, LAMBDA_MINUS, LAMBDA_PLUS, LAMBDA_PLUS],
            key=lambda z: (round(z.real, 9), round(z.imag, 9)),
        )
        numeric = sorted(numeric, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
        assert np.allclose(numeric, expected, atol=1e-9)

    def test_worked_exchange_example(self):
        # P23 applied to v1 gives exactly v4, component for component.
        result = apply_perm(P23, V1)
        assert np.array_equal(result, V4)

    def test_transpositions_swap_partners(self):
        # Every exchange maps v1 into span{v4} and v2 into span{v3} (and
        # back), realizing the H'1 / H'2 rotations; P23 does so exactly.
        for t in TRANSPOSITIONS:
            for src, dst in [(V1, V4), (V4, V1), (V2, V3), (V3, V2)]:
                out = apply_perm(t, src)
                overlap = abs(np.vdot(dst, out))
                assert overlap == pytest.approx(
                    np.linalg.norm(dst) * np.linalg.norm(out), abs=TOL
                )

    def test_hprime_subspaces_invariant(self):
        p1, p2 = invariant_projectors()
        for g in ELEMENTS:
            for vec, proj in [(V1, p1), (V4, p1), (V2, p2), (V3, p2)]:
                image = apply_perm(g, vec)
                assert np.abs(proj @ image - image).max() < TOL

    def test_exchange_swaps_cyclic_eigenvalue(self):
        out = apply_perm(P12, V2)
        p1, p2 = invariant_projectors()
        assert np.abs(p2 @ out - out).max() < TOL
        assert np.abs(regular_rep(P123) @ out - LAMBDA_PLUS * out).max() < TOL

    def test_only_s_and_a_are_common_eigenvectors(self):
        # epsilon_{j,k} = epsilon_{1,2}: a common eigenvector of all six
        # matrices has one exchange eigenvalue, so it lies in H+ or H-.
        reps = [regular_rep(t) for t in TRANSPOSITIONS]
        for vec, eps in [(S_VEC, 1.0), (A_VEC, -1.0)]:
            for mat in reps:
                assert np.abs(mat @ vec - eps * vec).max() < TOL
        # No vector in H' is a common eigenvector: the simultaneous
        # eigenspaces of all transpositions are exactly span{s}, span{a}.
        stacked = np.vstack([mat - np.eye(6) for mat in reps])
        assert np.linalg.matrix_rank(stacked) == 5  # kernel = span{s} only
        stacked = np.vstack([mat + np.eye(6) for mat in reps])
        assert np.linalg.matrix_rank(stacked) == 5  # kernel = span{a} only


class TestDecompose:
    def test_symmetric_vector(self):
        parts = decompose(S_VEC)
        assert np.abs(parts[SubspaceLabel.HPLUS] - S_VEC).max() < TOL
        for label in (
            SubspaceLabel.HMINUS,
            SubspaceLabel.HPRIME1,
            SubspaceLabel.HPRIME2,
        ):
            assert np.abs(parts[label]).max() < TOL

    def test_basis_state_norms(self):
        e1 = np.zeros(6)
        e1[0] = 1.0
        parts = decompose(e1)
        norms = {
            label: np.linalg.norm(vec) ** 2 for label, vec in parts.items()
        }
        assert norms[SubspaceLabel.HPLUS] == pytest.approx(1 / 6, abs=TOL)
        assert norms[SubspaceLabel.HMINUS] == pytest.approx(1 / 6, abs=TOL)
        assert norms[SubspaceLabel.HPRIME1] == pytest.approx(1 / 3, abs=TOL)
        assert norms[SubspaceLabel.HPRIME2] == pytest.approx(1 / 3, abs=TOL)

    def test_linearity_on_orthogonal_sum(self):
        parts = decompose(V1 + A_VEC)
        assert np.abs(parts[SubspaceLabel.HMINUS] - A_VEC).max() < TOL
        assert np.abs(parts[SubspaceLabel.HPRIME1] - V1).max() < TOL
        assert np.abs(parts[SubspaceLabel.HPRIME2]).max() < TOL

    @given(
        st.lists(
            st.tuples(
                st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False)
            ),
            min_size=6,
            max_size=6,
        )
    )
    def test_reconstruction(self, comps):
        v = np.array([complex(re, im) for re, im in comps])
        parts = decompose(v)
        assert np.abs(sum(parts.values()) - v).max() < 1e-11


class TestCharacterTable:
    def test_values(self):
        table = ga.character_table()
        assert table["E"][ClassLabel.IDENTITY] == 2
        assert table["A2"][ClassLabel.TRANSPOSITION] == -1
        assert table["A1"] == {c: 1 for c in ClassLabel}

    def test_row_orthogonality(self):
        table = ga.character_table()
        for a in table:
            for b in table:
                total = sum(
                    ga.CLASS_SIZES[c] * table[a][c] * table[b][c]
                    for c in ClassLabel
                )
                assert total == (6 if a == b else 0)

    def test_characters_match_regular_rep_traces(self):
        # The regular-rep trace is 6 on the identity and 0 elsewhere,
        # which equals sum_i dim_i * chi_i(g).
        table = ga.character_table()
        dims = {"A1": 1, "A2": 1, "E": 2}
        for g in ELEMENTS:
            trace = np.trace(regular_rep(g)).real
            predicted = sum(
                dims[name] * table[name][class_of(g)] for name in table
            )
            assert trace == pytest.approx(predicted)
