"""Exact S3 permutation algebra on the 6-dimensional ordering basis.

The three particle labels admit 3! = 6 orderings, which span the basis
|1> = |1,2,3>, |2> = |1,3,2>, |3> = |2,1,3>, |4> = |2,3,1>, |5> = |3,1,2>,
|6> = |3,2,1>.  Group elements act on this space through their regular
representation; the space splits into four invariant subspaces

    H = H+  (+)  H-  (+)  H'1  (+)  H'2

with H+/H- one-dimensional (totally symmetric / antisymmetric) and H'1, H'2
two-dimensional mixed-symmetry blocks.  Everything here is built from exact
closed forms; a numerical eigensolver is used only in the test suite as an
independent cross-check.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import permutations as _itertools_permutations

import numpy as np

__all__ = [
    "ClassLabel",
    "SubspaceLabel",
    "Permutation",
    "IDENTITY",
    "P12",
    "P13",
    "P23",
    "P123",
    "P321",
    "ELEMENTS",
    "TRANSPOSITIONS",
    "ORDERINGS",
    "LAMBDA_PLUS",
    "LAMBDA_MINUS",
    "S_VEC",
    "A_VEC",
    "V1",
    "V2",
    "V3",
    "V4",
    "compose",
    "class_of",
    "regular_rep",
    "symmetrizer",
    "antisymmetrizer",
    "cycle_eigenbasis",
    "invariant_projectors",
    "apply_perm",
    "decompose",
    "normalize",
    "character_table",
    "CLASS_SIZES",
    "multiplication_table",
]

#: Fixed basis ordering: |k> corresponds to ORDERINGS[k-1].
ORDERINGS: tuple[tuple[int, int, int], ...] = tuple(
    _itertools_permutations((1, 2, 3))
)

#: Primitive sixth... cube roots of unity appearing as cyclic eigenvalues.
#: Stored as exact (-1/2, +-sqrt(3)/2) pairs so equality tests are meaningful.
LAMBDA_PLUS: complex = complex(-0.5, math.sqrt(3.0) / 2.0)
LAMBDA_MINUS: complex = complex(-0.5, -math.sqrt(3.0) / 2.0)


class ClassLabel(enum.Enum):
    """Conjugacy class of an S3 element (sizes 1, 3 and 2)."""

    IDENTITY = "identity"
    TRANSPOSITION = "transposition"
    THREE_CYCLE = "three-cycle"


class SubspaceLabel(enum.Enum):
    """Invariant subspace of the 6-dimensional ordering space.

    HPRIME stands for the direct sum H'1 (+) H'2 whenever the finer split is
    not physically resolvable.
    """

    HPLUS = "Hplus"
    HMINUS = "Hminus"
    HPRIME1 = "Hprime1"
    HPRIME2 = "Hprime2"
    HPRIME = "Hprime"


@dataclass(frozen=True, order=True)
class Permutation:
    """An element of S3 in one-line notation.

    ``images[i]`` is the image of label ``i + 1``.  Exactly six distinct
    instances are constructible.
    """

    images: tuple[int, int, int]

    def __post_init__(self):
        if sorted(self.images) != [1, 2, 3]:
            raise ValueError(f"not a permutation of (1, 2, 3): {self.images!r}")

    @property
    def sign(self) -> int:
        """+1 for even permutations, -1 for transpositions."""
        a, b, c = self.images
        inv = (a > b) + (a > c) + (b > c)
        return -1 if inv % 2 else 1

    def apply(self, ordering: tuple[int, int, int]) -> tuple[int, int, int]:
        """Act on a basis ordering: entry i of the result is entry images[i]."""
        i, j, k = self.images
        return (ordering[i - 1], ordering[j - 1], ordering[k - 1])

    def inverse(self) -> "Permutation":
        inv = [0, 0, 0]
        for pos, img in enumerate(self.images, start=1):
            inv[img - 1] = pos
        return Permutation(tuple(inv))

    def __repr__(self) -> str:
        return f"P{''.join(map(str, self.images))}"


IDENTITY = Permutation((1, 2, 3))
P23 = Permutation((1, 3, 2))
P12 = Permutation((2, 1, 3))
P13 = Permutation((3, 2, 1))
P123 = Permutation((2, 3, 1))  # cyclic (1,2,3), i.e. 1->2->3->1
P321 = Permutation((3, 1, 2))  # cyclic (3,2,1), the inverse cycle

#: All six elements, in the lexicographic order of their one-line form,
#: which coincides with the ordering-basis labels |1>..|6>.
ELEMENTS: tuple[Permutation, ...] = tuple(Permutation(o) for o in ORDERINGS)
TRANSPOSITIONS: tuple[Permutation, ...] = (P23, P13, P12)


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Return the product "apply q, then p".

    Satisfies regular_rep(compose(p, q)) == regular_rep(p) @ regular_rep(q).
    """
    return Permutation(tuple(q.images[i - 1] for i in p.images))


def class_of(p: Permutation) -> ClassLabel:
    """Conjugacy class of ``p``, determined by its cycle structure."""
    fixed = sum(1 for i, img in enumerate(p.images, start=1) if img == i)
    if fixed == 3:
        return ClassLabel.IDENTITY
    if fixed == 1:
        return ClassLabel.TRANSPOSITION
    return ClassLabel.THREE_CYCLE


#: Number of elements in each conjugacy class (1, 3 and 2).
CLASS_SIZES: dict[ClassLabel, int] = {
    c: sum(class_of(g) is c for g in ELEMENTS) for c in ClassLabel
}


def regular_rep(p: Permutation) -> np.ndarray:
    """6x6 regular-representation matrix of ``p`` on the ordering basis."""
    mat = np.zeros((6, 6), dtype=np.complex128)
    for col, ordering in enumerate(ORDERINGS):
        row = ORDERINGS.index(p.apply(ordering))
        mat[row, col] = 1.0
    return mat


def multiplication_table() -> list[list[Permutation]]:
    """Cayley table: entry [i][j] is ELEMENTS[i] * ELEMENTS[j]."""
    return [[compose(p, q) for q in ELEMENTS] for p in ELEMENTS]


# ---------------------------------------------------------------------------
# Named basis vectors of the invariant subspaces.
#
# The v's are stored unnormalized (norm^2 = 3) with the exact component
# phases of the closed forms, so that matrix-vector worked examples
# reproduce component-for-component.
# ---------------------------------------------------------------------------

_SQRT6 = math.sqrt(6.0)

#: Totally symmetric unit vector: equal amplitude on every ordering.
S_VEC: np.ndarray = np.full(6, 1.0 / _SQRT6, dtype=np.complex128)

#: Totally antisymmetric unit vector.  The stored sign convention is
#: -sign(ordering)/sqrt(6); it differs from the sign-sum convention by a
#: global phase only.
A_VEC: np.ndarray = (
    np.array([-1, 1, 1, -1, -1, 1], dtype=np.complex128) / _SQRT6
)

#: Eigenvectors of regular_rep(P123); V1, V2 carry eigenvalue LAMBDA_MINUS,
#: V3, V4 carry LAMBDA_PLUS.  {V1, V4} span H'1 and {V2, V3} span H'2.
V1: np.ndarray = np.array(
    [0.0, LAMBDA_MINUS, LAMBDA_PLUS, 0.0, 0.0, 1.0], dtype=np.complex128
)
V2: np.ndarray = np.array(
    [LAMBDA_PLUS, 0.0, 0.0, LAMBDA_MINUS, 1.0, 0.0], dtype=np.complex128
)
V3: np.ndarray = np.array(
    [0.0, LAMBDA_PLUS, LAMBDA_MINUS, 0.0, 0.0, 1.0], dtype=np.complex128
)
V4: np.ndarray = np.array(
    [LAMBDA_MINUS, 0.0, 0.0, LAMBDA_PLUS, 1.0, 0.0], dtype=np.complex128
)


def normalize(v: np.ndarray) -> np.ndarray:
    """Return v / ||v||; raises on the zero vector."""
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return np.asarray(v, dtype=np.complex128) / norm


def symmetrizer() -> np.ndarray:
    """Projector S = (1/6) sum_g rep(g) onto span{|s>}; rank 1."""
    return sum(regular_rep(g) for g in ELEMENTS) / 6.0


def antisymmetrizer() -> np.ndarray:
    """Projector A = (1/6) sum_g sign(g) rep(g) onto span{|a>}; rank 1."""
    return sum(g.sign * regular_rep(g) for g in ELEMENTS) / 6.0


def cycle_eigenbasis() -> list[tuple[np.ndarray, complex]]:
    """Common eigenbasis of both cyclic permutation matrices.

    Returns (vector, eigenvalue) pairs for regular_rep(P123):
    |s> and |a> with eigenvalue 1, V1/V2 with LAMBDA_MINUS and V3/V4 with
    LAMBDA_PLUS.  regular_rep(P321) has the same eigenvectors with the
    LAMBDA eigenvalues exchanged.
    """
    return [
        (S_VEC.copy(), 1.0 + 0.0j),
        (A_VEC.copy(), 1.0 + 0.0j),
        (V1.copy(), LAMBDA_MINUS),
        (V2.copy(), LAMBDA_MINUS),
        (V3.copy(), LAMBDA_PLUS),
        (V4.copy(), LAMBDA_PLUS),
    ]


def _span_projector(*vectors: np.ndarray) -> np.ndarray:
    proj = np.zeros((6, 6), dtype=np.complex128)
    for v in vectors:
        proj += np.outer(v, v.conj()) / np.vdot(v, v).real
    return proj


def invariant_projectors() -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal projectors onto H'1 = span{V1, V4} and H'2 = span{V2, V3}.

    Together with the (anti)symmetrizer they resolve the identity:
    S + A + P1 + P2 = 1, and each commutes with all six group matrices.
    """
    return _span_projector(V1, V4), _span_projector(V2, V3)


def apply_perm(p: Permutation, v: np.ndarray) -> np.ndarray:
    """Apply the regular representation of ``p`` to a 6-component vector."""
    return regular_rep(p) @ np.asarray(v, dtype=np.complex128)


def decompose(v: np.ndarray) -> dict[SubspaceLabel, np.ndarray]:
    """Split ``v`` into its four orthogonal invariant components.

    The components sum back to ``v`` up to rounding (< 1e-12 for unit input).
    """
    p1, p2 = invariant_projectors()
    v = np.asarray(v, dtype=np.complex128)
    return {
        SubspaceLabel.HPLUS: symmetrizer() @ v,
        SubspaceLabel.HMINUS: antisymmetrizer() @ v,
        SubspaceLabel.HPRIME1: p1 @ v,
        SubspaceLabel.HPRIME2: p2 @ v,
    }


#: Irreducible characters over the classes (identity, transposition,
#: three-cycle).  A1 is the symmetric irrep, A2 the antisymmetric one and
#: E the two-dimensional irrep, which occurs twice in the regular
#: representation.
CHARACTER_TABLE: dict[str, dict[ClassLabel, int]] = {
    "A1": {
        ClassLabel.IDENTITY: 1,
        ClassLabel.TRANSPOSITION: 1,
        ClassLabel.THREE_CYCLE: 1,
    },
    "A2": {
        ClassLabel.IDENTITY: 1,
        ClassLabel.TRANSPOSITION: -1,
        ClassLabel.THREE_CYCLE: 1,
    },
    "E": {
        ClassLabel.IDENTITY: 2,
        ClassLabel.TRANSPOSITION: 0,
        ClassLabel.THREE_CYCLE: -1,
    },
}


def character_table() -> dict[str, dict[ClassLabel, int]]:
    """Character table of S3 (rows A1, A2, E; columns by conjugacy class)."""
    return {name: dict(row) for name, row in CHARACTER_TABLE.items()}
