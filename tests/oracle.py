"""Independent oracles for the classifier tests.

The brute-force oracle builds explicit matrix representations (the
8-dimensional spin space as permutation matrices on occupation tuples, the
rotational level as a 1- or 2-dimensional phase representation) and counts
target-symmetry states as the rank of the explicit (anti)symmetrizer on the
tensor product.  The rule oracle states the allowed/SP/SS classification as
explicit per-case tables.  Neither shares a code path with trisym.classify,
which derives everything from character arithmetic.
"""

from fractions import Fraction
from itertools import product

import numpy as np

from trisym.classify import ForbiddenBy, InversionSpecies, SymmetryAssignment
from trisym.group_algebra import (
    ELEMENTS,
    IDENTITY,
    P23,
    P123,
    SubspaceLabel,
    compose,
)

OMEGA = np.exp(2j * np.pi / 3.0)


def _generate_rep(gen_images: dict) -> dict:
    """Extend matrices for the generators P123 and P23 to the whole group."""
    rep = {IDENTITY: np.eye(gen_images[P123].shape[0], dtype=complex)}
    frontier = [IDENTITY]
    while frontier:
        g = frontier.pop()
        for gen, mat in gen_images.items():
            h = compose(gen, g)
            if h not in rep:
                rep[h] = mat @ rep[g]
                frontier.append(h)
    assert len(rep) == 6
    return rep


def rotational_rep(J: int, K: int, species=InversionSpecies.NONE) -> dict:
    """Explicit representation carried by the rotational level.

    K = 0 levels span one dimension with exchange phase +-(-1)^J (sign
    flipped for the inversion-antisymmetric species); K != 0 levels span
    the +-K pair, on which the threefold rotation acts as diag(w^K, w^-K)
    and an exchange swaps the two components.
    """
    sign = -1.0 if species is InversionSpecies.A else 1.0
    if K == 0:
        swap = sign * (-1.0) ** J
        gens = {
            P123: np.array([[1.0 + 0j]]),
            P23: np.array([[swap + 0j]]),
        }
    else:
        phase = sign * (-1.0) ** J
        gens = {
            P123: np.diag([OMEGA**K, OMEGA**-K]),
            P23: np.array([[0.0, phase], [phase, 0.0]], dtype=complex),
        }
    return _generate_rep(gens)


def spin_rep() -> dict:
    """Permutation matrices on the 8 occupation tuples of three spin-1/2."""
    basis = list(product((0, 1), repeat=3))
    gens = {}
    for gen in (P123, P23):
        mat = np.zeros((8, 8), dtype=complex)
        for col, tup in enumerate(basis):
            mat[basis.index(gen.apply(tup)), col] = 1.0
        gens[gen] = mat
    return _generate_rep(gens)


def brute_statistical_weight(
    J: int, K: int, nuclear_spin, species=InversionSpecies.NONE
) -> int:
    """Rank of the statistics projector on the explicit rot (x) spin rep."""
    rot = rotational_rep(J, abs(K), species)
    if Fraction(nuclear_spin) == 0:
        total = rot
        signs = {g: 1.0 for g in ELEMENTS}  # bosons: full symmetrizer
    else:
        spin = spin_rep()
        total = {g: np.kron(rot[g], spin[g]) for g in ELEMENTS}
        signs = {g: float(g.sign) for g in ELEMENTS}  # fermions
    proj = sum(signs[g] * total[g] for g in ELEMENTS) / 6.0
    return int(np.linalg.matrix_rank(proj, tol=1e-9))


def brute_sector_dimension(J: int, K: int, nuclear_spin, irrep: str) -> int:
    """Dimension of one symmetry sector of the explicit product rep."""
    from trisym.group_algebra import CHARACTER_TABLE, class_of

    rot = rotational_rep(J, abs(K))
    if Fraction(nuclear_spin) == 0:
        total = rot
    else:
        spin = spin_rep()
        total = {g: np.kron(rot[g], spin[g]) for g in ELEMENTS}
    dim = CHARACTER_TABLE[irrep][class_of(IDENTITY)]
    proj = (
        sum(
            dim * CHARACTER_TABLE[irrep][class_of(g)] * total[g]
            for g in ELEMENTS
        )
        / 6.0
    )
    return int(round(np.trace(proj).real))


# ---------------------------------------------------------------------------
# Rule oracle: the hand-written classification tables that trisym.classify
# used before it derived every assignment from characters.  Each row states
# one case of the two phase rules directly; no character arithmetic.
# ---------------------------------------------------------------------------

HP, HM, HPR = SubspaceLabel.HPLUS, SubspaceLabel.HMINUS, SubspaceLabel.HPRIME


def _rule(labels, forbidden):
    return SymmetryAssignment(frozenset(labels), forbidden)


def _rule_spin0(J, K, odd):
    # K = 3q+-1: mixed only, SP; K = 3q != 0: symmetric/antisymmetric pair;
    # K = 0: symmetric for even (effective) J, antisymmetric (SS) for odd.
    if K % 3 != 0:
        return _rule({HPR}, ForbiddenBy.SP)
    if K != 0:
        return _rule({HP, HM}, ForbiddenBy.NONE)
    return _rule({HM}, ForbiddenBy.SS) if odd else _rule({HP}, ForbiddenBy.NONE)


def _rule_spin_half(K, odd, I):
    if K % 3 != 0:
        if I == Fraction(1, 2):
            return _rule({HP, HM, HPR}, ForbiddenBy.NONE)
        return _rule({HPR}, ForbiddenBy.SP)
    if K != 0:
        if I == Fraction(1, 2):
            return _rule({HPR}, ForbiddenBy.SP)
        return _rule({HP, HM}, ForbiddenBy.NONE)
    if I == Fraction(1, 2):
        return _rule({HPR}, ForbiddenBy.SP)
    return _rule({HM}, ForbiddenBy.NONE) if odd else _rule({HP}, ForbiddenBy.SS)


def rule_classify_state(J, K, nuclear_spin, species=InversionSpecies.NONE, I=None):
    """Assignment from the explicit rule tables.

    Only the K = 0 rules see J parity, flipped for the a-species.  With I
    unresolved, a spin-1/2 level occupies the union of both hyperfine
    components and is forbidden only when both are, with the flags of both.
    """
    odd = (J % 2 == 1) != (species is InversionSpecies.A)
    if Fraction(nuclear_spin) == 0:
        assert I is None
        return _rule_spin0(J, K, odd)
    if I is not None:
        return _rule_spin_half(K, odd, I)
    rows = [_rule_spin_half(K, odd, i) for i in (Fraction(1, 2), Fraction(3, 2))]
    subspaces = rows[0].subspaces | rows[1].subspaces
    if any(r.forbidden_by is ForbiddenBy.NONE for r in rows):
        return SymmetryAssignment(subspaces, ForbiddenBy.NONE)
    sp = any(r.sp_forbidden for r in rows)
    ss = any(r.ss_forbidden for r in rows)
    forbidden = {
        (True, True): ForbiddenBy.SP_AND_SS,
        (True, False): ForbiddenBy.SP,
        (False, True): ForbiddenBy.SS,
    }[(sp, ss)]
    return SymmetryAssignment(subspaces, forbidden)
