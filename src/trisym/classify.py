"""Symmetry classification of rotational / nuclear-spin states.

Maps every (J, K, inversion species, total nuclear spin I) state of a
threefold-symmetric molecule (point group D3h or C3v, nuclear spin 0 or 1/2)
to the invariant subspaces it may occupy, and records what rules it out:
nothing, the symmetrization postulate (SP), the spin-statistics connection
(SS), or both.

The classification follows from two exact phase rules.  A rotation by
+-2pi/3 about the threefold axis, equivalent to a cyclic relabeling of the
nuclei, multiplies the rotational wave function by exp(+-i 2pi K / 3); a
rotation by pi about an in-plane symmetry axis (for K = 0), equivalent to a
two-label exchange, multiplies it by exp(+-i pi J), with an extra sign for
the inversion-antisymmetric species of a non-planar molecule.  The two
rules give the character of a rotational level on the three conjugacy
classes, and it takes one of only four values (see ``_level_class``).
Multiplying it by the nuclear-spin character and applying character
orthogonality gives the A1, A2 and E multiplicities of the level, and the
subspaces, the SP/SS flags and the statistical weights all follow from
those three numbers.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from numbers import Integral, Real

from .group_algebra import (
    CHARACTER_TABLE,
    CLASS_SIZES,
    ClassLabel,
    LAMBDA_MINUS,
    LAMBDA_PLUS,
    SubspaceLabel,
)

__all__ = [
    "InversionSpecies",
    "ForbiddenBy",
    "RotationalState",
    "SymmetryAssignment",
    "SPIN_HALF",
    "SPIN_THREE_HALF",
    "rotation_phase_inplane",
    "rotation_phase_axis",
    "classify_state",
    "spin_space_decomposition",
    "product_decompose",
    "spin_statistical_weight",
    "sector_weights",
]

SPIN_HALF = Fraction(1, 2)
SPIN_THREE_HALF = Fraction(3, 2)


def _required_sector(nuclear_spin) -> str:
    """The sector spin-statistics requires: A1 (totally symmetric) for
    spin-0 nuclei, which are bosons, and A2 (totally antisymmetric) for
    spin-1/2 nuclei, which are fermions."""
    return "A1" if nuclear_spin == 0 else "A2"


class InversionSpecies(enum.Enum):
    """Inversion symmetry species of a rotational level.

    NONE for planar (D3h) molecules; S/A for the inversion-symmetric and
    -antisymmetric components of a non-planar (C3v) doublet.
    """

    NONE = "none"
    S = "s"
    A = "a"


class ForbiddenBy(enum.Enum):
    NONE = "none"
    SP = "SP"
    SS = "SS"
    SP_AND_SS = "SP+SS"


@dataclass(frozen=True)
class RotationalState:
    """Quantum labels of one rotational level: J, K and the inversion
    species.  Hyperfine components are resolved only by ``classify_state``'s
    ``I``."""

    J: int
    K: int
    species: InversionSpecies = InversionSpecies.NONE

    def __post_init__(self):
        _check_jk(self.J, self.K)
        _check_type(self.species, InversionSpecies, "species")

    @cached_property
    def _csv_label(self) -> str:
        """The state's ``J,K,species`` CSV fields, formatted on first use and
        kept in the instance: not a field, so ``==``, ``hash`` and ``repr``
        ignore it.  ``species._value_`` is the enum's sunder attribute;
        ``.value`` is a Python-level property."""
        return "%s,%s,%s" % (self.J, self.K, self.species._value_)


@dataclass(frozen=True)
class SymmetryAssignment:
    """Where a state may live and what forbids it."""

    subspaces: frozenset[SubspaceLabel]
    forbidden_by: ForbiddenBy

    @property
    def sp_forbidden(self) -> bool:
        return self.forbidden_by in (ForbiddenBy.SP, ForbiddenBy.SP_AND_SS)

    @property
    def ss_forbidden(self) -> bool:
        return self.forbidden_by in (ForbiddenBy.SS, ForbiddenBy.SP_AND_SS)


def rotation_phase_inplane(K: int, epsilon: int) -> complex:
    """Phase picked up under a rotation by epsilon * 2pi/3 about the axis.

    Equals exp(i epsilon 2pi K / 3), evaluated exactly from K mod 3.
    """
    if not _is_integer(K):
        raise ValueError(f"K must be an integer, got {K!r}")
    _check_sign(epsilon, "epsilon")
    residue = (epsilon * K) % 3
    if residue == 0:
        return 1.0 + 0.0j
    return LAMBDA_PLUS if residue == 1 else LAMBDA_MINUS


def rotation_phase_axis(
    J: int, epsilon: int, species: InversionSpecies = InversionSpecies.NONE
) -> complex:
    """Phase under a pi rotation about an in-plane axis, for K = 0 states.

    exp(i epsilon pi J) = (-1)^J, with the sign reversed for the
    inversion-antisymmetric species (the physical exchange there is the
    rotation combined with spatial inversion).
    """
    if not _is_integer(J):
        raise ValueError(f"J must be an integer, got {J!r}")
    _check_sign(epsilon, "epsilon")
    _check_type(species, InversionSpecies, "species")
    phase = complex(1.0 if J % 2 == 0 else -1.0)
    if species is InversionSpecies.A:
        phase = -phase
    return phase


def _is_integer(x) -> bool:
    """An exact int, or any other Integral but bool; the exact-int test comes
    first because it is the common case and the cheapest."""
    return type(x) is int or (isinstance(x, Integral) and not isinstance(x, bool))


def _check_sign(value, field: str):
    """Reject anything but the integer +1 or -1: a bool or a float is not a
    sign here, though True == 1 and 1.0 == 1."""
    if not (_is_integer(value) and value in (1, -1)):
        raise ValueError(f"{field} must be the integer +1 or -1, got {value!r}")


def _check_jk(J: int, K: int):
    if not (_is_integer(J) and _is_integer(K)):
        raise ValueError(f"J and K must be integers, got J={J!r}, K={K!r}")
    if J < 0:
        raise ValueError(f"J must be non-negative, got {J}")
    if J > 2**53:  # the largest integer a float64 holds exactly
        raise ValueError(f"J must be at most 2**53, got {J}")
    if abs(K) > J:
        raise ValueError(f"|K| <= J required, got K={K}, J={J}")


def _check_spin(nuclear_spin):
    np = sys.modules.get("numpy")  # no numpy bool exists before numpy loads
    bools = (bool, np.bool_) if np else bool
    if isinstance(nuclear_spin, bools) or nuclear_spin not in (0, SPIN_HALF):
        raise ValueError(f"nuclear_spin must be 0 or 1/2, got {nuclear_spin}")


def _check_number(value, field: str, *, zero=False, high=sys.float_info.max):
    """Reject anything but a real number in (0, high], or [0, high] with
    ``zero``.  A bool is not a number here (True would read as 1).  An int or
    a Fraction is compared, never converted: float() of a huge one
    overflows.  A numpy float is widened to a Python float first, exactly,
    since comparing a float32 with ``high`` casts ``high`` to inf.  numpy is
    looked up, not imported: no numpy float exists before numpy loads."""
    np = sys.modules.get("numpy")
    x = float(value) if np and isinstance(value, np.floating) else value
    if not (
        isinstance(x, Real) and not isinstance(x, bool)
        and (0 <= x if zero else 0 < x) and x <= high
    ):
        upper = "" if high == sys.float_info.max else f" and <= {high}"
        raise ValueError(
            f"{field} must be a finite number {'>=' if zero else '>'} 0{upper}, "
            f"got {value!r}"
        )


def _check_type(value, cls: type, field: str):
    """Reject anything whose type is not exactly ``cls``: an enum's value
    (such as "parallel") is not its member."""
    if type(value) is not cls:
        raise ValueError(f"{field} must be of type {cls.__name__}, got {value!r}")


def spin_space_decomposition() -> dict[SubspaceLabel, list[tuple[Fraction, int]]]:
    """Decomposition of the 8-dimensional spin space of three spin-1/2 nuclei.

    The quartet (I = 3/2) is totally symmetric; the two degenerate doublets
    (I = 1/2) are mixed-symmetry.  No non-vanishing totally antisymmetric
    combination exists: each label only takes two values.
    """
    return {
        SubspaceLabel.HPLUS: [(SPIN_THREE_HALF, 4)],
        SubspaceLabel.HMINUS: [],
        SubspaceLabel.HPRIME: [(SPIN_HALF, 2), (SPIN_HALF, 2)],
    }


def product_decompose(
    a: SubspaceLabel, b: SubspaceLabel
) -> tuple[SubspaceLabel, ...]:
    """Symmetry types occurring in the product of two sectors.

    Arguments are coarse labels (HPLUS, HMINUS, HPRIME); the product is
    symmetric in its arguments.  It is the decomposition of the product of
    the two irreducible characters.
    """
    chars = {label: CHARACTER_TABLE[irrep] for irrep, label in _IRREP_SUBSPACES}
    if a not in chars or b not in chars:
        raise ValueError(f"labels must be coarse sector labels, got {a}, {b}")
    return _sectors(_decompose([chars[a][c] * chars[b][c] for c in _CLASSES]))


def classify_state(
    J: int,
    K: int,
    nuclear_spin: Fraction,
    species: InversionSpecies = InversionSpecies.NONE,
    I: Fraction | None = None,
) -> SymmetryAssignment:
    """Classify any supported state from its A1, A2 and E multiplicities.

    The state occupies every sector that occurs in it.  It is allowed when
    the statistics-required sector occurs (A1 for spin-0 nuclei, A2 for
    spin-1/2 ones).  Otherwise it is SP-forbidden if the mixed sector E
    occurs, SS-forbidden if the other one-dimensional sector occurs, or
    both.  With ``I=None`` the whole spin space is used, so a spin-1/2
    level counts as forbidden only when every hyperfine component is.
    """
    a1, a2, e = mult = _multiplicities(J, K, nuclear_spin, species, I)
    subspaces = frozenset(_sectors(mult))
    required = {"A1": a1, "A2": a2}[_required_sector(nuclear_spin)]
    other = a1 + a2 - required
    if required:
        forbidden = ForbiddenBy.NONE
    elif e and other:
        forbidden = ForbiddenBy.SP_AND_SS
    else:
        forbidden = ForbiddenBy.SP if e else ForbiddenBy.SS
    return SymmetryAssignment(subspaces, forbidden)


# ---------------------------------------------------------------------------
# Symmetry via character orthogonality over the classes (identity,
# transposition, three-cycle).
# ---------------------------------------------------------------------------

_CLASSES = tuple(ClassLabel)
_IRREP_SUBSPACES = (
    ("A1", SubspaceLabel.HPLUS),
    ("A2", SubspaceLabel.HMINUS),
    ("E", SubspaceLabel.HPRIME),
)


def _decompose(character) -> tuple[int, int, int]:
    """A1, A2 and E multiplicities of a character over ``_CLASSES``, by
    character orthogonality."""
    order = sum(CLASS_SIZES.values())
    out = []
    for irrep, _ in _IRREP_SUBSPACES:
        total = sum(
            CLASS_SIZES[c] * CHARACTER_TABLE[irrep][c] * x
            for c, x in zip(_CLASSES, character)
        )
        assert total % order == 0, "character sum must be divisible by the group order"
        out.append(total // order)
    return tuple(out)


def _sectors(mult) -> tuple[SubspaceLabel, ...]:
    """The sectors with non-zero multiplicity, in A1, A2, E order."""
    return tuple(label for (_, label), n in zip(_IRREP_SUBSPACES, mult) if n)


def _rot_character(J: int, K: int) -> tuple[int, int, int]:
    """Character of the rotational level (the +-K pair for K != 0).

    A K = 0 level is one-dimensional: the three-cycle leaves it alone and
    the exchange multiplies it by the in-plane-axis phase.  On the +-K pair
    the exchange swaps the two components (trace 0) and the three-cycle
    acts as diag(exp(i 2pi K/3), exp(-i 2pi K/3)).
    """
    if K == 0:
        return (1, round(rotation_phase_axis(J, 1).real), 1)
    trace = rotation_phase_inplane(K, 1) + rotation_phase_inplane(K, -1)
    return (2, 0, round(trace.real))


def _level_class(J, K, a_species):
    """Which of the four rotational characters a level carries.

    0: K = 0 with even effective parity, 1: K = 0 with odd effective
    parity, 2: K = 3q != 0, 3: K not a multiple of 3.  ``a_species`` says
    whether the level is the inversion-antisymmetric (a) species.  Integer
    arithmetic on the comparisons, so the same expression works on Python
    ints and elementwise on integer and boolean arrays.
    """
    # The a-species picks up an extra sign under the exchange-equivalent
    # rotation+inversion, which acts like a J-parity flip.
    odd = (J % 2 == 1) != a_species
    return (K == 0) * odd + (K != 0) * (2 + (K % 3 != 0))


#: One (J, K) level of each class, in class order, for species NONE.
_CLASS_LEVELS = ((0, 0), (1, 0), (3, 3), (1, 1))
_ROT_CHARS = tuple(_rot_character(J, K) for J, K in _CLASS_LEVELS)

_SPIN_CHARS = {
    (Fraction(0), None): (1, 1, 1),
    # 2^(number of cycles of g) on the 8 states of three spin-1/2 labels
    (SPIN_HALF, None): (8, 4, 2),
    # the I = 3/2 quartet is totally symmetric
    (SPIN_HALF, SPIN_THREE_HALF): (4, 4, 4),
    # the two I = 1/2 doublets carry E twice
    (SPIN_HALF, SPIN_HALF): (4, 0, -2),
}


def _spin_character(nuclear_spin, I) -> tuple[int, int, int]:
    _check_spin(nuclear_spin)
    if I is not None and nuclear_spin == 0:
        raise ValueError("I is only meaningful for spin-1/2 nuclei")
    if I is not None and I not in (SPIN_HALF, SPIN_THREE_HALF):
        raise ValueError(f"I must be 1/2 or 3/2, got {I}")
    return _SPIN_CHARS[nuclear_spin, I]


def _multiplicities(J, K, nuclear_spin, species, I) -> tuple[int, int, int]:
    """A1, A2 and E multiplicities of the (rotation x spin) level."""
    _check_jk(J, K)
    _check_type(species, InversionSpecies, "species")
    spin = _spin_character(nuclear_spin, I)
    rot = _ROT_CHARS[_level_class(J, K, species is InversionSpecies.A)]
    return _decompose([r * s for r, s in zip(rot, spin)])


def sector_weights(
    J: int,
    K: int,
    nuclear_spin: Fraction,
    species: InversionSpecies = InversionSpecies.NONE,
) -> dict[str, int]:
    """Dimension of each symmetry sector of the (rotation x spin) level.

    Keys "A1", "A2" count one-dimensional symmetric/antisymmetric states;
    "E" comes from the E multiplicity e: the sector's dimension 2e for
    spin-1/2 nuclei, and e for spin-0 nuclei, each E copy counted once so
    that forbidden-to-allowed intensity ratios reduce to the bare violation
    fraction.
    """
    a1, a2, e = _multiplicities(J, K, nuclear_spin, species, None)
    return {"A1": a1, "A2": a2, "E": e if nuclear_spin == 0 else 2 * e}


def spin_statistical_weight(
    J: int,
    K: int,
    nuclear_spin: Fraction,
    species: InversionSpecies = InversionSpecies.NONE,
) -> int:
    """Number of states of the level carrying the statistics-required symmetry.

    Totally symmetric states for spin-0 (bosonic) nuclei, totally
    antisymmetric for spin-1/2 (fermionic) ones.  Zero means the level is
    completely forbidden under SP plus spin-statistics.
    """
    return sector_weights(J, K, nuclear_spin, species)[_required_sector(nuclear_spin)]
