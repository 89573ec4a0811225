"""Independent oracles for the classifier and line-list tests.

The brute-force oracle builds explicit matrix representations (the
8-dimensional spin space as permutation matrices on occupation tuples, the
rotational level as a 1- or 2-dimensional phase representation) and counts
target-symmetry states as the rank of the explicit (anti)symmetrizer on the
tensor product.  The rule oracle states the allowed/SP/SS classification as
explicit per-case tables.  Neither shares a code path with trisym.classify,
which derives everything from character arithmetic.  The loop oracle
builds line lists and partition functions one level and one transition at
a time in Python, the way trisym.spectrum did before it became an array
computation over one level table.  It keeps its own rule for a level's
statistical weight over a set of sectors, its own inversion offsets and
degeneracies, and its own scalar closed forms of the level energy and the
Hoenl-London factors, written in the engine's operation order (squares as
``x * x``) so that equality with the engine stays exact; only the
Boltzmann exponential is numpy's.  Of trisym it shares only the level-class
helpers and the public classifier functions, which the classifier oracles
check; it does not import the engine's numeric kernels.  The loop
serializers are the CSV and JSON writers that trisym.spectrum used before
its JSON rows were typed from the CSV fields, and the f-string text writer
that trisym.cli used before the text rows became a template in
trisym.spectrum.
"""

import json
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from trisym.classify import (
    _CLASS_LEVELS,
    ForbiddenBy,
    InversionSpecies,
    RotationalState,
    SymmetryAssignment,
    _level_class,
    classify_state,
    sector_weights,
)
from trisym.group_algebra import (
    ELEMENTS,
    IDENTITY,
    P23,
    P123,
    SubspaceLabel,
    compose,
)
from trisym.molecules import BandType, PointGroup
from trisym.spectrum import CSV_HEADER, KB_CM1, SpectralLine

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


# ---------------------------------------------------------------------------
# Loop oracle: the per-level, per-transition Python loops that trisym.spectrum
# ran before it built line lists as columns over one level table.
# ---------------------------------------------------------------------------


_TARGET = {Fraction(0): "A1", Fraction(1, 2): "A2"}
_SECTORS = ("A1", "A2", "E")


def _population(weights: dict, target: str, beta: float, sectors) -> float:
    """Statistical weight of a level, restricted to ``sectors``.

    The statistics-required sector counts in full; every other sector is
    occupied only by violating molecules and carries ``beta``.
    """
    total = 0.0
    for s in _SECTORS:  # fixed order keeps float sums byte-reproducible
        if s in sectors:
            total += weights[s] if s == target else beta * weights[s]
    return total


def _class_weights(molecule):
    """Sector weights and occupied sectors of each level class, in class
    order (see ``classify._level_class``)."""
    table = []
    for J, K in _CLASS_LEVELS:
        weights = sector_weights(J, K, molecule.nuclear_spin)
        table.append((weights, frozenset(s for s in _SECTORS if weights[s] > 0)))
    return table


def _species_list(molecule):
    if molecule.point_group is PointGroup.C3V:
        return (InversionSpecies.S, InversionSpecies.A)
    return (InversionSpecies.NONE,)


def _levels(molecule, jmax):
    for J in range(jmax + 1):
        for K in range(J + 1):
            for species in _species_list(molecule):
                yield J, K, species


def _inversion_offset(molecule, species):
    # s-component below, a-component above the unsplit level.
    if species is InversionSpecies.NONE:
        return 0.0
    half = 0.5 * (molecule.inversion_splitting_cm1 or 0.0)
    return -half if species is InversionSpecies.S else half


def loop_rot_energy(molecule, J, K):
    """Rigid-rotor energy B J(J+1) - (B - C) K^2 of one level."""
    j, k, b, c = float(J), float(K), float(molecule.B_cm1), float(molecule.C_cm1)
    return b * j * (j + 1.0) - (b - c) * k * k


def loop_level_energy(molecule, J, K, species):
    """Level energy, inversion offset included."""
    return loop_rot_energy(molecule, J, K) + _inversion_offset(molecule, species)


def loop_honl_london(J, K, dj, dk, parallel):
    """Hoenl-London factor of one branch from the lower level (J, K): dj is
    the J change, dk the signed K change (0 for a parallel band).  P and Q
    from J = 0 are 0, and so is any negative factor."""
    j, k = float(J), float(K)
    if dj != 1 and j == 0:
        return 0.0
    if parallel:
        if dj == 1:
            out = ((j + 1.0) * (j + 1.0) - k * k) / ((j + 1.0) * (2.0 * j + 1.0))
        elif dj == 0:
            out = k * k / (j * (j + 1.0))
        else:
            out = (j * j - k * k) / (j * (2.0 * j + 1.0))
    else:
        m = dk * k
        if dj == 1:
            out = (j + 1.0 + m) * (j + 2.0 + m) / (2.0 * (j + 1.0) * (2.0 * j + 1.0))
        elif dj == 0:
            out = (j + 1.0 + m) * (j - m) / (2.0 * j * (j + 1.0))
        else:
            out = (j - m) * (j - 1.0 - m) / (2.0 * j * (2.0 * j + 1.0))
    return out if out > 0.0 else 0.0


def _boltzmann(energies, kt):
    return np.exp(-np.array(energies, dtype=float) / kt)


def _upper_species(species):
    # Electric-dipole parity rule: s <-> a for inversion doublets.
    if species is InversionSpecies.S:
        return InversionSpecies.A
    if species is InversionSpecies.A:
        return InversionSpecies.S
    return InversionSpecies.NONE


def _a(species):
    return species is InversionSpecies.A


@lru_cache(maxsize=256)  # loop_state_population divides by it for every level
def loop_partition_function(molecule, ensemble, violation):
    """Sum of unnormalized level populations, one level at a time."""
    kt = KB_CM1 * ensemble.temperature
    target = _TARGET[molecule.nuclear_spin]
    g_class = [
        _population(weights, target, violation.beta, avail)
        for weights, avail in _class_weights(molecule)
    ]
    weights, energies = [], []
    for J, K, species in _levels(molecule, ensemble.jmax):
        weights.append(
            g_class[_level_class(J, K, _a(species))]
            * (2 * J + 1)
            * (2 if K != 0 else 1)
        )
        energies.append(loop_level_energy(molecule, J, K, species))
    return float(np.dot(np.array(weights), _boltzmann(energies, kt)))


def loop_state_population(molecule, state, ensemble, violation):
    """Fractional population of one level from its own sector weights."""
    weights = sector_weights(
        state.J, abs(state.K), molecule.nuclear_spin, state.species
    )
    g = _population(
        weights, _TARGET[molecule.nuclear_spin], violation.beta, _SECTORS
    )
    weight = (
        g
        * (2 * state.J + 1)
        * (2 if state.K != 0 else 1)
        * np.exp(
            -loop_level_energy(molecule, state.J, abs(state.K), state.species)
            / (KB_CM1 * ensemble.temperature)
        )
    )
    return float(weight) / loop_partition_function(molecule, ensemble, violation)


def loop_line_list(molecule, band, ensemble, violation, normalization="max"):
    """Line list from an explicit loop over levels and selection rules."""
    band = molecule.band(band) if isinstance(band, str) else band
    parallel = band.band_type is BandType.PARALLEL
    beta = violation.beta
    kt = KB_CM1 * ensemble.temperature

    target = _TARGET[molecule.nuclear_spin]
    classes = _class_weights(molecule)
    flags = [classify_state(J, K, molecule.nuclear_spin) for J, K in _CLASS_LEVELS]
    pairs = {}
    for lo, (weights, lo_avail) in enumerate(classes):
        for up, (_, up_avail) in enumerate(classes):
            pop = _population(weights, target, beta, lo_avail & up_avail)
            if pop != 0.0:
                pairs[lo, up] = (
                    pop,
                    flags[lo].sp_forbidden or flags[up].sp_forbidden,
                    flags[lo].ss_forbidden or flags[up].ss_forbidden,
                )

    records = []  # (lower, upper, dj, dk, popfactor, sp, ss)
    for J, K, species in _levels(molecule, ensemble.jmax):
        up_species = _upper_species(species)
        lo = int(_level_class(J, K, _a(species)))
        for dj in (1, 0, -1):
            J_up = J + dj
            if J_up < 0 or (J == 0 and J_up == 0):
                continue
            dks = (0,) if parallel else ((1,) if K == 0 else (1, -1))
            for dk in dks:
                K_up = K + dk
                if K_up > J_up:
                    continue
                up = int(_level_class(J_up, K_up, _a(up_species)))
                pair = pairs.get((lo, up))
                if pair is None:
                    continue
                records.append((J, K, species, J_up, K_up, up_species, dj, dk, *pair))

    if not records:
        return []

    e_lo = [loop_level_energy(molecule, r[0], r[1], r[2]) for r in records]
    e_up = [loop_level_energy(molecule, r[3], r[4], r[5]) for r in records]
    freq = [band.origin_cm1 + up - lo for lo, up in zip(e_lo, e_up)]
    boltz = _boltzmann(e_lo, kt).tolist()
    intensity = np.array([
        pop * (2 * J + 1) * (2.0 if K != 0 else 1.0) * b
        * loop_honl_london(J, K, dj, dk, parallel)
        for (J, K, _, _, _, _, dj, dk, pop, _, _), b in zip(records, boltz)
    ])

    if normalization == "total":
        intensity = intensity / loop_partition_function(molecule, ensemble, violation)

    lines = []
    for i, (J, K, sp_lo, J_up, K_up, sp_up, _, _, _, sp, ss) in enumerate(records):
        if intensity[i] <= 0.0 or freq[i] <= 0.0:
            continue
        lines.append(
            SpectralLine(
                band=band.name,
                frequency=float(freq[i]),
                intensity=float(intensity[i]),
                lower=RotationalState(J, K, sp_lo),
                upper=RotationalState(J_up, K_up, sp_up),
                sp_forbidden=sp,
                ss_forbidden=ss,
            )
        )

    if normalization == "max" and lines:
        allowed = [l for l in lines if not (l.sp_forbidden or l.ss_forbidden)]
        if allowed:  # without allowed lines there is no reference; keep raw
            scale = max(l.intensity for l in allowed)
            lines = [l._replace(intensity=l.intensity / scale) for l in lines]

    lines.sort(
        key=lambda l: (
            l.frequency,
            l.lower.J,
            l.lower.K,
            l.lower.species.value,
            l.upper.J,
            l.upper.K,
        )
    )
    return lines


# ---------------------------------------------------------------------------
# Loop serializers: the CSV and JSON writers that trisym.spectrum used before
# both were derived from one per-line record of CSV fields, and the text
# writer that trisym.cli used before it moved into trisym.spectrum.
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def loop_linelist_csv(lines: list[SpectralLine]) -> str:
    """Byte-deterministic CSV rendering, floats at 10 significant digits."""
    rows = [CSV_HEADER]
    for l in lines:
        rows.append(
            ",".join(
                (
                    l.band,
                    _fmt(l.frequency),
                    _fmt(l.intensity),
                    str(l.lower.J),
                    str(l.lower.K),
                    l.lower.species.value,
                    str(l.upper.J),
                    str(l.upper.K),
                    l.upper.species.value,
                    "true" if l.sp_forbidden else "false",
                    "true" if l.ss_forbidden else "false",
                )
            )
        )
    return "\n".join(rows) + "\n"


def loop_linelist_json(lines: list[SpectralLine]) -> str:
    """JSON mirror of the CSV schema (identical field names and rounding)."""
    fields = CSV_HEADER.split(",")
    payload = [
        dict(zip(fields, (
            l.band, float(_fmt(l.frequency)), float(_fmt(l.intensity)),
            l.lower.J, l.lower.K, l.lower.species.value,
            l.upper.J, l.upper.K, l.upper.species.value,
            l.sp_forbidden, l.ss_forbidden,
        )))
        for l in lines
    ]
    return json.dumps(payload, indent=2) + "\n"


def loop_linelist_text(lines: list[SpectralLine]) -> str:
    """One line per row, as ``trisym linelist --format text`` printed it."""
    rows = [
        f"{l.frequency:12.4f} cm-1  I={l.intensity:.4e}  "
        f"J{l.lower.J} K{l.lower.K} {l.lower.species.value} -> "
        f"J{l.upper.J} K{l.upper.K} {l.upper.species.value}"
        + ("  [SP]" if l.sp_forbidden else "")
        + ("  [SS]" if l.ss_forbidden else "")
        for l in lines
    ]
    return "\n".join(rows) + ("\n" if rows else "")
