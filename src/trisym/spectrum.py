"""Rigid symmetric-top energies, populations and synthetic line lists.

Level energies follow E(J, K) = B J(J+1) - (B - C) K^2; thermal populations
carry first-principles statistical weights from the symmetry classifier.
States ruled out by the symmetrization postulate or by spin-statistics are
populated in proportion to the violation parameter beta (the assumed
population fraction of symmetry-violating molecules), so a generated line
list contains the forbidden lines such a population would produce.

Transitions are filtered by the superselection rule: a line is kept only if
the lower and upper levels share at least one symmetry sector, and its
intensity sums the lower-level population residing in the shared sectors.
Sectors are tracked as A1 (totally symmetric), A2 (totally antisymmetric)
and E (mixed symmetry); population in the statistics-required sector is
ordinary, population anywhere else carries a factor beta.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import _kernels
from .classify import (
    _CLASS_LEVELS,
    InversionSpecies,
    RotationalState,
    _level_class,
    classify_state,
    sector_weights,
)
from .molecules import Band, BandType, MoleculeSpec, PointGroup

__all__ = [
    "KB_CM1",
    "ViolationModel",
    "ThermalEnsemble",
    "SpectralLine",
    "rot_energy",
    "state_energy",
    "honl_london",
    "state_population",
    "partition_function",
    "line_list",
    "linelist_csv",
    "linelist_json",
    "CSV_HEADER",
]

#: Boltzmann constant divided by h*c, in cm^-1 per kelvin.
KB_CM1 = 0.6950348004


@dataclass(frozen=True)
class ViolationModel:
    """Population fraction of symmetry-violating molecules."""

    beta: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")


@dataclass(frozen=True)
class ThermalEnsemble:
    temperature: float = 296.0
    jmax: int = 30

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")
        if self.jmax < 0:
            raise ValueError(f"jmax must be >= 0, got {self.jmax}")


@dataclass(frozen=True)
class SpectralLine:
    band: str
    frequency: float
    intensity: float
    lower: RotationalState
    upper: RotationalState
    sp_forbidden: bool
    ss_forbidden: bool


def rot_energy(molecule: MoleculeSpec, J: int, K: int) -> float:
    """Rigid-rotor energy B J(J+1) - (B - C) K^2 in cm^-1; even in K."""
    if J < 0:
        raise ValueError(f"J must be non-negative, got {J}")
    if abs(K) > J:
        raise ValueError(f"|K| <= J required, got K={K}, J={J}")
    return molecule.B_cm1 * J * (J + 1) - (molecule.B_cm1 - molecule.C_cm1) * K * K


def _inversion_offset(molecule: MoleculeSpec, species: InversionSpecies) -> float:
    # s-component below, a-component above the unsplit level.
    if species is InversionSpecies.NONE:
        return 0.0
    half = 0.5 * (molecule.inversion_splitting_cm1 or 0.0)
    return -half if species is InversionSpecies.S else half


def state_energy(
    molecule: MoleculeSpec, J: int, K: int,
    species: InversionSpecies = InversionSpecies.NONE,
) -> float:
    """Level energy including the inversion-doubling offset for C3v."""
    return rot_energy(molecule, J, K) + _inversion_offset(molecule, species)


def honl_london(
    J_lower: int, K_lower: int, branch: str, band_type: BandType, delta_k: int = 1
) -> float:
    """Rotational line-strength factor for one branch.

    ``branch`` is "P", "Q" or "R"; ``delta_k`` (+1 or -1) selects the
    perpendicular sub-branch and is ignored for parallel bands.  The three
    branch factors at fixed (J, K) sum to 1.
    """
    if branch not in ("P", "Q", "R"):
        raise ValueError(f"branch must be P, Q or R, got {branch!r}")
    if J_lower < 0 or abs(K_lower) > J_lower:
        raise ValueError(f"invalid (J, K) = ({J_lower}, {K_lower})")
    if J_lower == 0 and branch != "R":
        raise ValueError("J = 0 admits only the R branch")
    if delta_k not in (1, -1):
        raise ValueError(f"delta_k must be +-1, got {delta_k}")
    dj = {"P": -1, "Q": 0, "R": 1}[branch]
    parallel = band_type is BandType.PARALLEL
    out = _kernels.honl_london_array(
        np.array([J_lower]), np.array([K_lower]), np.array([dj]),
        np.array([0 if parallel else delta_k]), parallel,
    )
    return float(out[0])


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


def _class_weights(molecule: MoleculeSpec):
    """Sector weights and occupied sectors of each level class, in class
    order (see ``classify._level_class``)."""
    table = []
    for J, K in _CLASS_LEVELS:
        weights = sector_weights(J, K, molecule.nuclear_spin)
        table.append((weights, frozenset(s for s in _SECTORS if weights[s] > 0)))
    return table


def _species_list(molecule: MoleculeSpec) -> tuple[InversionSpecies, ...]:
    if molecule.point_group is PointGroup.C3V:
        return (InversionSpecies.S, InversionSpecies.A)
    return (InversionSpecies.NONE,)


def _levels(molecule: MoleculeSpec, jmax: int):
    for J in range(jmax + 1):
        for K in range(J + 1):
            for species in _species_list(molecule):
                yield J, K, species


@lru_cache(maxsize=128)
def _partition_function_cached(
    molecule: MoleculeSpec, temperature: float, jmax: int, beta: float
) -> float:
    kt = KB_CM1 * temperature
    target = _TARGET[molecule.nuclear_spin]
    g_class = [
        _population(weights, target, beta, avail)
        for weights, avail in _class_weights(molecule)
    ]
    j_arr, k_arr, g_arr, e_arr = [], [], [], []
    for J, K, species in _levels(molecule, jmax):
        j_arr.append(J)
        k_arr.append(K)
        g_arr.append(
            g_class[_level_class(J, K, species)] * (2 * J + 1) * (2 if K != 0 else 1)
        )
        e_arr.append(_inversion_offset(molecule, species))
    energies = _kernels.rot_energy_array(
        np.array(j_arr), np.array(k_arr), molecule.B_cm1, molecule.C_cm1
    ) + np.array(e_arr)
    boltz = _kernels.boltzmann_array(energies, kt)
    return float(np.dot(np.array(g_arr), boltz))


def partition_function(
    molecule: MoleculeSpec,
    ensemble: ThermalEnsemble,
    violation: ViolationModel = ViolationModel(),
) -> float:
    """Sum of unnormalized level populations up to the ensemble's jmax."""
    return _partition_function_cached(
        molecule, ensemble.temperature, ensemble.jmax, violation.beta
    )


def state_population(
    molecule: MoleculeSpec,
    state: RotationalState,
    ensemble: ThermalEnsemble,
    violation: ViolationModel = ViolationModel(),
) -> float:
    """Fractional thermal population of one (J, K, species) level."""
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
            -state_energy(molecule, state.J, abs(state.K), state.species)
            / (KB_CM1 * ensemble.temperature)
        )
    )
    return float(weight) / partition_function(molecule, ensemble, violation)


def _upper_species(species: InversionSpecies) -> InversionSpecies:
    # Electric-dipole parity rule: s <-> a for inversion doublets.
    if species is InversionSpecies.S:
        return InversionSpecies.A
    if species is InversionSpecies.A:
        return InversionSpecies.S
    return InversionSpecies.NONE


def line_list(
    molecule: MoleculeSpec,
    band: Band | str,
    ensemble: ThermalEnsemble,
    violation: ViolationModel = ViolationModel(),
    normalization: str = "max",
) -> list[SpectralLine]:
    """Generate the stick spectrum of one vibrational band.

    Selection rules: dJ in {-1, 0, +1} (no 0 <- 0), dK = 0 for parallel
    bands, dK = +-1 for perpendicular ones; only the dK = +1 component is
    emitted from K = 0, where the two signs coincide.  Lines whose levels
    share no symmetry sector, or whose intensity or frequency vanishes, are
    dropped.  ``normalization``: "max" scales the strongest allowed line to
    1, "total" divides by the partition function, "none" leaves the raw
    thermal weights (the mode in which intensities are exactly linear in
    beta).
    """
    if isinstance(band, str):
        band = molecule.band(band)
    elif band not in molecule.bands:
        raise KeyError(f"band {band.name!r} does not belong to {molecule.name!r}")
    if normalization not in ("max", "total", "none"):
        raise ValueError(f"unknown normalization mode {normalization!r}")
    parallel = band.band_type is BandType.PARALLEL
    beta = violation.beta
    kt = KB_CM1 * ensemble.temperature

    # Symmetry enters only through the (lower, upper) level-class pair: its
    # population factor over the shared sectors and its forbidden flags.
    # Pairs without a populated shared sector are absent (superselection).
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
        lo = _level_class(J, K, species)
        for dj in (1, 0, -1):
            J_up = J + dj
            if J_up < 0 or (J == 0 and J_up == 0):
                continue
            dks = (0,) if parallel else ((1,) if K == 0 else (1, -1))
            for dk in dks:
                K_up = K + dk
                if K_up > J_up:
                    continue
                pair = pairs.get((lo, _level_class(J_up, K_up, up_species)))
                if pair is None:
                    continue
                records.append((J, K, species, J_up, K_up, up_species, dj, dk, *pair))

    if not records:
        return []

    j_lo = np.array([r[0] for r in records])
    k_lo = np.array([r[1] for r in records])
    j_up = np.array([r[3] for r in records])
    k_up = np.array([r[4] for r in records])
    dj = np.array([r[6] for r in records])
    dk = np.array([r[7] for r in records])
    pop = np.array([r[8] for r in records])

    e_lo = _kernels.rot_energy_array(j_lo, k_lo, molecule.B_cm1, molecule.C_cm1)
    e_up = _kernels.rot_energy_array(j_up, k_up, molecule.B_cm1, molecule.C_cm1)
    off_lo = np.array([_inversion_offset(molecule, r[2]) for r in records])
    off_up = np.array([_inversion_offset(molecule, r[5]) for r in records])
    freq = band.origin_cm1 + (e_up + off_up) - (e_lo + off_lo)
    hl = _kernels.honl_london_array(j_lo, k_lo, dj, dk, parallel)
    boltz = _kernels.boltzmann_array(e_lo + off_lo, kt)
    dk_weight = np.where(k_lo != 0, 2.0, 1.0)
    intensity = pop * (2 * j_lo + 1) * dk_weight * boltz * hl

    if normalization == "total":
        intensity = intensity / partition_function(molecule, ensemble, violation)

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
            lines = [replace(l, intensity=l.intensity / scale) for l in lines]

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


CSV_HEADER = (
    "band,freq_cm1,intensity,J_lo,K_lo,species_lo,J_up,K_up,species_up,"
    "sp_forbidden,ss_forbidden"
)


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def linelist_csv(lines: list[SpectralLine]) -> str:
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


def linelist_json(lines: list[SpectralLine]) -> str:
    """JSON mirror of the CSV schema (identical field names and rounding)."""
    payload = [
        {
            "band": l.band,
            "freq_cm1": float(_fmt(l.frequency)),
            "intensity": float(_fmt(l.intensity)),
            "J_lo": l.lower.J,
            "K_lo": l.lower.K,
            "species_lo": l.lower.species.value,
            "J_up": l.upper.J,
            "K_up": l.upper.K,
            "species_up": l.upper.species.value,
            "sp_forbidden": l.sp_forbidden,
            "ss_forbidden": l.ss_forbidden,
        }
        for l in lines
    ]
    return json.dumps(payload, indent=2) + "\n"
