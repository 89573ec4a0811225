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

A level's weight depends only on its class (see ``classify._level_class``),
so one 4 x 4 table over (lower, upper) class pairs feeds line intensities,
the partition function and level populations.  A band is computed as arrays
over one level table (J, then K, then species): each selection-rule branch
is a mask over the lower levels, and line objects are built only for the
lines returned.  Temperatures at which any of these overflow are rejected.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np

from . import _kernels
from .classify import (
    _CLASS_LEVELS,
    InversionSpecies,
    RotationalState,
    _check_jk,
    _level_class,
    _required_sector,
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
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError(
                f"temperature must be finite and > 0, got {self.temperature}"
            )
        if not isinstance(self.jmax, Integral) or self.jmax < 0:
            raise ValueError(f"jmax must be an integer >= 0, got {self.jmax!r}")


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
    _check_jk(J, K)
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
    _check_jk(J_lower, K_lower)
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


def _pair_populations(molecule: MoleculeSpec, beta: float) -> np.ndarray:
    """Population factor of each (lower, upper) level-class pair: the lower
    class's weight over the sectors both occupy (0 if none: superselection),
    with ``beta`` on every sector but the statistics-required one.  The
    diagonal is each class's full weight."""
    required = _required_sector(molecule.nuclear_spin)
    weights = [sector_weights(J, K, molecule.nuclear_spin) for J, K in _CLASS_LEVELS]
    table = np.zeros((4, 4))
    for s in ("A1", "A2", "E"):  # fixed order keeps float sums byte-reproducible
        w = np.array([cw[s] for cw in weights])
        term = w * (1.0 if s == required else beta)
        table += np.where((w > 0)[:, None] & (w > 0), term[:, None], 0.0)
    return table


def _check_finite(values, temperature: float, what: str):
    if not np.isfinite(values).all():
        raise ValueError(
            f"temperature {temperature} K is out of range: {what} not finite"
        )


def _boltzmann(energy, temperature: float):
    """Boltzmann factors exp(-E / kT) of level energies in cm^-1."""
    with np.errstate(over="ignore"):
        boltz = _kernels.boltzmann_array(energy, KB_CM1 * temperature)
    _check_finite(boltz, temperature, "Boltzmann factors")
    return boltz


#: Species codes index this tuple.  It is in label order, so sorting on the
#: code sorts on the label, and ``2 - code`` is the electric-dipole partner
#: of a level (s <-> a, none <-> none).
_SPECIES = (InversionSpecies.A, InversionSpecies.NONE, InversionSpecies.S)
_A, _NONE, _S = range(3)


def _level_table(molecule: MoleculeSpec, jmax: int):
    """J, K and species code of every level up to ``jmax``, ordered by J,
    then K, then species (s before a).  The order fixes the rounding of the
    partition-function sum."""
    J, K = np.tril_indices(jmax + 1)
    if molecule.point_group is PointGroup.C3V:
        return np.repeat(J, 2), np.repeat(K, 2), np.tile([_S, _A], len(J))
    return J, K, np.full(len(J), _NONE)


def _class_and_energy(molecule: MoleculeSpec, J, K, code):
    """Level class (see ``classify._level_class``) and energy, inversion
    offset included, of each level."""
    offsets = np.array([_inversion_offset(molecule, s) for s in _SPECIES])
    energy = _kernels.rot_energy_array(J, K, molecule.B_cm1, molecule.C_cm1)
    return _level_class(J, K, code == _A), energy + offsets[code]


@lru_cache(maxsize=128)
def _partition_function_cached(
    molecule: MoleculeSpec, temperature: float, jmax: int, beta: float
) -> tuple[np.ndarray, float]:
    """Statistical weight of each level class, and the partition function."""
    g_class = np.diagonal(_pair_populations(molecule, beta))
    J, K, code = _level_table(molecule, jmax)
    cls, energy = _class_and_energy(molecule, J, K, code)
    g = g_class[cls] * (2 * J + 1) * np.where(K != 0, 2, 1)
    with np.errstate(over="ignore"):
        z = float(np.dot(g, _boltzmann(energy, temperature)))
    _check_finite(z, temperature, "the partition function")
    return g_class, z


def partition_function(
    molecule: MoleculeSpec,
    ensemble: ThermalEnsemble,
    violation: ViolationModel = ViolationModel(),
) -> float:
    """Sum of unnormalized level populations up to the ensemble's jmax."""
    return _partition_function_cached(
        molecule, ensemble.temperature, ensemble.jmax, violation.beta
    )[1]


def state_population(
    molecule: MoleculeSpec,
    state: RotationalState,
    ensemble: ThermalEnsemble,
    violation: ViolationModel = ViolationModel(),
) -> float:
    """Fractional thermal population of one (J, K, species) level."""
    T = ensemble.temperature
    g_class, z = _partition_function_cached(molecule, T, ensemble.jmax, violation.beta)
    if z == 0:
        raise ValueError(
            f"partition function is 0 at temperature {T} K: no level up to "
            f"jmax {ensemble.jmax} is populated"
        )
    J, K, species = state.J, abs(state.K), state.species
    g = g_class[_level_class(J, K, species is InversionSpecies.A)]
    boltz = _boltzmann(state_energy(molecule, J, K, species), T)
    return float(g * (2 * J + 1) * (2 if K != 0 else 1) * boltz) / z


@np.errstate(over="ignore", invalid="ignore")  # caught by the check on kept lines
def _line_columns(
    molecule: MoleculeSpec, band: Band, ensemble: ThermalEnsemble,
    violation: ViolationModel, normalization: str,
):
    """The lines ``line_list`` keeps, as columns, and the order that sorts
    them: frequency, intensity, lower J, K and species code, upper J and K,
    SP and SS flags.  The per-transition arrays are freed on return, so they
    add nothing to peak memory while the line objects are built."""
    parallel = band.band_type is BandType.PARALLEL

    # Symmetry enters only through the (lower, upper) level-class pair: the
    # population factor and the forbidden flags.
    pair_pop = _pair_populations(molecule, violation.beta)
    flags = [classify_state(J, K, molecule.nuclear_spin) for J, K in _CLASS_LEVELS]
    class_sp = np.array([f.sp_forbidden for f in flags])
    class_ss = np.array([f.ss_forbidden for f in flags])
    pair_sp = class_sp[:, None] | class_sp
    pair_ss = class_ss[:, None] | class_ss

    # Every level is a lower level; each (dJ, dK) branch is a mask over them.
    J, K, code = _level_table(molecule, ensemble.jmax)
    cls, energy = _class_and_energy(molecule, J, K, code)
    boltz = _boltzmann(energy, ensemble.temperature)
    branches = [(dj, dk) for dj in (1, 0, -1) for dk in ((0,) if parallel else (1, -1))]
    picks = [  # 0 <= K_up <= J_up, and no 0 <- 0
        np.flatnonzero((K + dk >= 0) & (K + dk <= J + dj) & ((J > 0) | (dj > 0)))
        for dj, dk in branches
    ]
    counts = [len(p) for p in picks]
    lo = np.concatenate(picks)
    dj = np.repeat([b[0] for b in branches], counts)
    dk = np.repeat([b[1] for b in branches], counts)
    j_lo, k_lo = J[lo], K[lo]
    j_up, k_up = j_lo + dj, k_lo + dk
    cls_up, e_up = _class_and_energy(molecule, j_up, k_up, 2 - code[lo])

    pop = pair_pop[cls[lo], cls_up]
    freq = band.origin_cm1 + e_up - energy[lo]
    hl = _kernels.honl_london_array(j_lo, k_lo, dj, dk, parallel)
    dk_weight = np.where(k_lo != 0, 2.0, 1.0)
    intensity = pop * (2 * j_lo + 1) * dk_weight * boltz[lo] * hl
    keep = (pop != 0) & ~(intensity <= 0) & ~(freq <= 0)

    lo, freq, intensity = lo[keep], freq[keep], intensity[keep]
    j_up, k_up = j_up[keep], k_up[keep]
    pair = (cls[lo], cls_up[keep])
    sp, ss = pair_sp[pair], pair_ss[pair]
    if normalization == "total":
        intensity = intensity / partition_function(molecule, ensemble, violation)
    elif normalization == "max":
        allowed = ~(sp | ss)
        if allowed.any():  # without allowed lines there is no reference; keep raw
            intensity = intensity / intensity[allowed].max()
    _check_finite(intensity, ensemble.temperature, "line intensities")

    order = np.lexsort((k_up, j_up, code[lo], K[lo], J[lo], freq))
    return (freq, intensity, J[lo], K[lo], code[lo], j_up, k_up, sp, ss), order


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
    columns, order = _line_columns(molecule, band, ensemble, violation, normalization)
    # Sorting one column at a time keeps a single sorted copy alive.
    rows = zip(*(column[order].tolist() for column in columns))
    return [
        SpectralLine(band.name, f, i, RotationalState(j_lo, k_lo, _SPECIES[c]),
                     RotationalState(j_up, k_up, _SPECIES[2 - c]), sp, ss)
        for f, i, j_lo, k_lo, c, j_up, k_up, sp, ss in rows
    ]


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
