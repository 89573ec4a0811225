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
the partition function and level populations.  One elementwise function
gives each level's class, energy and degeneracy.  A band is one pass over
the level table: each selection-rule branch is a mask over the lower levels,
which also give the partition function; line objects are built only for the
lines returned.  Overflowing temperatures and unpopulated ensembles are rejected.

A line's CSV fields are written once; the JSON rendering types those same
strings, so both agree on names, order and rounding.
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
    _check_species,
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
    return float(_kernels.rot_energy_array(J, K, molecule.B_cm1, molecule.C_cm1))


def state_energy(
    molecule: MoleculeSpec, J: int, K: int,
    species: InversionSpecies = InversionSpecies.NONE,
) -> float:
    """Level energy including the inversion-doubling offset for C3v."""
    _check_jk(J, K)
    _check_species(species)
    return float(_levels(molecule, J, K, _SPECIES.index(species))[1])


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


def _levels(molecule: MoleculeSpec, J, K, code):
    """Class (see ``classify._level_class``), energy and degeneracy (2J + 1,
    doubled for the +-K pair) of each level, elementwise; the s-component
    lies half the inversion splitting below the unsplit level, a half above."""
    half = 0.5 * (molecule.inversion_splitting_cm1 or 0.0)
    energy = _kernels.rot_energy_array(J, K, molecule.B_cm1, molecule.C_cm1)
    energy = energy + np.array([half, 0.0, -half])[code]
    return _level_class(J, K, code == _A), energy, (2 * J + 1) << (K != 0)


def _partition_sum(g_class, cls, deg, boltz, temperature: float) -> float:
    """Partition function, summed over the levels in their order."""
    with np.errstate(over="ignore"):
        z = float(np.dot(g_class[cls] * deg, boltz))
    _check_finite(z, temperature, "the partition function")
    return z


def _check_populated(z: float, ensemble: ThermalEnsemble):
    if z == 0:
        raise ValueError(
            f"partition function is 0 at temperature {ensemble.temperature} K: "
            f"no level up to jmax {ensemble.jmax} is populated"
        )


@lru_cache(maxsize=128)
def _partition_function_cached(
    molecule: MoleculeSpec, temperature: float, jmax: int, beta: float
) -> tuple[np.ndarray, float]:
    """Statistical weight of each level class, and the partition function."""
    g_class = np.diagonal(_pair_populations(molecule, beta))
    cls, energy, deg = _levels(molecule, *_level_table(molecule, jmax))
    boltz = _boltzmann(energy, temperature)
    return g_class, _partition_sum(g_class, cls, deg, boltz, temperature)


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
    _check_populated(z, ensemble)
    code = _SPECIES.index(state.species)
    cls, energy, deg = _levels(molecule, state.J, abs(state.K), code)
    return float(g_class[cls] * deg * _boltzmann(energy, T)) / z


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
    cls, energy, deg = _levels(molecule, J, K, code)
    boltz = _boltzmann(energy, ensemble.temperature)
    z = _partition_sum(np.diagonal(pair_pop), cls, deg, boltz, ensemble.temperature)
    _check_populated(z, ensemble)
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
    cls_up, e_up, _ = _levels(molecule, j_up, k_up, 2 - code[lo])

    pop = pair_pop[cls[lo], cls_up]
    freq = band.origin_cm1 + e_up - energy[lo]
    hl = _kernels.honl_london_array(j_lo, k_lo, dj, dk, parallel)
    intensity = pop * deg[lo] * boltz[lo] * hl
    keep = (pop != 0) & ~(intensity <= 0) & ~(freq <= 0)

    lo, freq, intensity = lo[keep], freq[keep], intensity[keep]
    j_up, k_up = j_up[keep], k_up[keep]
    pair = (cls[lo], cls_up[keep])
    sp, ss = pair_sp[pair], pair_ss[pair]
    if normalization == "total":
        intensity = intensity / z
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


def _csv_fields(l: SpectralLine) -> tuple[str, ...]:
    """The CSV strings of one line, in ``CSV_HEADER`` order; floats at 10
    significant digits."""
    return (
        l.band, f"{l.frequency:.10g}", f"{l.intensity:.10g}",
        str(l.lower.J), str(l.lower.K), l.lower.species.value,
        str(l.upper.J), str(l.upper.K), l.upper.species.value,
        "true" if l.sp_forbidden else "false",
        "true" if l.ss_forbidden else "false",
    )


def linelist_csv(lines: list[SpectralLine]) -> str:
    """Byte-deterministic CSV rendering, floats at 10 significant digits."""
    return "\n".join([CSV_HEADER, *(",".join(_csv_fields(l)) for l in lines)]) + "\n"


def linelist_json(lines: list[SpectralLine]) -> str:
    """JSON mirror of the CSV schema: each row's CSV fields, typed (numbers
    for the floats and for J and K, booleans for the flags)."""
    fields = CSV_HEADER.split(",")
    flag = "true".__eq__
    types = (str, float, float, int, int, str, int, int, str, flag, flag)
    payload = [
        {f: t(v) for f, t, v in zip(fields, types, _csv_fields(l))} for l in lines
    ]
    return json.dumps(payload, indent=2) + "\n"
