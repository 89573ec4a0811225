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
the partition function and level populations.  One level pass gives each
level's class, energy and degeneracy and sums Z over the levels up to jmax,
for all three callers: ``partition_function`` and ``state_population`` pass
it a level table to jmax, a band one to jmax + 1 that holds both ends of
every transition.

States are shared per process: one table per point group, in level-table
order, holds the state of every level of the largest level table built so
far, each built once, when the table grows to reach it, and shared by every
line of every later call.  The table is a numpy object array, so a call
gathers its lines' states by row in C.  It keeps memory in proportion to
the largest jmax seen, about 1.6 MB (105 B per level) for nh3 at jmax 120,
and 3.4 MB (225 B per level) once CSV has been written from every state,
which keeps its CSV label.  A spin-0 D3h list that reaches few levels
(so3 nu3 at beta 0 reaches none) still holds the whole table.
``jmax`` is bounded so that a band's level table stays within a 2 GiB
budget at a stated 8 KiB per level, which also bounds the shared tables.
Arguments of the wrong type, levels outside the molecule's ensemble,
temperatures whose kT is 0 or whose factors overflow, level energies that
overflow and unpopulated ensembles are rejected.

Lines are sorted by frequency, ties by the level-table rows of the lower and
then the upper level: label order once the s and a rows of a C3v pair swap.
They are named tuples built at C level from the sorted
columns, with the cyclic garbage collector paused: each record holds states,
so the collector tracks it, and while the list grows it would scan the
records built so far again and again (about a third of a large call).  It
still scans every new record once, at the first allocation after the call:
for nh3 nu3 at jmax 120 that falls inside the ``linelist_csv`` call that
follows, about 16 ms of its 140 ms on a 2-core VM.  Each
JSON and text row is one ``%`` template filled straight from the line and
its two states.  CSV and JSON take their field names from ``CSV_HEADER``
and their floats from one ``.10g`` format, so they agree on names, order
and rounding.

A CSV row holds the band, the two floats, each state's ``J,K,species``
fields as one label that the state formats once and keeps, and the flags.
``_csv_matrix`` writes all rows of every list as one byte matrix, with an
exact vectorised ``%.10g``; it loads with a process's first CSV.  Every
writer that writes the band checks each distinct band object it meets
against ``Band``'s name rule, ``molecules._check_band_name``, so a
hand-built line cannot split or widen a row.
"""

from __future__ import annotations

import gc
import json
import math
import threading
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from numbers import Integral
from typing import Iterable, NamedTuple

import numpy as np

from . import _kernels
from .classify import (
    _CLASS_LEVELS,
    InversionSpecies,
    RotationalState,
    _check_jk,
    _check_number,
    _check_sign,
    _check_type,
    _level_class,
    _required_sector,
    classify_state,
    sector_weights,
)
from .molecules import (
    Band,
    BandType,
    MoleculeSpec,
    PointGroup,
    _check_band_name,
    _check_species,
)

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
    "linelist_text",
    "CSV_HEADER",
]

#: Boltzmann constant divided by h*c, in cm^-1 per kelvin.
KB_CM1 = 0.6950348004

#: Bytes that a line list and its JSON text take per level of the band's
#: level table: about 6.3 KB measured for nh3/nu3 at jmax 120, where the
#: table holds about 6 lines per level.
_BYTES_PER_LEVEL = 8 * 1024
#: Levels a table may hold: a 2 GiB budget at the estimate above.
_MAX_LEVELS = 2 * 1024**3 // _BYTES_PER_LEVEL
#: The largest jmax whose table to jmax + 1 fits: (jmax + 2)(jmax + 3) levels
#: with two species per (J, K), 509 for 2**18 levels.
_JMAX_LIMIT = (math.isqrt(4 * _MAX_LEVELS + 1) - 5) // 2


def _check_jmax(jmax: int):
    """Reject a jmax that is not an integer >= 0, or whose level table would
    exceed the memory budget.  The budget also caps the shared state tables,
    which grow to the largest table."""
    if isinstance(jmax, bool) or not isinstance(jmax, Integral) or jmax < 0:
        raise ValueError(f"jmax must be an integer >= 0, got {jmax!r}")
    if jmax > _JMAX_LIMIT:
        raise ValueError(
            f"jmax must be at most {_JMAX_LIMIT} (a level table of at most "
            f"{_MAX_LEVELS} levels at about {_BYTES_PER_LEVEL // 1024} KiB each), "
            f"got {jmax}"
        )


@dataclass(frozen=True)
class ViolationModel:
    """Population fraction of symmetry-violating molecules."""

    beta: float = 0.0

    def __post_init__(self):
        _check_number(self.beta, "beta", zero=True, high=1)


@dataclass(frozen=True)
class ThermalEnsemble:
    temperature: float = 296.0
    jmax: int = 30

    def __post_init__(self):
        _check_number(self.temperature, "temperature")
        if KB_CM1 * float(self.temperature) == 0:  # a tiny Fraction rounds to 0.0
            raise ValueError(
                f"temperature {self.temperature!r} is too small: kT rounds to 0"
            )
        _check_jmax(self.jmax)


class SpectralLine(NamedTuple):
    """One line of a stick spectrum: an immutable named tuple, built by
    position or keyword and changed with ``_replace``."""

    band: str
    frequency: float
    intensity: float
    lower: RotationalState
    upper: RotationalState
    sp_forbidden: bool
    ss_forbidden: bool


#: ``SpectralLine`` from a tuple of its fields, without ``_make``'s Python frame.
_new_line = partial(tuple.__new__, SpectralLine)


def rot_energy(molecule: MoleculeSpec, J: int, K: int) -> float:
    """Rigid-rotor energy B J(J+1) - (B - C) K^2 in cm^-1; even in K."""
    _check_jk(J, K)
    return float(_levels(molecule, J, K, _NONE)[1])


def state_energy(
    molecule: MoleculeSpec, J: int, K: int,
    species: InversionSpecies = InversionSpecies.NONE,
) -> float:
    """Level energy including the inversion-doubling offset for C3v."""
    _check_jk(J, K)
    _check_species(molecule, species)
    return float(_levels(molecule, J, K, _SPECIES.index(species))[1])


def honl_london(
    J_lower: int, K_lower: int, branch: str, band_type: BandType, delta_k: int = 1
) -> float:
    """Rotational line-strength factor for one branch.

    ``branch`` is "P", "Q" or "R"; ``delta_k`` must be +1 or -1 and selects
    the perpendicular sub-branch; parallel bands ignore its sign.  The three
    branch factors at fixed (J, K) sum to 1.
    """
    if branch not in ("P", "Q", "R"):
        raise ValueError(f"branch must be P, Q or R, got {branch!r}")
    _check_jk(J_lower, K_lower)
    _check_type(band_type, BandType, "band_type")
    if J_lower == 0 and branch != "R":
        raise ValueError("J = 0 admits only the R branch")
    _check_sign(delta_k, "delta_k")
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
    diagonal is each class's full weight.  ``beta`` may be any real, such as
    a ``Fraction``; the table is float."""
    beta = float(beta)
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
    with np.errstate(over="ignore"):  # kT in float64, even for a float16 T
        boltz = _kernels.boltzmann_array(energy, KB_CM1 * float(temperature))
    _check_finite(boltz, temperature, "Boltzmann factors")
    return boltz


#: Species codes index this tuple, and ``2 - code`` is the electric-dipole
#: partner of a level (s <-> a, none <-> none).
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


#: One state table per point group, in ``_level_table`` order, so that every
#: table is a prefix of the next larger one.  A table is a numpy object array,
#: so that a line list gathers its states by index in C.  It holds the state
#: of every level of the largest level table built so far.  A table grows by
#: rebinding a longer copy, never in place, so an array a caller holds never
#: changes length.
_state_tables: dict[PointGroup, np.ndarray] = {}
_state_tables_lock = threading.Lock()
_NO_STATES = np.empty(0, dtype=object)


def _shared_states(molecule: MoleculeSpec, table) -> np.ndarray:
    """The state table of the molecule's point group, covering ``table``:
    the state of every level of the largest table built so far, each built
    once per process, through the ``RotationalState`` constructor, when the
    table grows to reach it."""
    J, K, code = table
    with _state_tables_lock:
        states = _state_tables.get(molecule.point_group, _NO_STATES)
        if len(states) < len(J):
            grown = np.empty(len(J), dtype=object)
            grown[:len(states)] = states
            new = slice(len(states), len(J))
            labels = zip(J[new].tolist(), K[new].tolist(), code[new].tolist())
            for row, (j, k, c) in enumerate(labels, len(states)):
                grown[row] = RotationalState(j, k, _SPECIES[c])
            states = _state_tables[molecule.point_group] = grown
    return states


def _levels(molecule: MoleculeSpec, J, K, code):
    """Class (see ``classify._level_class``), energy and degeneracy (2J + 1,
    doubled for the +-K pair) of each level, elementwise; the s-component
    lies half the inversion splitting below the unsplit level, a half above.
    Energies that overflow are rejected."""
    half = 0.5 * (molecule.inversion_splitting_cm1 or 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        energy = _kernels.rot_energy_array(J, K, molecule.B_cm1, molecule.C_cm1)
        energy = energy + np.array([half, 0.0, -half])[code]
    if not np.isfinite(energy).all():
        raise ValueError(
            f"B_cm1 {molecule.B_cm1!r} and C_cm1 {molecule.C_cm1!r} are out of "
            f"range: level energies up to J = {np.max(J)} not finite"
        )
    return _level_class(J, K, code == _A), energy, (2 * J + 1) << (K != 0)


def _check_populated(z: float, ensemble: ThermalEnsemble):
    if z == 0:
        raise ValueError(
            f"partition function is 0 at temperature {ensemble.temperature} K: "
            f"no level up to jmax {ensemble.jmax} is populated"
        )


def _thermal_levels(molecule, table, ensemble, violation):
    """The class-pair population table, the class, energy and degeneracy of
    each level of ``table``, and the Boltzmann factors and the partition
    function of its levels up to jmax, summed in table order: Z's one sum."""
    T = ensemble.temperature
    pair_pop = _pair_populations(molecule, violation.beta)
    cls, energy, deg = levels = _levels(molecule, *table)
    lower = slice(np.searchsorted(table[0], ensemble.jmax, side="right"))
    boltz = _boltzmann(energy[lower], T)
    with np.errstate(over="ignore"):
        z = float(np.dot(np.diagonal(pair_pop)[cls[lower]] * deg[lower], boltz))
    _check_finite(z, T, "the partition function")
    return pair_pop, levels, boltz, z


def _check_inputs(molecule, ensemble, violation):
    _check_type(molecule, MoleculeSpec, "molecule")
    _check_type(ensemble, ThermalEnsemble, "ensemble")
    _check_type(violation, ViolationModel, "violation")


def partition_function(
    molecule: MoleculeSpec,
    ensemble: ThermalEnsemble,
    violation: ViolationModel = ViolationModel(),
) -> float:
    """Sum of unnormalized level populations up to the ensemble's jmax."""
    _check_inputs(molecule, ensemble, violation)
    table = _level_table(molecule, ensemble.jmax)
    return _thermal_levels(molecule, table, ensemble, violation)[3]


def state_population(
    molecule: MoleculeSpec,
    state: RotationalState,
    ensemble: ThermalEnsemble,
    violation: ViolationModel = ViolationModel(),
) -> float:
    """Fractional thermal population of one (J, K, species) level of the
    ensemble: J at most its jmax, and a species the molecule's levels carry."""
    _check_inputs(molecule, ensemble, violation)
    _check_type(state, RotationalState, "state")
    _check_species(molecule, state.species)
    if state.J > ensemble.jmax:
        raise ValueError(f"J must be at most jmax {ensemble.jmax}, got {state.J}")
    table = _level_table(molecule, ensemble.jmax)
    pair_pop, _, _, z = _thermal_levels(molecule, table, ensemble, violation)
    _check_populated(z, ensemble)
    code = _SPECIES.index(state.species)
    cls, energy, deg = _levels(molecule, state.J, abs(state.K), code)
    weight = np.diagonal(pair_pop)[cls] * deg
    return float(weight * _boltzmann(energy, ensemble.temperature)) / z


@np.errstate(over="ignore", invalid="ignore")  # caught by the check on kept lines
def _line_columns(
    molecule: MoleculeSpec, band: Band, ensemble: ThermalEnsemble,
    violation: ViolationModel, normalization: str,
):
    """The level table to jmax + 1, the lines ``line_list`` keeps as columns
    (frequency, intensity, lower and upper row, SP and SS flags), and the
    order that sorts them.  The per-transition arrays are freed on return."""
    parallel = band.band_type is BandType.PARALLEL

    # Symmetry enters only through the (lower, upper) level-class pair: the
    # population factor and the forbidden flags.
    flags = [classify_state(J, K, molecule.nuclear_spin) for J, K in _CLASS_LEVELS]
    class_sp = np.array([f.sp_forbidden for f in flags])
    class_ss = np.array([f.ss_forbidden for f in flags])
    pair_sp = class_sp[:, None] | class_sp
    pair_ss = class_ss[:, None] | class_ss

    # Both ends of every transition are rows of one level table to jmax + 1.
    T, jmax = ensemble.temperature, ensemble.jmax
    J, K, code = table = _level_table(molecule, jmax + 1)
    pair_pop, (cls, energy, deg), boltz, z = _thermal_levels(
        molecule, table, ensemble, violation
    )
    _check_populated(z, ensemble)
    row = np.zeros((jmax + 2, jmax + 2, 3), dtype=np.intp)  # (J, K, code) -> row
    row[table] = np.arange(len(J))
    j, k = J[:len(boltz)], K[:len(boltz)]  # the lower levels, J <= jmax
    branches = [(dj, dk) for dj in (1, 0, -1) for dk in ((0,) if parallel else (1, -1))]
    picks = [  # 0 <= K_up <= J_up, and no 0 <- 0
        np.flatnonzero((k + dk >= 0) & (k + dk <= j + dj) & ((j > 0) | (dj > 0)))
        for dj, dk in branches
    ]
    lo = np.concatenate(picks)
    dj, dk = np.repeat(np.transpose(branches), [len(p) for p in picks], axis=1)
    up = row[J[lo] + dj, K[lo] + dk, 2 - code[lo]]

    pop = pair_pop[cls[lo], cls[up]]
    freq = band.origin_cm1 + energy[up] - energy[lo]
    hl = _kernels.honl_london_array(J[lo], K[lo], dj, dk, parallel)
    intensity = pop * deg[lo] * boltz[lo] * hl
    keep = (pop != 0) & ~(intensity <= 0) & ~(freq <= 0)

    lo, up, freq, intensity = lo[keep], up[keep], freq[keep], intensity[keep]
    if not np.isfinite(freq).all():  # the origin plus a level difference overflows
        raise ValueError(
            f"band {band.name!r}: origin_cm1 {band.origin_cm1!r} is out of range: "
            f"line frequencies not finite"
        )
    pair = (cls[lo], cls[up])
    sp, ss = pair_sp[pair], pair_ss[pair]
    if normalization == "total":
        intensity = intensity / z
    elif normalization == "max":
        allowed = ~(sp | ss)
        if allowed.any():  # without allowed lines there is no reference; keep raw
            intensity = intensity / intensity[allowed].max()
    _check_finite(intensity, T, "line intensities")

    # Frequency ties go by table row, lower level first.  Rows are in label
    # order but for the s and a rows of a C3v pair, so the lower row swaps
    # within its pair; the upper species follows from the lower one.
    rank_lo = lo ^ 1 if molecule.point_group is PointGroup.C3V else lo
    order = np.lexsort((rank_lo * len(J) + up, freq))
    return table, (freq, intensity, lo, up, sp, ss), order


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
    _check_inputs(molecule, ensemble, violation)
    if isinstance(band, str):
        band = molecule.band(band)
    elif band not in molecule.bands:
        name = band.name if isinstance(band, Band) else band
        raise KeyError(f"band {name!r} does not belong to {molecule.name!r}")
    if normalization not in ("max", "total", "none"):
        raise ValueError(f"unknown normalization mode {normalization!r}")
    table, columns, order = _line_columns(
        molecule, band, ensemble, violation, normalization
    )
    freq, intensity, lo, up, sp, ss = columns
    # Every record holds states, so the collector tracks each one; left on,
    # it would scan the growing list again and again while it is built.
    enabled = gc.isenabled()
    gc.disable()
    try:
        states = _shared_states(molecule, table)
        # Sorting one column at a time keeps a single sorted copy alive; the
        # states of each line's rows are gathered from the table in C.
        freq, intensity, sp, ss = (
            column[order].tolist() for column in (freq, intensity, sp, ss)
        )
        lower, upper = (states[rows[order]].tolist() for rows in (lo, up))
        return list(map(_new_line, zip(
            repeat(band.name), freq, intensity, lower, upper, sp, ss
        )))
    finally:
        if enabled:
            gc.enable()


CSV_HEADER = (
    "band,freq_cm1,intensity,J_lo,K_lo,species_lo,J_up,K_up,species_up,"
    "sp_forbidden,ss_forbidden"
)

#: The one float format of both renderings: 10 significant digits.
_FLOAT = "%.10g"
#: A JSON row in ``json.dumps(..., indent=2)`` layout, one slot per
#: ``CSV_HEADER`` field; the species slots are quoted, the band and the
#: floats are filled in as JSON text.
_JSON_ROW = "  {\n%s\n  }" % ",\n".join(
    f'    "{name}": ' + ('"%s"' if name.startswith("species") else "%s")
    for name in CSV_HEADER.split(",")
)
#: A text row: frequency, intensity, both states and the forbidden tags.
_TEXT_ROW = "%12.4f cm-1  I=%.4e  J%s K%s %s -> J%s K%s %s%s%s"


def _json_number(x: float) -> str:
    """The JSON number of a float's CSV string; ``json.dumps`` writes the
    non-finite ones (a string such as 1.797693135e+308 reads as inf)."""
    number = float(_FLOAT % x)
    return repr(number) if number - number == 0 else json.dumps(number)


# The JSON and text writers read ``species._value_``, the enum's documented
# sunder attribute: ``.value`` is a Python-level property.


def linelist_csv(lines: Iterable[SpectralLine]) -> str:
    """Byte-deterministic CSV rendering, floats at 10 significant digits."""
    lines = lines if isinstance(lines, list) else list(lines)
    if not lines:
        return CSV_HEADER + "\n"
    from . import _csv_matrix  # loaded by a process's first CSV

    return f"{CSV_HEADER}\n{_csv_matrix.csv_body(lines)}"


def linelist_json(lines: Iterable[SpectralLine]) -> str:
    """JSON mirror of the CSV schema: each row's CSV fields, typed (numbers
    for the floats and for J and K, booleans for the flags), laid out as
    ``json.dumps(rows, indent=2)`` lays them out."""
    names = {}  # id(band) -> (band, its JSON text); the entry keeps band alive

    def band_name(band):
        entry = names.get(id(band))
        if entry is None:
            _check_band_name(band)
            entry = names[id(band)] = band, json.dumps(band)
        return entry[1]

    rows = [
        _JSON_ROW % (
            band_name(band), _json_number(f), _json_number(i),
            lo.J, lo.K, lo.species._value_, up.J, up.K, up.species._value_,
            "true" if sp else "false", "true" if ss else "false",
        )
        for band, f, i, lo, up, sp, ss in lines
    ]
    return "[\n%s\n]\n" % ",\n".join(rows) if rows else "[]\n"


def linelist_text(lines: Iterable[SpectralLine]) -> str:
    """One line per row: frequency, intensity, the lower and the upper
    state, and an [SP] or [SS] tag for each rule that forbids the line."""
    rows = [
        _TEXT_ROW % (f, i, lo.J, lo.K, lo.species._value_,
                     up.J, up.K, up.species._value_,
                     "  [SP]" if sp else "", "  [SS]" if ss else "")
        for _, f, i, lo, up, sp, ss in lines
    ]
    return "\n".join(rows) + ("\n" if rows else "")
