"""Molecule parameter specs and their on-disk YAML format.

A config file is a flat mapping plus a nested band list:

    name: so3
    point_group: D3h
    nuclear_spin: "0"
    B_cm1: 0.35
    C_cm1: 0.17
    bands:
      - {name: nu2, origin_cm1: 498.0, type: parallel}

``nuclear_spin`` is the literal string "0" or "1/2"; half-integers are never
floats in interfaces.  ``inversion_splitting_cm1`` is present exactly for
C3v molecules.  Numbers are read as YAML 1.2 reads them (``1e-3`` and
``1.0e308`` are floats), checked by the one rule in ``classify`` and never
coerced from another type: a quoted number, a bool or a value out of range
is rejected, and so is an enum field given its value instead of its member.
Every accepted number is stored as a Python float.  The
rotational constants shipped with the package are placeholder fixture
values for exercising the machinery, not measured molecular constants.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, fields
from fractions import Fraction
from importlib import resources
from pathlib import Path

import yaml

from .classify import InversionSpecies, _check_number, _check_spin, _check_type

__all__ = [
    "PointGroup",
    "BandType",
    "Band",
    "MoleculeSpec",
    "loads_molecule",
    "dump_molecule",
    "get_molecule",
    "shipped_molecules",
]


class _Loader(yaml.SafeLoader):
    """PyYAML's safe loader with the YAML 1.2 float rule added below."""


class _Dumper(yaml.SafeDumper):
    """PyYAML's safe dumper with the loader's float rule."""


# YAML 1.2 floats, which PyYAML's YAML 1.1 rules read as strings when the
# exponent has no sign or the mantissa no dot.  The dumper shares the rule,
# so it quotes a string such as "1e3" that the loader would read as a number.
for _cls in (_Loader, _Dumper):
    _cls.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
        list("-+0123456789."),
    )


class PointGroup(enum.Enum):
    D3H = "D3h"
    C3V = "C3v"


class BandType(enum.Enum):
    PARALLEL = "parallel"
    PERPENDICULAR = "perpendicular"


@dataclass(frozen=True)
class Band:
    name: str
    origin_cm1: float
    band_type: BandType

    def __post_init__(self):
        _check_band_name(self.name)
        _float_field(self, "origin_cm1", f"band {self.name!r}: origin_cm1")
        _check_type(self.band_type, BandType, f"band {self.name!r}: band_type")


@dataclass(frozen=True)
class MoleculeSpec:
    name: str
    point_group: PointGroup
    nuclear_spin: Fraction
    B_cm1: float
    C_cm1: float
    bands: tuple[Band, ...]
    inversion_splitting_cm1: float | None = None

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"name: expected a string, got {self.name!r}")
        _check_type(self.point_group, PointGroup, "point_group")
        _float_field(self, "B_cm1", "B_cm1")
        _float_field(self, "C_cm1", "C_cm1")
        _check_spin(self.nuclear_spin)
        _check_type(self.nuclear_spin, Fraction, "nuclear_spin")
        if self.point_group is PointGroup.C3V:
            if self.inversion_splitting_cm1 is None:
                raise ValueError(
                    "inversion_splitting_cm1 is required for a C3v molecule"
                )
            _float_field(
                self, "inversion_splitting_cm1", "inversion_splitting_cm1", zero=True
            )
        elif self.inversion_splitting_cm1 is not None:
            raise ValueError(
                "inversion_splitting_cm1 is only meaningful for C3v molecules"
            )
        _check_type(self.bands, tuple, "bands")
        for i, band in enumerate(self.bands):
            _check_type(band, Band, f"bands[{i}]")
        if not self.bands:
            raise ValueError("at least one band is required")
        names = [band.name for band in self.bands]
        if len(set(names)) != len(names):
            raise ValueError(f"bands: band names must be unique, got {names}")

    def band(self, name: str) -> Band:
        for band in self.bands:
            if band.name == name:
                return band
        known = ", ".join(b.name for b in self.bands)
        raise KeyError(f"unknown band {name!r} (shipped bands: {known})")


def _check_band_name(name) -> None:
    """The one band name rule, which the line-list writers apply to every
    distinct band they meet: the name is written unquoted into every CSV row,
    and NUL is the padding byte of the CSV writer's byte matrix."""
    if not isinstance(name, str) or any(c in name for c in ',"\r\n\0'):
        raise ValueError(
            f"band {name!r}: name must be a string without commas, "
            f"double quotes, line breaks or NULs"
        )


def _check_species(molecule: MoleculeSpec, species, field: str = "species"):
    """Reject a species that no level of the molecule carries."""
    _check_type(species, InversionSpecies, field)
    if (molecule.point_group is PointGroup.C3V) == (species is InversionSpecies.NONE):
        raise ValueError(
            f"{field} must be s or a for a C3v molecule and none for a D3h one; "
            f"{molecule.name!r} is {molecule.point_group._value_}, "
            f"got {species._value_!r}"
        )


def _float_field(spec, field: str, label: str, zero=False):
    """Check a number field of a frozen ``spec`` and store it as a Python
    float, the type the engine and the dumper assume.  float() is safe once
    checked: a huge int or Fraction is rejected first."""
    value = getattr(spec, field)
    _check_number(value, label, zero=zero)
    object.__setattr__(spec, field, float(value))


def loads_molecule(text: str) -> MoleculeSpec:
    """Parse a molecule config from YAML text."""
    try:
        data = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ValueError(f"invalid YAML: {' '.join(str(exc).split())}") from exc
    if not isinstance(data, dict):
        raise ValueError("molecule config must be a mapping")
    known = {field.name for field in fields(MoleculeSpec)}
    extra = set(data) - known
    if extra:
        raise ValueError(f"unknown config fields: {sorted(extra)}")
    missing = known - {"inversion_splitting_cm1"} - set(data)
    if missing:
        raise ValueError(f"missing config fields: {sorted(missing)}")
    try:
        point_group = PointGroup(data["point_group"])
    except ValueError as exc:
        raise ValueError(
            f"point_group: must be D3h or C3v, got {data['point_group']!r}"
        ) from exc
    if not isinstance(data["bands"], list):
        raise ValueError(f"bands: expected a list, got {data['bands']!r}")
    bands = []
    for i, raw in enumerate(data["bands"]):
        if not isinstance(raw, dict) or set(raw) != {"name", "origin_cm1", "type"}:
            raise ValueError(
                f"bands[{i}]: expected fields name, origin_cm1, type"
            )
        try:
            band_type = BandType(raw["type"])
        except ValueError as exc:
            raise ValueError(
                f"bands[{i}].type: must be parallel or perpendicular, "
                f"got {raw['type']!r}"
            ) from exc
        _check_number(raw["origin_cm1"], f"bands[{i}].origin_cm1")
        if not isinstance(raw["name"], str):
            raise ValueError(
                f"bands[{i}].name: expected a string, got {raw['name']!r}"
            )
        bands.append(Band(raw["name"], raw["origin_cm1"], band_type))
    spin = data["nuclear_spin"]
    if spin not in ("0", "1/2"):
        raise ValueError(
            f'nuclear_spin: must be the literal string "0" or "1/2", got {spin!r}'
        )
    return MoleculeSpec(
        name=data["name"],
        point_group=point_group,
        nuclear_spin=Fraction(spin),
        B_cm1=data["B_cm1"],
        C_cm1=data["C_cm1"],
        bands=tuple(bands),
        inversion_splitting_cm1=data.get("inversion_splitting_cm1"),
    )


def dump_molecule(spec: MoleculeSpec) -> str:
    """Serialize a spec back to YAML; round-trips through loads_molecule."""
    data: dict = {
        "name": spec.name,
        "point_group": spec.point_group.value,
        "nuclear_spin": str(spec.nuclear_spin),
        "B_cm1": spec.B_cm1,
        "C_cm1": spec.C_cm1,
    }
    if spec.inversion_splitting_cm1 is not None:
        data["inversion_splitting_cm1"] = spec.inversion_splitting_cm1
    data["bands"] = [
        {"name": b.name, "origin_cm1": b.origin_cm1, "type": b.band_type.value}
        for b in spec.bands
    ]
    return yaml.dump(data, Dumper=_Dumper, sort_keys=False)


def shipped_molecules() -> list[str]:
    """Names of the configs bundled with the package."""
    names = [
        p.name.removesuffix(".yaml")
        for p in resources.files("trisym.configs").iterdir()
        if p.name.endswith(".yaml")
    ]
    return sorted(names)


def get_molecule(name: str) -> MoleculeSpec:
    """Load a shipped config by name, or any config by file path."""
    candidate = Path(name)
    if candidate.suffix in (".yaml", ".yml") or candidate.exists():
        return loads_molecule(candidate.read_text())
    try:
        text = (
            resources.files("trisym.configs").joinpath(f"{name}.yaml").read_text()
        )
    except FileNotFoundError:
        known = ", ".join(shipped_molecules())
        raise KeyError(
            f"unknown molecule {name!r} (shipped configs: {known})"
        ) from None
    return loads_molecule(text)
