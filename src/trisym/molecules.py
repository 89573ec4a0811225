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
C3v molecules.  The rotational constants shipped with the package are
placeholder fixture values for exercising the machinery, not measured
molecular constants.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from importlib import resources
from pathlib import Path

import yaml

from .classify import _check_spin

__all__ = [
    "PointGroup",
    "BandType",
    "Band",
    "MoleculeSpec",
    "load_molecule",
    "loads_molecule",
    "dump_molecule",
    "get_molecule",
    "shipped_molecules",
]


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
        # the name is written unquoted into every CSV row
        if not isinstance(self.name, str) or any(c in self.name for c in ',"\r\n'):
            raise ValueError(
                f"band {self.name!r}: name must be a string without commas, "
                f"double quotes or line breaks"
            )
        if not (math.isfinite(self.origin_cm1) and self.origin_cm1 > 0):
            raise ValueError(
                f"band {self.name!r}: origin_cm1 must be finite and > 0, "
                f"got {self.origin_cm1}"
            )


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
        for field in ("B_cm1", "C_cm1"):
            value = getattr(self, field)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{field} must be finite and > 0, got {value}")
        _check_spin(self.nuclear_spin)
        if self.point_group is PointGroup.C3V:
            if self.inversion_splitting_cm1 is None:
                raise ValueError(
                    "inversion_splitting_cm1 is required for a C3v molecule"
                )
            split = self.inversion_splitting_cm1
            if not (math.isfinite(split) and split >= 0):
                raise ValueError(
                    f"inversion_splitting_cm1 must be finite and >= 0, got {split}"
                )
        elif self.inversion_splitting_cm1 is not None:
            raise ValueError(
                "inversion_splitting_cm1 is only meaningful for C3v molecules"
            )
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


def _spin_from_str(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"nuclear_spin: cannot parse {text!r}") from exc


def _number(value, field: str) -> float:
    if not isinstance(value, bool):  # YAML true/false would read as 1/0
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{field}: expected a number, got {value!r}")


def _string(value, field: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{field}: expected a string, got {value!r}")
    return value


def loads_molecule(text: str) -> MoleculeSpec:
    """Parse a molecule config from YAML text."""
    try:
        data = yaml.safe_load(text)
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
        origin = _number(raw["origin_cm1"], f"bands[{i}].origin_cm1")
        name = _string(raw["name"], f"bands[{i}].name")
        bands.append(Band(name, origin, band_type))
    inv = data.get("inversion_splitting_cm1")
    return MoleculeSpec(
        name=_string(data["name"], "name"),
        point_group=point_group,
        nuclear_spin=_spin_from_str(data["nuclear_spin"]),
        B_cm1=_number(data["B_cm1"], "B_cm1"),
        C_cm1=_number(data["C_cm1"], "C_cm1"),
        bands=tuple(bands),
        inversion_splitting_cm1=(
            None if inv is None else _number(inv, "inversion_splitting_cm1")
        ),
    )


def load_molecule(path) -> MoleculeSpec:
    """Load a molecule config from a file path."""
    return loads_molecule(Path(path).read_text())


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
    return yaml.safe_dump(data, sort_keys=False)


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
        return load_molecule(candidate)
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
