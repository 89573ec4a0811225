"""Tests for molecule specs and the YAML config format."""

from fractions import Fraction

import pytest

from trisym.molecules import (
    Band,
    BandType,
    MoleculeSpec,
    PointGroup,
    dump_molecule,
    get_molecule,
    load_molecule,
    loads_molecule,
    shipped_molecules,
)

MINIMAL = """
name: toy
point_group: D3h
nuclear_spin: "0"
B_cm1: 1.0
C_cm1: 0.5
bands:
  - {name: nu1, origin_cm1: 1000.0, type: parallel}
"""


def test_loads_minimal():
    spec = loads_molecule(MINIMAL)
    assert spec.name == "toy"
    assert spec.point_group is PointGroup.D3H
    assert spec.nuclear_spin == Fraction(0)
    assert spec.B_cm1 == 1.0
    assert spec.C_cm1 == 0.5
    assert spec.inversion_splitting_cm1 is None
    assert spec.bands == (Band("nu1", 1000.0, BandType.PARALLEL),)


def test_spec_is_hashable():
    hash(loads_molecule(MINIMAL))


def test_shipped_set():
    names = shipped_molecules()
    for expected in ("so3", "bh3", "nh3", "fixture"):
        assert expected in names


def test_shipped_so3():
    so3 = get_molecule("so3")
    assert so3.point_group is PointGroup.D3H
    assert so3.nuclear_spin == Fraction(0)
    origins = {b.name: b.origin_cm1 for b in so3.bands}
    assert origins["nu1"] == 1065.0
    assert origins["nu2"] == 498.0
    assert origins["nu3"] == 1391.0
    assert origins["nu4"] == 530.0
    assert so3.band("nu2").band_type is BandType.PARALLEL
    assert so3.band("nu3").band_type is BandType.PERPENDICULAR


def test_shipped_bh3():
    bh3 = get_molecule("bh3")
    assert bh3.point_group is PointGroup.D3H
    assert bh3.nuclear_spin == Fraction(1, 2)
    origins = {b.name: b.origin_cm1 for b in bh3.bands}
    assert origins["nu2"] == 1125.0
    assert origins["nu3"] == 2828.0
    assert origins["nu4"] == 1640.0


def test_shipped_nh3():
    nh3 = get_molecule("nh3")
    assert nh3.point_group is PointGroup.C3V
    assert nh3.nuclear_spin == Fraction(1, 2)
    assert nh3.inversion_splitting_cm1 is not None
    origins = {b.name: b.origin_cm1 for b in nh3.bands}
    assert origins["nu1"] == 3337.0
    assert origins["nu2"] == 950.0
    assert origins["nu3"] == 3444.0
    assert origins["nu4"] == 1627.0


def test_round_trip_all_shipped():
    for name in shipped_molecules():
        spec = get_molecule(name)
        assert loads_molecule(dump_molecule(spec)) == spec


def test_load_from_path(tmp_path):
    path = tmp_path / "toy.yaml"
    path.write_text(MINIMAL)
    assert load_molecule(path) == loads_molecule(MINIMAL)
    assert get_molecule(str(path)) == loads_molecule(MINIMAL)


def test_unknown_molecule_name():
    with pytest.raises(KeyError, match="unknown molecule"):
        get_molecule("xy3")


def test_unknown_band_name():
    with pytest.raises(KeyError, match="unknown band"):
        get_molecule("so3").band("nu9")


@pytest.mark.parametrize(
    "mutation,message",
    [
        ("name: toy", "missing config fields"),
        (MINIMAL + "extra_field: 1", "unknown config fields"),
        (MINIMAL.replace("D3h", "Oh"), "point_group"),
        (MINIMAL.replace('"0"', '"1"'), "nuclear_spin"),
        (MINIMAL.replace("B_cm1: 1.0", "B_cm1: -1.0"), "B_cm1"),
        (MINIMAL.replace("C_cm1: 0.5", "C_cm1: 0"), "C_cm1"),
        (MINIMAL.replace("origin_cm1: 1000.0", "origin_cm1: -5"), "origin_cm1"),
        (MINIMAL.replace("parallel", "sideways"), "type"),
        (MINIMAL + "inversion_splitting_cm1: 0.8", "C3v"),
    ],
)
def test_validation_errors_name_the_field(mutation, message):
    with pytest.raises(ValueError, match=message):
        loads_molecule(mutation)


def test_c3v_requires_splitting():
    text = MINIMAL.replace("D3h", "C3v")
    with pytest.raises(ValueError, match="inversion_splitting_cm1"):
        loads_molecule(text)
    spec = loads_molecule(text + "inversion_splitting_cm1: 0.8")
    assert spec.inversion_splitting_cm1 == 0.8


def test_bands_required():
    with pytest.raises(ValueError, match="band"):
        MoleculeSpec(
            name="x",
            point_group=PointGroup.D3H,
            nuclear_spin=Fraction(0),
            B_cm1=1.0,
            C_cm1=0.5,
            bands=(),
        )


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("value", [NAN, INF])
@pytest.mark.parametrize("field", ["B_cm1", "C_cm1"])
def test_rotational_constants_must_be_finite(field, value):
    kwargs = dict(name="x", point_group=PointGroup.D3H, nuclear_spin=Fraction(0),
                  B_cm1=1.0, C_cm1=0.5, bands=(Band("b", 1.0, BandType.PARALLEL),))
    with pytest.raises(ValueError, match=field):
        MoleculeSpec(**dict(kwargs, **{field: value}))


@pytest.mark.parametrize("value", [NAN, INF])
def test_splitting_and_origin_must_be_finite(value):
    with pytest.raises(ValueError, match="origin_cm1"):
        Band("b", value, BandType.PARALLEL)
    text = MINIMAL.replace("D3h", "C3v") + f"inversion_splitting_cm1: {value}"
    with pytest.raises(ValueError, match="inversion_splitting_cm1"):
        loads_molecule(text)


@pytest.mark.parametrize(
    "text,field",
    [
        (MINIMAL.split("bands:")[0] + "bands: null", "bands"),
        (MINIMAL.replace("B_cm1: 1.0", "B_cm1: [1]"), "B_cm1"),
        (MINIMAL.replace("C_cm1: 0.5", "C_cm1: {a: 1}"), "C_cm1"),
        (MINIMAL.replace("1000.0", "[1]"), r"bands\[0\]\.origin_cm1"),
        (MINIMAL.replace("B_cm1: 1.0", "B_cm1: .nan"), "B_cm1"),
        (MINIMAL.replace("D3h", "[D3h"), "invalid YAML"),
    ],
    ids=["bands-null", "B-list", "C-mapping", "origin-list", "B-nan", "syntax"],
)
def test_malformed_yaml_names_the_field(text, field):
    with pytest.raises(ValueError, match=field):
        loads_molecule(text)


def test_duplicate_band_names_rejected():
    text = MINIMAL + "  - {name: nu1, origin_cm1: 500.0, type: parallel}\n"
    with pytest.raises(ValueError, match="bands: band names must be unique"):
        loads_molecule(text)
