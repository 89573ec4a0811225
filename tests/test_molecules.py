"""Tests for molecule specs and the YAML config format."""

import dataclasses
import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisym.classify import RotationalState
from trisym.molecules import (
    Band,
    BandType,
    MoleculeSpec,
    PointGroup,
    dump_molecule,
    get_molecule,
    loads_molecule,
    shipped_molecules,
)
from trisym.spectrum import ThermalEnsemble, ViolationModel, line_list, linelist_csv

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


_POSITIVE_FLOATS = st.floats(min_value=0, exclude_min=True, allow_infinity=False)
#: Positive finite reals of every type the constructors take.
_POSITIVE = st.one_of(
    _POSITIVE_FLOATS,
    _POSITIVE_FLOATS.map(np.float64),
    st.floats(min_value=0, exclude_min=True, allow_infinity=False,
              width=32).map(np.float32),
    st.integers(min_value=1, max_value=2**1000),
    st.fractions(min_value=0, max_value=10**9).filter(bool),
)
#: Any text, and names that a YAML reader takes for other types unless quoted.
_NAMES = st.one_of(st.text(), st.sampled_from(
    ["1e3", ".5E1", "1.0e308", "-2e-3", "0", "0x1f", "true", "null", "~", ".nan"]))
_BAND_NAMES = st.lists(_NAMES.filter(lambda n: not set(n) & set(',"\r\n\0')),
                       min_size=1, max_size=3, unique=True)


@st.composite
def valid_specs(draw):
    """Any spec the constructors accept: constants and origins of any real
    type, a Fraction spin."""
    c3v = draw(st.booleans())
    bands = tuple(Band(name, draw(_POSITIVE), draw(st.sampled_from(list(BandType))))
                  for name in draw(_BAND_NAMES))
    return MoleculeSpec(
        name=draw(_NAMES),
        point_group=PointGroup.C3V if c3v else PointGroup.D3H,
        nuclear_spin=draw(st.sampled_from([Fraction(0), Fraction(1, 2)])),
        B_cm1=draw(_POSITIVE),
        C_cm1=draw(_POSITIVE),
        bands=bands,
        inversion_splitting_cm1=(
            draw(st.one_of(_POSITIVE, st.sampled_from([0, 0.0, Fraction(0)])))
            if c3v else None
        ),
    )


@settings(deadline=None, derandomize=True, max_examples=200)
@given(st.one_of(st.sampled_from([get_molecule(n) for n in shipped_molecules()]),
                 valid_specs()))
def test_dump_round_trips_every_valid_spec(spec):
    # a Fraction or numpy float constant was once kept as given, and the
    # dumper raised yaml's RepresenterError on it
    numbers = [spec.B_cm1, spec.C_cm1, *(b.origin_cm1 for b in spec.bands)]
    if spec.inversion_splitting_cm1 is not None:
        numbers.append(spec.inversion_splitting_cm1)
    assert {type(x) for x in numbers} == {float}
    assert loads_molecule(dump_molecule(spec)) == spec


@pytest.mark.parametrize("origin", [Fraction(498), np.float32(498), 498])
def test_origin_of_any_real_type_gives_the_float_csv(origin):
    # a Fraction origin once made object-dtype frequencies, and line_list
    # raised numpy's TypeError from isfinite
    so3 = get_molecule("so3")

    def csv(value):
        molecule = dataclasses.replace(
            so3, bands=(Band("nu2", value, BandType.PARALLEL),))
        return linelist_csv(line_list(molecule, "nu2", ThermalEnsemble(296.0, 10),
                                      ViolationModel(1e-6)))

    assert csv(origin) == csv(498.0)


@pytest.mark.parametrize("value,number", [
    ("1.0e308", 1.0e308), ("1e-3", 1e-3), ("2.5E3", 2500.0), (".5e1", 5.0),
    ("+1e2", 100.0), ("1.0e+308", 1.0e308),
])
def test_yaml_1_2_floats(value, number):
    # an exponent without a sign or a dot once read as a string and was rejected
    spec = loads_molecule(MINIMAL.replace("B_cm1: 1.0", f"B_cm1: {value}"))
    assert spec.B_cm1 == number


@pytest.mark.parametrize("value", ['"1e-3"', "'1.0e308'"])
def test_quoted_exponent_stays_a_string(value):
    with pytest.raises(ValueError, match="B_cm1 must be a finite number"):
        loads_molecule(MINIMAL.replace("B_cm1: 1.0", f"B_cm1: {value}"))


def test_load_from_path(tmp_path):
    path = tmp_path / "toy.yaml"
    path.write_text(MINIMAL)
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
        *[(text, "^molecule config must be a mapping$")
          for text in ("7", "- name: toy\n- B_cm1: 1.0\n", "")],
        *[(MINIMAL + f"  - {band}\n",
           r"^bands\[1\]: expected fields name, origin_cm1, type$")
          for band in ("{name: nu2, origin_cm1: 500.0}",
                       "{name: nu2, origin_cm1: 500.0, type: parallel, zeta: 0.1}")],
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


# each of these once reached the CSV unquoted: extra fields or split rows
CSV_BREAKING_NAMES = {"comma": "nu,2", "quote": 'nu"2', "lf": "nu\n2", "cr": "nu\r2"}


@pytest.mark.parametrize(
    "name", [*CSV_BREAKING_NAMES.values(), 1], ids=[*CSV_BREAKING_NAMES, "int"]
)
def test_band_name_must_be_a_csv_safe_string(name):
    with pytest.raises(ValueError, match="name must be a string without"):
        Band(name, 1000.0, BandType.PARALLEL)


@pytest.mark.parametrize(
    "text,field",
    [
        (MINIMAL.split("bands:")[0] + "bands: null", "bands"),
        (MINIMAL.replace("B_cm1: 1.0", "B_cm1: [1]"), "B_cm1"),
        (MINIMAL.replace("C_cm1: 0.5", "C_cm1: {a: 1}"), "C_cm1"),
        (MINIMAL.replace("1000.0", "[1]"), r"bands\[0\]\.origin_cm1"),
        (MINIMAL.replace("B_cm1: 1.0", "B_cm1: .nan"), "B_cm1"),
        (MINIMAL.replace("D3h", "[D3h"), "invalid YAML"),
        (MINIMAL.replace("B_cm1: 1.0", "B_cm1: true"), "B_cm1"),
        (MINIMAL.replace("1000.0", "false"), r"bands\[0\]\.origin_cm1"),
        (MINIMAL.replace("D3h", "C3v") + "inversion_splitting_cm1: true",
         "inversion_splitting_cm1"),
        (MINIMAL.replace("name: nu1", "name: [1, 2]"), r"bands\[0\]\.name"),
        (MINIMAL.replace("name: toy", "name: 7"), "name: expected a string"),
        *[(MINIMAL.replace("name: nu1", f"name: {json.dumps(name)}"),
           re.escape(f"band {name!r}: name must be a string without"))
          for name in CSV_BREAKING_NAMES.values()],
    ],
    ids=["bands-null", "B-list", "C-mapping", "origin-list", "B-nan", "syntax",
         "B-bool", "origin-bool", "splitting-bool", "band-name-list", "name-int",
         *[f"band-name-{kind}" for kind in CSV_BREAKING_NAMES]],
)
def test_malformed_yaml_names_the_field(text, field):
    with pytest.raises(ValueError, match=field):
        loads_molecule(text)


def test_duplicate_band_names_rejected():
    text = MINIMAL + "  - {name: nu1, origin_cm1: 500.0, type: parallel}\n"
    with pytest.raises(ValueError, match="bands: band names must be unique"):
        loads_molecule(text)



# One number rule and one enum-type rule behind every input.  Each of these
# once got through somewhere: True read as 1.0, "1" as a bare TypeError or a
# coerced 1.0, 10**400 as an OverflowError, an enum value as another member.
BAD_NUMBERS = {"bool": (True, "true"), "str": ("1", '"1"'),
               "huge": (10**400, str(10**400)), "nan": (NAN, ".nan"),
               "inf": (INF, ".inf")}
SPEC = dict(name="x", point_group=PointGroup.D3H, nuclear_spin=Fraction(0),
            B_cm1=1.0, C_cm1=0.5, bands=(Band("b", 1.0, BandType.PARALLEL),))
C3V_SPEC = dict(SPEC, point_group=PointGroup.C3V, inversion_splitting_cm1=0.8)
C3V_TEXT = MINIMAL.replace("D3h", "C3v") + "inversion_splitting_cm1: 0.8\n"
NUMBER_FIELDS = {
    "temperature": lambda v: ThermalEnsemble(v),
    "beta": lambda v: ViolationModel(v),
    "B_cm1": lambda v: MoleculeSpec(**dict(SPEC, B_cm1=v)),
    "C_cm1": lambda v: MoleculeSpec(**dict(SPEC, C_cm1=v)),
    "inversion_splitting_cm1":
        lambda v: MoleculeSpec(**dict(C3V_SPEC, inversion_splitting_cm1=v)),
    "origin_cm1": lambda v: Band("b", v, BandType.PARALLEL),
}
YAML_FIELDS = {
    "B_cm1": ("B_cm1: 1.0", MINIMAL),
    "C_cm1": ("C_cm1: 0.5", MINIMAL),
    "inversion_splitting_cm1": ("inversion_splitting_cm1: 0.8", C3V_TEXT),
    "bands[0].origin_cm1": ("origin_cm1: 1000.0", MINIMAL),
}


@pytest.mark.parametrize("kind", BAD_NUMBERS)
@pytest.mark.parametrize("field", NUMBER_FIELDS)
def test_every_number_field_rejects_non_numbers(field, kind):
    with pytest.raises(ValueError, match=field):
        NUMBER_FIELDS[field](BAD_NUMBERS[kind][0])


@pytest.mark.parametrize("kind", BAD_NUMBERS)
@pytest.mark.parametrize("field", YAML_FIELDS)
def test_every_yaml_number_rejects_non_numbers(field, kind):
    line, text = YAML_FIELDS[field]
    key = line.split(":")[0]
    with pytest.raises(ValueError, match=re.escape(field)):
        loads_molecule(text.replace(line, f"{key}: {BAD_NUMBERS[kind][1]}"))


@pytest.mark.parametrize("field,make", [
    ("species", lambda: RotationalState(1, 0, "s")),
    ("point_group", lambda: MoleculeSpec(**dict(C3V_SPEC, point_group="C3v"))),
    ("band_type", lambda: Band("nu2", 498.0, "parallel")),
], ids=["species", "point_group", "band_type"])
def test_every_enum_field_rejects_its_value_as_a_string(field, make):
    # "parallel" was once read as perpendicular, "C3v" as D3h
    with pytest.raises(ValueError, match=field):
        make()


@pytest.mark.parametrize("spin", ["0.5", '"2/4"', "0", '"0.0"', "true"])
def test_nuclear_spin_is_a_literal_string(spin):
    # 0.5 and "2/4" once loaded as 1/2 through Fraction(str(x))
    with pytest.raises(ValueError, match="nuclear_spin"):
        loads_molecule(MINIMAL.replace('"0"', spin))


@pytest.mark.parametrize("bands,field", [
    ([Band("b", 1.0, BandType.PARALLEL)], "bands"),
    ((Band("b", 1.0, BandType.PARALLEL), "nu2"), r"bands\[1\]"),
])
def test_bands_must_be_a_tuple_of_band(bands, field):
    # a list once passed, and partition_function then raised a bare
    # TypeError (unhashable type: 'list') from its cache
    with pytest.raises(ValueError, match=f"^{field} must be of type"):
        MoleculeSpec(**dict(SPEC, bands=bands))


@pytest.mark.parametrize("spin", [0, 0.0, 0.5, np.float64(0.5)])
def test_nuclear_spin_must_be_a_fraction(spin):
    # 0.0 once passed and dumped as '0.0', which loads_molecule rejects
    with pytest.raises(ValueError, match="^nuclear_spin must be of type Fraction"):
        MoleculeSpec(**dict(SPEC, nuclear_spin=spin))


@pytest.mark.parametrize("name", [5, None, b"x"])
def test_molecule_name_must_be_a_string(name):
    # once accepted and dumped, and the dump then failed to load
    message = f"name: expected a string, got {name!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        MoleculeSpec(**dict(SPEC, name=name))
