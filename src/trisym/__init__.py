"""Permutation symmetry of three identical nuclei and synthetic line lists.

Modules:

- ``group_algebra``: exact S3 regular representation, projectors and the
  invariant-subspace decomposition of the 6-dimensional ordering space.
- ``classify``: assignment of rotational / nuclear-spin / inversion states
  to symmetry sectors and statistical weights.
- ``molecules``: molecule parameter specs and their YAML config format.
- ``spectrum``: rigid-rotor energies, thermal populations and line lists
  with a tunable symmetry-violation fraction beta.
- ``cli``: the ``trisym`` command-line front end.

``import trisym`` loads no numpy.  The seven ``spectrum`` names exported
here (``SpectralLine``, ``ThermalEnsemble``, ``ViolationModel``,
``line_list``, ``partition_function``, ``rot_energy`` and
``state_population``) are resolved on first access, which imports
``spectrum`` and numpy with it.
"""

from .classify import (
    ForbiddenBy,
    InversionSpecies,
    RotationalState,
    SymmetryAssignment,
    classify_state,
    spin_statistical_weight,
)
from .group_algebra import Permutation, SubspaceLabel
from .molecules import Band, BandType, MoleculeSpec, PointGroup, get_molecule

_SPECTRUM = (
    "SpectralLine",
    "ThermalEnsemble",
    "ViolationModel",
    "line_list",
    "partition_function",
    "rot_energy",
    "state_population",
)


def __getattr__(name: str):
    """A ``spectrum`` name on its first access (PEP 562), then kept here."""
    if name not in _SPECTRUM:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import spectrum

    return globals().setdefault(name, getattr(spectrum, name))


__version__ = "0.1.0"

__all__ = [
    "Band",
    "BandType",
    "ForbiddenBy",
    "InversionSpecies",
    "MoleculeSpec",
    "Permutation",
    "PointGroup",
    "RotationalState",
    "SpectralLine",
    "SubspaceLabel",
    "SymmetryAssignment",
    "ThermalEnsemble",
    "ViolationModel",
    "classify_state",
    "get_molecule",
    "line_list",
    "partition_function",
    "rot_energy",
    "spin_statistical_weight",
    "state_population",
    "__version__",
]
