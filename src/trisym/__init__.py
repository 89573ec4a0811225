"""Permutation symmetry of three identical nuclei and synthetic line lists.

Subpackages:

- ``group_algebra``: exact S3 regular representation, projectors and the
  invariant-subspace decomposition of the 6-dimensional ordering space.
- ``classify``: assignment of rotational / nuclear-spin / inversion states
  to symmetry sectors and statistical weights.
- ``molecules``: molecule parameter specs and their YAML config format.
- ``spectrum``: rigid-rotor energies, thermal populations and line lists
  with a tunable symmetry-violation fraction beta.
- ``cli``: the ``trisym`` command-line front end.
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
from .spectrum import (
    SpectralLine,
    ThermalEnsemble,
    ViolationModel,
    line_list,
    partition_function,
    rot_energy,
    state_population,
)

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
