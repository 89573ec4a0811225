"""Numeric kernels for the spectrum engine.

All heavy per-line arithmetic (rigid-rotor energies, line-strength factors,
Boltzmann weights) lives here, operating on flat numpy arrays.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BACKEND",
    "rot_energy_array",
    "honl_london_array",
    "boltzmann_array",
]

BACKEND = "numpy"


def rot_energy_array(j, k, b, c):
    j = np.asarray(j, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    b, c = float(b), float(c)
    return b * j * (j + 1.0) - (b - c) * k * k


def honl_london_array(j, k, dj, dk, parallel):
    """Line-strength factors, vectorized.

    ``dk`` is the signed K change (0 for parallel bands); invalid branches
    (e.g. P or Q from J=0) come out as 0.
    """
    j = np.asarray(j, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    dj = np.asarray(dj, dtype=np.int64)
    dk = np.asarray(dk, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        if parallel:
            r = ((j + 1.0) ** 2 - k**2) / ((j + 1.0) * (2.0 * j + 1.0))
            q = k**2 / (j * (j + 1.0))
            p = (j**2 - k**2) / (j * (2.0 * j + 1.0))
        else:
            m = dk * k
            r = (j + 1.0 + m) * (j + 2.0 + m) / (2.0 * (j + 1.0) * (2.0 * j + 1.0))
            q = (j + 1.0 + m) * (j - m) / (2.0 * j * (j + 1.0))
            p = (j - m) * (j - 1.0 - m) / (2.0 * j * (2.0 * j + 1.0))
    q = np.where(j == 0, 0.0, q)
    p = np.where(j == 0, 0.0, p)
    out = np.where(dj == 1, r, np.where(dj == 0, q, p))
    return np.maximum(out, 0.0)


def boltzmann_array(energy, kt):
    return np.exp(-np.asarray(energy, dtype=np.float64) / float(kt))
