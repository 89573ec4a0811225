"""Direct measurements of single layers for the traced run.

Each probe times the benchmark's own calls into one public layer on seeded
inputs, so its number does not depend on how the workload loop went.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
import tracemalloc


def _median_ms(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def get_molecule_ms(names, reps=5):
    """Median milliseconds per ``get_molecule`` (YAML read and parse)."""
    from trisym.molecules import get_molecule

    times = []
    for _ in range(reps):
        for name in names:
            t0 = time.perf_counter()
            get_molecule(name)
            times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def decompose_us(seed, calls=2000, batches=5):
    """Median microseconds per ``decompose`` of a random complex 6-vector."""
    import numpy as np
    from trisym import group_algebra

    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(calls, 6)) + 1j * rng.normal(size=(calls, 6))
    per = calls // batches
    times = []
    for b in range(batches):
        t0 = time.perf_counter()
        for v in vectors[b * per:(b + 1) * per]:
            group_algebra.decompose(v)
        times.append((time.perf_counter() - t0) / per)
    return statistics.median(times) * 1e6


def classify_us(specs, jmax):
    """Microseconds per ``classify_state`` and per ``sector_weights`` over
    every (J, K, species) level with J <= jmax + 1, and the level count."""
    from trisym.classify import InversionSpecies, classify_state, sector_weights
    from trisym.molecules import PointGroup

    levels = []
    for spec in specs.values():
        species = ((InversionSpecies.S, InversionSpecies.A)
                   if spec.point_group is PointGroup.C3V
                   else (InversionSpecies.NONE,))
        levels += [(J, K, spec.nuclear_spin, s)
                   for J in range(jmax + 2) for K in range(J + 1) for s in species]
    out = []
    for fn in (classify_state, sector_weights):
        t0 = time.perf_counter()
        for level in levels:
            fn(*level)
        out.append((time.perf_counter() - t0) / len(levels) * 1e6)
    return out[0], out[1], len(levels)


def kernels_ms(n, seed, reps=5):
    """Median milliseconds for the three array kernels on ``n`` lines."""
    import numpy as np
    from trisym import _kernels

    rng = np.random.default_rng(seed)
    j = rng.integers(0, 121, n)
    k = (rng.random(n) * (j + 1)).astype(np.int64)
    dj = rng.integers(-1, 2, n)
    dk = rng.choice([-1, 1], n)

    def evaluate():
        energy = _kernels.rot_energy_array(j, k, 1.0, 0.5)
        _kernels.honl_london_array(j, k, dj, dk, False)
        _kernels.boltzmann_array(energy, 205.7)

    evaluate()
    return _median_ms(evaluate, reps)


def import_ms(env, cwd, reps=3):
    """Median cumulative import time of ``trisym.cli`` and of numpy within
    it, in milliseconds, from ``python -X importtime``."""
    cli, numpy = [], []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import trisym.cli"],
            capture_output=True, text=True, env=env, cwd=cwd, timeout=60,
            check=True)
        cumulative = {}
        for row in proc.stderr.splitlines():
            parts = row.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1])
        cli.append(cumulative["trisym.cli"] / 1e3)
        numpy.append(cumulative.get("numpy", 0) / 1e3)
    return statistics.median(cli), statistics.median(numpy)


def alloc_peak_mb(fn):
    """Peak Python heap allocation of ``fn()``, in MB, from tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
