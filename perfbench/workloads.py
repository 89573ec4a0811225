"""The three workloads: seeded inputs, the timed call, and its output check.

Every workload is a closed loop with one caller: the next call starts only
after the previous one returned and was checked.  Inputs come in decks,
balanced lists of calls shuffled by the seed, and a run executes whole
decks, so two seeds run the same mix of work in a different order with
different draws inside each stratum.

Nothing here imports numpy or trisym at module level: ``setup`` does, and
``setup`` is what ``setup_s`` times.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

TEMPS = (150.0, 296.0, 500.0)
BETAS = (0.0, 1e-9, 1e-3, 0.3)
NORMS = ("max", "total", "none")

# band_large keeps beta > 0 so every seed keeps the same line count.
BAND_LARGE = {"molecule": "nh3", "band": "nu3", "normalization": "none",
              "betas": (1e-9, 1e-6, 1e-3), "jmax": {"full": 120, "tiny": 12}}
# Fixed case grid whose CSV must stay byte-identical to the recorded digests.
CANONICAL = {"betas": (0.0, 1e-9, 0.3), "temperature": 296.0,
             "jmax": {"full": 20, "tiny": 3}}
SWEEP_STRATA = {
    "full": ((10, 13), (14, 17), (18, 21), (22, 25), (26, 29), (30, 33),
             (34, 37), (38, 40)),
    "tiny": ((2, 3), (4, 5)),
}
CLI_JMAX = {"full": (10, 30), "tiny": (2, 4)}

KNOWN_DEFECTS = {
    "temp_nan": "linelist --temp nan prints NaN rows and exits 0 "
                "instead of exit 1 with a one-line diagnostic (ROADMAP item 4)",
}


def load_digests():
    with open(DIGESTS) as fh:
        return json.load(fh)


def band_large_key(temperature, beta):
    return f"T={temperature!r} beta={beta!r}"


def canonical_cases(molecules, size):
    """(molecule, band, beta, normalization, jmax) of the canonical grid."""
    jmax = CANONICAL["jmax"][size]
    for name, spec in molecules.items():
        for band in spec.bands:
            for beta in CANONICAL["betas"]:
                for norm in NORMS:
                    yield name, band.name, beta, norm, jmax


def canonical_key(name, band, beta, norm, jmax):
    return f"{name}/{band} beta={beta!r} norm={norm} jmax={jmax}"


def candidates(molecule, band, jmax):
    """Transitions the selection rules enumerate before any filtering:
    dJ in {-1, 0, +1} without 0 <- 0, dK = 0 (parallel) or +-1
    (perpendicular, only +1 from K = 0), K_up <= J_up, per species."""
    from trisym.molecules import BandType, PointGroup

    parallel = molecule.band(band).band_type is BandType.PARALLEL
    species = 2 if molecule.point_group is PointGroup.C3V else 1
    total = 0
    for J in range(jmax + 1):
        for K in range(J + 1):
            for dj in (1, 0, -1):
                J_up = J + dj
                if J_up < 0 or (J == 0 and J_up == 0):
                    continue
                dks = (0,) if parallel else ((1,) if K == 0 else (1, -1))
                total += sum(1 for dk in dks if K + dk <= J_up)
    return total * species


def render(spec, band, temperature, beta, norm, jmax):
    """One line list and its CSV: (lines, text, line_list s, csv s).  The
    functions are looked up at call time, so a traced run's wrappers apply."""
    from trisym import spectrum as sp

    t0 = time.perf_counter()
    lines = sp.line_list(
        spec, band, sp.ThermalEnsemble(temperature=temperature, jmax=jmax),
        sp.ViolationModel(beta=beta), normalization=norm,
    )
    t1 = time.perf_counter()
    text = sp.linelist_csv(lines)
    t2 = time.perf_counter()
    return lines, text, t1 - t0, t2 - t1


class Tally:
    """Checked operations; failures of a listed known defect count apart."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known = {name: {"failed": 0, "passed": 0} for name in KNOWN_DEFECTS}
        self.messages = []

    def record(self, what, failures, known=None):
        self.attempted += 1
        if known is not None:
            self.known[known]["failed" if failures else "passed"] += 1
        elif failures:
            self.failed += 1
        if failures and len(self.messages) < 10:
            label = f"known defect {known}" if known else "failure"
            self.messages.append(f"{label}: {what}: {'; '.join(failures[:3])}")


class BandLarge:
    name = "band_large"
    why = ("one large C3v perpendicular band, where per-transition work "
           "(symmetry lookups, per-line objects, sorting, CSV) dominates")

    def __init__(self, size):
        self.size = size
        self.jmax = BAND_LARGE["jmax"][size]
        self.digests = load_digests()["band_large"][size]
        self.checked = set()
        self.case = None

    def setup(self):
        from trisym import molecules

        self.molecule = molecules.get_molecule(BAND_LARGE["molecule"])
        self.render(296.0, BAND_LARGE["betas"][0])

    def render(self, temperature, beta):
        return render(self.molecule, BAND_LARGE["band"], temperature, beta,
                      BAND_LARGE["normalization"], self.jmax)

    def molecules(self):
        return {BAND_LARGE["molecule"]: self.molecule}

    def probe_jmax(self):
        return self.jmax

    def deck(self, rng):
        if self.case is None:  # one temperature and beta per run
            self.case = (rng.choice(TEMPS), rng.choice(BAND_LARGE["betas"]))
        return [self.case]

    def run(self, op, tally, tracer=None):
        lines, text, t_list, t_csv = self.render(*op)
        key = band_large_key(*op)
        found = checks.digest(text)
        failures = []
        if found != self.digests[key]:
            failures.append(f"csv digest {found[:12]} != recorded {self.digests[key][:12]}")
        elif found not in self.checked:  # identical bytes, identical verdict
            failures = checks.check_lines(lines) + checks.check_csv(text)
            if not failures:
                self.checked.add(found)
        tally.record(f"band_large {key}", failures)
        return {"t": t_list + t_csv, "linelist_s": t_list, "csv_s": t_csv,
                "lines": len(lines)}

    def finish(self, tally):
        pass

    def named(self, samples, summary):
        return {
            "lines_per_s": summary.median([s["lines"] / s["t"] for s in samples], "1/s"),
            "linelist_s": summary.median([s["linelist_s"] for s in samples], "s"),
            "csv_s": summary.median([s["csv_s"] for s in samples], "s"),
        }, "lines_per_s"


class SweepSmall:
    name = "sweep_small"
    why = ("a stream of small line lists over every shipped config and band, "
           "where per-call fixed cost, caches and the D3h and spin-0 paths show")

    def __init__(self, size):
        self.size = size
        self.strata = SWEEP_STRATA[size]
        self.canonical = load_digests()["canonical"][size]

    def setup(self):
        from trisym import molecules

        self.specs = {n: molecules.get_molecule(n)
                      for n in molecules.shipped_molecules()}
        top = self.strata[-1][1]
        for spec in self.specs.values():  # fill the per-level caches
            render(spec, spec.bands[0].name, 296.0, 1e-9, "max", top)

    def molecules(self):
        return self.specs

    def probe_jmax(self):
        return self.strata[-1][1]

    def deck(self, rng):
        bands = [(n, b.name) for n, spec in self.specs.items() for b in spec.bands]
        slots = [(n, b, lo, hi) for n, b in bands for lo, hi in self.strata]
        combos = list(itertools.product(BETAS, NORMS, TEMPS))
        combos *= -(-len(slots) // len(combos))
        rng.shuffle(combos)
        deck = [(n, b, t, beta, norm, rng.randint(lo, hi))
                for (n, b, lo, hi), (beta, norm, t) in zip(slots, combos)]
        rng.shuffle(deck)
        return deck

    def run(self, op, tally, tracer=None):
        name, band, temperature, beta, norm, jmax = op
        lines, text, t_list, t_csv = render(
            self.specs[name], band, temperature, beta, norm, jmax)
        tally.record(f"sweep_small {op}",
                     checks.check_lines(lines) + checks.check_csv(text))
        return {"t": t_list + t_csv, "linelist_s": t_list, "csv_s": t_csv,
                "lines": len(lines)}

    def finish(self, tally):
        """The canonical grid must render byte-identical CSV (untimed)."""
        for case in canonical_cases(self.specs, self.size):
            name, band, beta, norm, jmax = case
            _, text, _, _ = render(self.specs[name], band,
                                   CANONICAL["temperature"], beta, norm, jmax)
            key = canonical_key(*case)
            found = checks.digest(text)
            failures = [] if found == self.canonical[key] else [
                f"csv digest {found[:12]} != recorded {self.canonical[key][:12]}"]
            tally.record(f"canonical {key}", failures)

    def named(self, samples, summary):
        return {
            "calls_per_s": summary.rate_total(len(samples), [s["t"] for s in samples]),
            "linelist_s": summary.median([s["linelist_s"] for s in samples], "s"),
            "csv_s": summary.median([s["csv_s"] for s in samples], "s"),
        }, "calls_per_s"


# What the installed ``trisym`` console script runs.
CLI_MAIN = "from trisym.cli import main; main()"


def subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def spawn(cmd, env, tmp):
    """Run ``cmd`` from the checkout root to completion, its output going to
    files, and return its exit code, output, wall time and peak RSS."""
    out_path, err_path = tmp / "stdout", tmp / "stderr"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return SimpleNamespace(returncode=proc.returncode, stdout=out_path.read_text(),
                           stderr=err_path.read_text(), wall=wall,
                           rss_mb=usage.ru_maxrss / 1024)


class CliCold:
    name = "cli_cold"
    why = ("fresh trisym processes one after another, where interpreter start, "
           "imports, YAML parsing and cold caches are paid on every call")

    def __init__(self, size):
        self.size = size
        self.jmax = CLI_JMAX[size]
        self.tmp = OUT / "tmp"
        self.env = subprocess_env()

    def setup(self):
        from trisym import cli, molecules

        self.cli = cli
        self.specs = {n: molecules.get_molecule(n)
                      for n in molecules.shipped_molecules()}
        self.in_process(["molecules"])

    def molecules(self):
        return self.specs

    def probe_jmax(self):
        return self.jmax[1]

    def in_process(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.cli.run(argv)
        return code, out.getvalue(), err.getvalue()

    def _linelist(self, rng, name, fmt, jmax):
        spec = self.specs[name]
        return ["linelist", "--molecule", name,
                "--band", rng.choice(spec.bands).name,
                "--jmax", str(jmax), "--temp", repr(rng.choice(TEMPS)),
                "--beta", repr(rng.choice(BETAS)),
                "--normalization", rng.choice(NORMS), "--format", fmt]

    def deck(self, rng):
        names = sorted(self.specs)
        lo, hi = self.jmax
        deck = []
        formats = ("csv", "json", "text")
        pairs = [(n, f) for n in names for f in formats]
        if self.size == "tiny":
            pairs = list(zip(rng.sample(names, 3), formats))
        # jmax evenly spread over [lo, hi], one stratum per linelist call
        step = (hi - lo) / len(pairs)
        jmaxes = [round(lo + step * (i + rng.random())) for i in range(len(pairs))]
        rng.shuffle(jmaxes)
        for (name, fmt), jmax in zip(pairs, jmaxes):
            deck.append(("linelist", self._linelist(rng, name, fmt, jmax)))
        for _ in range(1 if self.size == "tiny" else 2):
            name = rng.choice(names)
            J = rng.randint(0, 10)
            argv = ["classify", "--molecule", name, "--J", str(J),
                    "--K", str(rng.randint(0, J)),
                    "--format", rng.choice(("text", "json"))]
            if self.specs[name].inversion_splitting_cm1 is not None:
                argv += ["--species", rng.choice(("s", "a"))]
            deck.append(("ok", argv))
            deck.append(("ok", ["energies", "--molecule", rng.choice(names),
                                "--jmax", str(rng.randint(lo, hi)),
                                "--format", rng.choice(formats)]))
            deck.append(("group", ["group", "--show", rng.choice(
                ("table", "matrices", "eigenbasis", "projectors")),
                "--format", rng.choice(("text", "json"))]))
        deck.append(("ok", ["molecules", "--dump", rng.choice(names)]))
        bad = self._linelist(rng, rng.choice(names), "csv", lo)
        bad[bad.index("--band") + 1] = "nu9"
        deck.append(("rejected", bad))
        nan = self._linelist(rng, rng.choice(names), "csv", lo)
        nan[nan.index("--temp") + 1] = "nan"
        deck.append(("known:temp_nan", nan))
        rng.shuffle(deck)
        return deck

    def run(self, op, tally, tracer=None):
        kind, argv = op
        self.tmp.mkdir(parents=True, exist_ok=True)
        sub_out, own_out = self.tmp / "sub.out", self.tmp / "own.out"
        for path in (sub_out, own_out):
            path.unlink(missing_ok=True)
        writes = argv[0] == "linelist"
        cmd = [sys.executable, "-c", CLI_MAIN, *argv]
        proc = spawn(cmd + (["--out", str(sub_out)] if writes else []),
                     self.env, self.tmp)

        own_argv = argv + (["--out", str(own_out)] if writes else [])
        t0 = time.perf_counter()
        if tracer is None:
            own = self.in_process(own_argv)
        else:
            own = tracer.call("cli.run", self.in_process, own_argv)
        run_s = time.perf_counter() - t0

        if kind == "rejected" or kind.startswith("known"):
            failures = checks.check_rejected(proc.returncode, proc.stdout, proc.stderr)
            if proc.returncode == 0 and sub_out.exists():
                failures += checks.check_csv(sub_out.read_text())
        else:
            failures = self._check_ok(proc, own, sub_out, own_out, argv)
        known = kind.split(":", 1)[1] if kind.startswith("known") else None
        tally.record(f"cli_cold {' '.join(argv)}", failures, known)
        return {"t": proc.wall, "run_s": run_s, "rss_mb": proc.rss_mb,
                "group": kind == "group"}

    def _check_ok(self, proc, own, sub_out, own_out, argv):
        failures = []
        if proc.returncode != 0 or proc.stderr:
            failures.append(f"exit {proc.returncode}, stderr {proc.stderr[-200:]!r}")
        if own != (0, proc.stdout, ""):
            failures.append("output differs from the in-process run")
        if argv[0] == "linelist":
            text = sub_out.read_text() if sub_out.exists() else ""
            if not own_out.exists() or text != own_out.read_text():
                failures.append("--out file differs from the in-process run")
            fmt = argv[argv.index("--format") + 1]
            failures += {"csv": checks.check_csv, "json": checks.check_json,
                         "text": checks.check_text}[fmt](text)
        return failures

    def finish(self, tally):
        for path in self.tmp.glob("*"):
            path.unlink()

    def named(self, samples, summary):
        times = [s["t"] for s in samples]
        return {
            "peak_rss_mb": summary.mean([s["rss_mb"] for s in samples], "MB"),
            "invocations_per_s": summary.rate_total(len(times), times),
            "cli_p50_ms": summary.median([t * 1e3 for t in times], "ms"),
            "cli_tail_ms": summary.tail([t * 1e3 for t in times], "ms"),
        }, "invocations_per_s"


WORKLOADS = {w.name: w for w in (BandLarge, SweepSmall, CliCold)}
