"""trisym benchmark: line-list throughput, sweep latency and CLI cold start.

    python3 perfbench/run.py --workload band_large --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from the root of a checkout: the benchmark imports trisym from ``src/``
beside this directory and refuses to run without it.  Each workload runs in
its own process (``all`` starts one per workload), one caller, closed loop.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half with spans around every public call, then runs the
layer probes and prints the per-layer metrics, including the tracing
overhead (traced minus untraced).  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it name every metric with its unit and sample count.  Spans and the
full result go to ``.perfbench_out/``.  README.md beside this file says why
each workload exists and which end-to-end metric each layer metric moves.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

import workloads
from tracing import Tracer

# Setup is timed this many times per full-size run (in this process, then
# in fresh ones) and reported as the median.
SETUP_SAMPLES = {"band_large": 3, "sweep_small": 5, "cli_cold": 7}


class Summary:
    """Metric records: value, unit and the number of samples behind it."""

    @staticmethod
    def median(values, unit):
        return {"value": statistics.median(values), "unit": unit, "n": len(values)}

    @staticmethod
    def mean(values, unit):
        return {"value": statistics.fmean(values), "unit": unit, "n": len(values)}

    @staticmethod
    def rate_total(count, times):
        return {"value": count / sum(times), "unit": "1/s", "n": count}

    @staticmethod
    def tail(values, unit):
        """The highest percentile with at least ten samples beyond it.  Below
        40 samples that percentile falls under p75, so the maximum stands in."""
        ordered = sorted(values)
        n = len(ordered)
        if n < 40:
            return {"value": ordered[-1], "unit": unit, "n": n, "stat": "max"}
        pct = 100 * (n - 10) // n
        rank = -(-pct * n // 100)  # nearest rank, at most n - 10
        return {"value": ordered[rank - 1], "unit": unit, "n": n, "stat": f"p{pct}"}


def loop(workload, rng, seconds, tally, tracer=None):
    """Run whole decks until ``seconds`` have passed; one sample per call."""
    samples = []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        for op in workload.deck(rng):
            if tracer is not None:
                tracer.request = len(samples)
            samples.append(workload.run(op, tally, tracer))
    return samples


def end_to_end(workload, samples, setup):
    """The contract metrics, plus the workload's own names for them."""
    named, throughput = workload.named(samples, Summary)
    times_ms = [s["t"] * 1e3 for s in samples]
    # The peak of this process, unless the workload measures its own.
    rss = named.get("peak_rss_mb") or {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "unit": "MB", "n": 1}
    metrics = {
        "setup_s": Summary.median(setup, "s"),
        "throughput_per_s": named[throughput],
        "call_p50_ms": Summary.median(times_ms, "ms"),
        "call_tail_ms": Summary.tail(times_ms, "ms"),
        "peak_rss_mb": rss,
    }
    return metrics, named


def setup_samples(workload, size):
    """Set the workload up here, then again in fresh processes."""
    t0 = time.perf_counter()
    workload.setup()
    times = [time.perf_counter() - t0]
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    count = SETUP_SAMPLES[workload.name] if size == "full" else 2
    for _ in range(count - 1):
        proc = subprocess.run(
            [sys.executable, probe, workload.name, size], capture_output=True,
            text=True, cwd=workloads.ROOT, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def environment():
    import numpy
    import yaml
    from trisym import _kernels

    commit = "unknown (not a git checkout)"
    if (workloads.ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=workloads.ROOT, timeout=30)
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "kernels_backend": _kernels.BACKEND,
        "numba_found": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
    }


def instrument(tracer, workload):
    """Spans at every layer boundary the workload's calls cross."""
    from trisym import _kernels, group_algebra, spectrum

    def line_attrs(args, kwargs, lines):
        molecule, band, ensemble = args[:3]
        name = band if isinstance(band, str) else band.name
        key = (molecule.name, name, ensemble.jmax)
        if key not in cands:
            cands[key] = workloads.candidates(molecule, name, ensemble.jmax)
        return {"lines": len(lines), "candidates": cands[key]}

    def text_attrs(args, kwargs, text):
        return {"bytes": len(text.encode())}

    cands = {}
    owners = [spectrum]
    if workload.name == "cli_cold":
        from trisym import cli

        owners.append(cli)
        tracer.wrap(cli, "get_molecule", "molecules.get_molecule")
        tracer.wrap(cli, "classify_state", "classify.classify_state")
        tracer.wrap(cli, "rot_energy", "spectrum.rot_energy")
    for owner in owners:
        tracer.wrap(owner, "line_list", "spectrum.line_list", line_attrs)
        tracer.wrap(owner, "linelist_csv", "spectrum.linelist_csv", text_attrs)
        tracer.wrap(owner, "linelist_json", "spectrum.linelist_json", text_attrs)
    tracer.wrap(spectrum, "partition_function", "spectrum.partition_function")
    tracer.wrap(spectrum, "classify_state", "classify.classify_state")
    tracer.wrap(spectrum, "sector_weights", "classify.sector_weights")
    for name in ("rot_energy_array", "honl_london_array", "boltzmann_array"):
        tracer.wrap(_kernels, name, f"kernels.{name}")
    for name in ("symmetrizer", "antisymmetrizer", "invariant_projectors",
                 "cycle_eigenbasis", "decompose"):
        tracer.wrap(group_algebra, name, f"group_algebra.{name}")


def span_metrics(tracer, samples):
    own = tracer.self_times()

    def self_median(name, scale):
        values = [own[s[0]] for s in tracer.named(name)]
        return statistics.median(values) * scale if values else 0.0

    def attr_mean(spans, key):
        return statistics.fmean(s[6][key] for s in spans) if spans else 0.0

    # calls that raised (a malformed CLI call) carry no counts
    line_spans = [s for s in tracer.named("spectrum.line_list") if s[6]]
    csv_spans = [s for s in tracer.named("spectrum.linelist_csv") if s[6]]
    gc_spans = [s for s in tracer.named("runtime.gc")
                if tracer.has_ancestor(s, "spectrum.line_list")]
    # outermost group_algebra calls only: decompose calls the projectors
    ga_spans = [s for s in tracer.spans if s[1].startswith("group_algebra.")
                and (s[4] is None
                     or not tracer.spans[s[4]][1].startswith("group_algebra."))]
    group_calls = sum(1 for s in samples if s.get("group"))
    lines = sum(s[6]["lines"] for s in line_spans)
    cands = sum(s[6]["candidates"] for s in line_spans)
    cli_runs = [s for s in samples if "run_s" in s]
    per_line_list = len(line_spans) or 1
    return {
        "spectrum.line_list_s": (self_median("spectrum.line_list", 1.0), "s"),
        "spectrum.lines": (attr_mean(line_spans, "lines"), "count"),
        "spectrum.candidates": (attr_mean(line_spans, "candidates"), "count"),
        "spectrum.kept_ratio": (lines / cands if cands else 0.0, "ratio"),
        "spectrum.linelist_csv_s": (self_median("spectrum.linelist_csv", 1.0), "s"),
        "spectrum.csv_bytes": (attr_mean(csv_spans, "bytes"), "bytes"),
        "spectrum.linelist_json_s": (self_median("spectrum.linelist_json", 1.0), "s"),
        "spectrum.partition_function_ms": (self_median("spectrum.partition_function", 1e3), "ms"),
        "group_algebra.projectors_ms": (
            sum(s[3] - s[2] for s in ga_spans) * 1e3 / group_calls if group_calls else 0.0, "ms"),
        "cli.run_ms": (statistics.median(s["run_s"] for s in cli_runs) * 1e3
                       if cli_runs else 0.0, "ms"),
        "cli.process_ms": (statistics.median(s["t"] - s["run_s"] for s in cli_runs) * 1e3
                           if cli_runs else 0.0, "ms"),
        "runtime.gc_ms": (sum(s[3] - s[2] for s in gc_spans) * 1e3 / per_line_list, "ms"),
        "runtime.gc_collections": (len(gc_spans) / per_line_list, "count"),
    }


def layer_metrics(workload, tracer, traced, size, seed, tally):
    """Every per-layer metric: span figures from the traced loop, then the
    probes.  A layer the workload never calls reads 0."""
    import probes

    found = span_metrics(tracer, traced)
    specs = workload.molecules()
    found["molecules.get_molecule_ms"] = (probes.get_molecule_ms(list(specs)), "ms")
    found["group_algebra.decompose_us"] = (probes.decompose_us(seed), "us")
    state_us, weights_us, levels = probes.classify_us(specs, workload.probe_jmax())
    found["classify.classify_state_us"] = (state_us, "us")
    found["classify.sector_weights_us"] = (weights_us, "us")
    found["classify.levels"] = (levels, "count")
    lines = workloads.load_digests()["band_large_lines"][size]
    found["kernels.eval_ms"] = (probes.kernels_ms(lines, seed), "ms")
    cli_ms, numpy_ms = probes.import_ms(workloads.subprocess_env(), workloads.ROOT)
    found["cli.import_ms"] = (cli_ms, "ms")
    found["cli.import_numpy_ms"] = (numpy_ms, "ms")
    # The first calls of a deck under tracemalloc, checked like any other.
    deck = workload.deck(random.Random(seed))[:3]
    found["runtime.alloc_peak_mb"] = (probes.alloc_peak_mb(
        lambda: [workload.run(op, tally) for op in deck]), "MB")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(found.items())}


def print_metric(name, record, alias=None):
    stat = f", {record['stat']}" if "stat" in record else ""
    n = f" (n={record['n']}{stat})" if "n" in record else ""
    also = f"  [= {alias}]" if alias else ""
    print(f"metric {name} = {record['value']:.6g} {record['unit']}{n}{also}")


def run_one(args):
    rng = random.Random(args.seed)
    workload = workloads.WORKLOADS[args.workload](args.size)
    setup = setup_samples(workload, args.size)
    import trisym

    if not os.path.abspath(trisym.__file__).startswith(str(workloads.SRC)):
        sys.exit(f"trisym was imported from {trisym.__file__}, not from src/")
    workloads.OUT.mkdir(exist_ok=True)
    tally = workloads.Tally()

    seconds = args.seconds / 2 if args.trace else args.seconds
    samples = loop(workload, rng, seconds, tally)
    metrics, named = end_to_end(workload, samples, setup)
    if args.trace:
        with Tracer() as tracer:
            instrument(tracer, workload)
            traced = loop(workload, rng, seconds, tally, tracer)
        traced_metrics, _ = end_to_end(workload, traced, setup)
        layers = layer_metrics(workload, tracer, traced, args.size, args.seed, tally)
        for name in ("throughput_per_s", "call_p50_ms", "call_tail_ms"):
            layers[f"trace_overhead.{name}"] = {
                "value": traced_metrics[name]["value"] - metrics[name]["value"],
                "unit": metrics[name]["unit"]}
        tracer.write(workloads.OUT / f"spans_{args.workload}_seed{args.seed}.jsonl")
    workload.finish(tally)

    env = environment()
    print(f"# {args.workload} seed {args.seed}: {workload.why}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, record in metrics.items():
        alias = next((k for k, v in named.items() if v is record and k != name),
                     None)
        print_metric(name, record, alias)
    for name, record in named.items():
        if record not in metrics.values():
            print_metric(name, record)
    if args.trace:
        for name, record in layers.items():
            print_metric(name, record)
    rate = tally.failed / tally.attempted
    print(f"checks {args.workload}: failed {tally.failed} / attempted "
          f"{tally.attempted} (error_rate {rate:.4g})")
    for name, counts in tally.known.items():
        if counts["failed"] or counts["passed"]:
            state = "still present" if counts["failed"] else "no longer reproduces"
            print(f"known defect {name} ({state}): failed {counts['failed']}, "
                  f"passed {counts['passed']}; {workloads.KNOWN_DEFECTS[name]}")
    for message in tally.messages:
        print(message)

    chosen = layers if args.trace else metrics
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in chosen.items()},
    }
    with open(workloads.OUT / f"result_{args.workload}_seed{args.seed}"
              f"_trace{args.trace}.json", "w") as fh:
        json.dump(dict(result, env=env, end_to_end=metrics, named=named,
                       known_defects=tally.known, messages=tally.messages),
                  fh, indent=2)
    print(json.dumps(result))


def run_all(args):
    """Each workload in its own process; prints their reports in turn."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            capture_output=True, text=True, cwd=workloads.ROOT, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"{name} exited with {proc.returncode}")
        *report, last = proc.stdout.splitlines()
        print("\n".join(report))
        results[name] = json.loads(last)
    print(json.dumps(results))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the smoke test")
    args = parser.parse_args(argv)
    if not (workloads.SRC / "trisym" / "__init__.py").is_file():
        sys.exit(f"no trisym sources at {workloads.SRC}: run from a checkout")
    sys.path.insert(0, str(workloads.SRC))
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
