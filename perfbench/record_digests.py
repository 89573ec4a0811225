"""Record the CSV digests the benchmark checks its outputs against.

    python3 perfbench/record_digests.py

Writes digests.json beside this file: the SHA-256 of every band_large CSV
(each temperature and beta the seed can pick) and of the canonical case
grid, at both sizes, plus band_large's line count.  Run it only on a commit
whose line lists are known good; the recorded file came from the commit
that introduced the benchmark.
"""

import json
import sys

import checks
import workloads

sys.path.insert(0, str(workloads.SRC))
from trisym import molecules  # noqa: E402


def csv_digest(spec, band, temperature, beta, norm, jmax):
    lines, text, _, _ = workloads.render(spec, band, temperature, beta, norm, jmax)
    return checks.digest(text), len(lines)


def main():
    specs = {n: molecules.get_molecule(n) for n in molecules.shipped_molecules()}
    big = workloads.BAND_LARGE
    out = {"band_large": {}, "band_large_lines": {}, "canonical": {}}
    for size in ("full", "tiny"):
        table = out["band_large"][size] = {}
        for temperature in workloads.TEMPS:
            for beta in big["betas"]:
                found, count = csv_digest(
                    specs[big["molecule"]], big["band"], temperature, beta,
                    big["normalization"], big["jmax"][size])
                table[workloads.band_large_key(temperature, beta)] = found
                out["band_large_lines"][size] = count
        out["canonical"][size] = {
            workloads.canonical_key(*case): csv_digest(
                specs[case[0]], case[1], workloads.CANONICAL["temperature"],
                case[2], case[3], case[4])[0]
            for case in workloads.canonical_cases(specs, size)
        }
    with open(workloads.DIGESTS, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
