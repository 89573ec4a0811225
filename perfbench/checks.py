"""Output checks.  Each returns a list of failure messages (empty when OK)."""

from __future__ import annotations

import hashlib
import json
import math

FIELDS = ("band", "freq_cm1", "intensity", "J_lo", "K_lo", "species_lo",
          "J_up", "K_up", "species_up", "sp_forbidden", "ss_forbidden")
SPECIES = ("none", "s", "a")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _positive(value, what):
    if not (math.isfinite(value) and value > 0):
        return [f"{what} must be finite and > 0, got {value!r}"]
    return []


def check_lines(lines) -> list[str]:
    """SpectralLine objects: finite positive values, boolean flags and the
    documented order (frequency, J_lo, K_lo, species_lo, J_up, K_up)."""
    failures = []
    previous = None
    for i, line in enumerate(lines):
        failures += _positive(line.frequency, f"line {i} frequency")
        failures += _positive(line.intensity, f"line {i} intensity")
        if type(line.sp_forbidden) is not bool or type(line.ss_forbidden) is not bool:
            failures.append(f"line {i}: forbidden flags must be bool")
        key = (line.frequency, line.lower.J, line.lower.K,
               line.lower.species.value, line.upper.J, line.upper.K)
        if previous is not None and key < previous:
            failures.append(f"line {i}: out of order")
        previous = key
        if len(failures) > 5:
            break
    return failures


def _check_rows(rows) -> list[str]:
    """Rows as dicts keyed by FIELDS, values still strings or JSON values.
    Rounded frequencies must not decrease; ties cannot be ordered further."""
    failures = []
    previous = -math.inf
    for i, row in enumerate(rows):
        try:
            freq = float(row["freq_cm1"])
            failures += _positive(freq, f"row {i} freq_cm1")
            failures += _positive(float(row["intensity"]), f"row {i} intensity")
            for key in ("J_lo", "K_lo", "J_up", "K_up"):
                if int(row[key]) < 0:
                    failures.append(f"row {i}: {key} < 0")
        except (KeyError, TypeError, ValueError) as exc:
            failures.append(f"row {i}: {exc!r}")
            continue
        if row["species_lo"] not in SPECIES or row["species_up"] not in SPECIES:
            failures.append(f"row {i}: unknown species")
        for key in ("sp_forbidden", "ss_forbidden"):
            if row[key] not in ("true", "false", True, False):
                failures.append(f"row {i}: {key} is not boolean")
        if freq < previous:
            failures.append(f"row {i}: out of order")
        previous = freq
        if len(failures) > 5:
            break
    return failures


def check_csv(text: str) -> list[str]:
    rows = text.split("\n")
    if rows[0] != ",".join(FIELDS) or rows[-1] != "":
        return ["csv: bad header or missing final newline"]
    parsed = []
    for row in rows[1:-1]:
        values = row.split(",")
        if len(values) != len(FIELDS):
            return [f"csv: row with {len(values)} fields"]
        parsed.append(dict(zip(FIELDS, values)))
    return _check_rows(parsed)


def check_json(text: str) -> list[str]:
    try:
        rows = json.loads(text)
    except ValueError as exc:
        return [f"json: {exc}"]
    if not isinstance(rows, list) or any(set(r) != set(FIELDS) for r in rows):
        return ["json: expected a list of rows with the CSV fields"]
    return _check_rows(rows)


def check_text(text: str) -> list[str]:
    """Text rows read '<freq> cm-1  I=<intensity>  J.. K.. s -> J.. K.. s'."""
    failures = []
    previous = -math.inf
    for i, row in enumerate(text.splitlines()):
        parts = row.split()
        try:
            freq = float(parts[0])
            intensity = float(parts[2].removeprefix("I="))
        except (IndexError, ValueError) as exc:
            return [f"text row {i}: {exc!r}"]
        failures += _positive(freq, f"text row {i} frequency")
        failures += _positive(intensity, f"text row {i} intensity")
        if freq < previous:
            failures.append(f"text row {i}: out of order")
        previous = freq
        if len(failures) > 5:
            break
    return failures


def check_rejected(code: int, stdout: str, stderr: str) -> list[str]:
    """A malformed call must exit 1 with a one-line diagnostic on stderr."""
    failures = []
    if code != 1:
        failures.append(f"exit code {code}, expected 1")
    if stdout:
        failures.append("printed to stdout")
    lines = stderr.splitlines()
    if len(lines) != 1 or not lines[0].startswith("error: "):
        failures.append(f"stderr has {len(lines)} lines, expected one 'error:' line")
    return failures
