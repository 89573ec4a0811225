"""CSV rows of a line list, written as one NUL-padded byte matrix.

``trisym.spectrum.linelist_csv`` imports this module with a process's first
CSV, of any size, so a process that writes no CSV never loads these tables
or compiles this code.

``csv_body`` pulls the seven fields of every record into one object array
in one pass.  Band and state objects are keyed by the pointers that array
holds, so each run of one band object and each distinct state object is
rendered once (the state's cached ``_csv_label``), and so is each run of
one frequency bit pattern; their bytes are gathered to every row.  The run
frequencies and the intensities go through one call of ``g10_blocks``, an
exact vectorised ``%.10g``, whose blocks are split by row; the frequency
rows drop the columns only intensities use.  The blocks are joined row
by row into one bytearray, the NULs dropped with ``bytes.translate`` and
the text decoded once.  Each band run's name must pass
``molecules._check_band_name``, which rejects a NUL, the padding byte.
"""

from __future__ import annotations

from array import array
from itertools import chain

import numpy as np

from .molecules import _check_band_name

#: The format ``g10_blocks`` reproduces, and the one it falls back to.
_G10 = "%.10g"
#: Largest |decimal exponent| the kernel formats itself: 10**(9 - e) stays a
#: normal double and its product with the value cannot overflow.
_EXP_LIMIT = 290
#: Distance from a rounding tie, in units of the tenth digit, below which
#: the scaled mantissa (a few ulps from exact, about 1e-5 here) cannot
#: certify the rounding direction.
_TIE_MARGIN = 1e-4


def _g10_tables():
    """Tables of ``g10_blocks`` (about 1 MB, built in about 2 ms).  ``e`` is
    a decimal exponent, indexed from -300.

    - ``digits[n]``: the five ASCII digits of n < 10**5, each followed by a
      NUL, the slot of a decimal point;
    - ``zeros[n]``: the trailing zeros of those five digits;
    - ``power[9 - e]``: 10.0 ** (9 - e);
    - ``prefix[e]``: "0." and the zeros after the point, in fixed notation
      below 1;
    - ``suffix[e]``: "e" and the signed exponent, at least two digits, in
      exponential notation;
    - ``layout[e]``: ten times the digit after which the point goes: digit
      e in fixed notation, digit 0 in exponential notation, none (10)
      below 1, where the prefix holds it;
    - ``keep[layout + k]`` and ``point[layout + k]``: with k + 1 significant
      digits, the mask of the digits shown (the integer part always shows)
      and the point, if any digit follows it.
    """
    digits = np.zeros((10,) * 5 + (10,), np.uint8)  # (d0, ..., d4, byte)
    zeros = np.zeros((10,) * 5, np.int8)
    trailing = True
    for place in range(5):
        value = np.arange(10).reshape((10,) + (1,) * (4 - place))
        digits[..., 2 * place] = value + ord("0")
        trailing = trailing & (np.arange(10).reshape((10,) + (1,) * place) == 0)
        zeros += trailing
    e = range(-300, 301)
    power = 10.0 ** np.arange(-300, 301)
    prefix = np.array([b"0.000"[:1 - x] if -4 <= x < 0 else b"" for x in e], "S5")
    suffix = np.array([b"e%+03d" % x if not -4 <= x < 10 else b"" for x in e], "S5")
    layout = 10 * np.array([x if 0 <= x < 10 else 10 if -4 <= x < 0 else 0 for x in e])
    keep = np.zeros((11, 10, 10, 2), np.uint8)  # (point, k, digit, digit or slot)
    point = np.zeros_like(keep)
    for after in range(11):  # 10: no point among the digits
        for k in range(10):
            shown = max(k + 1, after + 1) if after < 10 else k + 1
            keep[after, k, :shown, 0] = 0xFF
            if after < k:  # a digit follows the point
                point[after, k, after, 1] = ord(".")
    return (digits.reshape(10**5, 10), zeros.reshape(10**5), power,
            prefix.view(np.uint8).reshape(-1, 5), suffix.view(np.uint8).reshape(-1, 5),
            layout, keep.reshape(110, 20), point.reshape(110, 20))


_TABLES = _g10_tables()


def g10_blocks(x):
    """``"%.10g" % x`` of each value, as three NUL-padded byte blocks (the
    text before the digits, the digits and point, the exponent) whose rows,
    joined with the NULs dropped, are the text.  Columns no row uses are
    left out.

    The value is scaled to a 10-digit integer mantissa in float arithmetic,
    a few ulps from the exact product, and rounded; its digits come from a
    table of five-digit groups, and the decimal exponent and the count of
    significant digits pick the rest from small tables.  Every value whose
    rounding that error could change (within ``_TIE_MARGIN`` of a tie), and
    every value that is not finite and positive or has a decimal exponent
    beyond ``_EXP_LIMIT``, is formatted by Python's own ``%`` instead, so
    each row is exactly Python's text.
    """
    digits, zeros, power, prefix, suffix, layout, keep, point = _TABLES
    x = np.asarray(x, dtype=np.float64)
    ok = np.isfinite(x) & (x > 0)
    v = np.where(ok, x, 1.0)
    e = np.floor(np.log10(v)).astype(np.intp)
    ok &= np.abs(e) <= _EXP_LIMIT
    v[~ok], e[~ok] = 1.0, 0
    s = v * power[309 - e]  # ~ x * 10**(9 - e); log10 may be one off
    low = s < 1e9
    s[low] *= 10.0
    e[low] -= 1
    high = s >= 1e10
    s[high] /= 10.0
    e[high] += 1
    whole = np.floor(s)
    frac = s - whole
    ok &= np.abs(frac - 0.5) >= _TIE_MARGIN
    mantissa = whole.astype(np.int64) + (frac > 0.5)
    carry = mantissa == 10**10  # rounded up to the next power of ten
    mantissa[carry] = 10**9
    e[carry] += 1
    head, tail = np.divmod(mantissa, 10**5)
    e += 300
    shown = layout[e] + 9 - np.where(tail == 0, 5 + zeros[head], zeros[tail])
    bad = np.flatnonzero(~ok)
    text = np.array([(_G10 % value).encode() for value in x[bad].tolist()], "S20")
    # Only the columns some row uses: a narrower block is cheaper to join.
    used = np.bincount(shown, minlength=len(keep)) > 0
    cols = (keep[used] | point[used]).any(axis=0)
    cols[:max(map(len, text.tolist()), default=0)] = True
    used = np.bincount(e, minlength=len(prefix)) > 0
    prefix = prefix[:, prefix[used].any(axis=0)]
    suffix = suffix[:, suffix[used].any(axis=0)]
    body = np.take(digits, np.stack([head, tail], axis=1), axis=0)
    body = body.reshape(len(x), 20)[:, cols]
    body &= np.take(keep[:, cols], shown, axis=0)
    body |= np.take(point[:, cols], shown, axis=0)
    before, after = np.take(prefix, e, axis=0), np.take(suffix, e, axis=0)
    if len(bad):
        before[bad] = after[bad] = 0
        body[bad] = text.view(np.uint8).reshape(len(bad), -1)[:, :body.shape[1]]
    return before, body, after


#: The two flag fields and the row's end, by 2 sp + ss, as NUL-padded rows.
_FLAGS = np.array([b"false,false\n", b"false,true\n", b"true,false\n", b"true,true\n"])
_FLAGS = _FLAGS.view(np.uint8).reshape(len(_FLAGS), -1)


def _runs(keys):
    """The first row of each run of equal keys, and each row's run."""
    start = np.empty(len(keys), dtype=bool)
    start[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=start[1:])
    return np.flatnonzero(start), np.cumsum(start) - 1


def _distinct(keys):
    """A row of each distinct key, and each row's index among them."""
    order = keys.argsort()
    first, run = _runs(keys[order])
    index = np.empty_like(run)
    index[order] = run
    return order[first], index


def _floats(values) -> np.ndarray:
    """The values as doubles, converted as ``%`` converts them: a str or
    None is a TypeError (numpy's object cast would parse it or give NaN)."""
    return np.frombuffer(array("d", values), np.float64)


def _padded(texts) -> np.ndarray:
    """UTF-8 bytes of each text as one NUL-padded row."""
    cells = np.array([t.encode("utf-8", "surrogatepass") for t in texts])
    return cells.view(np.uint8).reshape(len(cells), -1)


def csv_body(lines: list) -> str:
    """The CSV rows of a non-empty list of lines, header excluded.  A line
    that is no 7-tuple, or a band ``Band`` would reject, is a ValueError."""
    n = len(lines)
    if set(map(len, lines)) != {7}:
        raise ValueError("every line must have the 7 fields of a SpectralLine")
    fields = np.fromiter(chain.from_iterable(lines), object, 7 * n).reshape(n, 7)
    # An object array holds object pointers: equal keys, the same object.
    keys = np.frombuffer(fields.tobytes(), np.intp).reshape(n, 7)
    band_first, band_row = _runs(keys[:, 0])
    bands = fields[band_first, 0].tolist()
    for band in bands:
        _check_band_name(band)
    freq = _floats(fields[:, 1].tolist())
    freq_first, freq_row = _runs(freq.view(np.int64))
    runs = len(freq_first)
    # one g10_blocks pass: the run frequencies, then every intensity
    floats = g10_blocks(_floats(freq[freq_first].tolist() + fields[:, 2].tolist()))
    state_first, state_row = _distinct(keys[:, 3:5].ravel())
    labels = _padded([
        state._csv_label + ","
        for state in fields[state_first // 2, 3 + state_first % 2].tolist()
    ])
    flags = 2 * fields[:, 5].astype(bool) + fields[:, 6].astype(bool)
    comma = np.full((n, 1), ord(","), np.uint8)
    freq_text = np.concatenate(
        [*(block[:runs] for block in floats), comma[:runs]], axis=1
    )
    freq_text = freq_text[:, freq_text.any(axis=0)]
    blocks = [
        np.take(_padded([band + "," for band in bands]), band_row, axis=0),
        np.take(freq_text, freq_row, axis=0),
        *(block[runs:] for block in floats),
        comma,
        np.take(labels, state_row, axis=0).reshape(n, -1),  # lower, upper
        np.take(_FLAGS, flags, axis=0),
    ]
    text = bytearray(n * sum(block.shape[1] for block in blocks))
    np.concatenate(blocks, axis=1, out=np.frombuffer(text, np.uint8).reshape(n, -1))
    return text.translate(None, b"\0").decode("utf-8", "surrogatepass")
