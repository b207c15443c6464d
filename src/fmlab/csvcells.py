"""CSV cells at array speed: each cell is the text Python writes for its
value, built with numpy digit arithmetic rather than one format call per
cell.  The detection battery's power and spectrum exports use them."""

from __future__ import annotations

from typing import Sequence

import numpy as np

# a writer formats this many rows per call, so no buffer grows with the series
BLOCK_ROWS = 4096


def int_rows(columns: Sequence[np.ndarray]) -> str:
    """CSV rows of integer columns, each cell the cell's ``str()``.

    Every column gets a field as wide as its longest value (a sign cell
    first if any value is negative) and the fields are written right-
    aligned into one uint8 buffer, digit by digit from the right; the
    blank cells left of each value are 0 and are dropped at the end.
    """
    fields = []
    for col in columns:
        col = np.asarray(col).astype(np.int64, casting="safe", copy=False)
        neg = col < 0
        # magnitudes as uint64 wrap back to |v|, also for the int64 minimum
        mag = col.astype(np.uint64)
        np.negative(mag, out=mag, where=neg)
        top = int(mag.max(initial=0))
        fields.append((mag.astype(np.min_scalar_type(top)), neg if neg.any() else None, len(str(top))))
    width = sum((neg is not None) + digits + 1 for _, neg, digits in fields)
    out = np.zeros((len(columns[0]), width), np.uint8)
    at = 0
    for mag, neg, digits in fields:
        if neg is not None:
            out[neg, at] = ord("-")
            at += 1
        at += digits
        out[:, at] = ord(",")
        for k in range(1, digits + 1):
            # past the first digit, a value whose quotient is 0 has no more digits
            rest, digit = np.divmod(mag, 10)
            np.add(digit, ord("0"), out=out[:, at - k], where=mag != 0 if k > 1 else True, casting="unsafe")
            mag = rest
        at += 1
    out[:, -1] = ord("\n")
    return str(out[out != 0].data, "ascii")


# A multiple of 2**-13 in [0, 1), such as every bin fraction of a window
# of up to 8192 cycles, j / 2**13, is exactly the decimal 0.d1...d13 with
# d = j * 5**13.  That has at most 13 significant digits, and a float64
# holds more, so no shorter decimal reads back as the same float: the
# decimal without its trailing zeros is the value's repr.  Every nonzero
# one is at least 2**-13 > 1e-4, so repr writes it without an exponent.
_FRACTION_BITS = 13
_DECIMAL_PLACES = 10 ** np.arange(_FRACTION_BITS - 1, -1, -1, dtype=np.int64)[:, None]


def fraction_reprs(values: np.ndarray) -> list[str] | None:
    """``repr`` of each of ``values``, if every one is j / 2**13 for an
    integer 0 <= j < 2**13 (and none is -0.0); None otherwise."""
    if not ((values >= 0) & (values < 1)).all() or np.signbit(values).any():
        return None
    scaled = values * (1 << _FRACTION_BITS)
    if (scaled != np.floor(scaled)).any():
        return None
    j = scaled.astype(np.int64)
    digits = j * 5**_FRACTION_BITS // _DECIMAL_PLACES % 10 + ord("0")  # (places, values)
    # j / 2**13 needs 13 places less one per trailing zero bit of j; 0 keeps one
    places = np.where(j > 0, _FRACTION_BITS - np.log2((j & -j) | (j == 0)).astype(np.int64), 1)
    digits[np.arange(1, _FRACTION_BITS + 1)[:, None] > places] = 0
    text = np.zeros((len(values), _FRACTION_BITS + 3), np.uint8)
    text[:, 0], text[:, 1], text[:, -1] = ord("0"), ord("."), ord("\n")
    text[:, 2:-1] = digits.T
    return str(text[text != 0].data, "ascii").split("\n")[:-1]
