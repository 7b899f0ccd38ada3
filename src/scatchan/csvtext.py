"""CSV text of a sweep table: ``"%.12e" % x`` as numpy byte arithmetic.

A finite x with decimal exponent e in [-10, 10] is scaled by the exact power
10**(12 - e) (exact up to 1e22) to s in [1e12, 1e13), one rounding off the
true S = |x| 10**(12 - e): at most half an ulp of s, 2**-10 < 1.1e-3.
rint(s) is then the correctly rounded 13-digit mantissa that ``%`` prints,
unless S may lie on the other side of a half-integer tie from s.  Cells
within TIE_MARGIN of a tie, out of that exponent range, or not finite are
formatted by ``%`` itself (0.46% of the cells of a bundled sweep), so every
byte equals ``%``'s.

A cell is a slot of six native 4-byte words: "-d." and a spare byte, three
words of four mantissa digits, "e+dd", and a last word for the separator.
A keep mask drops the spare bytes and the sign byte of a nonnegative value;
a fallback cell's string (at most 20 bytes) fills its slot from the start.
"""

from __future__ import annotations

import numpy as np

TIE_MARGIN = 2e-3
MAX_EXP = 10
SLOT = 24  # bytes per cell
CHUNK = 2048  # rows formatted at once, which keeps the temporaries small

_POW10 = np.array([10.0**k for k in range(2 * MAX_EXP + 3)])


def _words(data) -> np.ndarray:
    """Bytes as native 4-byte words: one word per four bytes."""
    return np.frombuffer(bytes(data), dtype=np.uint32).copy()


_DIGIT_WORDS = _words(  # the four ASCII digits of 0..9999
    (np.arange(10**4, dtype=np.int32)[:, None] // np.array([1000, 100, 10, 1], dtype=np.int32)
     % 10 + ord("0")).astype(np.uint8))
_LEAD_WORDS = _words(b"".join(b"-%d. " % d for d in range(10)))
_EXP_WORDS = _words(b"".join(b"e%+03d" % e for e in range(-99, 100)))
_KEEP_WORDS = _words([1, 1, 1, 0] + [1] * 16 + [0] * 4)  # sign byte kept


def format_e12(values):
    """``"%.12e" % v`` of each value in slots of SLOT bytes.

    Returns the bytes (shape ``values.shape + (SLOT,)``) and the mask of the
    ones ``%`` prints; the last four bytes of each slot are zero and masked.
    """
    values = np.asarray(values, dtype=float)
    mag = np.abs(values)
    nonzero = np.isfinite(mag) & (mag > 0)
    exp = np.floor(np.log10(np.where(nonzero, mag, 1.0))).astype(np.int64)
    # Zero and the magnitudes far out of range scale to s = 0.
    mag = np.where(nonzero & (np.abs(exp) <= MAX_EXP + 1), mag, 0.0)

    def scaled(exp):
        return mag * _POW10[12 - np.clip(exp, -MAX_EXP, MAX_EXP)]

    s = scaled(exp)  # log10 may put a power of ten one decade off
    exp += (s >= 1e13).astype(np.int64) - (nonzero & (s < 1e12))
    s = scaled(exp)
    fallback = ((np.abs(exp) > MAX_EXP) | ~np.isfinite(values)
                | (nonzero & ~((s >= 1e12) & (s < 1e13)))
                | (np.abs(s - np.floor(s) - 0.5) < TIE_MARGIN))
    mant = np.rint(np.where(fallback, 0.0, s)).astype(np.int64)
    carry = mant == 10**13  # 9.9999999999995 rounds up to 1.000000000000e(e+1)
    mant[carry] = 10**12
    exp += carry  # zero keeps the exponent 0 of log10(1)

    words = np.zeros(values.shape + (SLOT // 4,), dtype=np.uint32)
    high, low = (part.astype(np.int32) for part in np.divmod(mant, 10**8))
    words[..., 0] = _LEAD_WORDS[high // 10**4]
    words[..., 1] = _DIGIT_WORDS[high % 10**4]
    words[..., 2] = _DIGIT_WORDS[low // 10**4]
    words[..., 3] = _DIGIT_WORDS[low % 10**4]
    words[..., 4] = _EXP_WORDS[np.clip(exp, -99, 99) + 99]
    out = words.view(np.uint8)
    keep = np.empty_like(words)
    keep[...] = _KEEP_WORDS
    keep = keep.view(bool)
    keep[..., 0] = np.signbit(values)
    texts = ["%.12e" % v for v in values[fallback].tolist()]
    if texts:
        out[fallback, :20] = np.frombuffer(
            "".join(t.ljust(20) for t in texts).encode("ascii"), dtype=np.uint8
        ).reshape(-1, 20)
        keep[fallback, :20] = np.arange(20) < np.array([len(t) for t in texts])[:, None]
    return out, keep


def csv_text(names, columns, flags):
    """The CSV of a table as ASCII byte blocks: the header line of ``names``,
    then one block per CHUNK rows, each row its cells of ``columns`` as
    ``%.12e`` and its flag as 0 or 1."""
    yield (",".join(names) + "\n").encode("ascii")
    for start in range(0, len(flags), CHUNK):
        out, keep = format_e12(np.column_stack([c[start:start + CHUNK] for c in columns]))
        # The spare word of each slot: the comma; after the last, flag and LF.
        out[..., 20] = ord(",")
        out[:, -1, 21] = np.where(flags[start:start + CHUNK], ord("1"), ord("0"))
        out[:, -1, 22] = ord("\n")
        keep[..., 20] = keep[:, -1, 21:23] = True
        yield out[keep].tobytes()
