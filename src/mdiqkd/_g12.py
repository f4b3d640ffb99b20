"""Print blocks of float64 numbers with the bytes of Python's "%.12g".

A table row is a constant prefix before each number and a constant
suffix. Every number v != 0 is printed from its decimal exponent
e = floor(lg |v|) and the nearest integer q of its mantissa
|v| * 10**(11 - e): q's twelve digits come from a 4-digit lookup table,
trailing zeros after the decimal point become NUL, and the digits are
laid out in a NUL-padded slot as %g lays them out (fixed point for
-4 <= e < 12, d.ddde+dd otherwise). bytes.translate drops the NULs.

The computed mantissa is within about 2e-4 of the exact one, so q is the
correctly rounded mantissa unless the exact one lies near a rounding tie.
A number is therefore printed by Python's "%.12g" instead when its
mantissa's fraction lies within 1e-3 of .5, when q leaves [1e11, 1e12]
(q = 1e12 is a carry into the next exponent, printed here), or when
|e| >= 290. About 0.2% of random numbers take that path; 0, -0, inf,
-inf and nan are printed here. No number is approximated: every printed
byte is the byte "%.12g" % v gives.
"""

import numpy as np

# the most rows of a block printed at once: the widest table row, JSON-lines
# with 11 numbers, takes 382 bytes of row buffer, so the buffer (and the
# bytes made from it) stays under glibc's 128 KiB mmap threshold, as every
# other temporary does; larger ones would be mapped fresh on every chunk
CHUNK_ROWS = 320

_U8 = np.dtype("<u8")
# the layout tables cover e in [-_E_MAX, _E_MAX]; other numbers fall back
_E_MAX = 289
_TIE = 0.5 - 1e-3
_SLOT = 19  # the sign byte and 18 bytes of digits, point and exponent
_MINUS = np.uint8(ord("-"))
_NONFINITE = np.frombuffer(b"".join(t.ljust(_SLOT, b"\0") for t in (b"nan", b"inf", b"-inf")),
                           dtype=np.uint8).reshape(3, _SLOT)


def _words(chars):
    """The little-endian uint64 words of each row of a (n, 8 * w) array, as (w, n)."""
    return np.ascontiguousarray(chars, dtype=np.uint8).view(_U8).T.copy()


def _digit_tables():
    """The 4 ASCII digits of 0..9999, as is and with trailing zeros NUL."""
    plain = np.arange(ord("0"), ord("9") + 1, dtype=_U8)
    stripped = plain * (plain > ord("0"))
    for width in (8, 16):  # 1 -> 2 -> 4 digits: each number's high half, then its low half
        low_zero = np.arange(len(plain)) == 0
        stripped = np.where(low_zero, stripped[:, None],
                            plain[:, None] | (stripped << np.uint64(width))).ravel()
        plain = (plain[:, None] | (plain << np.uint64(width))).ravel()
    return np.concatenate([plain, stripped])


# _GROUPS[g] and _GROUPS[g + 10000]: group g's digits, as is and stripped
_GROUPS = _digit_tables()
_STRIPPED = _GROUPS[10_000:]


def _layout_tables():
    """Per exponent e in [-_E_MAX, _E_MAX], the words that lay out its digits.

    The 12 digits, as a 128-bit number of two words, are shifted up by s
    bytes and the low max(s, k) bytes are set to '0' where NUL (a digit
    ORs '0' unchanged); a point is inserted after byte k when a digit
    follows it. e < 0 in fixed point: s = -e, k = 1 ("0.000ddd");
    0 <= e < 12: s = 0, k = e + 1; otherwise s = 0, k = 1 and the
    exponent goes to bytes 13 to 17 of the slot.
    """
    e = np.arange(-_E_MAX, _E_MAX + 1)[:, None]
    fixed = (e >= -4) & (e < 12)
    s = np.where(fixed & (e < 0), -e, 0)
    k = np.where(fixed & (e >= 0), e + 1, 1)
    place = np.arange(16)
    fill = np.where(place < np.maximum(s, k), ord("0"), 0)
    mask = np.where(place < k, 0xFF, 0)
    point = np.where(place == k, ord("."), 0)
    # e+dd, or e+ddd from 100 on, NUL-padded to 8 bytes
    size = np.abs(e)
    three = size >= 100
    chars = np.zeros((len(e), 8), dtype=np.int64)
    chars[:, :1] = ord("e")
    chars[:, 1:2] = np.where(e < 0, ord("-"), ord("+"))
    chars[:, 2:3] = np.where(three, size // 100, size // 10 % 10) + ord("0")
    chars[:, 3:4] = np.where(three, size // 10 % 10, size % 10) + ord("0")
    chars[:, 4:5] = np.where(three, size % 10 + ord("0"), 0)
    exponent = _words(chars * ~fixed)[0]
    return (8 * s[:, 0].astype(_U8), *_words(fill), *_words(mask), *_words(point),
            exponent << np.uint64(40), exponent >> np.uint64(24))


_SHIFT, _FILL0, _FILL1, _MASK0, _MASK1, _POINT0, _POINT1, _EXP1, _EXP2 = _layout_tables()
# 10**(11 - e), correctly rounded, for e in [-_E_MAX, _E_MAX]
_SCALE = np.array([float(f"1e{11 - e}") for e in range(-_E_MAX, _E_MAX + 1)])


def _take(table, index):
    # a number that falls back may index outside the table
    return table.take(index, mode="clip")


def _print(v, out, starts):
    """Write the numbers v, of shape (fields, rows), into the row buffer out.

    starts: per field, the column of out where its slot begins. Each
    temporary is updated in place or dropped once read, so that few of
    them are alive at once.
    """
    # inf, nan and a number that falls back may give a q that no int64 holds
    with np.errstate(invalid="ignore"):
        m = np.abs(v)
        zero = m == 0.0
        m += zero  # 0 is printed as 1, less one below
        nonfinite = ~(m < np.inf)  # inf and nan, spelt from _NONFINITE
        e = np.floor(np.log10(m)).astype(np.int64)
        m *= _take(_SCALE, e + _E_MAX)
        q = np.rint(m)
        bad = np.abs(m - q) > _TIE
        q = q.astype(np.int64)
    del m
    bad |= (q < 10**11) | (q > 10**12)
    carry = q == 10**12
    e += carry
    q[carry] = 10**11
    e += _E_MAX  # from here on, the index of e in the tables
    bad |= e.view(_U8) > np.uint64(2 * _E_MAX)
    # // by a scalar is much faster than divmod
    hi = q // np.int64(10**8)
    q -= hi * np.int64(10**8)
    mid = q // np.int64(10**4)
    q -= mid * np.int64(10**4)
    low_zero = q == 0
    # a group's trailing zeros are NUL only when every later group is zero
    x0 = _take(_GROUPS, hi + np.int64(10_000) * (low_zero & (mid == 0)))
    x0 |= _take(_GROUPS, mid + np.int64(10_000) * low_zero) << np.uint64(32)
    x1 = _take(_STRIPPED, q)
    del hi, mid, q, low_zero
    shift = _take(_SHIFT, e)
    x1 <<= shift
    x1 |= x0 >> np.uint64(32) >> (np.uint64(32) - shift)
    x1 |= _take(_FILL1, e)
    x0 <<= shift
    x0 |= _take(_FILL0, e)
    del shift
    # split at the point: l below it, h above, shifted up one byte
    l0 = x0 & _take(_MASK0, e)
    l1 = x1 & _take(_MASK1, e)
    h0 = x0 ^ l0
    h1 = x1 ^ l1
    del x0, x1
    point = (h0 | h1) != 0
    l0 -= zero  # "1" -> "0"
    fields, rows = v.shape
    words = np.empty((fields, rows, 3), dtype=_U8)
    words[..., 0] = l0 | (h0 << np.uint64(8)) | _take(_POINT0, e) * point
    words[..., 1] = (l1 | (h1 << np.uint64(8)) | (h0 >> np.uint64(56))
                     | _take(_POINT1, e) * point | _take(_EXP1, e))
    words[..., 2] = (h1 >> np.uint64(56)) | _take(_EXP2, e)
    del l0, l1, h0, h1, point
    text = words.view(np.uint8).reshape(fields, rows, 24)
    sign = np.signbit(v).view(np.uint8) * _MINUS
    for j, start in enumerate(starts):
        out[:rows, start] = sign[j]
        out[:rows, start + 1:start + _SLOT] = text[j, :, :_SLOT - 1]
    bad &= ~nonfinite
    for mask, spell in ((bad, _python_slots), (nonfinite, _nonfinite_slots)):
        j, r = np.divmod(np.flatnonzero(mask), rows)
        if r.size:
            out[r[:, None], starts[j, None] + np.arange(_SLOT)] = spell(v[j, r])


def _python_slots(x):
    """The slots of the numbers x as Python's "%.12g" prints them."""
    text = "".join(("%.12g" % n).ljust(_SLOT, "\0") for n in x.tolist())
    return np.frombuffer(text.encode(), dtype=np.uint8).reshape(-1, _SLOT)


def _nonfinite_slots(x):
    """The slots of inf, -inf and nan, which "%.12g" spells without a sign for nan."""
    return _NONFINITE[np.where(np.isnan(x), 0, 1 + np.signbit(x))]


def print_rows(block, prefixes, suffix):
    """Yield the text of the rows of block, CHUNK_ROWS rows at a time.

    block: a (fields, rows) float64 array, or a sequence of fields
    float64 rows of equal length; prefixes: one str per field, printed
    before it; suffix: printed after the last field. Each row's text is
    prefixes[0] + "%.12g" % block[0][r] + ... + suffix, byte for byte.
    The row buffer, with the prefixes and the suffix in place, is made
    once and reused for every chunk.
    """
    fields, rows = len(block), len(block[0])
    widths = [len(p) + _SLOT for p in prefixes]
    starts = np.cumsum([0] + widths)
    chunk = max(1, min(CHUNK_ROWS, rows))
    out = np.zeros((chunk, starts[-1] + len(suffix)), dtype=np.uint8)
    for p, start in zip(prefixes, starts.tolist()):
        out[:, start:start + len(p)] = np.frombuffer(p.encode(), dtype=np.uint8)
    out[:, starts[-1]:] = np.frombuffer(suffix.encode(), dtype=np.uint8)
    slots = starts[:-1] + [len(p) for p in prefixes]
    v = np.empty((fields, chunk))
    for first in range(0, rows, chunk):
        n = min(chunk, rows - first)
        for j, field in enumerate(block):
            v[j, :n] = field[first:first + n]
        _print(v[:, :n], out, slots)
        yield out[:n].tobytes().translate(None, b"\0").decode("ascii")
