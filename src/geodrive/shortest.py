"""Shortest round-trip decimal text of doubles, a whole array at a time.

``slots(x)`` lays out each double of x as the bytes of ``repr(float(v))``,
one row of WIDTH bytes per double, with NUL in every slot the text does
not use: a row with its NULs removed is the text.

The digits are Schubfach's (R. Giulietti, "The Schubfach way to render
doubles", 2020).  A finite nonzero double is c 2^q.  The products of 4c
and of its two rounding bounds, scaled by 2^h, with g_k, 10^-k in 126
bits, give them in units of 10^k, rounded to odd; the shortest decimal
inside the bounds, the nearer of two (the even one on a tie), is the
double's digits.  Two changes to the reference, which prints at least two
digits, give repr's digits: the multiple of ten below the estimate is
tried for every estimate, and subnormals are not scaled by ten.  Each
product is built from 32-bit halves in uint64 arrays, and the bounds'
products from the double's by 128-bit shifts and adds; no operation mixes
uint64 with a signed integer, so value-based and NEP 50 promotion give
the same dtypes.

The layout is repr's: positional when -4 < decpt <= 16, with ".0" after
an integer, otherwise d.ddde+XX with an exponent of at least two digits;
nan, inf, -inf, 0.0 and -0.0 are rows of a constant table.
"""

import types

import numpy as np

_U = np.uint64
_M32 = _U(2 ** 32 - 1)
_M63 = _U(2 ** 63 - 1)

# A row is 14 little-endian uint32 quads, 56 bytes: the sign and the "0."
# and zeros of a positional 0.000ddd; the digits before the point; the
# point and the digits after it; the "0" of a trailing ".0" or the
# exponent e+XX.  The last byte stays NUL for the caller's separator.
WIDTH = 56
_QUAD = np.dtype("<u4")

_POW10 = np.array([10 ** i for i in range(18)], dtype=_U)


def _bytes(mask):
    """A boolean array over bytes as 0x00 and 0xFF bytes."""
    return mask.astype(np.uint8) * np.uint8(255)


def _planes(rows, width=None):
    """Table rows of bytes (a uint8 matrix, or bytes of rows of width) as
    planes of quads: row i's quad j at [j, i]."""
    if width is not None:
        rows = np.frombuffer(rows, dtype=np.uint8).reshape(-1, width)
    return np.ascontiguousarray(rows.view(_QUAD).T)


def _layout():
    """The tables of the layout."""
    # "0000" to "9999" as four ASCII bytes each, then ".\0\0d" for the
    # first digit d, so that 17 digits are bytes 3 to 19 of five quads,
    # with the point at byte 0; and the trailing zeros of each quad
    quads = np.zeros((10_010, 4), dtype=np.uint8)
    trailing = np.zeros(10_000, dtype=np.uint8)
    i = np.arange(10_000, dtype=np.uint16)
    for j in range(4):
        quads[:10_000, j] = i // 10 ** (3 - j) % 10 + 48
        trailing += i % 10 ** (j + 1) == 0
    quads[10_000:, 0] = 46
    quads[10_000:, 3] = np.arange(48, 58)
    byte = np.arange(20)
    a = np.arange(17)[:, None, None, None]
    shown = np.arange(18)[:, None, None]
    point = np.array([False, True])[:, None]
    return types.SimpleNamespace(
        quads=quads.view(_QUAD).ravel(), trailing=trailing,
        # by a, the number of digits before the point (0 to 16): those
        # digits
        head=_planes(_bytes((byte >= 3) & (byte < 3 + a[:, 0, 0]))),
        # by 36 a + 2 (digits shown, 0 to 17) + whether a point is shown:
        # the point and the digits after it
        fraction=_planes(_bytes(((byte >= 3 + a) | (byte == 0) & point)
                                & (byte < 3 + shown)).reshape(612, 20)),
        # by 6 (sign) + min(max(decpt, -4), 1) + 4: the sign, then "0."
        # and the zeros of a positional 0.000ddd
        prefix=_planes(b"".join(
            (sign + ("0." + "0" * -decpt if -4 < decpt <= 0 else ""))
            .encode().ljust(8, b"\0")
            for sign in ("", "-") for decpt in range(-4, 2)), 8),
        # by exponent + 324 (-324 to 308), then the "0" of a trailing
        # ".0", then nothing
        tail=_planes(b"".join(
            [f"e{e:+03d}".encode().ljust(8, b"\0") for e in range(-324, 309)]
            + [b"0".ljust(8, b"\0"), bytes(8)]), 8),
        # the rows of nan, inf, -inf, 0.0 and -0.0
        special=np.frombuffer(b"".join(
            (b"-" if text[0] == "-" else b"").ljust(8, b"\0")
            + text.lstrip("-").encode().ljust(48, b"\0")
            for text in ("nan", "inf", "-inf", "0.0", "-0.0")),
            dtype=_QUAD).reshape(5, -1))


def _g(k):
    """g_k: (g - 1) 2^r <= 10^-k < g 2^r with 2^125 <= g - 1 < 2^126."""
    if k <= 0:
        p = 10 ** -k
        r = p.bit_length() - 126
        return (p >> r if r >= 0 else p << -r) + 1
    p = 10 ** k
    return (1 << 125 + p.bit_length()) // p + 1


def _powers():
    """(g, kh): the rows g_k >> 63 and the low 63 bits of g_k for the 617
    powers from k = -324 to 292, and the rows k + 324 and h for each biased
    exponent from 1 to 2046, and at 2048 more for a binade's lower
    boundary, where the gap below is half the gap above."""
    q = np.arange(1, 2047) - 1075
    kh = np.zeros((2, 4096), dtype=np.int16)
    for base, quarter in ((1, 0), (2049, 274_743_187_321)):
        # floor(log10(2^q)), or of 3/4 2^q, and floor(log2(10^-k))
        k = (q * 661_971_961_083 - quarter) >> 41
        kh[0, base:base + 2046] = k + 324
        kh[1, base:base + 2046] = q + ((-k * 913_124_641_741) >> 38) + 2
    g = [_g(k) for k in range(-324, 293)]
    return (np.array([[v >> 63 for v in g], [v & 2 ** 63 - 1 for v in g]],
                     dtype=_U), kh)


# built at import, in about 3 ms: built at a run's first write instead,
# among the run's arrays, they raised the peak RSS of flat-and-grids by
# about 0.4 MiB
_LAYOUT = _layout()
_POWERS, _KH = _powers()


def _mul(a, b):
    """(hi, lo) with hi 2^64 + lo = a b, for uint64 arrays, from their
    32-bit halves."""
    a1, a0 = a >> _U(32), a & _M32
    b1, b0 = b >> _U(32), b & _M32
    low = a0 * b0
    x = a1 * b0
    y = a0 * b1
    mid = (low >> _U(32)) + (x & _M32) + (y & _M32)
    return a1 * b1 + (x >> _U(32)) + (y >> _U(32)) + (mid >> _U(32)), a * b


def _decimal(bits):
    """(f, k) with f 10^k the shortest decimal that rounds to the positive
    finite nonzero double of each of bits, the nearer one when there are
    two."""
    be = bits >> _U(52)
    t = bits & _U(2 ** 52 - 1)
    # c 2^q with c = 2^52 + t, or t for a subnormal, whose q is that of
    # biased exponent 1; below a power of two the gap is halved
    c = t | ((be != 0).astype(_U) << _U(52))
    edge = (t == 0) & (be > 1)
    i = np.maximum(be, _U(1)).astype(np.intp) + 2048 * edge
    k, h = np.take(_KH, i, axis=1)
    g = np.take(_POWERS, k, axis=1)
    h = h.astype(_U)
    # rows g1 and g0 of g cp, then of g cp + g 2^(h+1), then of g cp -
    # g 2^(h+1) (- g 2^h below a power of two): 4 v and its bounds 4 v + 2
    # and 4 v - 2 (or - 1), times 2^h
    hi = np.empty((3, 2, len(bits)), dtype=_U)
    lo = np.empty_like(hi)
    hi[0], lo[0] = _mul(g, c << (h + _U(2)))
    shift = h + _U(1)
    step_hi, step_lo = g >> (_U(64) - shift), g << shift
    np.add(lo[0], step_lo, out=lo[1])
    np.add(hi[0], step_hi + (lo[1] < step_lo), out=hi[1])
    shift -= edge
    step_hi, step_lo = g >> (_U(64) - shift), g << shift
    np.subtract(lo[0], step_lo, out=lo[2])
    np.subtract(hi[0], step_hi + (lo[0] < step_lo), out=hi[2])
    # Schubfach's rop, (g1 2^63 + g0) cp / 2^127 rounded to odd, of the
    # three at once: in units of 10^k, and a bound is inside when c is even
    z = (lo[:, 0] >> _U(1)) + hi[:, 1]
    vb, vbr, vbl = (hi[:, 0] + (z >> _U(63))) | (((z & _M63) + _M63)
                                                 >> _U(63))
    odd = c & _U(1)
    vbr -= odd
    vbl += odd
    s = vb >> _U(2)
    # at most one multiple of ten lies inside; failing one, s or s + 1:
    # the one inside, or else the nearer, the even one on a tie
    sp10 = s // _U(10) * _U(10)
    upin = vbl <= sp10 << _U(2)
    wpin = (sp10 + _U(10)) << _U(2) <= vbr
    uin = vbl <= s << _U(2)
    win = (s + _U(1)) << _U(2) <= vbr
    mid = (s << _U(2)) + _U(2)
    up = np.where(uin != win, win,
                  (vb > mid) | ((vb == mid) & ((s & _U(1)) == _U(1))))
    f = np.where(upin != wpin, sp10 + _U(10) * wpin, s + up)
    return f, k - 324


def slots(x):
    """The text of repr(float(v)) for each double v of the 1-d float64
    array x, as a (len(x), WIDTH) uint8 array with NUL in unused slots."""
    tab = _LAYOUT
    bits = x.view(_U)
    mag = bits & _M63
    special = (mag == _U(0)) | (mag >= _U(0x7FF << 52))
    # 1.0 stands in for the specials, whose rows are replaced at the end
    f, k = _decimal(np.where(special, _U(0x3FF << 52), mag))
    # a normal double has 16 or 17 digits, a subnormal may have fewer
    n0 = (f >= _U(10 ** 16)).astype(np.intp) + 16
    few = np.flatnonzero(f < _U(10 ** 15))
    n0[few] = np.searchsorted(_POW10, f[few], side="right")
    decpt = n0 + k

    # the 17 digits of f, left-aligned: the first, then four quads
    f = f * np.take(_POW10, 17 - n0)
    quads = np.empty((5, len(x)), dtype=_U)
    hi = f // _U(10 ** 8)
    lo = f - hi * _U(10 ** 8)
    np.floor_divide(hi, _U(10 ** 8), out=quads[0])
    hi -= quads[0] * _U(10 ** 8)
    quads[0] += _U(10_000)
    for j, half in ((1, hi), (3, lo)):
        np.floor_divide(half, _U(10 ** 4), out=quads[j])
        np.subtract(half, quads[j] * _U(10 ** 4), out=quads[j + 1])
    # indices below 2^63 read the same as intp: a view, not a copy
    quads = quads.view(np.intp)
    digits = np.take(tab.quads, quads)
    # significant digits: 17 less the trailing zeros
    t1, t2, t3, t4 = np.take(tab.trailing, quads[1:])
    four = np.uint8(4)
    n = 17 - (t4 + (t4 == four) * (t3 + (t3 == four)
                                   * (t2 + (t2 == four) * t1))).astype(np.intp)

    sci = (decpt <= -4) | (decpt > 16)
    # digits before the point, and digits shown: all of an integer part,
    # none of the trailing zeros after the point
    a = np.where(sci, 1, np.maximum(decpt, 0))
    shown = np.where(sci, n, np.maximum(n, decpt))
    point = np.where(sci, n > 1, decpt > 0)
    # the 14 quads of the rows as contiguous planes, transposed once
    planes = np.empty((WIDTH // 4, len(x)), dtype=_QUAD)
    negative = (bits >> _U(63)).view(np.intp)
    prefix = np.minimum(np.maximum(decpt, -4), 1) + 4 + 6 * negative
    np.take(tab.prefix, prefix, axis=1, out=planes[:2])
    np.bitwise_and(digits, np.take(tab.head, a, axis=1), out=planes[2:7])
    np.bitwise_and(digits, np.take(tab.fraction, 36 * a + 2 * shown + point,
                                   axis=1), out=planes[7:12])
    np.take(tab.tail, np.where(sci, decpt + 323,
                               np.where(decpt >= n, 633, 634)),
            axis=1, out=planes[12:])
    out = np.ascontiguousarray(planes.T)
    if special.any():
        which = np.flatnonzero(special)
        code = np.where(mag[which] == _U(0), 3, 1) + negative[which]
        code[np.isnan(x[which])] = 0
        out[which] = tab.special[code]
    return out.view(np.uint8)
