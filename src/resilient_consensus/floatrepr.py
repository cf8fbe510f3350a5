"""Python's float ``repr``, computed with numpy on a whole block of values.

``repr_rows(block)`` returns the bytes of
``"".join(",".join(map(repr, r)) + "\\n" for r in block.tolist()).encode()``
for a 2-D float64 block. ``repr`` writes the shortest decimal that reads
back to the same float, and of those the nearest to it (Steele & White
1990; Ryu, Adams, PLDI 2018). Here those digits are found exactly, with
integer arithmetic on all values at once. For a finite x = M 2^E, with
M < 2^53 and the decimal exponent k = floor(log10 |x|):

* P = M 5^(16 - k), to 128 bits from 32-bit limbs, gives the 17 digits
  N = floor(x 10^(16 - k)) and the remainder rem of x 10^(16 - k) =
  N + rem / 2^sh. A k that ``np.log10`` got wrong shows as N outside
  [10^16, 10^17), and those values are tried once more with k - 1 or k + 1.
* The integers [lo, hi] of the rounding interval, x plus or minus half a
  unit in the last place (below a power of two, a quarter on the low
  side), scaled the same way; its ends count only for an even M, which a
  decimal at an end rounds to.
* t is the largest number of trailing digits that can be dropped: the
  largest t with hi mod 10^t <= hi - lo. The digits are x 10^(16 - k)
  rounded to a multiple of 10^t, which must lie in [lo, hi].

The exact path takes normal x with k in [-11, 16], where 5^(16 - k) <
2^63 and every shift stays inside 64 bits; zeros have a layout of their
own. Any other value goes to ``_fallback``, which calls ``repr``:
subnormals, |x| < 1e-11 or >= 1e17, inf, nan, and the few values whose
nearest shortest decimal the arithmetic above cannot place (a power of
two, say, whose nearest decimal lies outside its narrower low side).
None of the benchmark's trajectories, at seed 1 or 2, has such a value.

Each value's text is laid out right-aligned in a fixed-width byte slot,
with two digits per ``uint16`` table lookup, and one boolean-mask
compress of all slots gives the bytes. The working memory is about 200
bytes a value.
"""

from __future__ import annotations

import numpy as np

#: Bytes of a value's slot. Its text ends in column 24, right-aligned, and
#: its separator is column 25. A positional text takes up to 23 columns
#: (a sign, "0.", three zeros and 17 digits); an exponent, as in "e-05",
#: columns 21 to 24; and the text of ``_fallback`` up to 24.
_SLOT = 26
_SEP = _SLOT - 1
_COLS = np.arange(_SLOT)
#: Row i: 255 in each column before column i, else 0.
_BEFORE = np.where(_COLS[None, :] < _COLS[:, None], 255, 0).astype(np.uint8)
#: Row i: True from column i on.
_FROM = _COLS[None, :] >= _COLS[:, None]

_U64 = np.uint64
#: 10^i and 5^i as uint64, for i in 0..19 and 0..27.
_POW10 = np.array([10**i for i in range(20)], dtype=_U64)
_POW5 = np.array([5**i for i in range(28)], dtype=_U64)
#: The two ASCII digits of 0..99 in memory order, read as one uint16.
_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), dtype=np.uint16)


def _fallback(value: float) -> bytes:
    """The text of one value the exact path does not take."""
    return repr(value).encode()


def _scaled(m, e, k):
    """For x = m 2^e and a guess k of its decimal exponent: the integer
    digits n = floor(x 10^(16 - k)), the remainder rem (n + rem / 2^sh is
    x 10^(16 - k)), sh, 5^(16 - k), and where the guess was right: 10^16
    <= n < 10^17, computed without overflow."""
    q = (16 - k).astype(np.intp)
    f = _POW5[q]
    sh = -q - e
    # P = m f in two 64-bit words, high and low
    m_lo, m_hi = m & _U64(0xFFFFFFFF), m >> _U64(32)
    f_lo, f_hi = f & _U64(0xFFFFFFFF), f >> _U64(32)
    ll = m_lo * f_lo
    mid = m_lo * f_hi + m_hi * f_lo + (ll >> _U64(32))
    low = (mid << _U64(32)) | (ll & _U64(0xFFFFFFFF))
    high = m_hi * f_hi + (mid >> _U64(32))
    right = np.maximum(sh, 0).astype(_U64)
    left = np.maximum(-sh, 0).astype(_U64)
    n = ((high << (_U64(64) - right)) | (low >> right)) << left  # a shift by 64 gives 0
    rem = low & ((_U64(1) << right) - _U64(1))
    ok = ((high >> right) == 0) & (n >= _POW10[16]) & (n < _POW10[17])
    return n, rem, sh, f, ok


def _interval(n, rem, sh, f, m, below_power_of_two):
    """The integers [lo, hi] that read back to x, in the units of n, as
    int64: x 10^(16 - k) is n + rem / 2^sh, and half a unit in the last
    place is f / 2^(sh + 1)."""
    odd = (m & _U64(1)).astype(bool)
    j = sh + 1
    u = f + (rem << _U64(1))
    right, left = np.maximum(j, 0).astype(_U64), np.maximum(-j, 0).astype(_U64)
    hi = (n + ((u >> right) << left)).astype(np.int64)
    hi -= odd & ((u & ((_U64(1) << right) - _U64(1))) == 0)
    j = j + below_power_of_two
    d = f.astype(np.int64) - (rem << (_U64(1) + below_power_of_two.astype(_U64))).astype(np.int64)
    right, left = np.maximum(j, 0), np.maximum(-j, 0)
    lo = n.astype(np.int64) - ((d >> right) << left)
    lo += odd & ((d & ((1 << right) - 1)) == 0)
    return lo, hi


def _trailing(lo, hi):
    """The largest t in 0..17 with hi mod 10^t <= hi - lo: the number of
    trailing digits that can be dropped. If t fits, so does t - 1."""
    width = hi - lo
    hi = hi.view(_U64)
    t = np.zeros(len(hi), dtype=np.intp)
    q = hi
    for i in range(1, 18):
        q = q // _U64(10)
        fits = (hi - q * _POW10[i]).view(np.int64) <= width
        if not fits.any():
            break
        t += fits
    return t


def _digits(values):
    """The shortest digits of each value that the exact path takes: (ok,
    d, count, point), where value = 0.d * 10^point with d an integer of
    ``count`` digits; ok marks the values the rest are meant for."""
    bits = values.view(_U64)
    biased = ((bits >> _U64(52)) & _U64(0x7FF)).astype(np.int64)
    fraction = bits & _U64((1 << 52) - 1)
    normal = (biased > 0) & (biased < 0x7FF)
    magnitude = np.abs(np.where(normal, values, 1.0))
    k = np.floor(np.log10(magnitude)).astype(np.int64)
    ok = normal & (k >= -12) & (k <= 17)  # a guess one off the range is tried again
    np.clip(k, -11, 16, out=k)
    m = fraction | _U64(1 << 52)
    e = biased - 1075
    n, rem, sh, f, right = _scaled(m, e, k)
    retry = np.flatnonzero(ok & ~right)
    if len(retry):  # a guess off by one, near a power of ten
        k[retry] += np.where(n[retry] < _POW10[16], -1, 1)
        inside = (k[retry] >= -11) & (k[retry] <= 16)
        k[retry[~inside]] = 0
        n2, rem2, sh2, f2, right2 = _scaled(m[retry], e[retry], k[retry])
        n[retry], rem[retry], sh[retry], f[retry] = n2, rem2, sh2, f2
        ok[retry] = inside & right2
    below_power_of_two = (fraction == 0) & (biased > 1)
    ok &= sh + below_power_of_two <= 62  # the interval's ends to 64 bits
    sh[~ok] = 1
    lo, hi = _interval(n, rem, sh, f, m, below_power_of_two)
    hi[~ok] = lo[~ok] - 1  # no digit to drop
    t = _trailing(lo, hi)
    unit = _POW10[t]
    d = n // unit
    # round n + rem / 2^sh to a multiple of 10^t: compare the digits
    # dropped with half of 10^t, then rem with the rest of that half, 0 at
    # t > 0 and 2^(sh - 1) at t = 0 (1 at sh <= 0, where rem is 0 and
    # nothing rounds); a tie goes to the even digit, as in repr
    excess = (n - d * unit).astype(np.int64) - (unit >> _U64(1)).astype(np.int64)
    half = np.where(t == 0, _U64(1) << np.maximum(sh - 1, 0).astype(_U64), _U64(0))
    d += (excess > 0) | (excess == 0) & ((rem > half) | (rem == half) & (d & _U64(1)).astype(bool))
    chosen = (d * unit).astype(np.int64)
    ok &= (chosen >= lo) & (chosen <= hi)
    carry = d == _POW10[17 - t]  # only t = 17: x rounds to 10^(k + 1)
    d[carry] = 1
    count = 17 - t + carry
    return ok, d, count, k + 1 + carry


def repr_rows(block) -> bytes:
    """The CSV lines of a 2-D float64 block, each value the ``repr`` of its
    float: ``"".join(",".join(map(repr, r)) + "\\n" for r in
    block.tolist()).encode()``."""
    block = np.ascontiguousarray(block, dtype=np.float64)
    rows, width = block.shape
    if not rows * width:
        return b"\n" * rows
    values = block.ravel()
    with np.errstate(all="ignore"):
        ok, d, count, point = _digits(values)
    other = np.flatnonzero(~ok & (values != 0))
    d[~ok], count[~ok], point[~ok] = 0, 1, 1  # a zero reads "0.0"
    # positional: the integer part, max(point, 1) digits, and the
    # fraction, max(count - point, 1) digits, as one integer g
    fraction = np.maximum(count - point, 1)
    g = d * _POW10[np.maximum(point - count + 1, 0)]
    places = np.maximum(point, 1) + 1 + fraction  # columns the text takes
    dot = 24 - fraction
    # else one digit, then the fraction if count > 1, then the exponent
    exponent = np.flatnonzero((point <= -4) | (point > 16))
    count_e = count[exponent]
    g[exponent] = d[exponent]
    dot[exponent] = np.where(count_e > 1, 21 - count_e, 0)
    places[exponent] = count_e + (count_e > 1) + 4
    negative = np.signbit(values)
    places += negative
    # the digit pairs of g, from three groups of six digits, as 22 digits
    # in columns 2 to 23, or, with an exponent, 18 in columns 2 to 19;
    # each column from the point on takes the digit left of it, and the
    # point goes in
    groups = np.empty((3, len(g)), dtype=np.uint32)
    top, middle = g // _U64(10**12), g // _U64(10**6)
    groups[0], groups[1], groups[2] = top, middle - top * _U64(10**6), g - middle * _U64(10**6)
    first_two, first_four = groups // 10000, groups // 100
    pairs = np.empty((3, 3, len(g)), dtype=np.intp)
    pairs[:, 0], pairs[:, 1], pairs[:, 2] = first_two, first_four - first_two * 100, groups - first_four * 100
    digits16 = np.full((len(g), _SLOT // 2), _PAIRS[0])
    digits16[:, 3:12] = _PAIRS.take(pairs.reshape(9, -1)).T
    digits16[exponent, 1:10] = digits16[exponent, 3:12]
    digits = digits16.view(np.uint8)
    shifted = np.empty_like(digits)
    shifted.ravel()[1:] = digits.ravel()[:-1]
    slots = digits ^ shifted
    slots &= _BEFORE.take(dot, axis=0)
    slots ^= shifted
    first = np.arange(0, slots.size, _SLOT)
    slots.ravel()[first + dot] = ord(".")  # column 0, left of the text, without a point
    slots.ravel()[(first + _SEP - places)[negative]] = ord("-")
    power = point[exponent] - 1
    tail = np.empty((len(exponent), 4), dtype=np.uint8)
    tail[:, 0] = ord("e")
    tail[:, 1] = np.where(power < 0, ord("-"), ord("+"))
    tail[:, 2:] = _PAIRS[np.abs(power)].view(np.uint8).reshape(-1, 2)
    slots[exponent, _SEP - 4 : _SEP] = tail
    for i in other.tolist():
        text = _fallback(float(values[i]))
        slots[i, _SEP - len(text) : _SEP] = np.frombuffer(text, dtype=np.uint8)
        places[i] = len(text)
    slots[:, _SEP] = ord(",")
    slots[width - 1 :: width, _SEP] = ord("\n")
    return slots[_FROM.take(_SEP - places, axis=0)].tobytes()
