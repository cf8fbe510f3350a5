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
its digits turned to ASCII two at a time with integer arithmetic, and one
boolean-mask compress of all slots gives the bytes. Every step computes
in place (``out=``) in a ``Workspace``, which holds twelve words, eight
flags, one slot and a slot offset a value, 138 bytes, and is made once
for blocks of up to a given number of values; the slots' shifted copy and
masks reuse words whose values are spent. A call then allocates its text,
about 20 bytes a value, and small arrays for the values off the common
path: more than two trailing digits dropped (``_trailing``), an exponent,
or the fallback. ``repr_rows`` makes a workspace for its one block.
"""

from __future__ import annotations

import math
import sys

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
_I64 = np.int64
#: 10^i and 5^i as uint64, for i in 0..19 and 0..27.
_POW10 = np.array([10**i for i in range(20)], dtype=_U64)
_POW5 = np.array([5**i for i in range(28)], dtype=_U64)
#: A pair p = 10 a + b of digits, read as one uint16 of the ASCII digits a
#: and b in memory order, is p * _ONES + a * _TENS + _ZEROS modulo 2^16.
_ONES, _TENS = (256, 1 - 2560) if sys.byteorder == "little" else (1, 256 - 10)
_ZEROS = np.frombuffer(b"00", dtype=np.uint16)[0]
#: The two ASCII digits of 0..99.
_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), dtype=np.uint8).reshape(100, 2)


def _fallback(value: float) -> bytes:
    """The text of one value the exact path does not take."""
    return repr(value).encode()


class Workspace:
    """The working memory of ``repr_rows`` for blocks of up to ``size``
    values, allocated once and reused by every call."""

    def __init__(self, size: int):
        self.words = np.empty((12, size), dtype=_U64)
        self.flags = np.empty((8, size), dtype=bool)
        self.slots = np.empty((size, _SLOT), dtype=np.uint8)
        self.starts = np.arange(0, size * _SLOT, _SLOT)

    def _region(self, first: int, dtype, shape) -> np.ndarray:
        """The words from row first on, as an array of dtype and shape."""
        return self.words[first:].reshape(-1).view(dtype)[: math.prod(shape)].reshape(shape)

    def repr_rows(self, block) -> np.ndarray:
        """The bytes of ``repr_rows(block)`` as a uint8 array, for a C-ordered
        2-D float64 block of at most ``size`` values."""
        rows, width = block.shape
        size = rows * width
        if not size:
            return np.full(rows, ord("\n"), dtype=np.uint8)
        values = block.reshape(size)
        with np.errstate(all="ignore"):
            ok = _digits(values, self.words[:, :size], self.flags[:, :size])
            return _lay_out(values, width, ok, self, size)


def _scaled(m, e, k, f, sh, n, rem, right, scratch, flag):
    """For x = m 2^e and a guess k of its decimal exponent, into the given
    rows: the integer digits n = floor(x 10^(16 - k)), the remainder rem
    (n + rem / 2^sh is x 10^(16 - k)), sh, f = 5^(16 - k), and right where
    the guess was right: 10^16 <= n < 10^17, computed without overflow.
    scratch is five word rows."""
    a, b, c, d, x = scratch
    q = a.view(_I64)
    np.subtract(16, k, out=q)
    np.take(_POW5, q, out=f, mode="clip")
    np.bitwise_and(f, 0xFFFFFFFF, out=d)
    np.right_shift(f, 32, out=x)
    np.subtract(k, e, out=sh)
    sh -= 16  # -q - e
    # P = m f in two 64-bit words, high (c) and low (a)
    np.bitwise_and(m, 0xFFFFFFFF, out=b)
    np.right_shift(m, 32, out=c)
    np.multiply(b, d, out=a)
    np.multiply(b, x, out=b)
    np.multiply(c, d, out=d)
    b += d
    np.right_shift(a, 32, out=d)
    b += d
    np.multiply(c, x, out=c)
    np.right_shift(b, 32, out=d)
    c += d
    a &= 0xFFFFFFFF
    b <<= 32
    a |= b
    right_shift, left_shift = b, d
    np.maximum(sh, 0, out=right_shift.view(_I64))
    np.subtract(right_shift.view(_I64), sh, out=left_shift.view(_I64))
    np.subtract(64, right_shift, out=x)
    np.left_shift(c, x, out=x)  # a shift by 64 gives 0
    np.right_shift(a, right_shift, out=n)
    n |= x
    n <<= left_shift
    np.left_shift(1, right_shift, out=rem)
    rem -= 1
    rem &= a
    np.right_shift(c, right_shift, out=x)
    np.equal(x, 0, out=right)
    np.greater_equal(n, _POW10[16], out=flag)
    right &= flag
    np.less(n, _POW10[17], out=flag)
    right &= flag


def _interval(n, rem, sh, f, odd, below_power_of_two, lo, hi, scratch, flag):
    """Into lo and hi: the integers [lo, hi] that read back to x, in the
    units of n, as int64: x 10^(16 - k) is n + rem / 2^sh, and half a unit
    in the last place is f / 2^(sh + 1). scratch is four word rows."""
    j, u, right_shift, left_shift = (row.view(_I64) for row in scratch)
    np.add(sh, 1, out=j)
    np.left_shift(rem, 1, out=u.view(_U64))
    np.add(u.view(_U64), f, out=u.view(_U64))
    np.maximum(j, 0, out=right_shift)
    np.subtract(right_shift, j, out=left_shift)
    np.right_shift(u.view(_U64), right_shift.view(_U64), out=hi.view(_U64))
    np.left_shift(hi.view(_U64), left_shift.view(_U64), out=hi.view(_U64))
    np.add(hi.view(_U64), n, out=hi.view(_U64))
    np.left_shift(1, right_shift, out=right_shift)
    right_shift -= 1
    right_shift &= u
    np.equal(right_shift, 0, out=flag)
    flag &= odd
    np.copyto(right_shift, flag)
    hi -= right_shift
    np.copyto(right_shift, below_power_of_two)
    j += right_shift
    right_shift += 1
    d = u
    np.left_shift(rem, right_shift.view(_U64), out=d.view(_U64))
    np.subtract(f, d.view(_U64), out=d.view(_U64))
    np.maximum(j, 0, out=right_shift)
    np.subtract(right_shift, j, out=left_shift)
    np.right_shift(d, right_shift, out=lo)
    lo <<= left_shift
    np.subtract(n.view(_I64), lo, out=lo)
    np.left_shift(1, right_shift, out=right_shift)
    right_shift -= 1
    right_shift &= d
    np.equal(right_shift, 0, out=flag)
    flag &= odd
    np.copyto(right_shift, flag)
    lo += right_shift


def _trailing(lo, hi, t, width, q, scratch, fits):
    """Into t: the largest t in 0..17 with hi mod 10^t <= hi - lo, the
    number of trailing digits that can be dropped. If t fits, so does
    t - 1: the first two are tried on every value. The interval is at most
    one unit in the last place, 22 units of n, so where two fit, t is 2
    plus the trailing zeros of hi // 100, which are counted only there,
    a tenth of the values or fewer, by exact float division."""
    np.subtract(hi, lo, out=width)
    hi = hi.view(_U64)
    np.floor_divide(hi, 10, out=q)
    np.multiply(q, 10, out=scratch)
    np.subtract(hi, scratch, out=scratch)
    np.less_equal(scratch.view(_I64), width, out=fits)
    np.copyto(t, fits)
    if not fits.any():
        return
    np.floor_divide(q, 10, out=q)
    np.multiply(q, 100, out=scratch)
    np.subtract(hi, scratch, out=scratch)
    np.less_equal(scratch.view(_I64), width, out=fits)
    np.copyto(scratch, fits)
    t += scratch.view(_I64)
    if not fits.any():
        return
    some = np.flatnonzero(fits)
    z = q[some].astype(np.float64)  # hi // 100 < 10^15, exact
    zeros = np.zeros(len(some), dtype=_I64)
    for step in (8, 4, 2, 1):
        part = z / 10.0**step
        whole = part == np.floor(part)
        z = np.where(whole, part, z)
        zeros += whole * step
    t[some] += zeros


def _digits(values, words, flags):
    """The shortest digits of each value that the exact path takes, in the
    rows of words: d (row 3), an integer of count (row 4) digits, and point
    (row 0), where value = 0.d * 10^point; returns the flag row ok, which
    marks the values the rest are meant for."""
    k, m, e, f, sh, n, rem = words[:7]
    k, e, sh = k.view(_I64), e.view(_I64), sh.view(_I64)
    scratch = words[7:]
    ok, right, flag, below_power_of_two, odd = flags[:5]
    bits = values.view(_U64)
    np.right_shift(bits, 52, out=e.view(_U64))
    e &= 0x7FF  # the biased exponent
    np.bitwise_and(bits, (1 << 52) - 1, out=m)
    np.equal(m, 0, out=below_power_of_two)
    np.greater(e, 1, out=flag)
    below_power_of_two &= flag
    np.greater(e, 0, out=ok)
    np.less(e, 0x7FF, out=flag)
    ok &= flag  # normal
    guess = scratch[0].view(np.float64)
    np.abs(values, out=guess)
    np.log10(guess, out=guess)
    np.floor(guess, out=guess)
    np.greater_equal(guess, -12, out=flag)
    ok &= flag
    np.less_equal(guess, 17, out=flag)
    ok &= flag  # a guess one off the range is tried again
    np.fmax(guess, -11, out=guess)
    np.fmin(guess, 16, out=guess)
    np.copyto(k, guess, casting="unsafe")
    m |= _U64(1 << 52)
    e -= 1075
    _scaled(m, e, k, f, sh, n, rem, right, scratch, flag)
    retry = right
    np.logical_not(right, out=retry)
    retry &= ok
    if retry.any():  # a guess off by one, near a power of ten
        step = scratch[0].view(_I64)
        np.less(n, _POW10[16], out=flag)
        flag &= retry
        np.copyto(step, retry)
        k += step
        np.copyto(step, flag)
        k -= step
        k -= step
        np.less(k, -11, out=flag)
        np.greater(k, 16, out=odd)
        flag |= odd
        flag &= retry
        np.putmask(k, flag, 0)
        np.logical_not(flag, out=flag)
        ok &= flag
        _scaled(m, e, k, f, sh, n, rem, right, scratch, flag)
        ok &= right  # unchanged where no guess was retried
    np.bitwise_and(m, 1, out=m)
    np.not_equal(m, 0, out=odd)
    reach = scratch[0].view(_I64)
    np.copyto(reach, below_power_of_two)
    reach += sh
    np.less_equal(reach, 62, out=flag)
    ok &= flag  # the interval's ends to 64 bits
    not_ok = right
    np.logical_not(ok, out=not_ok)
    np.putmask(sh, not_ok, 1)
    lo, hi = m.view(_I64), e
    _interval(n, rem, sh, f, odd, below_power_of_two, lo, hi, scratch[:4], flag)
    np.subtract(lo, 1, out=scratch[0].view(_I64))
    np.putmask(hi, not_ok, scratch[0].view(_I64))  # no digit to drop
    t = scratch[0].view(_I64)
    _trailing(lo, hi, t, scratch[1].view(_I64), scratch[2], scratch[3], flag)
    unit, d, excess, half, spare = scratch[1], f, scratch[2].view(_I64), scratch[3], scratch[4]
    np.take(_POW10, t, out=unit, mode="clip")
    np.floor_divide(n, unit, out=d)
    # round n + rem / 2^sh to a multiple of 10^t: compare the digits
    # dropped with half of 10^t, then rem with the rest of that half, 0 at
    # t > 0 and 2^(sh - 1) at t = 0 (1 at sh <= 0, where rem is 0 and
    # nothing rounds); a tie goes to the even digit, as in repr
    np.multiply(d, unit, out=spare)
    np.subtract(n, spare, out=spare)
    np.right_shift(unit, 1, out=excess.view(_U64))
    np.subtract(spare.view(_I64), excess, out=excess)
    np.subtract(sh, 1, out=half.view(_I64))
    np.maximum(half.view(_I64), 0, out=half.view(_I64))
    np.left_shift(1, half, out=half)
    np.equal(t, 0, out=flag)
    np.copyto(spare, flag)
    half *= spare
    up, tie, above, odd_digit = flags[1], flags[5], flags[6], flags[7]
    np.greater(excess, 0, out=up)
    np.equal(excess, 0, out=tie)
    np.greater(rem, half, out=above)
    np.equal(rem, half, out=flag)
    np.bitwise_and(d, 1, out=spare)
    np.not_equal(spare, 0, out=odd_digit)
    flag &= odd_digit
    above |= flag
    tie &= above
    up |= tie
    np.copyto(spare, up)
    d += spare
    chosen = excess
    np.multiply(d, unit, out=chosen.view(_U64))
    np.greater_equal(chosen, lo, out=flag)
    ok &= flag
    np.less_equal(chosen, hi, out=flag)
    ok &= flag
    carry = flag  # only t = 17: x rounds to 10^(k + 1)
    count = sh
    np.subtract(17, t, out=count)
    np.take(_POW10, count, out=spare, mode="clip")
    np.equal(d, spare, out=carry)
    np.putmask(d, carry, 1)
    np.copyto(spare, carry)
    count += spare.view(_I64)
    k += 1
    k += spare.view(_I64)
    return ok


def _lay_out(values, width, ok, ws, size):
    """The CSV text of values, rows of width, from the digits that
    ``_digits`` left in the workspace ws."""
    words, flags = ws.words[:, :size], ws.flags[:, :size]
    point, places, dot, g, count, fraction, scale, power = (row.view(_I64) for row in words[:8])
    not_ok, exponent, negative, flag = flags[:4]
    np.logical_not(ok, out=not_ok)
    np.not_equal(values, 0, out=flag)
    flag &= not_ok
    other = np.flatnonzero(flag) if flag.any() else ()
    np.putmask(g, not_ok, 0)
    np.putmask(count, not_ok, 1)
    np.putmask(point, not_ok, 1)  # a zero reads "0.0"
    # positional: the integer part, max(point, 1) digits, and the
    # fraction, max(count - point, 1) digits, as one integer g
    np.subtract(count, point, out=fraction)
    np.subtract(1, fraction, out=scale)
    np.maximum(scale, 0, out=scale)
    np.take(_POW10, scale, out=power.view(_U64), mode="clip")
    np.maximum(fraction, 1, out=fraction)
    np.maximum(point, 1, out=places)
    places += 1
    places += fraction
    np.subtract(24, fraction, out=dot)
    # else one digit, then the fraction if count > 1, then the exponent
    np.less_equal(point, -4, out=exponent)
    np.greater(point, 16, out=flag)
    exponent |= flag
    exponents = np.flatnonzero(exponent) if exponent.any() else None
    if exponents is not None:
        count_e, d_e = count[exponents], g[exponents]
        dot[exponents] = np.where(count_e > 1, 21 - count_e, 0)
        places[exponents] = count_e + (count_e > 1) + 4
    g *= power
    if exponents is not None:
        g[exponents] = d_e
    np.signbit(values, out=negative)
    np.copyto(scale, negative)
    places += scale
    # the 18 digits of g as nine pairs: a top pair and four groups of four
    # digits, each two pairs
    top = count
    np.floor_divide(g, 10**16, out=top)
    np.multiply(top, 10**16, out=scale)
    g -= scale
    quads = words[5:7].view(_I64)
    np.floor_divide(g, 10**8, out=quads[0])
    np.multiply(quads[0], 10**8, out=scale)
    np.subtract(g, scale, out=quads[1])
    high = words[7:9].view(_I64)
    np.floor_divide(quads, 10**4, out=high)
    np.multiply(high, 10**4, out=words[9:11].view(_I64))
    quads -= words[9:11].view(_I64)
    pairs = ws._region(9, np.uint16, (12, size))
    pairs[:3] = 0
    np.copyto(pairs[3], top, casting="unsafe")
    groups = words[4].view(np.uint16).reshape(4, size)
    np.copyto(groups[0::2], high, casting="unsafe")
    np.copyto(groups[1::2], quads, casting="unsafe")
    hundreds = pairs[4:].reshape(4, 2, size)
    np.floor_divide(groups, 100, out=hundreds[:, 0])
    rest = words[5].view(np.uint16).reshape(4, size)
    np.multiply(hundreds[:, 0], 100, out=rest)
    np.subtract(groups, rest, out=hundreds[:, 1])
    # to ASCII, into columns 0 to 23 of the slots: 18 digits in columns 6
    # to 23, or, with an exponent, 2 to 19
    tens = ws._region(5, np.uint16, (12, size))
    np.multiply(pairs, 103, out=tens)
    tens >>= 10  # p // 10 for p < 100
    tens *= _TENS % 2**16
    pairs *= _ONES
    pairs += tens
    slots = ws.slots[:size]
    np.add(pairs, _ZEROS, out=slots.view(np.uint16)[:, :12].T)
    if exponents is not None:
        text16 = slots.view(np.uint16)
        text16[exponents, 1:10] = text16[exponents, 3:12]
    # each column from the point on takes the digit left of it, and the
    # point goes in
    flat = slots.reshape(-1)
    shifted = ws._region(3, np.uint8, (size * _SLOT,))
    np.copyto(shifted[1:], flat[:-1])
    before = ws._region(7, np.uint8, (size, _SLOT))
    np.take(_BEFORE, dot, axis=0, out=before, mode="clip")
    flat ^= shifted
    flat &= before.reshape(-1)
    flat ^= shifted
    at, sign = words[11].view(_I64), words[10].view(_I64)
    starts = ws.starts[:size]
    np.add(starts, dot, out=at)
    flat[at] = ord(".")  # column 0, left of the text, without a point
    np.subtract(_SEP, places, out=sign)
    np.copyto(at, negative)
    sign *= at
    sign += starts  # column 0 again where not negative
    flat[sign] = ord("-")
    if exponents is not None:
        power_e = point[exponents] - 1
        tail = np.empty((len(exponents), 4), dtype=np.uint8)
        tail[:, 0] = ord("e")
        tail[:, 1] = np.where(power_e < 0, ord("-"), ord("+"))
        tail[:, 2:] = _PAIRS[np.abs(power_e)]
        slots[exponents, _SEP - 4 : _SEP] = tail
    for i in other:
        text = _fallback(float(values[i]))
        slots[i, _SEP - len(text) : _SEP] = np.frombuffer(text, dtype=np.uint8)
        places[i] = len(text)
    slots[:, _SEP] = ord(",")
    slots[width - 1 :: width, _SEP] = ord("\n")
    np.subtract(_SEP, places, out=at)
    keep = ws._region(3, bool, (size, _SLOT))
    np.take(_FROM, at, axis=0, out=keep, mode="clip")
    return flat[keep.reshape(-1)]


def repr_rows(block) -> bytes:
    """The CSV lines of a 2-D float64 block, each value the ``repr`` of its
    float: ``"".join(",".join(map(repr, r)) + "\\n" for r in
    block.tolist()).encode()``."""
    block = np.ascontiguousarray(block, dtype=np.float64)
    return Workspace(block.size).repr_rows(block).tobytes()


# numpy resolves the loop of each ufunc and dtypes on first use; resolved
# here, in the process that imports this module before it forks the CSV
# writer's helpers, the loops are shared by every helper
Workspace(8).repr_rows(np.array([[0.5, -1.5e-5, 0.016, 1e16, 123.0, 0.0, 5e-324, 2.5]]))
