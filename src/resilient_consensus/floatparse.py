"""Python's ``float`` of decimal text, computed with numpy on a whole piece.

``parse_rows(piece, width)`` returns the (rows, width) float64 array of
``[[float(f) for f in line.split(b",")] for line in piece.splitlines()]``,
bit for bit, for a piece of lines that each end in a line end. It accepts
the text that ``repr`` writes for a float,

    -?D+.D+              positional, as 0.016, -12.5 or 1000.0
    -?D(.D+)?e[+-]DD(D)  with an exponent, as 1e-05 or -2.5e+100
    -?inf, nan

where D is a digit, and raises ``ValueError`` on any other text (a space,
``+1``, ``1_0``, ``5.``, ``\\r``, a byte that is not ASCII, an empty
field) or a line of another field count. It is the reading counterpart
of ``floatrepr``, after Lemire, "Number Parsing at a Gigabyte per Second"
(Software: Practice and Experience, 2021); every step but the last works
on all fields at once:

* One separator scan finds the end of every field and checks that each
  line holds ``width`` of them.
* The 24 bytes before each field's end, the field right-aligned and the
  bytes of earlier fields left of it, are read as three uint64 words
  ("slots"). With SWAR ("SIMD within a register") arithmetic on them: an
  exponent, which ends in column 23, is read and cut off; the sign and the
  bytes left of the field are cleared; the one byte over 9 must be the
  point, in the place the grammar gives it; the digits left of it move one
  column right; and the 24 digits become an integer w, 8 to a word. A
  field of at most 19 significant digits is then exactly w 10^q, with q
  the exponent less the digits after the point.
* The float nearest to x = w 10^q. 10^q is the double-double p_hi + p_lo
  (the float nearest to it, and the float nearest to the rest), from
  exact integer arithmetic at import, and w = w_hi + w_lo exactly.
  Dekker's error-free product, with Veltkamp splits and no fused
  multiply-add or ``np.longdouble``, gives w_hi p_hi = p + e exactly; the
  cross terms w_hi p_lo and w_lo p_hi, each rounded, added to e give
  r = p + c within 2^-102 |x|. f = fl(p + c) is the float nearest to r,
  and r - f is exact (Fast2Sum, |c| <= |p|). Where |r - f| + 2^-96 |f| is
  less than half the gap from f to its neighbour on r's side (the lower
  gap is half the upper one at a power of two), x is nearer to f than to
  any other float, and not at a halfway point, so f is what ``float``'s
  correctly rounded conversion gives.

``float`` reads, one at a time, each field this arithmetic does not take,
once it has matched the grammar above, so that ``float``'s own wider
grammar never decides what is accepted: a field longer than 24 bytes or
of more than 19 significant digits, a q outside [-290, 290], inf, nan,
and a value too near a halfway point to tell. With q in that range and
w >= 1, x >= 10^-290 > 2^-964, so the smallest product Dekker's
algorithm forms, about 2^-54 x, is a normal float and every product is
exact; an x that overflows gives inf or nan, which fail the test of the
rounding. None of the benchmark's trajectories at seed 1, nor the demo
runs, has a field that goes to ``float``.

A ``Workspace`` parses up to a given number of fields at a time, in 13
words and 7 flags a field (111 bytes), made on first use and grown to the
most fields it has parsed at a time, and a copy of the piece with 24
bytes on each side, grown to the largest piece; a call allocates the
field ends and its result, 16 bytes a field, and numpy's cast buffers.
``parse_rows`` makes a workspace for all of its piece's fields: about
160 bytes a value in all, against 25 for a call on a workspace made
before.
"""

from __future__ import annotations

import re

import numpy as np

#: Columns of a slot: a ``repr`` takes at most 24 bytes.
_SLOT = 24
#: The decimal exponents q of w 10^q the arithmetic takes: with w >= 1,
#: w 10^q >= 10^-290 > 2^-964, so every product of the exact
#: multiplication, at least 2^-54 of the result, is a normal float. An
#: overflow (w 10^q >= 10^309 or so) gives inf or nan, which fail the test
#: of the rounding.
_Q_MIN, _Q_MAX = -290, 290

_U64, _I64, _F64 = np.uint64, np.int64, np.float64
#: A word of text: byte b of word k is column 8k + b of its slot.
_WORD = np.dtype("<u8")
_DIGIT_0 = _U64(0x3030303030303030)  # "0" in every byte: a XOR leaves digit values
_HIGH = _U64(0x8080808080808080)
_OVER_9 = _U64(0x7676767676767676)  # a byte over 9 plus 0x76 has its high bit set
#: Flag bytes (0 or 1) times this, shifted right by 56: flag b as bit b.
_PACK = _U64(0x0102040810204080)
#: These bytes after the XOR with "0".
_POINT, _MINUS, _PLUS, _E = (ord(ch) ^ 0x30 for ch in ".-+e")
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's constant for float64
_FOUR = np.arange(4)[:, None]
_SHIFTS = np.array([[8], [16]], dtype=_U64)
_ONES = _U64(0x0101010101010101)
_POWERS_8 = np.array([[10**16], [10**8]], dtype=_U64)
_EXPONENT_BITS = _U64(0x7FF0000000000000)


#: Row c: the (3,) words of the slot columns from c on, for c from 0 to
#: 64 (none from 24 on); a column left of 0 takes row 0, all of them.
_FROM = np.array(
    [[sum(0xFF << 8 * (j - 8 * k) for j in range(max(c, 8 * k), 8 * k + 8)) for k in range(3)] for c in range(65)],
    dtype=_U64,
).T.copy()
#: Only ``repr``'s text. ``float`` reads more: "+1", "1_0", " 1", "1e5",
#: "Infinity".
_GRAMMAR = re.compile(rb"-?(?:[0-9]+\.[0-9]+|[0-9](?:\.[0-9]+)?e[+-][0-9]{2,3}|inf)|nan")


def _powers() -> np.ndarray:
    """Rows p_hi, p_lo and the two Veltkamp halves of p_hi for 10^q, q
    from _Q_MIN to _Q_MAX: p_hi is the float nearest to 10^q and p_lo the
    float nearest to 10^q - p_hi (Python's int division is exact)."""
    qs = range(_Q_MIN, _Q_MAX + 1)
    exact = [(10**q, 1) if q >= 0 else (1, 10**-q) for q in qs]
    hi = np.array([num / den for num, den in exact])
    ratios = map(float.as_integer_ratio, hi.tolist())
    lo = np.fromiter(((num * b - a * den) / (den * b) for (num, den), (a, b) in zip(exact, ratios)), _F64, len(qs))
    split = hi * _SPLIT
    top = split - (split - hi)
    return np.array([hi, lo, top, hi - top])


_POW10 = _powers()


class Workspace:
    """The working memory of ``parse_rows``, which parses up to ``size``
    fields at a time: made on first use, reused by every later call, and
    grown to the largest piece and the most fields parsed at a time."""

    def __init__(self, size: int):
        self.size = size
        self.words = np.empty(0, dtype=_U64)
        self.flags = np.empty(0, dtype=bool)
        self.text = np.empty(0, dtype=np.uint8)

    def parse_rows(self, piece, width: int, longest: int | None = None) -> np.ndarray:
        """The (rows, width) floats of the lines of piece, a bytes-like
        object whose every line ends in a line end (module docstring), and,
        if given, holds at most longest bytes besides its line end."""
        size = len(piece)
        if not size:
            return np.empty((0, width))
        if len(self.text) < size + 2 * _SLOT:
            self.text = np.empty(-(-(size + 2 * _SLOT) // 8) * 8, dtype=np.uint8)
        text = self.text[_SLOT : _SLOT + size]  # each slot reads 24 bytes before its field's end
        text[:] = np.frombuffer(piece, dtype=np.uint8)
        if text[-1] != ord("\n"):
            raise ValueError("a line without its line end")
        scan = self.words.view(bool)  # idle until the fields are parsed
        if len(scan) < 2 * size:
            scan = np.empty(2 * size, dtype=bool)  # freed before the words grow
        seps, other = scan[: 2 * size].reshape(2, size)
        np.equal(text, ord("e"), out=seps)
        exponents = seps.any()
        np.equal(text, ord(","), out=seps)
        np.equal(text, ord("\n"), out=other)
        seps |= other
        ends = np.flatnonzero(seps)
        rows = len(ends) // width
        line_ends = ends[width - 1 :: width]
        if (
            rows * width != len(ends)
            or np.count_nonzero(other) != rows
            or not np.equal(text[line_ends], ord("\n"), out=seps[:rows]).all()
        ):
            raise ValueError(f"lines not of {width} fields")
        if longest is not None and np.diff(line_ends, prepend=-1).max() > longest + 1:
            raise ValueError(f"a line longer than {longest} bytes")
        del scan, seps, other
        most = min(len(ends), self.size)
        if len(self.flags) < 7 * most:
            self.words = self.flags = None  # freed before the larger ones are made
            self.words = np.empty(13 * most, dtype=_U64)
            self.flags = np.empty(7 * most, dtype=bool)
        values = np.empty(len(ends))
        with np.errstate(all="ignore"):
            for k in range(0, len(ends), self.size):
                part = ends[k : k + self.size]
                n = len(part)
                words = self.words[: 13 * n].reshape(13, n)
                flags = self.flags[: 7 * n].reshape(7, n)
                _digits(self.text, part, ends[k - 1] if k else -1, words, flags, exponents)
                _scale(words, flags, values[k : k + n])
                if not flags[0].all():
                    for i in np.flatnonzero(~flags[0]).tolist():
                        values[k + i] = _one(piece, ends, k + i)
        return values.reshape(rows, width)


def _one(piece, ends, i: int) -> float:
    """``float`` of field i of piece, which must match the grammar."""
    field = bytes(piece[ends[i - 1] + 1 if i else 0 : ends[i]])
    if not _GRAMMAR.fullmatch(field):
        raise ValueError(f"the field {field[:_SLOT]!r} is not the repr of a float")
    return float(field)


def _top_byte(word, b, out):
    """Into out: byte b of each word, column 16 + b of its slot."""
    np.right_shift(word, _U64(8 * b), out=out.view(_U64))
    out &= 0xFF
    return out


def _digits(text, ends, before: int, words, flags, exponents: bool):
    """For the fields ending at ends (offsets into text past its first
    _SLOT bytes), the first after the separator at before (-1 for none),
    into rows 7 (w) and 10 (q) of words and flags[6]
    (sign): each field is (-1)^sign w 10^q. Into flags[0] (ok): the fields
    whose text this read takes. With exponents false, no field has one."""
    x, spare = words[0:3], words[3:7]
    length, first, at, q, point, temp = (words[r].view(_I64) for r in range(7, 13))
    w = words[7]  # the length's row, once the length is spent
    ok, flag, exponent, exp20, other, chars, sign = flags
    chars, count = chars.view(np.uint8), exp20.view(np.uint8)
    # word k of a slot is the text at byte offset o = end + 8k of text:
    # A[o // 8] >> 8 (o % 8) | A[o // 8 + 1] << (64 - 8 (o % 8)), from
    # the aligned words A of text (a shift by 64 gives 0)
    np.right_shift(ends, 3, out=temp)
    index = words[7:11].view(_I64)  # spent before the length, first, at and q
    np.add(temp, _FOUR, out=index)
    np.take(text.view(_WORD), index, out=spare, mode="clip")
    np.bitwise_and(ends, 7, out=at)
    at <<= 3
    np.right_shift(spare[:3], at.view(_U64), out=x)
    np.subtract(64, at, out=at)
    np.left_shift(spare[1:], at.view(_U64), out=spare[1:])
    x |= spare[1:]
    x ^= _DIGIT_0
    # each field's length and first column, of text byte end + first; a
    # minus there is the sign
    np.subtract(ends[1:], ends[:-1], out=length[1:])
    length[1:] -= 1
    np.subtract(ends[:1], before + 1, out=length[:1])
    np.less_equal(length, _SLOT, out=ok)
    np.subtract(_SLOT, length, out=first)
    np.add(ends, first, out=temp)
    np.take(text, temp, out=chars, mode="clip")
    np.equal(chars, ord("-"), out=sign)
    q[:] = 0
    at[:] = 0
    if exponents:  # it ends the slot, its 'e' in column 20 (two digits) or 19 (three)
        np.equal(_top_byte(x[2], 4, temp), _E, out=exp20)
        np.greater_equal(length, 5, out=flag)
        exp20 &= flag
        np.equal(_top_byte(x[2], 3, temp), _E, out=exponent)
        np.greater_equal(length, 6, out=flag)
        exponent &= flag
        exponent |= exp20
        exponents = exponent.any()
        if exponents:
            _exponent(x, first, at, q, ok, exponent, exp20, flag, spare)
    # the sign and the bytes before it go to zero
    first += sign  # the first digit's column
    x &= _from(first, spare[:3])
    # each byte over 9, the point alone in a field this read takes: to
    # zero (by a XOR with the point's byte), and as a bit of a 24-bit mask
    mark = spare[:3]
    np.add(x, _OVER_9, out=mark)
    mark |= x
    mark &= _HIGH
    mark >>= _U64(7)
    mark *= _U64(_POINT)
    x ^= mark
    mark >>= _U64(1)
    mark &= _ONES
    mark *= _PACK
    mark >>= _U64(56)
    mark[1:] <<= _SHIFTS
    marks = mark[0]
    marks |= mark[1]
    marks |= mark[2]
    # how many points: 0 for none, 1 for one, 2 for more (marks has another
    # bit once its lowest is cleared)
    np.not_equal(marks, 0, out=count)
    np.subtract(marks, _U64(1), out=mark[1])
    mark[1] &= marks
    np.not_equal(mark[1], 0, out=other)
    count += other
    # the point's column: log2 of the mask, from the float's exponent bits
    # (-1023 for none)
    np.copyto(point.view(_F64), marks, casting="unsafe")
    point >>= 52
    point -= 1023
    # one point, after the first digit and before the last; with an
    # exponent, right after the first digit, or no point and one digit
    np.add(ends, point, out=temp)
    temp -= at  # where the exponent moved the mantissa from
    np.take(text, temp, out=chars, mode="clip")
    np.equal(chars, ord("."), out=flag)
    np.equal(count, 1, out=other)
    flag &= other
    np.less(point, _SLOT - 1, out=other)
    flag &= other
    np.subtract(point, first, out=temp)
    np.greater(temp, 0, out=other)
    if exponents:
        np.equal(temp, 1, out=other, where=exponent)
        flag &= other
        np.equal(count, 0, out=other)
        other &= exponent
        np.equal(first, _SLOT - 1, out=exponent)
        other &= exponent
        flag |= other
    else:
        flag &= other
    ok &= flag
    # the digits left of the point move one column right, and column 0
    # takes a zero; without a point nothing moves
    right = _from(point, spare[:3])
    right &= x
    x ^= right
    carry = words[7:9]  # the length and first column are spent
    np.right_shift(x[:2], _U64(56), out=carry)
    x <<= _U64(8)
    x[1:] |= carry
    x |= right
    # 24 digits to an integer, 8 to a word: pairs, fours, then eights
    x *= _U64(10 * 2**8 + 1)
    x >>= _U64(8)
    x &= _U64(0x00FF00FF00FF00FF)
    x *= _U64(100 * 2**16 + 1)
    x >>= _U64(16)
    x &= _U64(0x0000FFFF0000FFFF)
    x *= _U64(10000 * 2**32 + 1)
    x >>= _U64(32)
    np.less(x[0], 1000, out=flag)  # at most 19 significant digits
    ok &= flag
    x[:2] *= _POWERS_8
    np.add(x[0], x[1], out=w)
    w += x[2]
    # q: the exponent less the digits after the point
    np.subtract(point, _SLOT - 1, out=temp)
    if exponents:
        np.less(point, 0, out=flag)
        np.copyto(temp, 0, where=flag)
    q += temp


def _from(col, out):
    """Into out: the (3, n) masks of the slot columns from col on, all
    ones left of column 0 and none from column 24 on."""
    return np.take(_FROM, col, axis=1, out=out, mode="clip")


def _exponent(x, first, moved, q, ok, exponent, exp20, flag, spare):
    """For the fields with an exponent: its value into q; clears ok where
    it is not a sign and two or three digits; and cuts it off the slots x,
    which moves their mantissas to the right end by the bytes moved, and
    first with them."""
    sign_at, d1, d2, d3 = (row.view(_I64) for row in spare)
    exp19 = exponent & ~exp20
    _top_byte(x[2], 4, sign_at)
    _top_byte(x[2], 5, d1)
    np.copyto(sign_at, d1, where=exp20)  # the exponent's sign
    _top_byte(x[2], 6, d2)
    _top_byte(x[2], 7, d3)
    good = (sign_at == _MINUS) | (sign_at == _PLUS)
    good &= (d2 <= 9) & (d3 <= 9) & ((d1 <= 9) | exp20)
    np.logical_or(good, ~exponent, out=flag)
    ok &= flag
    np.multiply(d1, 100, out=q)
    q *= exp19
    d2 *= 10
    q += d2
    q += d3
    np.negative(q, out=q, where=sign_at == _MINUS)
    q *= exponent
    np.copyto(moved, exp20)
    moved *= 4
    np.copyto(d1, exp19)
    d1 *= 5
    moved += d1
    first += moved
    shift, back = sign_at.view(_U64), d1.view(_U64)
    np.left_shift(moved.view(_U64), _U64(3), out=shift)
    np.subtract(_U64(64), shift, out=back)
    x[2] <<= shift
    np.right_shift(x[1], back, out=d2.view(_U64))
    x[2] |= d2.view(_U64)
    x[1] <<= shift
    np.right_shift(x[0], back, out=d2.view(_U64))
    x[1] |= d2.view(_U64)
    x[0] <<= shift


def _scale(words, flags, out):
    """Into out: the float nearest to (-1)^sign w 10^q, from rows 7 (w)
    and 10 (q) of words and flags[6] (sign); clears flags[0] (ok) where the
    arithmetic cannot tell it."""
    w, index = words[7], words[10].view(_I64)
    ok, flag, zero, below, negative = flags[0], flags[1], flags[2], flags[3], flags[6]
    np.equal(w, 0, out=zero)  # +0.0 or -0.0
    index -= _Q_MIN  # q's column of the table
    np.less_equal(index.view(_U64), _Q_MAX - _Q_MIN, out=flag)
    ok &= flag
    powers = words[0:4].view(_F64)
    np.take(_POW10, index, axis=1, out=powers, mode="clip")
    p_hi, p_lo, b_hi, b_lo = powers
    w_lo, w_hi, a_hi, a_lo, p, e = (words[r].view(_F64) for r in range(4, 10))
    spare = a_hi.view(_U64)  # until the halves are formed
    np.copyto(w_hi, w, casting="unsafe")
    np.copyto(spare, w_hi, casting="unsafe")
    np.subtract(w, spare, out=spare)
    np.copyto(w_lo, spare.view(_I64), casting="unsafe")  # w - w_hi, exactly
    np.multiply(w_hi, _SPLIT, out=a_lo)  # w is spent
    np.subtract(a_lo, w_hi, out=a_hi)
    np.subtract(a_lo, a_hi, out=a_hi)
    np.subtract(w_hi, a_hi, out=a_lo)
    np.multiply(w_hi, p_hi, out=p)
    # e = w_hi p_hi - p exactly, from the products of the halves, two at a
    # time in rows 10 and 11 (q and the point are spent): a_hi b_hi - p,
    # then a_lo b_hi, a_hi b_lo and a_lo b_lo, each sum exact (Dekker's
    # order, with the factors' roles swapped)
    halves = words[6:8].view(_F64)
    products = words[10:12].view(_F64)
    np.multiply(halves, b_hi, out=products)
    np.subtract(products[0], p, out=e)
    e += products[1]
    np.multiply(halves, b_lo, out=products)
    e += products[0]
    e += products[1]
    # c: e plus the cross terms w_hi p_lo + w_lo p_hi (w_lo p_lo is below
    # 2^-106 of the product)
    powers[:2] *= words[4:6].view(_F64)
    e += p_lo
    e += p_hi
    t = words[10].view(_F64)
    np.add(p, e, out=out)  # f
    np.subtract(out, p, out=t)
    np.subtract(e, t, out=t)  # r - f, exactly
    np.less(t, 0, out=below)
    np.abs(t, out=t)
    np.abs(out, out=p)
    np.multiply(p, 2.0**-96, out=e)
    t += e
    # half the gap from f to its neighbour on r's side: 2^-53 of f's power
    # of two, 2^-54 below a power of two
    gap = words[0].view(_F64)
    np.bitwise_and(out.view(_U64), _EXPONENT_BITS, out=gap.view(_U64))
    gap *= 2.0**-53
    np.left_shift(out.view(_U64), _U64(12), out=e.view(_U64))
    np.equal(e.view(_U64), 0, out=flag)
    flag &= below
    np.multiply(gap, 0.5, out=gap, where=flag)
    np.less(t, gap, out=flag)
    flag |= zero
    ok &= flag
    np.copyto(t.view(_U64), negative)
    t.view(_U64)[:] <<= _U64(63)
    out.view(_U64)[:] |= t.view(_U64)


def parse_rows(piece, width: int) -> np.ndarray:
    """The (rows, width) float64 array that ``float`` gives for the fields
    of piece: lines of ``width`` comma-separated fields, each line ended
    by a line end. ``ValueError`` where a field is not the ``repr`` of a
    float or a line holds another count of fields. Its workspace holds
    all of the piece's fields at once."""
    return Workspace(len(piece)).parse_rows(piece, width)
