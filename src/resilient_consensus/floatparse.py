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
(Software: Practice and Experience, 2021); every step works on all fields
at once, but the exponents, read on the fields that have one:

* One separator scan finds the end of every field and checks that each
  line holds ``width`` of them.
* The 24 bytes before each field's end, the field right-aligned and the
  bytes of earlier fields left of it, are read as three uint64 words
  ("slots"). With SWAR ("SIMD within a register") arithmetic on them: two
  column tests find the fields whose exponent ends in column 23, and on
  those alone it is read and cut off; the sign and the bytes left of the
  field are cleared; the one byte over 9 must be the point, in the place
  the grammar gives it; the digits left of it move one column right; and
  the 24 digits become an integer w, 8 to a word. A field of at most 19
  significant digits is then exactly w 10^q, with q the exponent less the
  digits after the point.
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

A value too near a halfway point to tell that is an integer below 2^64
(q >= 0 and w 10^q < 2^64, or 10^-q dividing w) is that integer cast from
uint64 to float64, which rounds half to even as ``float`` does: ``repr``
writes many exact ties between 2^53 and 10^17. ``float`` reads, one at a
time, each other field this arithmetic does not take, once it has matched
the grammar above, so that ``float``'s own wider grammar never decides
what is accepted: a field longer than 24 bytes or of more than 19
significant digits, a q outside [-290, 290], inf, nan, and a value too
near a halfway point to tell. With q in that range and w >= 1,
x >= 10^-290 > 2^-964, so the smallest product Dekker's algorithm forms,
about 2^-54 x, is a normal float and every product is exact; an x that
overflows gives inf or nan, which fail the test of the rounding. None of
the benchmark's trajectories at seed 1, nor the demo runs, has a field
that goes to ``float``.

A call costs about 0.07 ms plus 0.08 us a field up to a few thousand
fields (2-vCPU Xeon, numpy 2.4), nearly all of it some 130 numpy calls
on rows of all fields: their operands are 0-d arrays of the rows' dtype,
which a ufunc takes in half the time of a Python int, and the rows'
views are made once per part length. The fields with an exponent cost
some 40 more calls on those fields alone.

A ``Workspace`` parses up to a given number of fields at a time, in 13
words and 7 flags a field (111 bytes), made on first use and grown to the
most fields it has parsed at a time, and a copy of the piece with 24
bytes on each side, grown to the largest piece; a call allocates the
field ends and its result, 16 bytes a field, numpy's cast buffers and a
few arrays of the exponent fields. ``parse_rows`` makes a workspace for
all of its piece's fields: about 160 bytes a value in all, against 25 for
a call on a workspace made before.
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
#: The operands of the ufuncs, as 0-d arrays of the dtype of the rows they
#: meet: a ufunc takes one in about half the time of a Python int or a
#: numpy scalar, and a dtype that differs would promote (under NEP 50 a 0-d
#: int64 against uint64 rows gives float64).
_U = {
    v: np.array(v, _U64)
    for v in (0, 1, 7, 8, 12, 16, 0xFF, 32, 56, 63, 1000, 10**8, 10**16, _Q_MAX - _Q_MIN)
    + (10 * 2**8 + 1, 100 * 2**16 + 1, 10000 * 2**32 + 1, 0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF)
}
_I = {v: np.array(v, _I64) for v in (1, 3, 7, 52, 64, 1023, _SLOT - 1, _SLOT, _Q_MIN)}
_F = {v: np.array(v, _F64) for v in (0.0, 0.5, 2.0**-53, 2.0**-96)}
_CHAR = {ch: np.array(ord(ch), np.uint8) for ch in "e,\n.-"}
_DIGIT_0 = np.array(0x3030303030303030, _U64)  # "0" in every byte: a XOR leaves digit values
_HIGH = np.array(0x8080808080808080, _U64)
_OVER_9 = np.array(0x7676767676767676, _U64)  # a byte over 9 plus 0x76 has its high bit set
#: Flag bytes (0 or 1) times this, shifted right by 56: flag b as bit b.
_PACK = np.array(0x0102040810204080, _U64)
_ONES = np.array(0x0101010101010101, _U64)
_EXPONENT_BITS = np.array(0x7FF0000000000000, _U64)
#: These bytes after the XOR with "0".
_POINT, _MINUS, _PLUS, _E = (ord(ch) ^ 0x30 for ch in ".-+e")
_POINT_U = np.array(_POINT, _U64)
_E_BYTE = np.array(_E, np.uint8)
_SPLIT = np.array(134217729.0)  # 2^27 + 1, Veltkamp's constant for float64
_FOUR = np.arange(4)[:, None]
#: For an exponent of three digits (column 0) and of two (column 1): the
#: bytes it takes, the bit shifts that cut it off the slot, the mask of its
#: digits in word 2 and the bit shift of its sign there.
_CUT = np.array([[5, 4], [40, 32], [24, 32], [0xFFFFFF << 40, 0xFFFF << 48], [32, 40]], dtype=_U64)
#: Bytes 5 to 7 of a word, the last three of word 2, and the decimal
#: weight of each.
_DIGIT_BYTES = np.array([[40], [48], [56]], dtype=_U64)
_DECIMAL = np.array([100, 10, 1], dtype=_U64)
#: 10^k, and the largest w with w 10^k below 2^64, for k from 0 to 19.
_TENS = np.array([10**k for k in range(20)], dtype=_U64)
_TENS_LIMIT = np.array([(2**64 - 1) // 10**k for k in range(20)], dtype=_U64)


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
        self.text_words = self.text.view(_WORD)
        self.rows = None

    def parse_rows(self, piece, width: int, longest: int | None = None) -> np.ndarray:
        """The (rows, width) floats of the lines of piece, a bytes-like
        object whose every line ends in a line end (module docstring), and,
        if given, holds at most longest bytes besides its line end."""
        size = len(piece)
        if not size:
            return np.empty((0, width))
        if len(self.text) < size + 2 * _SLOT:
            self.text = np.empty(-(-(size + 2 * _SLOT) // 8) * 8, dtype=np.uint8)
            self.text_words = self.text.view(_WORD)
        text = self.text[_SLOT : _SLOT + size]  # each slot reads 24 bytes before its field's end
        text[:] = np.frombuffer(piece, dtype=np.uint8)
        if text[-1] != ord("\n"):
            raise ValueError("a line without its line end")
        scan = self.words.view(bool)  # idle until the fields are parsed
        if len(scan) < 2 * size:
            scan = np.empty(2 * size, dtype=bool)  # freed before the words grow
        seps, other = scan[: 2 * size].reshape(2, size)
        np.equal(text, _CHAR[","], out=seps)
        np.equal(text, _CHAR["\n"], out=other)
        seps |= other
        ends = seps.nonzero()[0]
        rows = len(ends) // width
        line_ends = ends[width - 1 :: width]
        if (
            rows * width != len(ends)
            or np.count_nonzero(other) != rows
            or np.count_nonzero(text.take(line_ends) == _CHAR["\n"]) != rows
        ):
            raise ValueError(f"lines not of {width} fields")
        if longest is not None and (
            line_ends[0] > longest or (rows > 1 and (line_ends[1:] - line_ends[:-1]).max() > longest + 1)
        ):
            raise ValueError(f"a line longer than {longest} bytes")
        del scan, seps, other
        most = min(len(ends), self.size)
        if len(self.flags) < 7 * most:
            self.words = self.flags = self.rows = None  # freed before the larger ones are made
            self.words = np.empty(13 * most, dtype=_U64)
            self.flags = np.empty(7 * most, dtype=bool)
        values = np.empty(len(ends))
        with np.errstate(all="ignore"):
            for k in range(0, len(ends), self.size):
                part = ends[k : k + self.size]
                n = len(part)
                if self.rows is None or self.rows.n != n:
                    self.rows = _Rows(self.words, self.flags, n)
                out = values[k : k + n]
                _digits(self.text, self.text_words, part, ends[k - 1] if k else -1, self.rows)
                _scale(self.rows, out)
                if np.count_nonzero(self.rows.flag) < n:
                    bad = np.logical_not(self.rows.flag, out=self.rows.flag).nonzero()[0]
                    for i in _integers(self.rows, bad, out).tolist():
                        out[i] = _one(piece, ends, k + i)
        return values.reshape(rows, width)


class _Rows:
    """Named views of a workspace's 13 word rows and 7 flag rows for a part
    of n fields, each under the dtype and the name of its use in
    ``_digits`` and ``_scale``; made once per part length, since a view
    costs about as much as a ufunc call on a few thousand values."""

    def __init__(self, words, flags, n: int):
        self.n = n
        u = words[: 13 * n].reshape(13, n)
        i, f = u.view(_I64), u.view(_F64)
        self.ok, self.flag, self.exponent, self.exp20, self.other, chars, self.sign = flags[: 7 * n].reshape(7, n)
        self.chars = chars.view(np.uint8)
        # _digits
        self.x, self.x01, self.x12, (self.x0, self.x1, self.x2) = u[0:3], u[0:2], u[1:3], u[0:3]
        self.spare, self.mark, (self.marks, self.mark1, self.mark2) = u[3:7], u[3:6], u[3:6]
        self.spare13, self.index, self.carry, self.w = u[4:7], i[7:11], u[7:9], u[7]
        self.length, self.first, self.shift, self.point, self.temp = i[7], i[8], i[9], i[11], i[12]
        self.shift_u, self.point_f = u[9], f[11]
        self.length_rest = self.length[1:]
        # byte b of word 2, column 16 + b, is memory byte b, or 7 - b on a big-endian machine
        columns = u[2].view(np.uint8).reshape(n, 8)
        self.column19, self.column20 = (columns[:, b] for b in ((3, 4) if np.little_endian else (4, 3)))
        # _scale: rows 4 and 5 (w_lo and w_hi) and 12 (q) outlast it
        self.powers, self.powers01, (self.p_hi, self.p_lo, self.b_hi, self.b_lo) = f[0:4], f[0:2], f[0:4]
        self.w_lo, self.w_hi, self.a_hi, self.a_lo, self.p, self.e = f[4:10]
        self.w_halves, self.product = f[4:6], f[10]
        self.a_hi_u, self.a_hi_i, self.e_u, self.q_index, self.q_index_u = u[6], i[6], u[9], i[10], u[10]
        self.gap, self.gap_u, self.t, self.t_u = f[0], u[0], f[10], u[10]


def _one(piece, ends, i: int) -> float:
    """``float`` of field i of piece, which must match the grammar."""
    field = bytes(piece[ends[i - 1] + 1 if i else 0 : ends[i]])
    if not _GRAMMAR.fullmatch(field):
        raise ValueError(f"the field {field[:_SLOT]!r} is not the repr of a float")
    return float(field)


def _digits(text, text_words, ends, before: int, r: _Rows):
    """For the fields ending at ends (offsets into text past its first
    _SLOT bytes; text_words is text as words), the first after the
    separator at before (-1 for none), into r.w and r.temp (q) and r.sign:
    each field is (-1)^sign w 10^q. Into r.ok: the fields whose text this
    read takes."""
    x, x2, spare, mark, marks, mark1 = r.x, r.x2, r.spare, r.mark, r.marks, r.mark1
    length, first, shift, point, temp = r.length, r.first, r.shift, r.point, r.temp
    ok, flag, other, chars, sign = r.ok, r.flag, r.other, r.chars, r.sign
    # word k of a slot is the text at byte offset o = end + 8k of text:
    # A[o // 8] >> 8 (o % 8) | A[o // 8 + 1] << (64 - 8 (o % 8)), from
    # the aligned words A of text (a shift by 64 gives 0)
    np.right_shift(ends, _I[3], out=temp)
    np.add(temp, _FOUR, out=r.index)
    text_words.take(r.index, out=spare, mode="clip")
    np.bitwise_and(ends, _I[7], out=shift)
    shift <<= _I[3]
    np.right_shift(mark, r.shift_u, out=x)
    np.subtract(_I[64], shift, out=shift)
    np.left_shift(r.spare13, r.shift_u, out=r.spare13)
    x |= r.spare13
    x ^= _DIGIT_0
    # each field's length and first column, of text byte end + first; a
    # minus there is the sign
    np.subtract(ends[1:], ends[:-1], out=r.length_rest)
    r.length_rest -= _I[1]
    length[0] = ends[0] - before - 1
    np.less_equal(length, _I[_SLOT], out=ok)
    np.subtract(_I[_SLOT], length, out=first)
    np.add(ends, first, out=temp)
    text.take(temp, out=chars, mode="clip")
    np.equal(chars, _CHAR["-"], out=sign)
    # the fields with an exponent: it ends the slot, its 'e' in column 20
    # (two digits) or 19 (three), and the field holds the 'e', a sign and
    # the digits
    np.equal(r.column20, _E_BYTE, out=r.exp20)
    np.equal(r.column19, _E_BYTE, out=r.exponent)
    r.exponent |= r.exp20
    fields = r.exponent.nonzero()[0]
    if len(fields):
        fields = fields[length[fields] >= 6 - r.exp20[fields]]
    if len(fields):
        slots = x[:, fields]
        q, moved, good = _exponent(slots, r.exp20[fields])
        x[:, fields] = slots
        first[fields] += moved
        ok[fields] &= good
    # the sign and the bytes before it go to zero
    first += sign  # the first digit's column
    x &= _FROM.take(first, axis=1, out=mark, mode="clip")
    # each byte over 9, the point alone in a field this read takes: to
    # zero (by a XOR with the point's byte), and as a bit of a 24-bit mask
    np.add(x, _OVER_9, out=mark)
    mark |= x
    mark &= _HIGH
    mark >>= _U[7]
    mark *= _POINT_U
    x ^= mark
    mark >>= _U[1]
    mark &= _ONES
    mark *= _PACK
    mark >>= _U[56]
    mark1 <<= _U[8]
    marks |= mark1
    r.mark2 <<= _U[16]
    marks |= r.mark2
    # at most one point: marks has no other bit once its lowest is cleared
    np.subtract(marks, _U[1], out=mark1)
    mark1 &= marks
    np.equal(mark1, _U[0], out=other)
    # the point's column: log2 of the mask, from the float's exponent bits
    # (-1023 for none)
    np.copyto(r.point_f, marks, casting="unsafe")
    point >>= _I[52]
    point -= _I[1023]
    # one point, after the first digit and before the last
    np.add(ends, point, out=temp)
    if len(fields):
        temp[fields] -= moved  # where the exponent moved the mantissa from
    text.take(temp, out=chars, mode="clip")
    np.equal(chars, _CHAR["."], out=flag)
    flag &= other
    np.less(point, _I[_SLOT - 1], out=other)
    flag &= other
    np.greater(point, first, out=other)
    flag &= other
    if len(fields):  # with an exponent: right after the first digit, or no point and one digit
        at, start = point[fields], first[fields]
        one = flag[fields] & (at - start == 1)
        one |= (marks[fields] == 0) & (start == _SLOT - 1)
        flag[fields] = one
        q += np.where(at < 0, 0, at - (_SLOT - 1))
    ok &= flag
    # the digits left of the point move one column right, and column 0
    # takes a zero; without a point nothing moves
    right = _FROM.take(point, axis=1, out=mark, mode="clip")
    right &= x
    x ^= right
    carry = r.carry  # the length and first column are spent
    np.right_shift(r.x01, _U[56], out=carry)
    x <<= _U[8]
    r.x12 |= carry
    x |= right
    # 24 digits to an integer, 8 to a word: pairs, fours, then eights
    x *= _U[10 * 2**8 + 1]
    x >>= _U[8]
    x &= _U[0x00FF00FF00FF00FF]
    x *= _U[100 * 2**16 + 1]
    x >>= _U[16]
    x &= _U[0x0000FFFF0000FFFF]
    x *= _U[10000 * 2**32 + 1]
    x >>= _U[32]
    np.less(r.x0, _U[1000], out=flag)  # at most 19 significant digits
    ok &= flag
    r.x0 *= _U[10**16]
    r.x1 *= _U[10**8]
    np.add(r.x0, r.x1, out=r.w)
    r.w += x2
    # q: the exponent less the digits after the point
    np.subtract(point, _I[_SLOT - 1], out=temp)
    if len(fields):
        temp[fields] = q


def _exponent(slots, two):
    """For the fields with an exponent, their (3, k) slots and whether it
    has two digits (else three): its value q, the bytes moved (4 or 5) and
    whether it is a sign and two or three digits; cuts it off the slots,
    which moves their mantissas to the right end."""
    moved, shift, back, mask, at_sign = _CUT.take(two.view(np.uint8), axis=1)
    digits = (slots[2] & mask) >> _DIGIT_BYTES
    digits &= _U[0xFF]
    q = _DECIMAL.dot(digits).view(_I64)
    sign = slots[2] >> at_sign
    sign &= _U[0xFF]
    minus = sign == _MINUS
    good = (sign == _PLUS) | minus
    good &= digits.max(axis=0) <= 9
    np.negative(q, out=q, where=minus)
    carry = slots[:2] >> back
    slots <<= shift
    slots[1:] |= carry
    return q, moved.view(_I64), good


def _scale(r: _Rows, out):
    """Into out: the float nearest to (-1)^sign w 10^q, from r.w, r.temp
    (q) and r.sign; into r.flag: the fields of r.ok that this arithmetic
    rounds with certainty."""
    ok, flag, zero, below, inrange = r.ok, r.flag, r.exponent, r.exp20, r.other
    w, index, powers, e, t, gap = r.w, r.q_index, r.powers, r.e, r.t, r.gap
    np.equal(w, _U[0], out=zero)  # +0.0 or -0.0
    np.subtract(r.temp, _I[_Q_MIN], out=index)  # q's column of the table
    np.less_equal(r.q_index_u, _U[_Q_MAX - _Q_MIN], out=inrange)
    _POW10.take(index, axis=1, out=powers, mode="clip")
    w_lo, w_hi, a_hi, a_lo, p = r.w_lo, r.w_hi, r.a_hi, r.a_lo, r.p
    spare = r.a_hi_u  # until the halves are formed
    np.copyto(w_hi, w, casting="unsafe")
    np.copyto(spare, w_hi, casting="unsafe")
    np.subtract(w, spare, out=spare)
    np.copyto(w_lo, r.a_hi_i, casting="unsafe")  # w - w_hi, exactly
    np.multiply(w_hi, _SPLIT, out=a_lo)  # w is spent
    np.subtract(a_lo, w_hi, out=a_hi)
    np.subtract(a_lo, a_hi, out=a_hi)
    np.subtract(w_hi, a_hi, out=a_lo)
    np.multiply(w_hi, r.p_hi, out=p)
    # e = w_hi p_hi - p exactly, from the products of the halves in row 10
    # (the table's column is spent): a_hi b_hi - p, then a_lo b_hi, a_hi
    # b_lo and a_lo b_lo, each sum exact (Dekker's order, with the factors'
    # roles swapped)
    product, b_hi, b_lo = r.product, r.b_hi, r.b_lo
    np.multiply(a_hi, b_hi, out=e)
    e -= p
    np.multiply(a_lo, b_hi, out=product)
    e += product
    np.multiply(a_hi, b_lo, out=product)
    e += product
    np.multiply(a_lo, b_lo, out=product)
    e += product
    # c: e plus the cross terms w_hi p_lo + w_lo p_hi (w_lo p_lo is below
    # 2^-106 of the product)
    r.powers01 *= r.w_halves
    e += r.p_lo
    e += r.p_hi
    np.add(p, e, out=out)  # f
    np.subtract(out, p, out=t)
    np.subtract(e, t, out=t)  # r - f, exactly
    np.less(t, _F[0.0], out=below)
    np.abs(t, out=t)
    np.abs(out, out=p)
    np.multiply(p, _F[2.0**-96], out=e)
    t += e
    # half the gap from f to its neighbour on r's side: 2^-53 of f's power
    # of two, 2^-54 below a power of two
    np.bitwise_and(out.view(_U64), _EXPONENT_BITS, out=r.gap_u)
    gap *= _F[2.0**-53]
    np.left_shift(out.view(_U64), _U[12], out=r.e_u)
    np.equal(r.e_u, _U[0], out=flag)
    flag &= below
    np.multiply(gap, _F[0.5], out=gap, where=flag)
    np.less(t, gap, out=flag)
    flag |= zero
    flag &= inrange
    flag &= ok
    np.copyto(r.t_u, r.sign)
    r.t_u <<= _U[63]
    out.view(_U64)[:] |= r.t_u


def _integers(r: _Rows, bad, out):
    """Into out, at the fields bad (not rounded with certainty) whose text
    the read takes and whose w 10^q is an integer below 2^64: that integer
    cast to float64, which rounds half to even as ``float`` does. Returns
    the others of bad."""
    q = r.temp[bad]
    exact = r.ok[bad] & (np.abs(q) < len(_TENS))
    fields, q = bad[exact], q[exact]
    tens = _TENS[np.abs(q)]
    w = r.w_hi[fields].astype(_U64) + r.w_lo[fields].astype(_I64).view(_U64)  # wraps back to w
    up = q >= 0
    fits = np.where(up, w <= _TENS_LIMIT[np.abs(q)], w % tens == 0)
    value = np.where(up, w * tens, w // tens).astype(_F64)
    np.negative(value, out=value, where=r.sign[fields])
    out[fields[fits]] = value[fits]
    exact[exact] = fits
    return bad[~exact]


def parse_rows(piece, width: int) -> np.ndarray:
    """The (rows, width) float64 array that ``float`` gives for the fields
    of piece: lines of ``width`` comma-separated fields, each line ended
    by a line end. ``ValueError`` where a field is not the ``repr`` of a
    float or a line holds another count of fields. Its workspace holds
    all of the piece's fields at once."""
    return Workspace(len(piece)).parse_rows(piece, width)
