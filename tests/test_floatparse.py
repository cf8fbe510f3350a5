"""``floatparse.parse_rows`` against Python's ``float``, bit for bit: every
text of the grammar it accepts, every other text rejected, and the values
that leave the vectorized arithmetic for ``float`` counted."""

import contextlib
import io
import re
import tracemalloc
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from resilient_consensus import (
    dynamics,
    floatparse,
    floatrepr,
    random_connected_graph,
    simulate,
)
from resilient_consensus.cli import main

from test_dynamics import WORKLOAD_SHAPES, adaptive_cfg

DEMO = Path(__file__).resolve().parent.parent / "demo"

#: The texts parse_rows accepts, written out apart from the module's own
#: pattern: repr's positional and exponent forms, inf and nan.
GRAMMAR = re.compile(rb"-?(?:[0-9]+\.[0-9]+|[0-9](?:\.[0-9]+)?e[+-][0-9]{2,3}|inf)|nan")


def floats_of(piece: bytes) -> np.ndarray:
    """``float`` of every field of piece, in its rows."""
    return np.array([[float(f) for f in line.split(b",")] for line in piece.splitlines()])


def assert_parses(piece: bytes, width: int):
    got = floatparse.parse_rows(piece, width)
    expected = floats_of(piece)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def in_rows(field: bytes) -> bytes:
    """field as the first, a middle and the last field of a row of three."""
    return b"".join([field + b",0.5,-2.0\n", b"1.5," + field + b",3.25\n", b"-0.75,8.0," + field + b"\n"])


@pytest.fixture
def one_at_a_time(monkeypatch):
    """The indices of the fields parse_rows hands to ``float`` one at a
    time, in a list."""
    seen, one = [], floatparse._one

    def counting(piece, ends, i):
        seen.append(i)
        return one(piece, ends, i)

    monkeypatch.setattr(floatparse, "_one", counting)
    return seen


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12), elements=st.floats()))
def test_repr_rows_round_trip(block):
    # any floats through floatrepr's text and back: every finite value
    # comes back with its bits; inf and nan texts may be rejected, or read
    # as float reads them
    text = bytes(floatrepr.repr_rows(block))
    try:
        got = floatparse.parse_rows(text, block.shape[1])
    except ValueError:
        assert not np.isfinite(block).all()
        return
    assert got.tobytes() == floats_of(text).tobytes()
    finite = np.isfinite(block)
    assert got[finite].tobytes() == block[finite].tobytes()


def decimal_text(sign, digits, point, exponent):
    """sign and digits with a point before digit ``point`` (none if None)
    and an exponent (sign and digits as written, none if None)."""
    text = digits if point is None else digits[:point] + "." + digits[point:]
    return (sign + text + ("" if exponent is None else "e" + exponent)).encode()


EXPONENTS = st.builds(
    lambda value, plus, width: ("-" if value < 0 else plus) + str(abs(value)).zfill(width),
    st.integers(-330, 310),
    st.sampled_from(["+", ""]),
    st.integers(1, 3),
)


@settings(max_examples=1000, deadline=None)
@given(
    sign=st.sampled_from(["", "-"]),
    digits=st.text("0123456789", min_size=1, max_size=20),
    data=st.data(),
    exponent=st.none() | EXPONENTS,
)
def test_grammar_shaped_text(sign, digits, data, exponent):
    # the point anywhere or nowhere, an exponent or none: a text of the
    # grammar reads as float reads it, and any other raises
    point = data.draw(st.none() | st.integers(0, len(digits)))
    field = decimal_text(sign, digits, point, exponent)
    if GRAMMAR.fullmatch(field):
        assert_parses(in_rows(field), 3)
    else:
        with pytest.raises(ValueError):
            floatparse.parse_rows(in_rows(field), 3)


def neighbours(value: float):
    return [float(np.nextafter(value, -np.inf)), value, float(np.nextafter(value, np.inf))]


def near_halfway(value: float):
    """The decimals of 18 significant digits next below and next above the
    halfway points from value to its neighbours, in repr's exponent form
    (24 bytes, a slot): each is within 10^-17 of its value from a halfway
    point, which the rounding must tell apart. A halfway point of 18
    digits or fewer (near 2^47 to 2^60) is a tie, not near one: none."""
    texts = []
    with localcontext(prec=2000):
        down, _, up = map(Decimal, neighbours(value))
        halves = [(Decimal(value) + down) / 2, (Decimal(value) + up) / 2]
    for half in halves:
        for rounding in (ROUND_FLOOR, ROUND_CEILING):
            with localcontext(prec=18, rounding=rounding):
                near = +half
            if near == half:
                continue
            digits, exponent = near.as_tuple()[1:]
            mantissa = "".join(map(str, digits)).ljust(18, "0")
            texts.append(f"{mantissa[0]}.{mantissa[1:]}e{exponent + len(digits) - 1:+03d}")
    return texts


#: Powers of two whose halfway decimals have a q in the arithmetic's table.
HALFWAY_POWERS = (-900, -600, -60, -1, 0, 1, 52, 53, 60, 300, 960)


def test_near_halfway_by_the_arithmetic(one_at_a_time):
    # decimals next to the halfway points around 2^e, on both sides, and
    # around random floats are rounded by the double-double arithmetic,
    # none by float
    rng = np.random.default_rng(11)
    values = [2.0**e for e in HALFWAY_POWERS]
    values += (np.abs(rng.standard_normal(200)) * 10.0 ** rng.integers(-270, 280, 200)).tolist()
    fields = [t.encode() for v in values for t in near_halfway(v)]
    assert max(map(len, fields)) == 24
    assert_parses(b"".join(f + b"\n" for f in fields), 1)
    assert one_at_a_time == []


FAMILIES = {
    "ties at 2^53": ["9007199254740993.0", "9007199254740995.0", "9007199254740992.5", "18014398509481986.0"],
    "ties at x.5": ["4503599627370496.5", "4503599627370497.5", "-4503599627370498.5", "2251799813685248.25"],
    "powers of two": [repr(v) for e in range(-1074, 1024, 7) for v in neighbours(2.0**e)],
    "powers of ten": [repr(v) for k in range(-323, 309) for v in neighbours(float(f"1e{k}"))],
    "halfway points": [t for e in (-1022, *HALFWAY_POWERS, 1000) for t in near_halfway(2.0**e)],
    "zeros": ["0.0", "-0.0", "0e+00", "-0e-05", "0.000000000000000000000", "-00.0"],
    "leading zeros": [
        "0001.5",
        "-00.25",
        "000000000000000000001.0",
        "00000000000000000000001.5",
        "0000000000000000000000001.0",
    ],
    "19 to 21 digits": [
        "1234567890123456789.0",
        "123456789012345678.9",
        "0.1234567890123456789",
        "12345678901234567890.12",
        "1.2345678901234567890",
        "9.999999999999999999e+22",
        "1.00000000000000000001",
        "-18446744073709551615.0",
        "99999999999999999999.9",
    ],
    "exponents": [
        "1e-05",
        "1.5e-07",
        "-9.999999999999999e-05",
        "5e-324",
        "1e+16",
        "1.5e+17",
        "2.5e+100",
        "1.7976931348623157e+308",
        "2.2250738585072014e-308",
    ],
    "inf and nan": ["inf", "-inf", "nan"],
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_families(family):
    fields = [f.encode() for f in FAMILIES[family]]
    assert all(GRAMMAR.fullmatch(f) for f in fields)
    assert_parses(b"".join(in_rows(f) for f in fields), 3)


OUTSIDE = {
    "space before": b" 1.0",
    "space after": b"1.0 ",
    "plus": b"+1.0",
    "underscore": b"1_0.0",
    "carriage return": b"1.0\r",
    "non-ASCII": "1.0١".encode(),
    "high byte": b"1.\xb50",
    "nul": b"1.\x000",
    "empty field": b"",
    "bare e": b"1e",
    "exponent without sign": b"1e05",
    "exponent of one digit": b"1e+5",
    "exponent of four digits": b"1e+0005",
    "two digits before e": b"12e+05",
    "point before e": b"1.e+05",
    "two minuses": b"--1.0",
    "two points": b"1.0.0",
    "trailing point": b"5.",
    "leading point": b".5",
    "no point": b"15",
    "minus alone": b"-",
    "point alone": b".",
    "hex": b"0x1p3",
    "Infinity": b"Infinity",
    "negative nan": b"-nan",
    "long digits with a space": b"0000000000000000000000000 1.0",
}


@pytest.mark.parametrize("case", sorted(OUTSIDE))
def test_outside_grammar_raises(case):
    field = OUTSIDE[case]
    assert not GRAMMAR.fullmatch(field)
    with pytest.raises(ValueError):
        floatparse.parse_rows(in_rows(field), 3)


@pytest.mark.parametrize(
    "piece, width",
    [
        (b"1.0,2.0\n3.0\n", 2),  # a short line
        (b"1.0,2.0\n3.0,4.0,5.0\n", 2),  # a long line
        (b"1.0,2.0\n3.0,4.0", 2),  # no last line end
        (b"1.0,2.0\n\n", 2),  # an empty line
        (b"1.0,2.0,\n", 2),  # a trailing comma
    ],
)
def test_other_shapes_raise(piece, width):
    with pytest.raises(ValueError):
        floatparse.parse_rows(piece, width)


def test_parses_without_numpy_2_only_functions(monkeypatch):
    # pyproject allows numpy 1.24, which has no np.bitwise_count: the point
    # count must come from plain integer arithmetic
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    block = np.array([[0.5, -2.0, 1e-05], [3e-12, 1.5e17, -0.0], [12345.678, 5e-324, 7.0]])
    text = bytes(floatrepr.repr_rows(block))
    assert floatparse.parse_rows(text, 3).tobytes() == block.tobytes()
    for field in (b"1.0.0", b"15", b"1.2e.05", b"1e-05.0"):
        with pytest.raises(ValueError):
            floatparse.parse_rows(in_rows(field), 3)


def test_empty_piece():
    assert floatparse.parse_rows(b"", 3).shape == (0, 3)


def test_one_workspace_over_pieces_of_any_size(one_at_a_time):
    # one small workspace over pieces of more fields than it parses at a
    # time, fewer, and of other widths: the values' bits, and none of them
    # goes to float, the first field of a later part included
    rng = np.random.default_rng(7)
    ws = floatparse.Workspace(50)
    for rows, width in [(40, 7), (1, 1), (3, 31), (200, 2), (1, 50), (1, 51)]:
        # below 2^53: above it a repr is often a halfway point, for float
        block = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-8, 16, (rows, width))
        text = bytes(floatrepr.repr_rows(block))
        assert ws.parse_rows(text, width).tobytes() == block.tobytes()
    assert one_at_a_time == []


def workload_csv(tmp_path, name):
    """The body of the trajectory CSV of a run of the shape of workload
    name, at seed 1, and its width."""
    n, p, dt, steps = WORKLOAD_SHAPES[name]
    rng = np.random.default_rng(1)
    g = random_connected_graph(n, rng, extra_edge_prob=p)
    cfg = adaptive_cfg(n, dt=dt, t_final=dt * steps, x0=rng.uniform(-1.0, 1.0, n))
    path = tmp_path / "traj.csv"
    dynamics.write_trajectory_csv(simulate(g, cfg, rng.uniform(-1.0, 1.0, n)), path)
    return path.read_bytes().split(b"\n", 1)[1], 1 + 3 * n


def demo_csv(tmp_path, t_final=None):
    """The body of the demo run's trajectory CSV, or of the run to t_final."""
    scenario = DEMO / "adaptive_p2.yaml"
    if t_final is not None:
        text = scenario.read_text()
        scenario = tmp_path / "long.yaml"
        scenario.write_text(re.sub(r"(?m)^t_final: .*$", f"t_final: {t_final!r}", text))
    path = tmp_path / "traj.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--graph", str(DEMO / "p2.txt"), "--scenario", str(scenario), "--out", str(path)]) == 0
    return path.read_bytes().split(b"\n", 1)[1], 7


@pytest.mark.parametrize("run", [*sorted(WORKLOAD_SHAPES), "demo", "demo to t = 1000"])
def test_no_value_of_the_runs_leaves_the_arithmetic(tmp_path, one_at_a_time, run):
    # the benchmark's workload shapes at seed 1, the demo run and the
    # 10^5-step demo run that CI reads back: the bits float reads, and not
    # one value goes to float one at a time
    if run in WORKLOAD_SHAPES:
        body, width = workload_csv(tmp_path, run)
    else:
        body, width = demo_csv(tmp_path, 1000.0 if run.endswith("1000") else None)
    got = floatparse.parse_rows(body, width)
    assert got.tobytes() == floats_of(body).tobytes()
    assert one_at_a_time == []


def test_hard_values_go_to_float(one_at_a_time):
    # a tie that is not an integer, a q outside the table, 20 significant
    # digits, a 25-byte field and inf: each goes to float, and its
    # neighbours do not
    fields = [b"4503599627370496.5", b"1e-300", b"12345678901234567890.0", b"0000000000000000000001.25", b"inf"]
    piece = b"".join(f + b",0.5,2.25\n" for f in fields)
    assert_parses(piece, 3)
    assert one_at_a_time == [0, 3, 6, 9, 12]



def is_tie(field: bytes) -> bool:
    """Whether the decimal field lies exactly halfway between two floats."""
    value = float(field)
    with localcontext(prec=2000):
        exact = Decimal(field.decode())
        return any(exact == (Decimal(value) + Decimal(n)) / 2 for n in neighbours(value)[::2])


def as_rows(fields, width):
    return b"".join(b",".join(fields[i : i + width]) + b"\n" for i in range(0, len(fields), width))


def test_exact_ties_read_by_the_integer_cast(one_at_a_time):
    # exact halfway points between two floats, which the arithmetic cannot
    # round with certainty, that are integers below 2^64 are read by the
    # uint64 cast with float's bits, none by float: repr writes many above
    # 10^16 (q >= 0), and odd integers between 2^53 and 2^54 are ties
    # written with a point (q < 0)
    rng = np.random.default_rng(5)
    values = np.concatenate([rng.uniform(1e16, 1e17, 1200), rng.uniform(1e17, 2.0**64, 300)])
    fields = [repr(v).encode() for v in (values * rng.choice([-1.0, 1.0], values.size)).tolist()]
    signs, odd, zeros = rng.choice(["", "-"], 500), rng.integers(0, 2**52, 500).tolist(), rng.integers(1, 3, 500)
    fields += [f"{s}{2**53 + 1 + 2 * k}.{'0' * z}".encode() for s, k, z in zip(signs, odd, zeros)]
    ties = [f for f in fields if is_tie(f)]
    assert sum(b"e" in f for f in ties) > 100 and sum(b"e" not in f for f in ties) == 500
    assert {f.startswith(b"-") for f in ties} == {True, False}
    assert_parses(as_rows(fields, 10), 10)
    assert one_at_a_time == []


def test_ties_above_2_64_go_to_float(one_at_a_time):
    # an exact tie at or above 2^64 is no uint64 integer: float reads it,
    # and the tie just below 2^64 beside it is cast
    fields = [b"4.579584289071872e+19", b"-2.52758575708864e+19", b"1.838131457308352e+19"]
    assert all(map(is_tie, fields))
    assert_parses(b"".join(f + b",0.5\n" for f in fields), 2)
    assert one_at_a_time == [0, 2]


#: Fields of repr's exponent form: both signs of the mantissa and of the
#: exponent, two and three digits, with a point and without.
EXPONENT_FIELDS = [b"1e-05", b"-2.5e+100", b"9.999999999999999e-05", b"-1e+16", b"1.2345e-123", b"-7.25e+22"]


def positional_fields(rng, count):
    return [repr(v).encode() for v in (rng.uniform(1.0, 1000.0, count) * rng.choice([-1.0, 1.0], count)).tolist()]


#: Where a piece of 42 fields holds a field, and the fields its workspace
#: parses at a time: the first of a later part needs a smaller workspace.
PLACES = {"first": (0, 42), "last": (41, 42), "first of a later part": (10, 10)}


def with_field_at(field, where, seed):
    """42 positional fields in rows of 7, with field at the place where,
    and the workspace to parse them."""
    fields = positional_fields(np.random.default_rng(seed), 42)
    at, size = PLACES[where]
    fields[at] = field
    return as_rows(fields, 7), floatparse.Workspace(size)


@pytest.mark.parametrize("field", EXPONENT_FIELDS)
@pytest.mark.parametrize("where", sorted(PLACES))
def test_one_exponent_field(one_at_a_time, where, field):
    # the piece's only exponent field as its first, its last, or the first
    # field of a later part
    piece, ws = with_field_at(field, where, 3)
    assert ws.parse_rows(piece, 7).tobytes() == floats_of(piece).tobytes()
    assert one_at_a_time == []


@pytest.mark.parametrize(
    "field",
    [b"1e+5", b"1e05", b"1e+0005", b"12e+05", b"12.5e+05", b"1.e+05", b"1e+a5", b"1e+0:", b"1.5e*05", b"1e-+05"]
    + [b"1e+05.0", b"1.5e+1.0", b"e+05"],
)
@pytest.mark.parametrize("where", sorted(PLACES))
def test_malformed_exponent_raises(where, field):
    # the piece's only exponent-like field, at the same places
    assert not GRAMMAR.fullmatch(field)
    piece, ws = with_field_at(field, where, 8)
    with pytest.raises(ValueError):
        ws.parse_rows(piece, 7)


def test_every_field_with_an_exponent(one_at_a_time):
    # both signs of the value and of the exponent, two and three digits
    rng = np.random.default_rng(4)
    exponents = np.concatenate([rng.integers(-270, -5, 300), rng.integers(20, 270, 300)])
    values = rng.uniform(1.0, 10.0, exponents.size) * 10.0**exponents * rng.choice([-1.0, 1.0], exponents.size)
    fields = [repr(v).encode() for v in values.tolist()]
    kinds = {(f[:1] == b"-", f.split(b"e")[1][:1], len(f.split(b"e")[1])) for f in fields}
    assert kinds == {(s, e, n) for s in (True, False) for e in (b"-", b"+") for n in (3, 4)}
    piece = as_rows(fields, 12)
    assert floatparse.parse_rows(piece, 12).tobytes() == floats_of(piece).tobytes()
    assert floatparse.Workspace(50).parse_rows(piece, 12).tobytes() == floats_of(piece).tobytes()
    assert one_at_a_time == []


def test_exponent_read_on_its_fields_alone(monkeypatch):
    # _exponent sees the exponent fields and no others: never for a piece
    # without one, and k fields in all for a piece with k, over any parts
    seen, exponent = [], floatparse._exponent

    def counting(slots, two):
        seen.append(slots.shape[1])
        return exponent(slots, two)

    monkeypatch.setattr(floatparse, "_exponent", counting)
    fields = positional_fields(np.random.default_rng(6), 70)
    piece = as_rows(fields, 7)
    assert floatparse.parse_rows(piece, 7).tobytes() == floats_of(piece).tobytes()
    assert seen == []
    for at in (0, 9, 10, 33, 69):
        fields[at] = EXPONENT_FIELDS[at % len(EXPONENT_FIELDS)]
    piece = as_rows(fields, 7)
    assert floatparse.parse_rows(piece, 7).tobytes() == floats_of(piece).tobytes()
    assert seen == [5]
    seen.clear()
    assert floatparse.Workspace(10).parse_rows(piece, 7).tobytes() == floats_of(piece).tobytes()
    assert sorted(seen) == [1, 1, 1, 2]


def test_short_first_field_after_an_e(one_at_a_time):
    # the bytes before a piece fill the left columns of its first field's
    # slot: an 'e' there is no exponent of a field of 3 or 4 bytes
    ws = floatparse.Workspace(8)
    ws.parse_rows(b"0.5\n", 1)
    ws.text[:] = ord("e")
    for piece in [b"0.5,1.5\n", b"-0.5,1.5\n", b"10.5,1.5\n"]:
        assert ws.parse_rows(piece, 2).tobytes() == floats_of(piece).tobytes()
    assert one_at_a_time == []


def test_parse_rows_peak_per_value():
    # parse_rows's tracemalloc peak on a piece of CSV_CHUNK_VALUES values,
    # 172 bytes a value: its workspace for the whole piece (126), the copy
    # of the piece (about 20), the field ends and the result (16)
    block = np.random.default_rng(1).standard_normal((dynamics.CSV_CHUNK_VALUES // 8, 8))
    text = bytes(floatrepr.repr_rows(block))
    floatparse.parse_rows(text, 8)
    tracemalloc.start()
    try:
        floatparse.parse_rows(text, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / block.size < 180


def test_reused_workspace_peak_per_value():
    # a call on the reader's workspace of half a chunk, made before, over a
    # piece of CSV_CHUNK_VALUES values: the field ends and the result (16
    # bytes a value) and numpy's cast buffers, 25 bytes a value measured
    block = np.random.default_rng(1).standard_normal((dynamics.CSV_CHUNK_VALUES // 8, 8))
    text = bytes(floatrepr.repr_rows(block))
    ws = floatparse.Workspace(dynamics.CSV_CHUNK_VALUES // 2)
    ws.parse_rows(text, 8)
    tracemalloc.start()
    try:
        ws.parse_rows(text, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / block.size < 32
