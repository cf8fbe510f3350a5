"""``floatrepr.Workspace``: one workspace, reused chunk after chunk, gives
``repr``'s bytes and allocates nothing per chunk but the chunk's text."""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from resilient_consensus import dynamics, floatrepr
from resilient_consensus.dynamics import Trajectory

from test_dynamics import adaptive_cfg
from test_floatrepr import reference

#: Values of every class the formatter lays out apart: zeros, positional
#: texts at both ends of their range, exponent texts, and the fallback's
#: values (subnormals, 1e17 and beyond, inf, nan).
SPECIAL = [
    0.0,
    -0.0,
    1e-4,
    -9.999999999999999e-05,
    1.5e-7,
    -3e-12,
    123456789.0,
    1e16,
    9.999999999999998e16,
    1e17,
    -2.5e20,
    5e-324,
    -2.2250738585072014e-308,
    np.inf,
    -np.inf,
    np.nan,
]


def test_one_workspace_over_chunks_of_any_shape():
    # chunks of 1 to 200 rows and 1 to 37 columns, the last one short, all
    # through the one workspace of the largest
    rng = np.random.default_rng(5)
    ws = floatrepr.Workspace(200 * 37)
    shapes = [(200, 37), (3, 1), (1, 37), (64, 7), (200, 37), (17, 13), (5, 2)]
    for rows, width in shapes:
        block = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-14, 19, (rows, width))
        block.ravel()[rng.integers(0, block.size, len(SPECIAL))] = SPECIAL
        block[0, 0] = 0.016 * rows  # a short decimal: more than two digits dropped
        assert bytes(ws.repr_rows(block)) == reference(block)
    assert bytes(ws.repr_rows(np.zeros((4, 0)))) == b"\n" * 4


#: One workspace that every example of the property below reuses.
SHARED = floatrepr.Workspace(12 * 12)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12), elements=st.floats()))
def test_any_floats_through_one_workspace(block):
    # whatever an earlier block left in the workspace, the next one's bytes
    # are repr's
    assert bytes(SHARED.repr_rows(block)) == reference(block)


def test_workspace_text_is_a_view_of_the_chunk():
    # the helpers hand each chunk's text to the file as the array it is
    ws = floatrepr.Workspace(64)
    text = ws.repr_rows(np.arange(12.0).reshape(3, 4))
    assert isinstance(text, np.ndarray) and text.dtype == np.uint8
    assert bytes(text) == b"0.0,1.0,2.0,3.0\n4.0,5.0,6.0,7.0\n8.0,9.0,10.0,11.0\n"


def trajectory(rows, width=7, seed=3):
    states = np.random.default_rng(seed).standard_normal((rows, width - 1))
    p2 = dynamics.Graph(n=2, edges=frozenset({(0, 1)}))
    return Trajectory(states, p2, adaptive_cfg(2, dt=0.1, t_final=0.1 * (rows - 1)))


def test_peak_per_value():
    # the formatter's tracemalloc peak on one chunk of CSV_CHUNK_VALUES
    # values, 158 bytes a value: the workspace (138) and the chunk's text
    # (about 20), which is copied to bytes once the workspace is freed; it
    # was 314-323 bytes a value when every step allocated its own
    # temporaries
    values = dynamics.CSV_CHUNK_VALUES
    block = np.random.default_rng(1).standard_normal((values // 8, 8))
    floatrepr.repr_rows(block)
    tracemalloc.start()
    try:
        floatrepr.repr_rows(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / block.size < 165


def held_at_writes(traj):
    """The traced memory, less the chunk's text, at each chunk's write of
    ``_write_csv_chunks`` over all of traj, in one workspace made inside
    the trace."""
    held = []

    class Sink(io.RawIOBase):
        def write(self, text):
            held.append(tracemalloc.get_traced_memory()[0] - len(text))
            return len(text)

    width = 1 + traj.states.shape[1]
    tracemalloc.start()
    try:
        ws = floatrepr.Workspace(dynamics.CSV_CHUNK_VALUES // width * width)
        dynamics._write_csv_chunks(traj, 0, len(traj.states), Sink(), ws.repr_rows)
    finally:
        tracemalloc.stop()
    return held


def peak_of_calls(ws, block, calls):
    tracemalloc.start()
    try:
        for _ in range(calls):
            ws.repr_rows(block)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_later_chunks_add_no_traced_memory():
    # what a write holds between its chunks does not grow after the first,
    # and a chunk allocates only its text, freed once written: 16 calls on
    # one workspace peak where 2 do
    per_chunk = dynamics.CSV_CHUNK_VALUES // 7
    held_at_writes(trajectory(2))  # imports and first-use caches, untraced
    held = held_at_writes(trajectory(16 * per_chunk))
    assert len(held) == 16
    assert max(held) - min(held) < 1024
    block = np.random.default_rng(2).standard_normal((per_chunk, 7))
    ws = floatrepr.Workspace(block.size)
    ws.repr_rows(block)
    text = ws.repr_rows(block).nbytes
    peak_2, peak_16 = peak_of_calls(ws, block, 2), peak_of_calls(ws, block, 16)
    assert abs(peak_16 - peak_2) < 512
    assert peak_2 < text + 8 * block.size


@pytest.mark.parametrize("rows", [2, 100, 1169, 1171, 5000])
def test_chunked_writer_matches_the_row_writer(rows):
    # the helpers' writer through one workspace, a short last chunk or not,
    # against the caller's one-row writer
    traj = trajectory(rows)
    expected, got = io.BytesIO(), io.BytesIO()
    dynamics._write_csv_rows(traj, 0, rows, expected)
    width = 1 + traj.states.shape[1]
    ws = floatrepr.Workspace(dynamics.CSV_CHUNK_VALUES // width * width)
    dynamics._write_csv_chunks(traj, 0, rows, got, ws.repr_rows)
    assert got.getvalue() == expected.getvalue()
