import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lesionbench import hashing
from lesionbench.hashing import fnv1a64
from util import reference_fnv1a64

CUTOFF = hashing._LOOP_MAX
CHUNK = hashing._CHUNK


@pytest.mark.parametrize("data, digest", [
    (b"", 0xCBF29CE484222325),
    (b"a", 0xAF63DC4C8601EC8C),
    (b"foobar", 0x85944171F73967E8),
])
def test_published_vectors(data, digest):
    assert fnv1a64(data) == digest
    assert reference_fnv1a64(data) == digest


@pytest.mark.parametrize("n", [CUTOFF - 1, CUTOFF, CUTOFF + 1, CHUNK - 1, CHUNK, CHUNK + 1,
                               3 * CHUNK + 17])
def test_lengths_at_the_cutoff_and_the_chunk_edges(n):
    data = np.random.default_rng(n).integers(0, 256, n, dtype=np.uint8).tobytes()
    assert fnv1a64(data) == reference_fnv1a64(data)


@pytest.mark.parametrize("byte", [0x00, 0xFF])
def test_long_runs_of_one_byte(byte):
    data = bytes([byte]) * 200_000
    assert fnv1a64(data) == reference_fnv1a64(data)


@settings(max_examples=300, deadline=None)
@given(data=st.binary(min_size=1, max_size=600), h=st.integers(0, hashing.MASK64))
def test_kernel_from_any_state_matches_the_byte_loop(data, h):
    chunk = np.frombuffer(data, dtype=np.uint8)
    powers = hashing._powers(len(data))
    assert hashing._fnv1a64_chunk(h, chunk, powers) == reference_fnv1a64(data, h)


@settings(max_examples=40, deadline=None)
@given(pattern=st.binary(min_size=1, max_size=300),
       n=st.integers(CUTOFF + 1, 2 * CHUNK + 300))
def test_long_inputs_match_the_byte_loop(pattern, n):
    data = (pattern * (n // len(pattern) + 1))[:n]
    assert fnv1a64(data) == reference_fnv1a64(data)
