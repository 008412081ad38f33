"""Stable 64-bit hashing primitives.

Used wherever the toolkit needs platform-independent pseudo-randomness or
file digests: fold tie-breaking and run manifests. Python's builtin ``hash``
is salted per process and must never be used for these purposes.

``fnv1a64`` hashes long inputs with a numpy kernel that returns the byte
loop's values exactly. Let h_i be the state before byte b_i, l_i its low byte
and P the FNV prime. XOR with a byte changes only the low 8 bits, so
``h_i ^ b_i = h_i + e_i`` with ``e_i = (l_i ^ b_i) - l_i``, and

    h_n = h_0·P^n + Σ e_i·P^(n-i)  (mod 2^64),

one wrapping uint64 dot product against a table of powers of P. The low bytes
follow ``l_{i+1} = ((l_i ^ b_i)·0xB3) mod 256`` (0xB3 = P mod 256). As 0xB3 is
odd, bit k of l_{i+1} is bit k of ``x ^ ((x mod 2^k)·0xB3)`` with
``x = l_i ^ b_i``: only bits below k enter the product. Taking k = 0..7 in
turn, each bit of the l_i is one prefix XOR over the input, done on bits
packed into uint64 words: shift-XOR inside each word, then a parity carry
across words.
"""

import numpy as np

MASK64 = (1 << 64) - 1

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# Inputs of at most this many bytes take the byte loop: the kernel's fixed
# cost of about 0.3-0.5 ms per call loses below 2-3 KB, and fold tie-breaks
# hash thousands of short patient ids.
_LOOP_MAX = 4096
# Bytes per kernel pass; bounds the kernel's temporaries and its power table.
_CHUNK = 65536


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a digest of a byte string."""
    if len(data) <= _LOOP_MAX:
        h = _FNV_OFFSET
        for byte in data:
            h ^= byte
            h = (h * _FNV_PRIME) & MASK64
        return h
    buf = np.frombuffer(data, dtype=np.uint8)
    # Built per call rather than cached: a table kept for the life of the
    # process raised a paper-scale ``train``'s peak RSS by about 1.7 MB.
    powers = _powers(min(buf.size, _CHUNK))
    h = _FNV_OFFSET
    for start in range(0, buf.size, _CHUNK):
        h = _fnv1a64_chunk(h, buf[start:start + _CHUNK], powers)
    return h


def _powers(m: int) -> np.ndarray:
    """``P^(m - j) mod 2^64`` for j = 0..m: ``[m - n]`` is P^n and
    ``[m - n:m]`` runs P^n down to P^1."""
    p = np.full(m + 1, _FNV_PRIME, dtype=np.uint64)
    p[0] = 1
    return np.multiply.accumulate(p)[::-1]


def _fnv1a64_chunk(h: int, b: np.ndarray, powers: np.ndarray) -> int:
    """The FNV-1a state after hashing the bytes ``b`` from state ``h``;
    ``powers`` is ``_powers(m)`` for some m >= ``b.size`` >= 1."""
    n = b.size
    low = np.zeros(n, dtype=np.uint8)  # l_i; bits at and above k still zero
    low[0] = h & 0xFF
    d = np.empty(n, dtype=np.uint8)
    words = np.empty(-(-n // 64), dtype="<u8")  # bit j of word w is position 64w + j
    for k in range(8):
        # d_i = bit k of b_i ^ (x_i mod 2^k)·0xB3, so that bit k of l_{i+1}
        # is bit k of l_0 ^ d_0 ^ ... ^ d_i. Any nonzero d_i packs as a 1.
        np.bitwise_xor(low, b, out=d)
        d &= (1 << k) - 1
        d *= 0xB3
        d ^= b
        d &= 1 << k
        packed = np.packbits(d, bitorder="little")
        words[-1] = 0  # the bytes past ``packed`` are padding
        words.view(np.uint8)[:packed.size] = packed
        for shift in (1, 2, 4, 8, 16, 32):
            words ^= words << shift
        # Carry into each word: bit k of l_0, then the parity of all earlier words.
        carry = np.bitwise_xor.accumulate(words >> 63)
        carry[1:] = carry[:-1]
        carry[0] = 0
        carry ^= (h >> k) & 1
        words ^= -carry
        ones = np.unpackbits(words.view(np.uint8), count=n - 1, bitorder="little")
        ones *= 1 << k  # a multiply: numpy's uint8 shift is several times slower
        low[1:] |= ones
    e = np.subtract(low ^ b, low, dtype=np.int16).astype(np.uint64)  # e_i mod 2^64
    m = powers.size - 1
    return (h * int(powers[m - n]) + int(np.dot(e, powers[m - n:m]))) & MASK64


def splitmix64(x: int) -> int:
    """One splitmix64 step: maps a 64-bit value to a well-mixed 64-bit value."""
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return (x ^ (x >> 31)) & MASK64
