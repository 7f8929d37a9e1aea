"""Rabin-fingerprint content-defined chunking.

This is the chunking algorithm the paper cites ([54], Rabin 1981): a rolling
fingerprint is computed over a sliding window of the input, interpreting
bytes as coefficients of a polynomial over GF(2) reduced modulo a fixed
irreducible polynomial. A chunk boundary is declared whenever the low bits of
the fingerprint match a magic pattern, which makes boundaries depend only on
local content and therefore robust to insertions and deletions elsewhere.

The implementation is a faithful polynomial-arithmetic version (table-driven,
as in LBFS) rather than an approximation; :class:`RabinRolling` exposes the
raw rolling fingerprint so tests can check it against a naive recomputation.

:meth:`RabinChunker.cut_points` is a fast path that exploits a fact the
byte-at-a-time loop ignores: once the window is full, the fingerprint at
position ``i`` depends only on ``data[i - window + 1 : i + 1]`` — not on
the chunk start — so the boundary test for *every* position can be
evaluated in one vectorized pass (GF(2) linearity turns it into XORs of
byte-pair table gathers), after which cut selection is a walk over the
sparse candidate list that skips each chunk's ``min_size`` prefix.

The fast path produces boundaries byte-identical to
:meth:`RabinChunker.cut_points_reference`, which stays as the equivalence
oracle for the property tests and serves specs whose window does not fit
inside the min-size prefix.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache

import numpy

from repro.chunking import fastscan
from repro.chunking.base import Chunker, ChunkerSpec
from repro.common.errors import ConfigurationError

# Degree-53 irreducible polynomial over GF(2), the classic LBFS choice.
DEFAULT_POLYNOMIAL = 0x3DA3358B4DC173
DEFAULT_WINDOW = 48


def _degree(value: int) -> int:
    return value.bit_length() - 1


def poly_mod(value: int, polynomial: int) -> int:
    """Reduce ``value`` modulo ``polynomial`` in GF(2)[x]."""
    poly_deg = _degree(polynomial)
    while _degree(value) >= poly_deg:
        value ^= polynomial << (_degree(value) - poly_deg)
    return value


class RabinRolling:
    """Rolling Rabin fingerprint over a fixed-size byte window."""

    def __init__(
        self,
        window: int = DEFAULT_WINDOW,
        polynomial: int = DEFAULT_POLYNOMIAL,
    ):
        if window <= 0:
            raise ConfigurationError("window must be positive")
        if polynomial <= 1:
            raise ConfigurationError("polynomial must have positive degree")
        self.window = window
        self.polynomial = polynomial
        self.degree = _degree(polynomial)
        self._fp_mask = (1 << self.degree) - 1
        shift = self.degree - 8
        if shift < 0:
            raise ConfigurationError("polynomial degree must be at least 8")
        self._shift = shift
        # (top << degree) mod P, for reducing the byte shifted out on append.
        self._mod_table = [
            poly_mod(top << self.degree, polynomial) for top in range(256)
        ]
        # (b << 8*window) mod P, for cancelling the byte leaving the window.
        self._out_table = [
            poly_mod(b << (8 * window), polynomial) for b in range(256)
        ]

    def append(self, fingerprint: int, byte: int) -> int:
        """Fingerprint after appending ``byte`` (no window eviction)."""
        top = fingerprint >> self._shift
        return (((fingerprint << 8) | byte) & self._fp_mask) ^ self._mod_table[top]

    def slide(self, fingerprint: int, incoming: int, outgoing: int) -> int:
        """Fingerprint after sliding the window one byte forward."""
        return self.append(fingerprint, incoming) ^ self._out_table[outgoing]

    def fingerprint(self, data: bytes) -> int:
        """Non-rolling fingerprint of ``data`` (naive, for verification)."""
        value = 0
        for byte in data:
            value = (value << 8) | byte
        return poly_mod(value, self.polynomial)


@lru_cache(maxsize=8)
def _rabin_scan_tables(polynomial: int, window: int, mask: int):
    """Byte-pair gather tables for the vectorized boundary scan.

    The windowed fingerprint at position ``i`` is the GF(2) sum
    ``XOR_m (data[i - m] << 8m) mod P`` over ``m in [0, window)``. Masked
    to the boundary-test bits, consecutive byte positions pair into one
    16-bit-keyed table each (key ``(data[j] << 8) | data[j - 1]``), so the
    whole test stream needs only ``window // 2`` gathers (plus one 256-way
    gather when the window is odd).
    """
    dtype = fastscan.mask_dtype(mask)
    byte_tables = [
        numpy.array(
            [poly_mod(b << (8 * m), polynomial) & mask for b in range(256)],
            dtype=numpy.uint32,
        )
        for m in range(window)
    ]
    high = numpy.arange(65536, dtype=numpy.uint32) >> 8
    low = numpy.arange(65536, dtype=numpy.uint32) & 255
    pair_tables = [
        # Key high byte = the later position (offset 2t), low = 2t + 1.
        (byte_tables[2 * t][high] ^ byte_tables[2 * t + 1][low]).astype(dtype)
        for t in range(window // 2)
    ]
    tail_table = (
        byte_tables[window - 1].astype(dtype) if window % 2 else None
    )
    return pair_tables, tail_table


class RabinChunker(Chunker):
    """Content-defined chunking driven by a rolling Rabin fingerprint.

    A boundary is placed at position ``i`` (cutting *after* byte ``i``) when
    at least ``spec.min_size`` bytes have accumulated and
    ``fingerprint & spec.mask == magic``; a cut is forced at
    ``spec.max_size``. ``magic`` defaults to ``spec.mask`` (all ones) so that
    all-zero regions, whose fingerprint is zero, do not cut at every byte.
    """

    def __init__(
        self,
        spec: ChunkerSpec | None = None,
        window: int = DEFAULT_WINDOW,
        polynomial: int = DEFAULT_POLYNOMIAL,
        magic: int | None = None,
    ):
        self.spec = spec or ChunkerSpec(
            min_size=2048, avg_size=8192, max_size=65536
        )
        self.rolling = RabinRolling(window=window, polynomial=polynomial)
        self.magic = self.spec.mask if magic is None else magic
        if self.magic > self.spec.mask:
            raise ConfigurationError("magic must fit within the average-size mask")

    def cut_points(self, data: bytes) -> list[int]:
        length = len(data)
        if not length:
            return []
        min_size = self.spec.min_size
        # The scan tests only positions with a full window, so the window
        # (plus the byte it evicts) must fit inside the min-size prefix.
        if min_size <= self.rolling.window:
            return self.cut_points_reference(data)
        if length <= min_size:
            # Single short chunk: the only possible cut is at the end.
            return [length]
        return self._cut_points_vectorized(data)

    # -- fast path ------------------------------------------------------------

    def _cut_points_vectorized(self, data: bytes) -> list[int]:
        """Whole-buffer candidate scan (numpy), then the cut walk."""
        rolling = self.rolling
        window = rolling.window
        spec = self.spec
        mask = spec.mask
        pair_tables, tail_table = _rabin_scan_tables(
            rolling.polynomial, window, mask
        )
        length = len(data)
        keys = fastscan.pair_key_stream(data)
        # tested[k] = masked fingerprint at position i = k + window - 1
        # (positions with a full window; earlier ones are never tested
        # because min_size > window).
        span = length - window + 1
        tested = numpy.zeros(span, dtype=pair_tables[0].dtype)
        for t, table in enumerate(pair_tables):
            offset = window - 2 * t - 2
            tested ^= table[keys[offset : offset + span]]
        if tail_table is not None:
            raw = numpy.frombuffer(data, dtype=numpy.uint8)
            tested ^= tail_table[raw[:span]]
        candidates = (
            numpy.flatnonzero(tested == self.magic) + (window - 1)
        ).tolist()

        min_size = spec.min_size
        max_size = spec.max_size
        num_candidates = len(candidates)
        cuts: list[int] = []
        start = 0
        while start < length:
            if length - start <= min_size:
                cuts.append(length)
                break
            limit = start + max_size
            if limit > length:
                limit = length
            index = bisect_left(candidates, start + min_size - 1)
            if index < num_candidates and candidates[index] < limit:
                cut = candidates[index] + 1
            else:
                # No content boundary: forced cut at max_size, or the tail.
                cut = limit
            cuts.append(cut)
            start = cut
        return cuts

    # -- reference ------------------------------------------------------------

    def cut_points_reference(self, data: bytes) -> list[int]:
        """Byte-at-a-time reference implementation (the equivalence oracle
        for :meth:`cut_points`, and the path for specs whose rolling window
        does not fit inside the min-size prefix)."""
        spec = self.spec
        rolling = self.rolling
        window = rolling.window
        append = rolling.append
        out_table = rolling._out_table
        mask = spec.mask
        magic = self.magic

        cuts: list[int] = []
        length = len(data)
        fingerprint = 0
        chunk_len = 0
        for pos in range(length):
            fingerprint = append(fingerprint, data[pos])
            if chunk_len >= window:
                fingerprint ^= out_table[data[pos - window]]
            chunk_len += 1
            if chunk_len >= spec.min_size and (fingerprint & mask) == magic:
                cuts.append(pos + 1)
                fingerprint = 0
                chunk_len = 0
            elif chunk_len >= spec.max_size:
                cuts.append(pos + 1)
                fingerprint = 0
                chunk_len = 0
        if length and (not cuts or cuts[-1] != length):
            cuts.append(length)
        return cuts

    def __repr__(self) -> str:
        return (
            f"RabinChunker(min={self.spec.min_size}, avg={self.spec.avg_size}, "
            f"max={self.spec.max_size}, window={self.rolling.window})"
        )
