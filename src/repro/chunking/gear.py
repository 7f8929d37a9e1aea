"""Gear-hash content-defined chunking.

Gear hashing (the core of FastCDC-style chunkers) replaces Rabin's polynomial
arithmetic with ``h = (h << 1) + gear[byte]`` over a table of random 64-bit
values. The low ``log2(avg_size)`` bits of ``h`` depend only on the most
recent ``log2(avg_size)`` bytes, so boundaries remain content-defined and
shift-robust while the per-byte work is a single shift/add.

We use it as the default chunker for the content-level dataset pipeline
because it is several times faster than :class:`~repro.chunking.rabin.
RabinChunker` in pure Python while producing statistically equivalent chunk
size distributions.

:meth:`GearChunker.cut_points` exploits the bounded effective width: the
boundary test reads only ``mask.bit_length()`` low bits, whose carries
propagate strictly upward, so the test value at every position is a
position-local sum over the trailing ``mask.bit_length()`` bytes,
vectorized for the whole buffer with byte-pair table gathers. It is
byte-identical to :meth:`GearChunker.cut_points_reference`, the
pre-optimization loop kept as the equivalence oracle (and the path for
degenerate tiny specs).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from functools import lru_cache

import numpy

from repro.chunking import fastscan
from repro.chunking.base import Chunker, ChunkerSpec

_GEAR_TABLE_SEED = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _build_gear_table(seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(64) for _ in range(256)]


@lru_cache(maxsize=8)
def _gear_scan_tables(table_seed: int, mask: int):
    """Byte-pair gather tables for the vectorized gear boundary scan.

    ``h & mask`` at position ``i`` equals ``sum_j gear[data[i - j]] << j``
    truncated to the mask bits (addition carries only travel upward, and
    terms shifted past the mask width contribute nothing), so the test
    stream is an overflow-wrapping sum of ``ceil(mask_bits / 2)`` pair
    gathers, each keyed on ``(data[j] << 8) | data[j - 1]``.
    """
    mask_bits = mask.bit_length()
    dtype = fastscan.mask_dtype(mask)
    width_mask = (1 << (8 * dtype.itemsize)) - 1
    gear = numpy.array(_build_gear_table(table_seed), dtype=numpy.uint64)
    gear = (gear & width_mask).astype(numpy.uint32)
    high = numpy.arange(65536, dtype=numpy.uint32) >> 8
    low = numpy.arange(65536, dtype=numpy.uint32) & 255
    pairs = (mask_bits + 1) // 2
    pair_tables = [
        # Key high byte = the later position (shift 2t, applied here so the
        # scan loop is a bare gather-and-add), low byte = shift 2t + 1.
        (
            ((gear[high] << (2 * t)) + (gear[low] << (2 * t + 1)))
            & width_mask
        ).astype(dtype)
        for t in range(pairs)
    ]
    return pair_tables


class GearChunker(Chunker):
    """Content-defined chunking with a gear rolling hash.

    A boundary is placed once ``spec.min_size`` bytes have accumulated and
    ``hash & spec.mask == 0``; a cut is forced at ``spec.max_size``. The hash
    state resets at every boundary, so each chunk's cuts depend only on its
    own content.
    """

    def __init__(self, spec: ChunkerSpec | None = None, table_seed: int = _GEAR_TABLE_SEED):
        self.spec = spec or ChunkerSpec(
            min_size=2048, avg_size=8192, max_size=65536
        )
        self._table_seed = table_seed
        self._gear = _build_gear_table(table_seed)
        # Effective width of the gear hash for the boundary test: bit i of
        # ``h = (h << 1) + gear[byte]`` depends only on the most recent
        # ``i + 1`` bytes (carries propagate strictly upward), so the low
        # ``log2(avg_size)`` bits the test reads are fully warmed after
        # ``mask.bit_length()`` bytes.
        self._warm_width = self.spec.mask.bit_length()

    def cut_points(self, data: bytes) -> list[int]:
        length = len(data)
        if not length:
            return []
        min_size = self.spec.min_size
        if length <= min_size:
            # Single short chunk: no eligible boundary, cut at the end.
            return [length]
        # The vectorized scan pairs warm bytes two at a time, so it needs
        # the paired warm span to fit inside the min-size prefix (always
        # true for real specs; degenerate tiny specs take the reference).
        if self._warm_width == 0 or min_size < 2 * ((self._warm_width + 1) // 2):
            return self.cut_points_reference(data)
        return self._cut_points_vectorized(data)

    # -- fast path ------------------------------------------------------------

    def _cut_points_vectorized(self, data: bytes) -> list[int]:
        """Whole-buffer candidate scan (numpy), then the cut walk."""
        spec = self.spec
        mask = spec.mask
        pair_tables = _gear_scan_tables(self._table_seed, mask)
        warm_span = 2 * len(pair_tables)
        length = len(data)
        keys = fastscan.pair_key_stream(data)
        # tested[k] = low bits of the gear hash at position i = k +
        # warm_span - 1 (positions whose trailing warm bytes all exist;
        # earlier ones are never tested because min_size >= warm_span).
        span = length - warm_span + 1
        tested = numpy.zeros(span, dtype=pair_tables[0].dtype)
        for t, table in enumerate(pair_tables):
            offset = warm_span - 2 * t - 2
            tested += table[keys[offset : offset + span]]
        candidates = (
            numpy.flatnonzero((tested & mask) == 0) + (warm_span - 1)
        ).tolist()

        min_size = spec.min_size
        max_size = spec.max_size
        num_candidates = len(candidates)
        cuts: list[int] = []
        start = 0
        while start < length:
            end = start + max_size
            if end > length:
                end = length
            first = start + min_size
            if first >= end:
                cuts.append(end)
                start = end
                continue
            index = bisect_left(candidates, first)
            if index < num_candidates and candidates[index] < end:
                cut = candidates[index] + 1
            else:
                # No content boundary: forced cut at max_size, or the tail.
                cut = end
            cuts.append(cut)
            start = cut
        return cuts

    # -- reference ------------------------------------------------------------

    def cut_points_reference(self, data: bytes) -> list[int]:
        """Byte-indexing reference loop with the fixed 64-byte warm-up (the
        pre-optimization behaviour; the equivalence oracle for
        :meth:`cut_points`)."""
        spec = self.spec
        gear = self._gear
        mask = spec.mask
        min_size = spec.min_size
        max_size = spec.max_size

        cuts: list[int] = []
        length = len(data)
        start = 0
        while start < length:
            end = min(start + max_size, length)
            pos = start + min_size
            if pos >= end:
                cuts.append(end)
                start = end
                continue
            hash_value = 0
            warm_from = max(start, pos - 64)
            for i in range(warm_from, pos):
                hash_value = ((hash_value << 1) + gear[data[i]]) & _MASK64
            cut = end
            for i in range(pos, end):
                hash_value = ((hash_value << 1) + gear[data[i]]) & _MASK64
                if (hash_value & mask) == 0:
                    cut = i + 1
                    break
            cuts.append(cut)
            start = cut
        return cuts

    def __repr__(self) -> str:
        return (
            f"GearChunker(min={self.spec.min_size}, avg={self.spec.avg_size}, "
            f"max={self.spec.max_size})"
        )
