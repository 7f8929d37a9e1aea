"""Vectorized boundary-candidate scanning for content-defined chunking.

The boundary tests of both CDC algorithms read only a *position-local*
hash: the Rabin fingerprint at position ``i`` covers exactly the trailing
``window`` bytes, and the gear hash's low ``log2(avg_size)`` bits cover
the trailing ``log2(avg_size)`` bytes. Neither depends on where the
current chunk started (chunk starts only gate *which* positions are
eligible). That makes the per-position boundary test computable for the
whole buffer at once — independent of the sequential cut walk — with a
handful of table gathers over a 16-bit byte-pair key stream, after which
cut selection is a cheap walk over the (sparse) candidate list.

This module holds the shared numpy plumbing; the per-algorithm table
construction lives next to each chunker. The scans are byte-identical to
each chunker's ``cut_points_reference`` (pinned by the
fastpath-vs-reference property tests).
"""

from __future__ import annotations

import numpy


def pair_key_stream(data: bytes) -> "numpy.ndarray":
    """16-bit keys ``(data[j] << 8) | data[j - 1]`` for ``j >= 1``.

    Returned as index-ready ``intp`` so each table gather skips the
    implicit index-cast pass. Entry ``k`` of the result is the key for
    position ``j = k + 1``.
    """
    raw = numpy.frombuffer(data, dtype=numpy.uint8)
    keys = raw[1:].astype(numpy.intp)
    keys <<= 8
    keys |= raw[:-1]
    return keys


def mask_dtype(mask: int) -> "numpy.dtype":
    """Smallest unsigned dtype holding ``mask``-masked hash values."""
    return numpy.dtype(numpy.uint16 if mask < (1 << 16) else numpy.uint32)
