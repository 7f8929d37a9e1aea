"""Interned COUNT: the hot-path form of the attacks' counting pass.

The reference COUNT (:func:`repro.attacks.frequency.count_with_neighbors`)
keys three nested dicts on 20-byte fingerprint strings for every chunk
occurrence — six bytes-keyed dict operations per chunk, all driven from a
Python-level loop. At the multi-million-chunk scale of the journal
follow-up (Li et al., TDSC'19) that dominates every attack run. This
module interns fingerprints into dense integer chunk ids once
(:class:`ChunkVocabulary`) and counts over the id stream with C-level
primitives only — no per-chunk Python bytecode:

* the id stream itself comes from ``map(ids.__getitem__, fingerprints)``
  over an interning dict whose ``__missing__`` assigns the next id, so
  known fingerprints never leave the C dict lookup;
* frequencies are a ``Counter`` over the id stream (C-accelerated
  counting, iteration order = stream first occurrence);
* first-occurrence sizes fall out of ``dict(zip(reversed(ids),
  reversed(sizes)))`` — the earliest occurrence is written last and wins;
* the left/right co-occurrence tables collapse into **one** ``Counter``
  over ``(previous_id, current_id)`` pairs from ``zip(ids, ids[1:])``,
  from which both directed tables are regrouped on demand.

The locality/advanced attacks never decode: they run over the id-level
surface of :class:`ChunkIdStats` (first-occurrence-ordered id tables,
per-id neighbor segments, id → size class), and fingerprint-keyed stats
reach that surface through :func:`as_chunk_id_stats`'s interning
adapter. :class:`InternedChunkStats` and :class:`InternedArrayStats` also
expose the same ``frequencies``/``left``/``right``/``sizes`` mapping
interface as :class:`~repro.attacks.frequency.ChunkStats` through lazy
views — byte-identical, first-occurrence order included, to
``count_with_neighbors`` and ``StreamingCount`` (pinned by the
equivalence property tests).
"""

from __future__ import annotations

import gc
from collections import Counter
from contextlib import contextmanager
from itertools import chain

from repro.attacks.frequency import rank_tops
from repro.common import accel
from repro.common.errors import ConfigurationError
from repro.datasets.model import Backup

__all__ = [
    "ChunkIdStats",
    "ChunkVocabulary",
    "InternedArrayStats",
    "InternedChunkStats",
    "InternedCount",
    "MAX_VOCABULARY",
    "as_chunk_id_stats",
    "check_vocabulary_capacity",
    "interned_count",
]

#: Adjacent chunk ids are packed two to an int for the pair counter, so a
#: vocabulary can hold at most 2**PAIR_SHIFT ids before (prev << PAIR_SHIFT)
#: | cur would alias distinct pairs. 2**32 unique chunks is ~32 TB of
#: logical data at the FSL 8 KB average chunk size — beyond it, shard the
#: trace into multiple vocabularies (see docs/attacks.md, "Scaling COUNT
#: to trace scale").
PAIR_SHIFT = 32
_PAIR_MASK = (1 << PAIR_SHIFT) - 1
MAX_VOCABULARY = 1 << PAIR_SHIFT

#: A chunk with no neighbors on one side: empty ids, empty counts.
_NO_SEGMENT: tuple = ((), ())


def check_vocabulary_capacity(size: int, source: str = "chunk vocabulary") -> None:
    """Reject vocabularies the packed-pair encoding cannot represent.

    Ids at or above 2**PAIR_SHIFT would silently alias other pairs inside
    the packed ``(prev << PAIR_SHIFT) | cur`` adjacency key, corrupting
    the co-occurrence tables; every packed-pair consumer calls this up
    front so the failure is a clear error instead of wrong counts.
    """
    if size > MAX_VOCABULARY:
        raise ConfigurationError(
            f"{source} holds {size} unique fingerprints, more than the "
            f"2**{PAIR_SHIFT} ids the packed (prev << {PAIR_SHIFT}) | cur "
            "adjacency encoding supports; split the trace across "
            "vocabularies (docs/attacks.md, 'Scaling COUNT to trace scale')"
        )


@contextmanager
def _gc_paused():
    """Pause the cyclic collector across an allocation burst.

    The COUNT decode sections allocate hundreds of thousands of container
    objects in a tight stretch; with a multi-million-object live heap the
    generational collector otherwise fires repeatedly mid-burst and
    dominates the wall clock. Nothing here creates reference cycles, so
    deferring collection is safe; the previous collector state is always
    restored.
    """
    if gc.isenabled():
        gc.disable()
        try:
            yield
        finally:
            gc.enable()
    else:
        yield


def group_pairs(pair_counts, decode=None) -> tuple[dict, dict]:
    """Split packed ``(prev << PAIR_SHIFT) | cur`` pair counts into the
    two directed adjacency tables ``(left, right)``.

    Iterating the pair mapping visits pairs in first-occurrence order, so
    each grouped outer/inner dict comes out in exactly the order the
    reference COUNT would have inserted it — the order-sensitive loop the
    in-memory stats and the streaming COUNT's backend merge both rely on.
    ``decode`` optionally maps each id to the caller's key type (e.g.
    fingerprint bytes); by default keys stay dense ints.
    """
    left: dict = {}
    right: dict = {}
    for key, count in pair_counts.items():
        previous = key >> PAIR_SHIFT
        current = key & _PAIR_MASK
        if decode is not None:
            previous = decode(previous)
            current = decode(current)
        table = right.get(previous)
        if table is None:
            table = right[previous] = {}
        table[current] = count
        table = left.get(current)
        if table is None:
            table = left[current] = {}
        table[previous] = count
    return left, right


class _Interner(dict):
    """Fingerprint → dense id dict that assigns ids on first lookup.

    ``__missing__`` keeps interning inside the C dict-subscript path:
    ``map(interner.__getitem__, stream)`` resolves known fingerprints
    without entering Python and only calls back here for new ones.
    """

    __slots__ = ("fingerprints",)

    def __init__(self, fingerprints: list[bytes]):
        super().__init__()
        self.fingerprints = fingerprints

    def __missing__(self, fingerprint: bytes) -> int:
        chunk_id = len(self.fingerprints)
        if chunk_id > _PAIR_MASK:
            raise ConfigurationError(
                "chunk vocabulary exhausted: the packed "
                f"(prev << {PAIR_SHIFT}) | cur adjacency encoding supports "
                f"at most 2**{PAIR_SHIFT} unique fingerprints per "
                "vocabulary (docs/attacks.md, 'Scaling COUNT to trace "
                "scale')"
            )
        self[fingerprint] = chunk_id
        self.fingerprints.append(fingerprint)
        return chunk_id


class ChunkVocabulary:
    """Bidirectional fingerprint-bytes ↔ dense-int-id mapping.

    One vocabulary may be shared by any number of counters (e.g. the
    streaming COUNT interns every batch through a single vocabulary, and
    an attack may share one across both of its COUNT passes), so ids are
    stable for the lifetime of the vocabulary and new fingerprints always
    intern to ``len(vocabulary) - 1``.
    """

    __slots__ = ("_ids", "_fingerprints")

    def __init__(self) -> None:
        self._fingerprints: list[bytes] = []
        self._ids = _Interner(self._fingerprints)

    def __len__(self) -> int:
        return len(self._fingerprints)

    def __contains__(self, fingerprint: bytes) -> bool:
        return fingerprint in self._ids

    def intern(self, fingerprint: bytes) -> int:
        """The id for ``fingerprint``, assigning the next free one if new."""
        return self._ids[fingerprint]

    def intern_stream(self, fingerprints: list[bytes]) -> list[int]:
        """Intern a whole fingerprint sequence (the hot path)."""
        return list(map(self._ids.__getitem__, fingerprints))

    def id_of(self, fingerprint: bytes) -> int | None:
        """The id for ``fingerprint``, or ``None`` if never interned."""
        return self._ids.get(fingerprint)

    def fingerprint(self, chunk_id: int) -> bytes:
        """The fingerprint bytes behind ``chunk_id``."""
        return self._fingerprints[chunk_id]


class _NeighborView:
    """Lazy ``fingerprint -> {neighbor fingerprint: count}`` mapping over
    one direction of the grouped adjacency tables.

    Tables decode to bytes-keyed dicts per fingerprint on first access
    (then cached), in first-occurrence order — identical to the eagerly
    built dicts of the reference COUNT. Only the mapping surface the
    attacks use is provided (``get``/``in``/indexing/iteration).
    """

    __slots__ = ("_vocabulary", "_tables", "_decoded")

    def __init__(
        self, vocabulary: ChunkVocabulary, tables: dict[int, dict[int, int]]
    ):
        self._vocabulary = vocabulary
        self._tables = tables
        self._decoded: dict[bytes, dict[bytes, int]] = {}

    def _decode(self, fingerprint: bytes, table: dict[int, int]) -> dict[bytes, int]:
        fingerprints = self._vocabulary._fingerprints
        decoded = {
            fingerprints[neighbor]: count for neighbor, count in table.items()
        }
        self._decoded[fingerprint] = decoded
        return decoded

    def segment(self, chunk_id: int) -> tuple:
        """``chunk_id``'s neighbor ids and counts, first-occurrence order."""
        table = self._tables.get(chunk_id)
        if not table:
            return _NO_SEGMENT
        return list(table), list(table.values())

    def get(
        self, fingerprint: bytes, default: dict[bytes, int] | None = None
    ) -> dict[bytes, int] | None:
        decoded = self._decoded.get(fingerprint)
        if decoded is not None:
            return decoded
        chunk_id = self._vocabulary._ids.get(fingerprint)
        if chunk_id is None:
            return default
        table = self._tables.get(chunk_id)
        if table is None:
            return default
        return self._decode(fingerprint, table)

    def __getitem__(self, fingerprint: bytes) -> dict[bytes, int]:
        table = self.get(fingerprint)
        if table is None:
            raise KeyError(fingerprint)
        return table

    def __contains__(self, fingerprint: bytes) -> bool:
        chunk_id = self._vocabulary._ids.get(fingerprint)
        return chunk_id is not None and chunk_id in self._tables

    def __len__(self) -> int:
        return len(self._tables)

    def keys(self):
        fingerprints = self._vocabulary._fingerprints
        return (fingerprints[chunk_id] for chunk_id in self._tables)

    def __iter__(self):
        return self.keys()

    def items(self):
        fingerprints = self._vocabulary._fingerprints
        for chunk_id, table in self._tables.items():
            fingerprint = fingerprints[chunk_id]
            decoded = self._decoded.get(fingerprint)
            if decoded is None:
                decoded = self._decode(fingerprint, table)
            yield fingerprint, decoded


class ChunkIdStats:
    """The id-level surface the locality attacks' loop runs over.

    Chunk ids index ``vocabulary`` (``vocabulary._fingerprints[id]``
    decodes one, ``vocabulary._ids.get(fp)`` looks one up);
    ``left``/``right`` answer ``segment(id) -> (neighbor ids, counts)`` in
    first-occurrence order. Subclasses provide :meth:`id_table`,
    :meth:`has_id` and :meth:`block_classes`; :meth:`top_ids` ranks the
    id table (trace-scale stats override it with a vectorized ranking).
    """

    vocabulary: ChunkVocabulary

    def id_table(self) -> tuple:
        """Every chunk id of the stream and its frequency, as two
        parallel sequences in first-occurrence order."""
        raise NotImplementedError

    def has_id(self, chunk_id: int) -> bool:
        """Whether ``chunk_id`` occurs in the counted stream."""
        raise NotImplementedError

    def block_classes(self, block_size: int, is_plaintext: bool):
        """Chunk id → cipher-block-count class of its first-occurrence
        size, as :func:`~repro.attacks.frequency.classify_by_blocks`
        computes it, indexable by every id of the stream."""
        raise NotImplementedError

    def top_ids(self, limit: int | None, tie_break: str, classes=None) -> dict:
        """The global FREQ-ANALYSIS ranking:
        :func:`~repro.attacks.frequency.rank_tops` over :meth:`id_table`."""
        ids, counts = self.id_table()
        return rank_tops(
            ids, counts, limit, tie_break, classes, self.vocabulary._fingerprints
        )


class InternedChunkStats(ChunkIdStats):
    """COUNT output over interned ids, presenting the
    :class:`~repro.attacks.frequency.ChunkStats` mapping interface.

    ``frequencies``/``sizes`` materialize (cached) as plain dicts in
    stream-first-occurrence order; ``left``/``right`` are
    :class:`_NeighborView` lazy mappings that decode per fingerprint at
    the rank boundary.
    """

    def __init__(
        self,
        vocabulary: ChunkVocabulary,
        frequency_counts: Counter,
        size_by_id: dict[int, int],
        pair_counts: Counter,
    ):
        self.vocabulary = vocabulary
        self._frequency_counts = frequency_counts
        self._size_by_id = size_by_id
        self._pair_counts = pair_counts
        self._frequencies: dict[bytes, int] | None = None
        self._sizes: dict[bytes, int] | None = None
        self._left: _NeighborView | None = None
        self._right: _NeighborView | None = None

    @property
    def unique_chunks(self) -> int:
        return len(self._frequency_counts)

    def id_table(self) -> tuple:
        counts = self._frequency_counts
        return list(counts), list(counts.values())

    def has_id(self, chunk_id: int) -> bool:
        return chunk_id in self._frequency_counts

    def block_classes(self, block_size: int, is_plaintext: bool) -> dict:
        extra = 1 if is_plaintext else 0
        return {
            chunk_id: size // block_size + extra
            for chunk_id, size in self._size_by_id.items()
        }

    @property
    def frequencies(self) -> dict[bytes, int]:
        if self._frequencies is None:
            fingerprints = self.vocabulary._fingerprints
            self._frequencies = {
                fingerprints[chunk_id]: count
                for chunk_id, count in self._frequency_counts.items()
            }
        return self._frequencies

    @property
    def sizes(self) -> dict[bytes, int]:
        if self._sizes is None:
            fingerprints = self.vocabulary._fingerprints
            size_by_id = self._size_by_id
            self._sizes = {
                fingerprints[chunk_id]: size_by_id[chunk_id]
                for chunk_id in self._frequency_counts
            }
        return self._sizes

    def _group_pairs(self) -> None:
        left, right = group_pairs(self._pair_counts)
        self._left = _NeighborView(self.vocabulary, left)
        self._right = _NeighborView(self.vocabulary, right)

    @property
    def left(self) -> _NeighborView:
        if self._left is None:
            self._group_pairs()
        assert self._left is not None
        return self._left

    @property
    def right(self) -> _NeighborView:
        if self._right is None:
            self._group_pairs()
        assert self._right is not None
        return self._right


class InternedCount:
    """Accumulating interned COUNT pass (any batching, order-sensitive).

    Feed the logical chunk stream through :meth:`ingest`; adjacency is
    carried across calls, so any batch alignment accumulates the same
    tables as one whole-stream pass. :meth:`take_pairs` hands out (and
    resets) the per-batch adjacency deltas, which is what lets the
    streaming COUNT run this loop per batch while merging neighbor tables
    through a KV backend.
    """

    def __init__(self, vocabulary: ChunkVocabulary | None = None):
        self.vocabulary = vocabulary if vocabulary is not None else ChunkVocabulary()
        self._frequency_counts: Counter = Counter()
        self._size_by_id: dict[int, int] = {}
        self._pair_counts: Counter = Counter()
        self._previous = -1
        self._total_chunks = 0

    @property
    def total_chunks(self) -> int:
        """Logical chunk records ingested so far."""
        return self._total_chunks

    def seed(self, fingerprint: bytes, size: int, frequency: int) -> None:
        """Pre-load one chunk's accumulated state (resuming a persisted
        COUNT): the fingerprint is interned and its frequency/size set as
        if already counted, without contributing adjacency."""
        chunk_id = self.vocabulary.intern(fingerprint)
        self._frequency_counts[chunk_id] = frequency
        self._size_by_id[chunk_id] = size

    def ingest(self, fingerprints: list[bytes], chunk_sizes: list[int]) -> None:
        """One COUNT pass over a (sub-)stream — no per-chunk Python loop."""
        if len(fingerprints) != len(chunk_sizes):
            raise ConfigurationError(
                "fingerprints and sizes must have equal length"
            )
        if not fingerprints:
            return
        if accel.numpy is not None:
            self._ingest_vectorized(fingerprints, chunk_sizes)
        else:
            self._ingest_python(fingerprints, chunk_sizes)
        self._total_chunks += len(fingerprints)

    def _ingest_vectorized(
        self, fingerprints: list[bytes], chunk_sizes: list[int]
    ) -> None:
        """Count the interned id stream with numpy.

        ``numpy.unique(..., return_index=True)`` yields each distinct
        value's count and first position; re-ordering by first position
        (``argsort``) recovers the stream-first-occurrence insertion order
        the reference COUNT produces, so the accumulated counters stay
        byte-identical to the pure-Python path.
        """
        numpy = accel.numpy
        ids = self.vocabulary._ids
        id_array = numpy.fromiter(
            map(ids.__getitem__, fingerprints),
            dtype=numpy.uint64,
            count=len(fingerprints),
        )
        unique_ids, first_index, counts = numpy.unique(
            id_array, return_index=True, return_counts=True
        )
        order = numpy.argsort(first_index)
        ordered_ids = unique_ids[order].tolist()
        self._frequency_counts.update(
            dict(zip(ordered_ids, counts[order].tolist()))
        )
        size_by_id = self._size_by_id
        for chunk_id, index in zip(ordered_ids, first_index[order].tolist()):
            if chunk_id not in size_by_id:
                size_by_id[chunk_id] = chunk_sizes[index]
        previous = self._previous
        if previous >= 0:
            # The cross-batch boundary pair comes first in stream order.
            self._pair_counts[(previous << PAIR_SHIFT) | int(id_array[0])] += 1
        if len(id_array) > 1:
            packed = (id_array[:-1] << numpy.uint64(PAIR_SHIFT)) | id_array[1:]
            unique_pairs, first_pair, pair_counts = numpy.unique(
                packed, return_index=True, return_counts=True
            )
            pair_order = numpy.argsort(first_pair)
            self._pair_counts.update(
                dict(
                    zip(
                        unique_pairs[pair_order].tolist(),
                        pair_counts[pair_order].tolist(),
                    )
                )
            )
        self._previous = int(id_array[-1])

    def _ingest_python(
        self, fingerprints: list[bytes], chunk_sizes: list[int]
    ) -> None:
        """Fallback ingest built from C-level dict/Counter primitives."""
        id_stream = self.vocabulary.intern_stream(fingerprints)
        self._frequency_counts.update(id_stream)
        # Reversed zip: the earliest occurrence is written last and wins,
        # giving this batch's first-occurrence size per id in one C pass.
        batch_sizes = dict(zip(reversed(id_stream), reversed(chunk_sizes)))
        size_by_id = self._size_by_id
        for chunk_id, size in batch_sizes.items():
            if chunk_id not in size_by_id:
                size_by_id[chunk_id] = size
        previous = self._previous
        if previous >= 0:
            pairs = zip(chain((previous,), id_stream), id_stream)
        else:
            pairs = zip(id_stream, id_stream[1:])
        self._pair_counts.update(
            [(left << PAIR_SHIFT) | right for left, right in pairs]
        )
        self._previous = id_stream[-1]

    def ingest_backup(self, backup: Backup) -> None:
        """Ingest a whole backup's logical chunk sequence."""
        self.ingest(backup.fingerprints, backup.sizes)

    def take_pairs(self) -> Counter:
        """Hand out the adjacency pair counts accumulated since the last
        call (stream-first-occurrence ordered) and reset them; the
        carried ``previous`` id is kept so adjacency still spans the
        batch boundary."""
        pairs = self._pair_counts
        self._pair_counts = Counter()
        return pairs

    def stats(self) -> InternedChunkStats:
        """The accumulated tables as a ChunkStats-compatible view."""
        return InternedChunkStats(
            self.vocabulary,
            self._frequency_counts,
            self._size_by_id,
            self._pair_counts,
        )


class _ArrayNeighborView:
    """Lazy ``fingerprint -> {neighbor fingerprint: count}`` mapping over
    segment-sorted flat arrays (the numpy single-pass layout).

    ``neighbors``/``counts`` are grouped by owning id, each group keeping
    first-occurrence order, and ``starts[id]:starts[id + 1]`` bounds the
    owner ``id``'s segment (``starts`` has one entry per vocabulary id plus
    one). :meth:`segment` slices it for the id-space attack loop; a
    fingerprint probe decodes the slice (cached per fingerprint). The
    first-occurrence iteration order the reference COUNT would have is
    recovered lazily from ``ordered_keys`` (owning ids in pair
    first-occurrence order) only when something iterates the view.
    """

    __slots__ = (
        "_vocabulary",
        "_starts",
        "_neighbors",
        "_counts",
        "_ordered_keys",
        "_outer_keys",
        "_decoded",
    )

    def __init__(self, vocabulary, starts, neighbors, counts, ordered_keys):
        self._vocabulary = vocabulary
        self._starts = starts
        self._neighbors = neighbors
        self._counts = counts
        self._ordered_keys = ordered_keys
        self._outer_keys: list[int] | None = None
        self._decoded: dict[bytes, dict[bytes, int]] = {}

    def _bounds(self, chunk_id: int) -> tuple[int, int]:
        starts = self._starts
        if chunk_id + 1 >= len(starts):
            return 0, 0
        return starts[chunk_id], starts[chunk_id + 1]

    def segment(self, chunk_id: int) -> tuple:
        """``chunk_id``'s neighbor ids and counts, first-occurrence order."""
        low, high = self._bounds(chunk_id)
        if low == high:
            return _NO_SEGMENT
        return (
            self._neighbors[low:high].tolist(),
            self._counts[low:high].tolist(),
        )

    def _decode_segment(self, fingerprint: bytes, chunk_id: int) -> dict[bytes, int] | None:
        neighbors, counts = self.segment(chunk_id)
        if not neighbors:
            return None
        fingerprints = self._vocabulary._fingerprints
        decoded = dict(zip(map(fingerprints.__getitem__, neighbors), counts))
        self._decoded[fingerprint] = decoded
        return decoded

    def _outer(self) -> list[int]:
        if self._outer_keys is None:
            ordered = self._ordered_keys
            if ordered is None:
                self._outer_keys = []
            else:
                self._outer_keys = list(dict.fromkeys(ordered.tolist()))
        return self._outer_keys

    def get(
        self, fingerprint: bytes, default: dict[bytes, int] | None = None
    ) -> dict[bytes, int] | None:
        decoded = self._decoded.get(fingerprint)
        if decoded is not None:
            return decoded
        chunk_id = self._vocabulary._ids.get(fingerprint)
        if chunk_id is None:
            return default
        decoded = self._decode_segment(fingerprint, chunk_id)
        return default if decoded is None else decoded

    def __getitem__(self, fingerprint: bytes) -> dict[bytes, int]:
        table = self.get(fingerprint)
        if table is None:
            raise KeyError(fingerprint)
        return table

    def __contains__(self, fingerprint: bytes) -> bool:
        chunk_id = self._vocabulary._ids.get(fingerprint)
        if chunk_id is None:
            return False
        low, high = self._bounds(chunk_id)
        return low != high

    def __len__(self) -> int:
        return len(self._outer())

    def keys(self):
        fingerprints = self._vocabulary._fingerprints
        return (fingerprints[chunk_id] for chunk_id in self._outer())

    def __iter__(self):
        return self.keys()

    def items(self):
        fingerprints = self._vocabulary._fingerprints
        for chunk_id in self._outer():
            fingerprint = fingerprints[chunk_id]
            decoded = self._decoded.get(fingerprint)
            if decoded is None:
                decoded = self._decode_segment(fingerprint, chunk_id)
                assert decoded is not None
            yield fingerprint, decoded


class InternedArrayStats(ChunkIdStats):
    """Single-pass COUNT held in flat numpy-derived arrays.

    The fast path behind :func:`interned_count` when numpy is available:
    frequencies come from one ``bincount`` over the interned id stream,
    first-occurrence positions from one reversed scatter (the earliest
    write lands last and wins), and the packed adjacency pairs stay a raw
    array until the first neighbor access groups them (``unique`` +
    two stable segment sorts). Every materialized mapping preserves the
    reference COUNT's first-occurrence insertion order.
    """

    def __init__(
        self,
        vocabulary: ChunkVocabulary,
        ordered_ids: list[int],
        ordered_counts: list[int],
        ordered_first: list[int],
        chunk_sizes: list[int],
        packed_pairs,
    ):
        self.vocabulary = vocabulary
        self._ordered_ids = ordered_ids
        self._ordered_counts = ordered_counts
        self._ordered_first = ordered_first
        self._chunk_sizes = chunk_sizes
        self._packed_pairs = packed_pairs
        self._rank_lookup = None
        self._frequencies: dict[bytes, int] | None = None
        self._sizes: dict[bytes, int] | None = None
        self._left: _ArrayNeighborView | None = None
        self._right: _ArrayNeighborView | None = None

    @classmethod
    def count(
        cls, backup: Backup, vocabulary: ChunkVocabulary | None = None
    ) -> "InternedArrayStats":
        numpy = accel.numpy
        vocabulary = vocabulary if vocabulary is not None else ChunkVocabulary()
        check_vocabulary_capacity(len(vocabulary))
        fingerprints = backup.fingerprints
        total = len(fingerprints)
        if not total:
            return cls(vocabulary, [], [], [], [], None)
        ids = vocabulary._ids
        with _gc_paused():
            id_array = numpy.fromiter(
            map(ids.__getitem__, fingerprints),
                dtype=numpy.intp,
                count=total,
            )
            counts = numpy.bincount(id_array, minlength=len(vocabulary))
            # Reversed scatter: the earliest occurrence is written last
            # and wins, giving each id's first stream position in one
            # pass.
            first = numpy.zeros(len(counts), dtype=numpy.intp)
            first[id_array[::-1]] = numpy.arange(total - 1, -1, -1)
            present = numpy.flatnonzero(counts)
            order = present[numpy.argsort(first[present])]
            packed = None
            if total > 1:
                unsigned = id_array.astype(numpy.uint64)
                packed = (unsigned[:-1] << numpy.uint64(PAIR_SHIFT)) | unsigned[1:]
        return cls(
            vocabulary,
            order.tolist(),
            counts[order].tolist(),
            first[order].tolist(),
            backup.sizes,
            packed,
        )

    @property
    def unique_chunks(self) -> int:
        return len(self._ordered_ids)

    def _rank_of(self):
        """Chunk id → frequency-table rank (-1 if absent), built lazily."""
        if self._rank_lookup is None:
            numpy = accel.numpy
            lookup = numpy.full(
                max(len(self.vocabulary), 1), -1, dtype=numpy.int64
            )
            lookup[self._ordered_ids] = numpy.arange(
                len(self._ordered_ids), dtype=numpy.int64
            )
            self._rank_lookup = lookup
        return self._rank_lookup

    def id_table(self) -> tuple:
        return self._ordered_ids, self._ordered_counts

    def has_id(self, chunk_id: int) -> bool:
        lookup = self._rank_of()
        return chunk_id < len(lookup) and lookup[chunk_id] >= 0

    def _sizes_by_id(self):
        """Chunk id → first-occurrence size, as one vocabulary-wide array."""
        numpy = accel.numpy
        sizes = numpy.zeros(max(len(self.vocabulary), 1), dtype=numpy.int64)
        sizes[self._ordered_ids] = [
            self._chunk_sizes[index] for index in self._ordered_first
        ]
        return sizes

    def block_classes(self, block_size: int, is_plaintext: bool):
        classes = self._sizes_by_id() // block_size
        return classes + 1 if is_plaintext else classes

    @property
    def frequencies(self) -> dict[bytes, int]:
        if self._frequencies is None:
            fingerprints = self.vocabulary._fingerprints
            with _gc_paused():
                self._frequencies = {
                    fingerprints[chunk_id]: count
                    for chunk_id, count in zip(
                        self._ordered_ids, self._ordered_counts
                    )
                }
        return self._frequencies

    @property
    def sizes(self) -> dict[bytes, int]:
        if self._sizes is None:
            fingerprints = self.vocabulary._fingerprints
            chunk_sizes = self._chunk_sizes
            with _gc_paused():
                self._sizes = {
                    fingerprints[chunk_id]: chunk_sizes[index]
                    for chunk_id, index in zip(
                        self._ordered_ids, self._ordered_first
                    )
                }
        return self._sizes

    def _group_pairs(self) -> None:
        numpy = accel.numpy
        packed = self._packed_pairs
        ordered_pairs = ordered_counts = None
        with _gc_paused():
            if packed is not None and len(packed):
                unique_pairs, first_index, counts = numpy.unique(
                    packed, return_index=True, return_counts=True
                )
                order = numpy.argsort(first_index)
                ordered_pairs, ordered_counts = unique_pairs[order], counts[order]
            self._left, self._right = segment_neighbor_views(
                numpy, self.vocabulary, ordered_pairs, ordered_counts
            )

    @property
    def left(self) -> _ArrayNeighborView:
        if self._left is None:
            self._group_pairs()
        assert self._left is not None
        return self._left

    @property
    def right(self) -> _ArrayNeighborView:
        if self._right is None:
            self._group_pairs()
        assert self._right is not None
        return self._right


def segment_neighbor_views(
    numpy, vocabulary, ordered_pairs, ordered_counts
) -> tuple[_ArrayNeighborView, _ArrayNeighborView]:
    """Build the two directed neighbor views ``(left, right)`` from packed
    pairs that are already aggregated and in pair-first-occurrence order
    (``None`` when the stream has no pairs).

    Stable segment sorts keep the first-occurrence suborder within each
    segment, and a cumulative ``bincount`` over the owning ids gives every
    segment's bounds; the pre-sort id arrays carry the outer
    first-occurrence order for (lazy) iteration. Nothing becomes a boxed
    int per pair, so the layout holds at trace scale.
    """
    if ordered_pairs is None or not len(ordered_pairs):
        return (
            _ArrayNeighborView(vocabulary, (), None, None, None),
            _ArrayNeighborView(vocabulary, (), None, None, None),
        )
    previous_ids = (ordered_pairs >> numpy.uint64(PAIR_SHIFT)).astype(numpy.intp)
    current_ids = (ordered_pairs & numpy.uint64(_PAIR_MASK)).astype(numpy.intp)
    vocabulary_size = len(vocabulary)

    def view(owners, neighbors):
        starts = numpy.zeros(vocabulary_size + 1, dtype=numpy.intp)
        numpy.cumsum(
            numpy.bincount(owners, minlength=vocabulary_size), out=starts[1:]
        )
        segments = numpy.argsort(owners, kind="stable")
        return _ArrayNeighborView(
            vocabulary,
            starts,
            neighbors[segments],
            ordered_counts[segments],
            owners,
        )

    return view(current_ids, previous_ids), view(previous_ids, current_ids)


class _InterningNeighbors:
    """One direction of fingerprint-keyed neighbor tables, answering
    :meth:`segment` by interning each probed table's fingerprints."""

    __slots__ = ("_tables", "_fingerprints", "_ids")

    def __init__(self, tables, vocabulary: ChunkVocabulary):
        self._tables = tables
        self._fingerprints = vocabulary._fingerprints
        self._ids = vocabulary._ids

    def segment(self, chunk_id: int) -> tuple:
        table = self._tables.get(self._fingerprints[chunk_id])
        if not table:
            return _NO_SEGMENT
        return list(map(self._ids.__getitem__, table)), list(table.values())


class _InterningAdapter(ChunkIdStats):
    """:class:`ChunkIdStats` over fingerprint-keyed stats (the dict
    :class:`~repro.attacks.frequency.ChunkStats`,
    :class:`~repro.attacks.streaming.BackendChunkStats`).

    The frequency table's fingerprints intern once, in its
    first-occurrence order, so ids ``0..n-1`` are that order; neighbor
    tables are fetched and interned per probe, so backend-resident tables
    still load lazily.
    """

    def __init__(self, stats):
        self.vocabulary = ChunkVocabulary()
        frequencies = stats.frequencies
        self.vocabulary.intern_stream(list(frequencies))
        self._counts = list(frequencies.values())
        self._sizes = stats.sizes
        self.left = _InterningNeighbors(stats.left, self.vocabulary)
        self.right = _InterningNeighbors(stats.right, self.vocabulary)

    def id_table(self) -> tuple:
        return range(len(self._counts)), self._counts

    def has_id(self, chunk_id: int) -> bool:
        return chunk_id < len(self._counts)

    def block_classes(self, block_size: int, is_plaintext: bool) -> list[int]:
        extra = 1 if is_plaintext else 0
        sizes = self._sizes
        return [
            sizes[fingerprint] // block_size + extra
            for fingerprint in self.vocabulary._fingerprints
        ]


def as_chunk_id_stats(stats) -> ChunkIdStats:
    """``stats`` on the id-level surface the attack loop runs over:
    interned stats as they are, fingerprint-keyed ones through the
    interning adapter."""
    if isinstance(stats, ChunkIdStats):
        return stats
    return _InterningAdapter(stats)


def interned_count(backup: Backup, vocabulary: ChunkVocabulary | None = None):
    """The locality-based attacks' COUNT (Algorithm 2's COUNT),
    byte-identical to
    :func:`~repro.attacks.frequency.count_with_neighbors` through the
    ChunkStats-compatible lazy views.

    With numpy this is the vectorized single-pass
    :class:`InternedArrayStats`; without it the reference COUNT itself
    runs (interning pays off through vectorized counting — the
    pure-Python :class:`InternedCount` exists for the streaming COUNT's
    batch deltas, where the backend dominates, not to beat the reference
    dict loop at attack scale).
    """
    if accel.numpy is not None:
        return InternedArrayStats.count(backup, vocabulary)
    from repro.attacks.frequency import count_with_neighbors

    return count_with_neighbors(backup)
