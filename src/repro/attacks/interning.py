"""Interned COUNT: the hot-path form of the attacks' counting pass.

The reference COUNT (:func:`repro.attacks.frequency.count_with_neighbors`)
keys three nested dicts on 20-byte fingerprint strings for every chunk
occurrence — six bytes-keyed dict operations per chunk, all driven from a
Python-level loop. At the multi-million-chunk scale of the journal
follow-up (Li et al., TDSC'19) that dominates every attack run. This
module interns fingerprints into dense integer chunk ids once
(:class:`ChunkVocabulary`) and counts the id array with one numpy
kernel, :func:`count_shard`:

* frequencies are one ``bincount`` over the ids, and first-occurrence
  positions one reversed scatter (the earliest write lands last and
  wins);
* the left/right co-occurrence tables are one array of packed
  ``(previous_id << PAIR_SHIFT) | current_id`` pairs, aggregated by
  ``unique``;
* :func:`merge_shards` adds per-shard tables, and one ``argsort`` over
  first-occurrence positions recovers the reference COUNT's insertion
  order.

:func:`interned_count` runs the kernel over an in-RAM backup as one
shard; the sharded columnar COUNT (:mod:`repro.attacks.sharded`) runs it
per shard of a memory-mapped trace. Both return the one array stats
class, :class:`InternedArrayStats`. The streaming COUNT's batch loop
(:class:`InternedCount`, :class:`InternedChunkStats`) keeps its own
``Counter`` tables, because its backend merge consumes per-batch deltas.

The locality/advanced attacks never decode: they run over the id-level
surface of :class:`ChunkIdStats` (first-occurrence-ordered id tables,
per-id neighbor segments, id → size class), and fingerprint-keyed stats
reach that surface through :func:`as_chunk_id_stats`'s interning
adapter. The stats also expose the same ``frequencies``/``left``/
``right``/``sizes`` mapping interface as
:class:`~repro.attacks.frequency.ChunkStats` through lazy views —
byte-identical, first-occurrence order included, to
``count_with_neighbors`` and ``StreamingCount`` (pinned by the
equivalence property tests).
"""

from __future__ import annotations

import gc
import time
from collections import Counter
from collections.abc import Mapping
from contextlib import contextmanager

import numpy

from repro import obs
from repro.attacks.frequency import FINGERPRINT, INSERTION, TIE_BREAKS, rank_tops
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

    __slots__ = ("_ids", "_fingerprints", "_ranks")

    def __init__(self) -> None:
        self._fingerprints: list[bytes] = []
        self._ids = _Interner(self._fingerprints)
        self._ranks = None

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

    def sort_ranks(self):
        """Each chunk id's rank in fingerprint-bytes order, as an array
        (cached until the vocabulary grows).

        A Python sort over the fingerprint list: a numpy ``S`` array
        strips trailing NUL bytes, so it would rank some fingerprints
        wrongly.
        """
        fingerprints = self._fingerprints
        if self._ranks is None or len(self._ranks) != len(fingerprints):
            order = sorted(range(len(fingerprints)), key=fingerprints.__getitem__)
            ranks = numpy.empty(len(order), dtype=numpy.intp)
            ranks[order] = numpy.arange(len(order), dtype=numpy.intp)
            self._ranks = ranks
        return self._ranks


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
    id table (the array stats override it with a vectorized ranking).
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
        # ``unique(..., return_index=True)`` yields each distinct value's
        # count and first position; re-ordering by first position
        # (``argsort``) recovers the stream-first-occurrence insertion
        # order the reference COUNT produces.
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
        self._total_chunks += len(fingerprints)

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


class _ArrayNeighborView(Mapping):
    """Lazy ``fingerprint -> {neighbor fingerprint: count}`` mapping over
    segment-sorted flat arrays.

    ``neighbors``/``counts`` are grouped by owning id, each group keeping
    first-occurrence order, and ``starts[id]:starts[id + 1]`` bounds the
    owner ``id``'s segment (``starts`` has one entry per vocabulary id plus
    one). :meth:`segment` slices it for the id-space attack loop; a
    fingerprint probe decodes the slice (cached per fingerprint). The
    first-occurrence iteration order the reference COUNT would have is
    recovered lazily from ``owners`` (owning ids in pair first-occurrence
    order) only when something iterates the view.
    """

    __slots__ = (
        "_vocabulary",
        "_starts",
        "_neighbors",
        "_counts",
        "_owners",
        "_outer",
        "_decoded",
    )

    def __init__(self, vocabulary, starts, neighbors, counts, owners):
        self._vocabulary = vocabulary
        self._starts = starts
        self._neighbors = neighbors
        self._counts = counts
        self._owners = owners
        self._outer: list[int] | None = None
        self._decoded: dict[bytes, dict[bytes, int]] = {}

    def segment(self, chunk_id: int) -> tuple:
        """``chunk_id``'s neighbor ids and counts, first-occurrence order."""
        starts = self._starts
        if chunk_id + 1 >= len(starts):
            return _NO_SEGMENT
        low, high = starts[chunk_id], starts[chunk_id + 1]
        if low == high:
            return _NO_SEGMENT
        return (
            self._neighbors[low:high].tolist(),
            self._counts[low:high].tolist(),
        )

    def __getitem__(self, fingerprint: bytes) -> dict[bytes, int]:
        decoded = self._decoded.get(fingerprint)
        if decoded is not None:
            return decoded
        chunk_id = self._vocabulary._ids.get(fingerprint)
        neighbors, counts = (
            _NO_SEGMENT if chunk_id is None else self.segment(chunk_id)
        )
        if not neighbors:
            raise KeyError(fingerprint)
        fingerprints = self._vocabulary._fingerprints
        decoded = dict(zip(map(fingerprints.__getitem__, neighbors), counts))
        self._decoded[fingerprint] = decoded
        return decoded

    def _outer_ids(self) -> list[int]:
        if self._outer is None:
            owners = self._owners
            self._outer = (
                [] if owners is None else list(dict.fromkeys(owners.tolist()))
            )
        return self._outer

    def __len__(self) -> int:
        return len(self._outer_ids())

    def __iter__(self):
        return map(self._vocabulary._fingerprints.__getitem__, self._outer_ids())


class _RankedValues(Mapping):
    """``fingerprint -> value`` view of one rank-aligned array of an
    :class:`InternedArrayStats` (its counts or first-occurrence sizes).

    A probe resolves the fingerprint to its chunk id through the
    vocabulary, then to its frequency-table rank; nothing per-fingerprint
    is materialized unless something iterates the view, and iteration
    follows first-occurrence order like the reference COUNT's dicts.
    """

    __slots__ = ("_stats", "_values")

    def __init__(self, stats: "InternedArrayStats", values):
        self._stats = stats
        self._values = values

    def __getitem__(self, fingerprint: bytes) -> int:
        stats = self._stats
        chunk_id = stats.vocabulary._ids.get(fingerprint)
        rank = -1 if chunk_id is None else stats._rank(chunk_id)
        if rank < 0:
            raise KeyError(fingerprint)
        return int(self._values[rank])

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        stats = self._stats
        return map(
            stats.vocabulary._fingerprints.__getitem__,
            stats._ordered_ids.tolist(),
        )


class InternedArrayStats(ChunkIdStats):
    """COUNT output held in flat numpy arrays: what :func:`interned_count`
    and the sharded columnar COUNT
    (:func:`repro.attacks.sharded.sharded_count`) both return, built by
    :func:`merge_shards`.

    ``ordered_ids``/``ordered_counts``/``ordered_first`` are int64 arrays
    in stream first-occurrence order; ``first_sizes`` holds each id's
    first-occurrence chunk size aligned with them; ``ordered_pairs``/
    ``ordered_pair_counts`` are the aggregated packed adjacency pairs in
    pair-first-occurrence order (``None`` when the stream has no pairs).

    Nothing scales with the table in Python objects: ``frequencies``/
    ``sizes`` are lazy rank-indexed mappings, the neighbor tables group
    on first access into segment-sorted arrays that decode per probed
    fingerprint, and the global FREQ-ANALYSIS ranking (:meth:`top_ids`)
    sorts the flat arrays. Every mapping iterates in the reference
    COUNT's first-occurrence order (pinned by the equivalence tests).
    """

    def __init__(
        self,
        vocabulary,
        ordered_ids,
        ordered_counts,
        ordered_first,
        first_sizes,
        ordered_pairs,
        ordered_pair_counts,
    ):
        self.vocabulary = vocabulary
        self._ordered_ids = ordered_ids
        self._ordered_counts = ordered_counts
        self._ordered_first = ordered_first
        self._first_sizes = first_sizes
        self._ordered_pairs = ordered_pairs
        self._ordered_pair_counts = ordered_pair_counts
        self._rank_lookup = None
        self._tie_orders: dict[str, object] = {}
        self._neighbors: tuple | None = None

    @property
    def unique_chunks(self) -> int:
        return len(self._ordered_ids)

    def _rank(self, chunk_id: int) -> int:
        """``chunk_id``'s frequency-table rank, or -1 if it is absent."""
        lookup = self._rank_lookup
        if lookup is None:
            lookup = numpy.full(len(self.vocabulary), -1, dtype=numpy.int64)
            lookup[self._ordered_ids] = numpy.arange(len(self._ordered_ids))
            self._rank_lookup = lookup
        return int(lookup[chunk_id]) if 0 <= chunk_id < len(lookup) else -1

    def id_table(self) -> tuple:
        return self._ordered_ids, self._ordered_counts

    def has_id(self, chunk_id: int) -> bool:
        return self._rank(chunk_id) >= 0

    def block_classes(self, block_size: int, is_plaintext: bool):
        sizes = numpy.zeros(len(self.vocabulary), dtype=numpy.int64)
        sizes[self._ordered_ids] = self._first_sizes
        classes = sizes // block_size
        return classes + 1 if is_plaintext else classes

    @property
    def frequencies(self) -> Mapping:
        return _RankedValues(self, self._ordered_counts)

    @property
    def sizes(self) -> Mapping:
        return _RankedValues(self, self._first_sizes)

    @property
    def left(self) -> _ArrayNeighborView:
        return self._neighbor_views()[0]

    @property
    def right(self) -> _ArrayNeighborView:
        return self._neighbor_views()[1]

    def _neighbor_views(self) -> tuple:
        """The two directed neighbor views ``(left, right)``, grouped from
        the packed pairs on first access.

        Stable segment sorts keep the first-occurrence suborder within
        each segment, and a cumulative ``bincount`` over the owning ids
        gives every segment's bounds; the pre-sort id arrays carry the
        outer first-occurrence order for (lazy) iteration. Nothing becomes
        a boxed int per pair, so the layout holds at trace scale.
        """
        if self._neighbors is not None:
            return self._neighbors
        vocabulary = self.vocabulary
        pairs = self._ordered_pairs
        if pairs is None:
            empty = _ArrayNeighborView(vocabulary, (), None, None, None)
            self._neighbors = (empty, empty)
            return self._neighbors
        size = len(vocabulary)
        counts = self._ordered_pair_counts

        def view(owners, neighbors):
            starts = numpy.zeros(size + 1, dtype=numpy.intp)
            numpy.cumsum(numpy.bincount(owners, minlength=size), out=starts[1:])
            segments = numpy.argsort(owners, kind="stable")
            return _ArrayNeighborView(
                vocabulary, starts, neighbors[segments], counts[segments], owners
            )

        with _gc_paused():
            previous_ids = (pairs >> numpy.uint64(PAIR_SHIFT)).astype(numpy.intp)
            current_ids = (pairs & numpy.uint64(_PAIR_MASK)).astype(numpy.intp)
            self._neighbors = (
                view(current_ids, previous_ids),
                view(previous_ids, current_ids),
            )
        return self._neighbors

    def _tie_order(self, tie_break: str):
        """The full frequency ranking as index positions into the
        ordered arrays, under ``tie_break`` (cached).

        ``insertion``: the arrays are already in first-occurrence order,
        so a stable sort on descending count reproduces
        :func:`~repro.attacks.frequency.rank_by_frequency` exactly.
        ``fingerprint``: ties order by fingerprint bytes, through the
        vocabulary's sort ranks without decoding.
        """
        cached = self._tie_orders.get(tie_break)
        if cached is not None:
            return cached
        counts = self._ordered_counts
        if tie_break == INSERTION:
            order = numpy.argsort(-counts, kind="stable")
        elif tie_break == FINGERPRINT:
            ranks = self.vocabulary.sort_ranks()[self._ordered_ids]
            order = numpy.lexsort((ranks, -counts))
        else:
            raise ValueError(
                f"unknown tie_break {tie_break!r}; use one of {TIE_BREAKS}"
            )
        self._tie_orders[tie_break] = order
        return order

    def top_ids(self, limit: int | None, tie_break: str, classes=None) -> dict:
        """:meth:`ChunkIdStats.top_ids` as array sorts.

        Because a stable sort of a subsequence equals the stably-sorted
        full sequence filtered to it, slicing the global ranking by class
        reproduces exactly the per-class ranking
        :func:`~repro.attacks.frequency.rank_tops` computes over class
        buckets.
        """
        if not len(self._ordered_ids):
            return {}
        ranked = self._ordered_ids[self._tie_order(tie_break)]
        if classes is None:
            return {None: ranked[:limit].tolist()}
        ranked_classes = classes[ranked]
        class_order = numpy.argsort(ranked_classes, kind="stable")
        sorted_classes = ranked_classes[class_order]
        boundaries = (
            numpy.flatnonzero(sorted_classes[1:] != sorted_classes[:-1]) + 1
        ).tolist()
        tops: dict[int, list[int]] = {}
        for low, high in zip([0, *boundaries], [*boundaries, len(ranked)]):
            take = high - low if limit is None else min(limit, high - low)
            tops[int(sorted_classes[low])] = ranked[
                class_order[low : low + take]
            ].tolist()
        return tops

    def top_ranked(
        self, limit: int | None = None, tie_break: str = INSERTION
    ) -> list[bytes]:
        """The ``limit`` top-frequency fingerprints, identical to
        ``rank_by_frequency(self.frequencies, tie_break)[:limit]`` but
        decoding only the returned prefix."""
        fingerprints = self.vocabulary._fingerprints
        return [
            fingerprints[chunk_id]
            for chunk_id in self.top_ids(limit, tie_break).get(None, [])
        ]

    def with_vocabulary(self, vocabulary, first_sizes) -> "InternedArrayStats":
        """The same counted stream under another fingerprint decode.

        A deterministic per-chunk encryption maps the plaintext id stream
        to the ciphertext id stream unchanged, so the ciphertext COUNT
        *is* this COUNT — only the vocabulary (ciphertext fingerprints)
        and the per-chunk sizes (padded) differ. Sharing the arrays makes
        deriving the ciphertext stats O(unique), not a second pass.
        """
        return InternedArrayStats(
            vocabulary,
            self._ordered_ids,
            self._ordered_counts,
            self._ordered_first,
            first_sizes,
            self._ordered_pairs,
            self._ordered_pair_counts,
        )


def count_shard(ids, start: int, stop: int, lead: int, vocab_size: int) -> tuple:
    """COUNT one contiguous shard of an id stream: the one counting kernel
    behind :func:`interned_count` (a whole backup as one shard) and the
    sharded columnar COUNT's workers.

    ``ids`` holds the ids at stream positions ``[start - lead, stop)``. A
    shard after the first reads one *lead* id before its range, so the
    boundary adjacency pair is counted by exactly one shard; the lead id
    itself stays out of the frequency/first tables (the previous shard
    counts it). Returns ``(present ids, counts, first positions, unique
    packed pairs, pair first positions, pair counts)``; the pair arrays
    are ``None`` when the shard holds no pair.
    """
    counted = ids[lead:].astype(numpy.intp)
    counts = numpy.bincount(counted, minlength=vocab_size)
    # Reversed scatter: the earliest occurrence is written last and wins.
    first = numpy.zeros(vocab_size, dtype=numpy.int64)
    first[counted[::-1]] = numpy.arange(stop - 1, start - 1, -1, dtype=numpy.int64)
    present = numpy.flatnonzero(counts)
    pairs = pair_first = pair_counts = None
    if len(ids) > 1:
        wide = ids.astype(numpy.uint64)
        packed = (wide[:-1] << numpy.uint64(PAIR_SHIFT)) | wide[1:]
        pairs, first_index, pair_counts = numpy.unique(
            packed, return_index=True, return_counts=True
        )
        pair_first = first_index.astype(numpy.int64) + (start - lead)
    return (
        present.astype(numpy.int64),
        counts[present].astype(numpy.int64),
        first[present],
        pairs,
        pair_first,
        pair_counts,
    )


def merge_shards(vocabulary, results: list, total: int, sizes) -> InternedArrayStats:
    """Merge :func:`count_shard` outputs (in stream order) into one
    :class:`InternedArrayStats` over ``vocabulary``.

    Frequencies and pair counts add; first-occurrence positions take the
    minimum (shard positions are global stream positions). First
    positions are unique stream indices, so one ``argsort`` over them is
    exactly the insertion sequence of a single-threaded COUNT — which is
    why the output is the same at any shard count. ``sizes`` is the
    stream's chunk-size array, indexed by position; ``total`` is the
    stream length.
    """
    vocab_size = len(vocabulary)
    counts = numpy.zeros(vocab_size, dtype=numpy.int64)
    # ``total`` is a sentinel above every real stream position.
    first = numpy.full(vocab_size, total, dtype=numpy.int64)
    pair_parts, pair_first_parts, pair_count_parts = [], [], []
    for present, shard_counts, shard_first, pairs, pair_first, pair_counts in results:
        counts[present] += shard_counts
        # ``present`` is duplicate-free within a shard, so fancy-index
        # assignment (not ``minimum.at``) is safe.
        first[present] = numpy.minimum(first[present], shard_first)
        if pairs is not None:
            pair_parts.append(pairs)
            pair_first_parts.append(pair_first)
            pair_count_parts.append(pair_counts)
    present = numpy.flatnonzero(counts)
    argsort_started = time.perf_counter()
    order = present[numpy.argsort(first[present], kind="stable")]
    obs.observe(
        "count.shard.phase_s", time.perf_counter() - argsort_started,
        phase="argsort",
    )
    ordered_pairs = ordered_pair_counts = None
    if pair_parts:
        if len(pair_parts) == 1:
            # One shard's pairs come out of ``unique`` already aggregated.
            unique_pairs = pair_parts[0]
            agg_counts = pair_count_parts[0]
            agg_first = pair_first_parts[0]
        else:
            unique_pairs, inverse = numpy.unique(
                numpy.concatenate(pair_parts), return_inverse=True
            )
            agg_counts = numpy.zeros(len(unique_pairs), dtype=numpy.int64)
            numpy.add.at(
                agg_counts, inverse, numpy.concatenate(pair_count_parts)
            )
            agg_first = numpy.full(len(unique_pairs), total, dtype=numpy.int64)
            numpy.minimum.at(
                agg_first, inverse, numpy.concatenate(pair_first_parts)
            )
        pair_order = numpy.argsort(agg_first, kind="stable")
        ordered_pairs = unique_pairs[pair_order]
        ordered_pair_counts = agg_counts[pair_order]
    ordered_first = first[order]
    return InternedArrayStats(
        vocabulary,
        order,
        counts[order],
        ordered_first,
        sizes[ordered_first].astype(numpy.int64),
        ordered_pairs,
        ordered_pair_counts,
    )


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


def interned_count(
    backup: Backup, vocabulary: ChunkVocabulary | None = None
) -> InternedArrayStats:
    """The locality-based attacks' COUNT (Algorithm 2's COUNT),
    byte-identical to
    :func:`~repro.attacks.frequency.count_with_neighbors` through the
    ChunkStats-compatible lazy views.

    The backup interns into one id array, which :func:`count_shard`
    counts as a single shard and :func:`merge_shards` orders — the same
    kernel and merge the sharded columnar COUNT runs.
    """
    vocabulary = vocabulary if vocabulary is not None else ChunkVocabulary()
    check_vocabulary_capacity(len(vocabulary))
    total = len(backup.fingerprints)
    with _gc_paused():
        ids = numpy.fromiter(
            map(vocabulary._ids.__getitem__, backup.fingerprints),
            dtype=numpy.intp,
            count=total,
        )
        shard = count_shard(ids, 0, total, 0, len(vocabulary))
        sizes = numpy.fromiter(backup.sizes, dtype=numpy.int64, count=total)
        return merge_shards(vocabulary, [shard], total, sizes)
