"""Fastpath ≡ reference property tests for the hot-path layer.

Every optimized loop must be byte-identical to its reference oracle:

* chunker ``cut_points`` vs ``cut_points_reference`` — random / all-zero
  / repeated data, forced ``max_size`` cuts, inputs shorter than
  ``min_size`` — and both against literal known-answer cut lists;
* interned COUNT (array-backed and Counter-backed) vs
  ``count_with_neighbors`` vs ``StreamingCount`` on the same streams,
  including table iteration order (the tie-break-sensitive part);
* the engine's batched unique-ingest vs the per-chunk S1–S4 path.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.frequency import count_frequencies, count_with_neighbors
from repro.attacks.interning import (
    ChunkVocabulary,
    InternedCount,
    interned_count,
)
from repro.attacks.streaming import StreamingCount
from repro.chunking import ChunkerSpec, GearChunker, RabinChunker
from repro.common.errors import ConfigurationError
from repro.datasets.model import Backup

SPEC = ChunkerSpec(min_size=64, avg_size=256, max_size=1024)


def chunker_pairs():
    return [RabinChunker(SPEC), GearChunker(SPEC)]


# The chunker scan and the array COUNT each have one implementation; the
# one-value parameter keeps these tests' ids the same as when each also
# had a pure-Python variant.
@pytest.fixture(params=["accelerated"])
def scan_mode(request):
    return request.param


@pytest.fixture(params=["accelerated"])
def count_mode(request):
    return request.param


class TestChunkerFastpathEquivalence:
    @given(st.binary(min_size=0, max_size=30_000))
    @settings(max_examples=30, deadline=None)
    def test_random_data(self, data):
        for chunker in chunker_pairs():
            assert chunker.cut_points(data) == chunker.cut_points_reference(data)

    def test_scan_modes_agree(self, scan_mode):
        data = random.Random(0).randbytes(50_000)
        for chunker in chunker_pairs():
            assert chunker.cut_points(data) == chunker.cut_points_reference(data)

    def test_all_zero_data_forces_max_size_cuts(self, scan_mode):
        data = b"\x00" * 20_000
        for chunker in chunker_pairs():
            cuts = chunker.cut_points(data)
            assert cuts == chunker.cut_points_reference(data)
            # Zero data has no content boundaries under either algorithm's
            # magic convention: every full chunk is a forced max_size cut.
            assert cuts[0] == SPEC.max_size

    def test_repeated_pattern_data(self, scan_mode):
        for pattern in (b"ab", b"\xff\x00\x17", b"x" * 7):
            data = pattern * (30_000 // len(pattern))
            for chunker in chunker_pairs():
                assert (
                    chunker.cut_points(data)
                    == chunker.cut_points_reference(data)
                )

    def test_inputs_shorter_than_min_size(self, scan_mode):
        rng = random.Random(1)
        for length in (0, 1, SPEC.min_size - 1, SPEC.min_size, SPEC.min_size + 1):
            data = rng.randbytes(length)
            for chunker in chunker_pairs():
                got = chunker.cut_points(data)
                assert got == chunker.cut_points_reference(data)
                if length:
                    assert got[-1] == length
                else:
                    assert got == []

    def test_degenerate_specs_fall_back_correctly(self, scan_mode):
        rng = random.Random(2)
        data = rng.randbytes(5_000)
        for spec in (
            ChunkerSpec(16, 16, 16),
            ChunkerSpec(1, 256, 300),
            ChunkerSpec(48, 64, 100),
        ):
            for chunker in (RabinChunker(spec), GearChunker(spec)):
                assert (
                    chunker.cut_points(data)
                    == chunker.cut_points_reference(data)
                )

    def test_nondefault_rabin_window_and_magic(self, scan_mode):
        rng = random.Random(3)
        data = rng.randbytes(40_000)
        for window in (17, 48):
            chunker = RabinChunker(SPEC, window=window, magic=0x55)
            assert chunker.cut_points(data) == chunker.cut_points_reference(data)

    def test_reference_tail_never_duplicates_final_cut(self):
        # The cleaned-up tail handling: the final cut is len(data) exactly
        # once, whether or not a content/forced cut landed there.
        chunker = RabinChunker(SPEC)
        data = random.Random(4).randbytes(SPEC.max_size)
        cuts = chunker.cut_points_reference(data)
        assert cuts[-1] == len(data)
        assert sorted(set(cuts)) == cuts


KNOWN_ANSWER_DATA = random.Random(20170626).randbytes(96 * 1024)


class TestChunkerKnownAnswers:
    """Literal cut lists on one seeded buffer, so a change that moved the
    fast path and the reference together would still fail."""

    @pytest.mark.parametrize(
        "chunker, length, expected",
        [
            pytest.param(
                RabinChunker(),
                96 * 1024,
                [2630, 7553, 12972, 15730, 27532, 38753, 53842, 57303,
                 65758, 73485, 81048, 97899, 98304],
                id="rabin-default",
            ),
            pytest.param(
                GearChunker(),
                96 * 1024,
                [3766, 23149, 29255, 36037, 55167, 62209, 64687, 73976,
                 78651, 86848, 90596, 93304, 95404, 98304],
                id="gear-default",
            ),
            pytest.param(
                RabinChunker(ChunkerSpec(16, 16, 16)),
                100,
                [16, 32, 48, 64, 80, 96, 100],
                id="rabin-16-16-16",
            ),
            pytest.param(
                GearChunker(ChunkerSpec(16, 16, 16)),
                100,
                [16, 32, 48, 64, 80, 96, 100],
                id="gear-16-16-16",
            ),
            pytest.param(
                RabinChunker(ChunkerSpec(1, 256, 300)),
                2000,
                [160, 203, 503, 803, 1103, 1314, 1316, 1616, 1763, 1982,
                 2000],
                id="rabin-1-256-300",
            ),
            pytest.param(
                GearChunker(ChunkerSpec(1, 256, 300)),
                2000,
                [251, 463, 763, 768, 1044, 1265, 1400, 1618, 1683, 1713,
                 1881, 1991, 2000],
                id="gear-1-256-300",
            ),
        ],
    )
    def test_cut_points(self, chunker, length, expected):
        data = KNOWN_ANSWER_DATA[:length]
        assert chunker.cut_points(data) == expected
        assert chunker.cut_points_reference(data) == expected


def token_streams():
    tokens = [bytes([value]) * 8 for value in range(12)]
    return st.lists(st.sampled_from(tokens), min_size=0, max_size=300)


class TestCountEquivalence:
    @given(token_streams())
    @settings(max_examples=40, deadline=None)
    def test_interned_equals_reference(self, fingerprints):
        sizes = [100 + (index % 7) for index in range(len(fingerprints))]
        backup = Backup(label="p", fingerprints=fingerprints, sizes=sizes)
        reference = count_with_neighbors(backup)
        fast = interned_count(backup)
        assert fast.frequencies == reference.frequencies
        assert list(fast.frequencies) == list(reference.frequencies)
        assert fast.sizes == reference.sizes
        assert list(fast.sizes) == list(reference.sizes)
        for view, oracle in (
            (fast.left, reference.left),
            (fast.right, reference.right),
        ):
            decoded = dict(view.items())
            assert decoded == oracle
            assert list(decoded) == list(oracle)
            for key, table in decoded.items():
                assert list(table) == list(oracle[key])
                assert view.get(key) == table
                assert key in view
            assert len(view) == len(oracle)
            assert view.get(b"absent" * 3, None) is None

    def test_both_count_modes_agree(self, count_mode):
        rng = random.Random(5)
        tokens = [rng.randbytes(20) for _ in range(80)]
        fingerprints = [rng.choice(tokens) for _ in range(5_000)]
        sizes = [rng.randrange(1, 9_000) for _ in fingerprints]
        backup = Backup(label="m", fingerprints=fingerprints, sizes=sizes)
        reference = count_with_neighbors(backup)
        fast = interned_count(backup)
        assert fast.frequencies == reference.frequencies
        assert dict(fast.left.items()) == reference.left
        assert dict(fast.right.items()) == reference.right

    @given(token_streams(), st.integers(min_value=1, max_value=50))
    @settings(max_examples=25, deadline=None)
    def test_streaming_count_equals_reference(self, fingerprints, batch_size):
        sizes = [64 + (index % 5) for index in range(len(fingerprints))]
        backup = Backup(label="s", fingerprints=fingerprints, sizes=sizes)
        reference = count_with_neighbors(backup)
        counter = StreamingCount(batch_size=batch_size)
        counter.ingest_backup(backup)
        stats = counter.finalize()
        assert stats.frequencies == reference.frequencies
        assert list(stats.frequencies) == list(reference.frequencies)
        assert stats.sizes == reference.sizes
        for fingerprint in reference.left:
            assert stats.left.get(fingerprint) == reference.left[fingerprint]
            assert list(stats.left.get(fingerprint)) == list(
                reference.left[fingerprint]
            )
        for fingerprint in reference.right:
            assert stats.right.get(fingerprint) == reference.right[fingerprint]

    def test_counter_batch_alignment_is_invisible(self, count_mode):
        rng = random.Random(7)
        tokens = [rng.randbytes(8) for _ in range(20)]
        fingerprints = [rng.choice(tokens) for _ in range(800)]
        sizes = [rng.randrange(1, 500) for _ in fingerprints]
        whole = InternedCount()
        whole.ingest(fingerprints, sizes)
        split = InternedCount()
        for start in range(0, len(fingerprints), 37):
            split.ingest(
                fingerprints[start : start + 37], sizes[start : start + 37]
            )
        assert whole.stats().frequencies == split.stats().frequencies
        assert whole.stats().sizes == split.stats().sizes
        assert whole.total_chunks == split.total_chunks == len(fingerprints)

    def test_count_frequencies_counter_semantics(self):
        backup = Backup(
            label="cf",
            fingerprints=[b"b", b"a", b"b", b"c", b"b"],
            sizes=[1] * 5,
        )
        frequencies = count_frequencies(backup)
        assert frequencies == {b"b": 3, b"a": 1, b"c": 1}
        # First-occurrence order is what the insertion tie-break relies on.
        assert list(frequencies) == [b"b", b"a", b"c"]


class TestChunkVocabulary:
    def test_intern_is_stable_and_dense(self):
        vocabulary = ChunkVocabulary()
        assert vocabulary.intern(b"a") == 0
        assert vocabulary.intern(b"b") == 1
        assert vocabulary.intern(b"a") == 0
        assert len(vocabulary) == 2
        assert vocabulary.fingerprint(1) == b"b"
        assert vocabulary.id_of(b"c") is None
        assert b"a" in vocabulary and b"c" not in vocabulary

    def test_shared_vocabulary_across_counters(self):
        vocabulary = ChunkVocabulary()
        first = InternedCount(vocabulary)
        first.ingest([b"x", b"y"], [1, 2])
        second = InternedCount(vocabulary)
        second.ingest([b"y", b"z"], [3, 4])
        assert len(vocabulary) == 3
        assert second.stats().frequencies == {b"y": 1, b"z": 1}
        assert second.stats().sizes == {b"y": 3, b"z": 4}

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            InternedCount().ingest([b"a"], [])

    def test_sort_ranks_follow_bytes_order(self):
        # Trailing NULs and mixed lengths are where a numpy ``S`` array
        # would rank differently from Python bytes.
        vocabulary = ChunkVocabulary()
        fingerprints = [b"ab\x00", b"ab", b"a\x00", b"b", b"ab\x00\x00"]
        vocabulary.intern_stream(fingerprints)
        ranks = vocabulary.sort_ranks()
        assert sorted(
            fingerprints, key=lambda fp: ranks[vocabulary.id_of(fp)]
        ) == sorted(fingerprints)
        vocabulary.intern(b"")
        assert vocabulary.sort_ranks()[vocabulary.id_of(b"")] == 0


class TestBatchedUniqueIngest:
    def _engine(self):
        from repro.storage.ddfs import DDFSEngine

        return DDFSEngine(
            cache_budget_bytes=4096,
            bloom_capacity=10_000,
            container_size=4096,
        )

    def test_batch_matches_per_chunk_path(self):
        rng = random.Random(8)
        fingerprints = [rng.randbytes(20) for _ in range(500)]
        sizes = [rng.randrange(100, 900) for _ in fingerprints]

        reference = self._engine()
        for fingerprint, size in zip(fingerprints, sizes):
            assert reference.process_chunk(fingerprint, size) is True
        batched = self._engine()
        batched.ingest_unique_batch(fingerprints, sizes)

        assert (
            reference.containers.num_containers
            == batched.containers.num_containers
        )
        assert reference.containers.open_chunks == batched.containers.open_chunks
        assert len(reference.index) == len(batched.index)
        for fingerprint in fingerprints:
            assert reference.index.container_of(
                fingerprint
            ) == batched.index.container_of(fingerprint)
        # Metered bytes agree: updates always, index probes whenever the
        # bloom filters (same state, same order) produced false positives.
        assert (
            reference.index.stats.update_bytes
            == batched.index.stats.update_bytes
        )
        assert (
            reference.index.stats.index_bytes == batched.index.stats.index_bytes
        )

    def test_batch_report_mirrors_per_chunk_report(self):
        from repro.storage.metrics import BackupWriteReport

        rng = random.Random(9)
        fingerprints = [rng.randbytes(20) for _ in range(200)]
        sizes = [256] * len(fingerprints)
        reference = self._engine()
        reference_report = BackupWriteReport(label="r")
        for fingerprint, size in zip(fingerprints, sizes):
            reference.process_chunk(fingerprint, size, report=reference_report)
        batched = self._engine()
        batched_report = BackupWriteReport(label="b")
        batched.ingest_unique_batch(fingerprints, sizes, report=batched_report)
        assert batched_report.total_chunks == reference_report.total_chunks
        assert batched_report.unique_chunks == reference_report.unique_chunks
        assert batched_report.stored_bytes == reference_report.stored_bytes
        assert (
            batched_report.containers_written
            == reference_report.containers_written
        )
        assert (
            batched_report.bloom_false_positives
            == reference_report.bloom_false_positives
        )
