"""The locality-based attack (Algorithm 2).

Chunk locality — chunks re-occurring together with the same neighbors
across backup versions — lets an adversary grow a small set of confidently
inferred ciphertext–plaintext pairs into a large one: if ``(C, M)`` is
inferred, frequency analysis *restricted to the neighbors of C and the
neighbors of M* yields further pairs, which are processed in turn (BFS over
the co-occurrence graphs).

Parameters (paper defaults in §5.3 parentheses):

* ``u`` (1) — number of top-frequency pairs used to seed the inferred set
  in ciphertext-only mode; top-frequency chunks keep stable ranks across
  backups, so small ``u`` keeps seeds accurate.
* ``v`` (15) — number of top co-occurrence pairs taken from each neighbor
  analysis; larger ``v`` infers more but admits more errors (Fig. 4b).
* ``w`` (200 000; 500 000 in known-plaintext mode) — bound on the pending
  FIFO queue ``G`` (memory cap; Fig. 4c).

In known-plaintext mode the inferred set is seeded with the leaked pairs
that also appear in the auxiliary backup (§4.2).
"""

from __future__ import annotations

from collections import deque

from repro.attacks.base import Attack, AttackResult
from repro.attacks.frequency import (
    FINGERPRINT,
    INSERTION,
    TIE_BREAKS,
    ChunkStats,
    pair_tops,
    rank_tops,
)
from repro.attacks.interning import ChunkIdStats, as_chunk_id_stats, interned_count
from repro.common.errors import ConfigurationError
from repro.datasets.model import Backup


class LocalityAttack(Attack):
    """The paper's locality-based attack."""

    name = "locality"

    def __init__(
        self,
        u: int = 1,
        v: int = 15,
        w: int = 200_000,
        tie_break: str = INSERTION,
        seed_tie_break: str = FINGERPRINT,
    ):
        """``tie_break`` orders ties in the per-neighbor co-occurrence
        analyses (the paper keeps neighbor lists sequentially, i.e.
        insertion order). ``seed_tie_break`` orders ties in the global
        frequency analysis used to seed G (a fingerprint-keyed table in the
        paper, hence fingerprint order)."""
        if u < 1 or v < 1 or w < 1:
            raise ConfigurationError("u, v and w must all be >= 1")
        for knob, value in (
            ("tie_break", tie_break),
            ("seed_tie_break", seed_tie_break),
        ):
            if value not in TIE_BREAKS:
                raise ConfigurationError(
                    f"unknown {knob} {value!r}; use one of {TIE_BREAKS}"
                )
        self.u = u
        self.v = v
        self.w = w
        self.tie_break = tie_break
        self.seed_tie_break = seed_tie_break

    # Subclass hooks ---------------------------------------------------------

    def _count(self, backup: Backup) -> ChunkStats:
        # Interned fast path; byte-identical to count_with_neighbors (the
        # reference COUNT) through the ChunkStats-compatible lazy views.
        return interned_count(backup)  # type: ignore[return-value]

    def _size_classes(self, stats: ChunkIdStats, is_plaintext: bool):
        """Chunk id → size class for every FREQ-ANALYSIS, or ``None`` to
        rank each table as one class (the size-blind attack)."""
        return None

    # Main algorithm ----------------------------------------------------------

    def run(
        self,
        ciphertext: Backup,
        auxiliary: Backup,
        leaked_pairs: dict[bytes, bytes] | None = None,
    ) -> AttackResult:
        ciphertext_stats = self._count(ciphertext)
        plaintext_stats = self._count(auxiliary)
        return self.run_counted(ciphertext_stats, plaintext_stats, leaked_pairs)

    def run_counted(
        self,
        ciphertext_stats,
        plaintext_stats,
        leaked_pairs: dict[bytes, bytes] | None = None,
    ) -> AttackResult:
        """Run the attack over already-counted stats.

        This is the whole algorithm after its two COUNT passes, run over
        interned chunk ids (:class:`~repro.attacks.interning.ChunkIdStats`;
        fingerprint-keyed stats such as
        :class:`~repro.attacks.frequency.ChunkStats` are interned on the
        way in). Fingerprints are decoded once, into the result, in
        insertion order. That is how the sharded columnar COUNT
        (:mod:`repro.attacks.sharded`) drives the attack without
        materializing backups.
        """
        cipher = as_chunk_id_stats(ciphertext_stats)
        plain = as_chunk_id_stats(plaintext_stats)
        cipher_classes = self._size_classes(cipher, False)
        plain_classes = self._size_classes(plain, True)
        cipher_fingerprints = cipher.vocabulary._fingerprints
        plain_fingerprints = plain.vocabulary._fingerprints
        # Leaked fingerprints outside a side's vocabulary: id -1 - index.
        cipher_outside: list[bytes] = []
        plain_outside: list[bytes] = []

        inferred: dict[int, int] = {}
        pending: deque[tuple[int, int]] = deque()
        if leaked_pairs:
            # Known-plaintext mode: every leaked pair is known (and counts
            # toward the inference rate, §5.3.3), but only pairs appearing
            # in both the target and the auxiliary backups can propagate
            # through neighbor analysis (Algorithm 2, line 7).
            for cipher_fp, plain_fp in leaked_pairs.items():
                cipher_id = _id_of(cipher, cipher_fp, cipher_outside)
                plain_id = _id_of(plain, plain_fp, plain_outside)
                inferred[cipher_id] = plain_id
                if (
                    cipher_id >= 0
                    and plain_id >= 0
                    and cipher.has_id(cipher_id)
                    and plain.has_id(plain_id)
                ):
                    pending.append((cipher_id, plain_id))
        else:
            # Ciphertext-only mode: seed from global frequency analysis.
            seeds = pair_tops(
                cipher.top_ids(self.u, self.seed_tie_break, cipher_classes),
                plain.top_ids(self.u, self.seed_tie_break, plain_classes),
            )
            for cipher_id, plain_id in seeds:
                if cipher_id not in inferred:
                    inferred[cipher_id] = plain_id
                    pending.append((cipher_id, plain_id))

        v = self.v
        w = self.w
        tie_break = self.tie_break
        # (ciphertext segment, plaintext segment, plaintext memo) per
        # direction, left first. A ciphertext id is popped at most once,
        # but a plaintext id is popped once per ciphertext id it was
        # paired with, so its ranked neighbors are memoized.
        directions = (
            (cipher.left.segment, plain.left.segment, {}),
            (cipher.right.segment, plain.right.segment, {}),
        )
        iterations = 0
        while pending:
            cipher_id, plain_id = pending.popleft()
            iterations += 1
            new_pairs: list[tuple[int, int]] = []
            for cipher_segment, plain_segment, plain_memo in directions:
                neighbors, counts = cipher_segment(cipher_id)
                if not neighbors:
                    continue
                cipher_tops = rank_tops(
                    neighbors, counts, v, tie_break,
                    cipher_classes, cipher_fingerprints,
                )
                plain_tops = plain_memo.get(plain_id)
                if plain_tops is None:
                    neighbors, counts = plain_segment(plain_id)
                    plain_tops = plain_memo[plain_id] = rank_tops(
                        neighbors, counts, v, tie_break,
                        plain_classes, plain_fingerprints,
                    )
                new_pairs += pair_tops(cipher_tops, plain_tops)
            for new_cipher, new_plain in new_pairs:
                if new_cipher not in inferred:
                    inferred[new_cipher] = new_plain
                    if len(pending) <= w:
                        pending.append((new_cipher, new_plain))
        pairs = {
            _decode(cipher_fingerprints, cipher_outside, cipher_id): _decode(
                plain_fingerprints, plain_outside, plain_id
            )
            for cipher_id, plain_id in inferred.items()
        }
        return AttackResult(
            pairs=pairs,
            attack_name=self.name,
            iterations=iterations,
            chunk_ids=inferred,
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(u={self.u}, v={self.v}, w={self.w})"


def _id_of(stats: ChunkIdStats, fingerprint: bytes, outside: list[bytes]) -> int:
    """``fingerprint``'s id in ``stats``' vocabulary, or a fresh negative
    id ``-1 - index`` into ``outside`` when the vocabulary lacks it."""
    chunk_id = stats.vocabulary._ids.get(fingerprint)
    if chunk_id is None:
        outside.append(fingerprint)
        return -len(outside)
    return chunk_id


def _decode(fingerprints, outside: list[bytes], chunk_id: int) -> bytes:
    return fingerprints[chunk_id] if chunk_id >= 0 else outside[~chunk_id]
