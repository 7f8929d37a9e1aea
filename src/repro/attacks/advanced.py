"""The advanced locality-based attack (Algorithm 3).

Variable-size chunking leaks chunk sizes: under a block cipher, a ciphertext
chunk occupies exactly the block count of its plaintext chunk, observable
before deduplication. The advanced attack therefore replaces every
FREQ-ANALYSIS call of the locality-based attack with a *size-classified*
variant: chunks are grouped by cipher-block count and frequency ranks are
paired only within a class, which removes cross-size mismatches and raises
the inference rate on variable-size datasets (Figs. 5–9).

On fixed-size datasets every chunk falls into the same class, so this attack
is exactly the locality-based attack (the paper's VM results).
"""

from __future__ import annotations

from repro.attacks.frequency import INSERTION
from repro.attacks.interning import ChunkIdStats
from repro.attacks.locality import LocalityAttack


class AdvancedLocalityAttack(LocalityAttack):
    """Locality-based attack augmented with the chunk-size side channel."""

    name = "advanced"

    def __init__(
        self,
        u: int = 1,
        v: int = 15,
        w: int = 200_000,
        block_size: int = 16,
        tie_break: str = INSERTION,
    ):
        super().__init__(u=u, v=v, w=w, tie_break=tie_break)
        self.block_size = block_size

    def _size_classes(self, stats: ChunkIdStats, is_plaintext: bool):
        # Algorithm 3 size-classifies every FREQ-ANALYSIS, the seeding one
        # at Algorithm 2's line 5 included: pairs form only within a
        # cipher-block-count class.
        return stats.block_classes(self.block_size, is_plaintext)
