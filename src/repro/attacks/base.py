"""Common attack interface and result type.

An attack consumes the adversary's view from the threat model (§3): the
logical-order ciphertext chunk sequence ``C`` of the target backup, the
plaintext chunk sequence ``M`` of an auxiliary (prior) backup and — in
known-plaintext mode — a small set of leaked ciphertext–plaintext pairs.
It produces the inferred set ``T`` of ciphertext → plaintext fingerprint
pairs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.datasets.model import Backup


@dataclass
class AttackResult:
    """The inferred set ``T``: ciphertext fingerprint → inferred plaintext
    fingerprint, plus bookkeeping about the run.

    ``chunk_ids`` is ``T`` before decoding, for the attacks that run over
    interned chunk ids: ciphertext-stats id → plaintext-stats id in the
    same order as ``pairs``, with fingerprints outside a side's
    vocabulary (leaked pairs only) as negative ids.
    """

    pairs: dict[bytes, bytes] = field(default_factory=dict)
    attack_name: str = ""
    iterations: int = 0
    chunk_ids: dict[int, int] = field(default_factory=dict, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.pairs)


class Attack(ABC):
    """Base class for the paper's inference attacks."""

    name: str = "attack"

    @abstractmethod
    def run(
        self,
        ciphertext: Backup,
        auxiliary: Backup,
        leaked_pairs: dict[bytes, bytes] | None = None,
    ) -> AttackResult:
        """Infer plaintext chunks of ``ciphertext`` using ``auxiliary``.

        Args:
            ciphertext: the target backup as observed by the adversary
                (ciphertext fingerprints, ciphertext sizes, logical order).
            auxiliary: the prior backup's plaintext chunk sequence.
            leaked_pairs: known-plaintext mode seed pairs
                (ciphertext fingerprint → plaintext fingerprint); ``None``
                or empty selects ciphertext-only mode.
        """
