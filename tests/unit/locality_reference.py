"""Reference oracle for the locality attacks' loop (Algorithms 2 and 3).

:meth:`repro.attacks.locality.LocalityAttack.run_counted` runs over
interned chunk ids and decodes fingerprints once, at the end. This module
keeps the paper-literal form of the same loop: every table is keyed by
fingerprint bytes and every FREQ-ANALYSIS is
:func:`~repro.attacks.frequency.freq_analysis` (or its size-classified
:func:`~repro.attacks.frequency.sized_freq_analysis` for the advanced
attack) over the stats' ``frequencies``/``left``/``right``/``sizes``
mappings. The differential tests pin the two to the same pairs, in the
same order, after the same number of iterations.
"""

from __future__ import annotations

from collections import deque

from repro.attacks.advanced import AdvancedLocalityAttack
from repro.attacks.base import AttackResult
from repro.attacks.frequency import freq_analysis, sized_freq_analysis

_EMPTY: dict[bytes, int] = {}


def _analyse(attack, ciphertext_table, plaintext_table, limit, tie_break,
             ciphertext_stats, plaintext_stats):
    if isinstance(attack, AdvancedLocalityAttack):
        return sized_freq_analysis(
            ciphertext_table,
            plaintext_table,
            ciphertext_stats.sizes,
            plaintext_stats.sizes,
            limit,
            attack.block_size,
            tie_break,
        )
    return freq_analysis(ciphertext_table, plaintext_table, limit, tie_break)


def reference_run_counted(
    attack, ciphertext_stats, plaintext_stats, leaked_pairs=None
) -> AttackResult:
    """``attack.run_counted`` over fingerprint-keyed mappings."""
    inferred: dict[bytes, bytes] = {}
    pending: deque[tuple[bytes, bytes]] = deque()
    if leaked_pairs:
        auxiliary_chunks = plaintext_stats.frequencies
        for cipher_fp, plain_fp in leaked_pairs.items():
            if cipher_fp in inferred:
                continue
            inferred[cipher_fp] = plain_fp
            if (
                cipher_fp in ciphertext_stats.frequencies
                and plain_fp in auxiliary_chunks
            ):
                pending.append((cipher_fp, plain_fp))
    else:
        seeds = _analyse(
            attack,
            ciphertext_stats.frequencies,
            plaintext_stats.frequencies,
            attack.u,
            attack.seed_tie_break,
            ciphertext_stats,
            plaintext_stats,
        )
        for cipher_fp, plain_fp in seeds:
            if cipher_fp not in inferred:
                inferred[cipher_fp] = plain_fp
                pending.append((cipher_fp, plain_fp))

    left_c = ciphertext_stats.left
    right_c = ciphertext_stats.right
    left_m = plaintext_stats.left
    right_m = plaintext_stats.right
    iterations = 0
    while pending:
        cipher_fp, plain_fp = pending.popleft()
        iterations += 1
        left_pairs = _analyse(
            attack,
            left_c.get(cipher_fp, _EMPTY),
            left_m.get(plain_fp, _EMPTY),
            attack.v,
            attack.tie_break,
            ciphertext_stats,
            plaintext_stats,
        )
        right_pairs = _analyse(
            attack,
            right_c.get(cipher_fp, _EMPTY),
            right_m.get(plain_fp, _EMPTY),
            attack.v,
            attack.tie_break,
            ciphertext_stats,
            plaintext_stats,
        )
        for new_cipher, new_plain in left_pairs + right_pairs:
            if new_cipher not in inferred:
                inferred[new_cipher] = new_plain
                if len(pending) <= attack.w:
                    pending.append((new_cipher, new_plain))
    return AttackResult(
        pairs=inferred, attack_name=attack.name, iterations=iterations
    )
