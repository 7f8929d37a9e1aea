"""Tests for the basic, locality-based, and advanced attacks.

Includes the paper's Figure 3 worked example, verified pair by pair.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from locality_reference import reference_run_counted

from repro.attacks.advanced import AdvancedLocalityAttack
from repro.attacks.basic import BasicAttack
from repro.attacks.locality import LocalityAttack
from repro.common.errors import ConfigurationError
from repro.datasets.model import Backup


def backup(tokens, sizes=None, label="b"):
    tokens = [t.encode() for t in tokens]
    if sizes is None:
        sizes = [4096] * len(tokens)
    return Backup(label=label, fingerprints=tokens, sizes=sizes)


class TestBasicAttack:
    def test_identical_streams_with_distinct_frequencies(self):
        # Frequencies 3, 2, 1 are unambiguous, so ranks align exactly.
        plain = backup(["a", "a", "a", "b", "b", "c"])
        cipher = backup(["A", "A", "A", "B", "B", "C"])
        result = BasicAttack().run(cipher, plain)
        assert result.pairs == {b"A": b"a", b"B": b"b", b"C": b"c"}

    def test_rank_shift_after_update_misleads(self):
        # 'b' overtook 'a' in the target: rank pairing now crosses.
        plain = backup(["a", "a", "a", "b", "b", "c"])
        cipher = backup(["B", "B", "B", "A", "A", "C"])
        result = BasicAttack().run(cipher, plain)
        assert result.pairs[b"B"] == b"a"  # wrong, as expected

    def test_leaked_pairs_override(self):
        plain = backup(["a", "b"])
        cipher = backup(["A", "B"])
        result = BasicAttack().run(
            cipher, plain, leaked_pairs={b"A": b"truth"}
        )
        assert result.pairs[b"A"] == b"truth"


class TestFigure3Example:
    """The paper's worked example (§4.2, Figure 3), exactly."""

    M = ["M1", "M2", "M1", "M2", "M3", "M4", "M2", "M3", "M4"]
    C = ["C1", "C2", "C5", "C2", "C1", "C2", "C3", "C4", "C2", "C3", "C4", "C4"]

    def run_attack(self):
        attack = LocalityAttack(u=1, v=1, w=10**9)
        return attack.run(backup(self.C), backup(self.M))

    def test_seed_is_most_frequent_pair(self):
        # C2 (freq 5) pairs with M2 (freq 3).
        result = self.run_attack()
        assert result.pairs[b"C2"] == b"M2"

    def test_all_four_pairs_inferred(self):
        result = self.run_attack()
        for index in (1, 2, 3, 4):
            assert result.pairs[f"C{index}".encode()] == f"M{index}".encode()

    def test_c5_cannot_be_inferred(self):
        # C5's plaintext does not appear in M; the paper notes the attack
        # cannot infer it.
        result = self.run_attack()
        assert b"C5" not in result.pairs or result.pairs[b"C5"] not in {
            b"M1",
            b"M2",
            b"M3",
            b"M4",
        }
        # With v=1 it is in fact never paired at all:
        assert b"C5" not in result.pairs

    def test_exactly_the_paper_inference_set(self):
        result = self.run_attack()
        assert result.pairs == {
            b"C1": b"M1",
            b"C2": b"M2",
            b"C3": b"M3",
            b"C4": b"M4",
        }


class TestLocalityAttack:
    def test_parameter_validation(self):
        for bad in (
            {"u": 0},
            {"v": 0},
            {"w": 0},
            # Checked up front: FREQ-ANALYSIS returns early on empty
            # tables, so a ranking may never run to reject it.
            {"tie_break": "bogus"},
            {"seed_tie_break": "bogus"},
        ):
            with pytest.raises(ConfigurationError):
                LocalityAttack(**bad)
        with pytest.raises(ConfigurationError, match="tie_break"):
            AdvancedLocalityAttack(tie_break="bogus")

    def test_chain_propagation_through_unique_run(self):
        # One shared frequent chunk seeds the walk; the rest is a run of
        # unique chunks in identical order. v=2 lets the expansion move
        # past the frequent chunk's self-co-occurrence.
        plain = ["p"] * 3 + ["a", "b", "c", "d", "e"]
        cipher = ["P"] * 3 + ["A", "B", "C", "D", "E"]
        result = LocalityAttack(u=1, v=2, w=1000).run(
            backup(cipher), backup(plain)
        )
        assert result.pairs[b"A"] == b"a"
        assert result.pairs[b"E"] == b"e"

    def test_chain_stops_at_divergence(self):
        plain = ["p"] * 3 + ["a", "b", "x1", "x2", "x3"]
        cipher = ["P"] * 3 + ["A", "B"]  # target truncated after B
        result = LocalityAttack(u=1, v=2, w=1000).run(
            backup(cipher), backup(plain)
        )
        assert result.pairs[b"B"] == b"b"
        assert len(result.pairs) == 3  # P, A, B and nothing else

    def test_known_plaintext_seeds_counted_and_propagated(self):
        plain = ["a", "b", "c", "d"]
        cipher = ["A", "B", "C", "D"]
        leaked = {b"B": b"b", b"Z": b"z"}  # Z is not in the target stream
        result = LocalityAttack(u=1, v=1, w=1000).run(
            backup(cipher), backup(plain), leaked_pairs=leaked
        )
        # All leaked pairs appear in T (they count toward the rate)...
        assert result.pairs[b"Z"] == b"z"
        # ...and in-stream seeds propagate to neighbors.
        assert result.pairs[b"A"] == b"a"
        assert result.pairs[b"C"] == b"c"
        assert result.pairs[b"D"] == b"d"

    def test_w_bounds_queue_not_result(self):
        # With w=1 the queue holds one pending pair, yet chains still
        # propagate one hop at a time.
        plain = ["p"] * 3 + list("abcdefgh")
        cipher = ["P"] * 3 + list("ABCDEFGH")
        result = LocalityAttack(u=1, v=2, w=1).run(
            backup(cipher), backup(plain)
        )
        assert result.pairs[b"A"] == b"a"

    def test_iterations_counted(self):
        plain = ["p", "p", "a"]
        cipher = ["P", "P", "A"]
        result = LocalityAttack(u=1, v=1, w=10).run(
            backup(cipher), backup(plain)
        )
        assert result.iterations >= 1


class TestAdvancedLocalityAttack:
    def test_equals_locality_on_fixed_size_chunks(self, tiny_vm_series):
        from repro.defenses.pipeline import DefensePipeline, DefenseScheme

        encrypted = DefensePipeline(DefenseScheme.MLE).encrypt_series(
            tiny_vm_series
        )
        cipher = encrypted.backups[-1].ciphertext
        plain = tiny_vm_series.backups[-2]
        locality = LocalityAttack(u=1, v=5, w=10_000).run(cipher, plain)
        advanced = AdvancedLocalityAttack(u=1, v=5, w=10_000).run(cipher, plain)
        assert locality.pairs == advanced.pairs

    def test_size_channel_disambiguates_frequency_ties(self):
        # Two tied chunk pairs, distinguishable only by size. Sizes are
        # chosen so plaintext n -> ciphertext (n//16+1)*16 matching works.
        plain = backup(
            ["p", "p", "small", "p", "p", "big"],
            sizes=[4096, 4096, 1000, 4096, 4096, 9000],
        )
        cipher = backup(
            ["P", "P", "BIG", "P", "P", "SMALL"],
            sizes=[4112, 4112, 9008, 4112, 4112, 1008],
        )
        result = AdvancedLocalityAttack(u=1, v=2, w=100).run(cipher, plain)
        assert result.pairs.get(b"SMALL") == b"small"
        assert result.pairs.get(b"BIG") == b"big"

    def test_seed_analysis_is_size_classified(self):
        # Top-frequency chunks of *different* sizes must not pair.
        plain = backup(["m"] * 5 + ["x"], sizes=[1000] * 5 + [2000])
        cipher = backup(["C"] * 5 + ["Y"], sizes=[9008] * 5 + [2016])
        result = AdvancedLocalityAttack(u=1, v=1, w=100).run(cipher, plain)
        assert result.pairs.get(b"C") != b"m"


# ---------------------------------------------------------------------------
# Id-space loop vs the paper-literal, fingerprint-keyed reference loop


def _cipher_fingerprint(token: int) -> bytes:
    # Unrelated to the plaintext order, like real ciphertext fingerprints,
    # so the fingerprint tie-break ranks the two sides differently.
    return hashlib.sha256(b"%d" % token).digest()[:6]


def _plain_fingerprint(token: int) -> bytes:
    return b"m%03d" % token


@st.composite
def attack_inputs(draw):
    alphabet = draw(st.integers(1, 10))
    token = st.integers(0, alphabet - 1)
    plain_tokens = draw(st.lists(token, max_size=50))
    target_tokens = list(plain_tokens)
    # Edits: overwrite positions (new tokens included), then append.
    for position, value in draw(
        st.lists(st.tuples(st.integers(0, 49), st.integers(0, alphabet + 3)),
                 max_size=8)
    ):
        if position < len(target_tokens):
            target_tokens[position] = value
    target_tokens += draw(st.lists(st.integers(0, alphabet + 3), max_size=10))
    sizes = {
        value: draw(st.sampled_from([100, 1000, 1010, 4096]))
        for value in range(alphabet + 4)
    }
    plain = Backup(
        label="aux",
        fingerprints=[_plain_fingerprint(t) for t in plain_tokens],
        sizes=[sizes[t] for t in plain_tokens],
    )
    cipher = Backup(
        label="target",
        fingerprints=[_cipher_fingerprint(t) for t in target_tokens],
        sizes=[(sizes[t] // 16 + 1) * 16 for t in target_tokens],
    )
    leaked = None
    if draw(st.booleans()):
        leaked = {
            _cipher_fingerprint(t): _plain_fingerprint(t)
            for t in draw(st.lists(st.integers(0, alphabet + 3), max_size=4))
        }
        if draw(st.booleans()):
            # A leaked pair outside both streams' vocabularies.
            leaked[b"outside-c"] = b"outside-m"
    return cipher, plain, leaked


def _stats_kinds():
    from repro.attacks.frequency import count_with_neighbors
    from repro.attacks.interning import InternedCount, interned_count
    from repro.attacks.streaming import streaming_count

    def interned_python(backup_):
        counter = InternedCount()
        counter.ingest_backup(backup_)
        return counter.stats()

    return {
        "ChunkStats": count_with_neighbors,
        "interned_count": interned_count,
        "InternedChunkStats": interned_python,
        "BackendChunkStats": lambda b: streaming_count(b, batch_size=7),
    }


class TestIdSpaceLoopMatchesReference:
    """Every stats kind through ``run_counted`` equals the reference loop
    over dict ``ChunkStats``: same pairs, same order, same iterations."""

    @settings(max_examples=150, deadline=None)
    @given(
        inputs=attack_inputs(),
        advanced=st.booleans(),
        tie_break=st.sampled_from(["insertion", "fingerprint"]),
        seed_tie_break=st.sampled_from(["insertion", "fingerprint"]),
        u=st.integers(1, 2),
        v=st.sampled_from([1, 2, 15]),
        w=st.sampled_from([1, 2, 10**6]),
    )
    def test_pairs_order_and_iterations(
        self, inputs, advanced, tie_break, seed_tie_break, u, v, w
    ):
        from repro.attacks.frequency import count_with_neighbors

        cipher, plain, leaked = inputs
        if advanced:
            attack = AdvancedLocalityAttack(u=u, v=v, w=w, tie_break=tie_break)
        else:
            attack = LocalityAttack(
                u=u, v=v, w=w, tie_break=tie_break,
                seed_tie_break=seed_tie_break,
            )
        expected = reference_run_counted(
            attack,
            count_with_neighbors(cipher),
            count_with_neighbors(plain),
            leaked,
        )
        for kind, count in _stats_kinds().items():
            result = attack.run_counted(count(cipher), count(plain), leaked)
            assert list(result.pairs.items()) == list(
                expected.pairs.items()
            ), kind
            assert result.iterations == expected.iterations, kind
            assert result.attack_name == expected.attack_name
