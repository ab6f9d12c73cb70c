"""Fuzzy matching and OCR repair."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.nlp.fuzzy as fuzzy
from repro.nlp.fuzzy import (
    edit_distance,
    fuzzy_prefix_match,
    normalize_for_match,
    ocr_fold,
    repair_ocr_text,
    similarity_ratio,
)

short_text = st.text(alphabet="abcdef 123", max_size=12)


def _reference_edit_distance(a, b, cutoff=None):
    """The textbook O(len(a) * len(b)) Levenshtein DP: the oracle the
    bit-parallel kernel is checked against.  Its row-minimum early exit
    only fires on some inputs, so past ``cutoff`` it returns either
    ``cutoff + 1`` or the exact distance."""
    if a == b:
        return 0
    if len(a) > len(b):
        a, b = b, a
    if cutoff is not None and len(b) - len(a) > cutoff:
        return cutoff + 1
    previous = list(range(len(a) + 1))
    for j, cb in enumerate(b, start=1):
        current = [j]
        best = j
        for i, ca in enumerate(a, start=1):
            cost = 0 if ca == cb else 1
            value = min(previous[i] + 1, current[i - 1] + 1, previous[i - 1] + cost)
            current.append(value)
            best = min(best, value)
        if cutoff is not None and best > cutoff:
            return cutoff + 1
        previous = current
    return previous[-1]


#: Characters the differential tests draw from: ASCII letters, digits,
#: space, and non-ASCII (accented, Greek, CJK, astral).
_POOL = "abcdefxyz0125 éüΩλ中文\U0001F600"


@st.composite
def _mixed_text(draw):
    """A string of length 0-150 over a random sub-alphabet of
    :data:`_POOL`, so the two sides of a pair often hold characters the
    other lacks, and lengths cross one and two 64-bit words."""
    alphabet = draw(st.text(alphabet=_POOL, min_size=1, max_size=6))
    length = draw(st.integers(min_value=0, max_value=150))
    return draw(st.text(alphabet=alphabet, min_size=length, max_size=length))


class TestEditDistance:
    def test_identical(self):
        assert edit_distance("abc", "abc") == 0

    def test_substitution(self):
        assert edit_distance("abc", "axc") == 1

    def test_insertion(self):
        assert edit_distance("abc", "abxc") == 1

    def test_deletion(self):
        assert edit_distance("abc", "ac") == 1

    def test_cutoff_early_exit(self):
        assert edit_distance("aaaa", "bbbb", cutoff=2) == 3  # cutoff + 1

    def test_cutoff_caps_when_row_minimum_never_exceeds_it(self):
        """The DP's row-minimum exit never fires on this pair, so it
        returned the exact distance 7; the contract is ``cutoff + 1``."""
        a, b = "bc0b0ced1c1e", "ac0d0bace01c"
        assert _reference_edit_distance(a, b, 5) == 7
        assert edit_distance(a, b) == 7
        assert edit_distance(a, b, 5) == 6

    @pytest.mark.parametrize("length", [1, 31, 32, 63, 64, 65, 127, 128, 129, 150])
    def test_word_boundaries_match_reference(self, length):
        """Shorter strings of one, two and three 64-bit words."""
        rng = random.Random(length)
        for _ in range(5):
            a = "".join(rng.choice("abc d") for _ in range(length))
            b = "".join(rng.choice("abcd e") for _ in range(length + rng.randint(0, 20)))
            assert edit_distance(a, b) == _reference_edit_distance(a, b)
            assert edit_distance(b, a) == _reference_edit_distance(a, b)

    @settings(max_examples=150, deadline=None)
    @given(_mixed_text(), _mixed_text())
    def test_matches_reference(self, a, b):
        assert edit_distance(a, b) == _reference_edit_distance(a, b)

    @settings(max_examples=150, deadline=None)
    @given(_mixed_text(), _mixed_text(), st.integers(min_value=0, max_value=8))
    def test_matches_reference_with_cutoff(self, a, b, cutoff):
        assert edit_distance(a, b, cutoff) == min(_reference_edit_distance(a, b), cutoff + 1)

    @given(short_text, short_text)
    def test_symmetry(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)

    @given(short_text, short_text, short_text)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    @given(short_text, short_text)
    def test_bounded_by_longer_length(self, a, b):
        assert edit_distance(a, b) <= max(len(a), len(b))


class TestSimilarityRatio:
    def test_identical(self):
        assert similarity_ratio("abc", "abc") == 1.0

    def test_empty(self):
        assert similarity_ratio("", "") == 1.0

    def test_single_edit(self):
        assert similarity_ratio("abcd", "abce") == 0.75

    @settings(max_examples=100, deadline=None)
    @given(_mixed_text(), _mixed_text())
    def test_bit_identical_to_reference(self, a, b):
        fast = similarity_ratio(a, b)
        with mock.patch.object(fuzzy, "edit_distance", _reference_edit_distance):
            reference = similarity_ratio(a, b)
        assert fast.hex() == reference.hex()


class TestNormalize:
    def test_strips_punctuation_and_case(self):
        assert normalize_for_match("Wages, Salaries & Tips!") == "wages salaries tips"


class TestOcrFold:
    def test_digit_letter_classes(self):
        assert ocr_fold("l2") == ocr_fold("12")
        assert ocr_fold("O0") == ocr_fold("00")

    def test_distinct_tokens_stay_distinct(self):
        assert ocr_fold("12") != ocr_fold("13")


class TestFuzzyPrefix:
    def test_exact_prefix(self):
        assert fuzzy_prefix_match("wages paid 123", "wages paid") == len("wages paid")

    def test_noisy_prefix(self):
        assert fuzzy_prefix_match("wagcs paid 123", "wages paid") is not None

    def test_rejects_different(self):
        assert fuzzy_prefix_match("total income 50", "wages paid") is None

    def test_empty_prefix(self):
        assert fuzzy_prefix_match("anything", "") is None


class TestRepair:
    def test_digits_in_word_become_letters(self):
        assert repair_ocr_text("Po5ter") == "Poster"

    def test_letters_in_number_become_digits(self):
        assert repair_ocr_text("2l3,893") == "213,893"

    def test_inner_caps_relax(self):
        assert repair_ocr_text("ScreEning") == "Screening"

    def test_acronyms_survive(self):
        assert repair_ocr_text("NASA") == "NASA"

    def test_clean_text_unchanged(self):
        text = "Hosted by the Acme Society at 7:30 pm"
        assert repair_ocr_text(text) == text

    @given(st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126), max_size=40))
    def test_length_preserved(self, text):
        """Spans computed on repaired text must stay valid offsets."""
        assert len(repair_ocr_text(text)) == len(text)


class TestD1PipelineEquivalence:
    """Face identification and descriptor-span choice on seeded D1 forms
    are the same under the bit-parallel kernel as under the reference
    DP: identical extractions and identical ``select.decision`` events."""

    @staticmethod
    def _run(docs):
        from repro.core.pipeline import VS2Pipeline
        from repro.trace import Tracer, collect_events

        tracer = Tracer()
        pipeline = VS2Pipeline("D1", tracer=tracer)
        extractions = [pipeline.run(doc).extractions for doc in docs]
        decisions = [
            (path, event.attrs)
            for path, event in collect_events(tracer.drain(), "select.decision")
        ]
        return extractions, decisions

    def test_extractions_and_decisions_identical(self):
        from repro.synth import generate_corpus

        docs = list(generate_corpus("D1", n=4, seed=11))
        fast = self._run(docs)
        with mock.patch.object(fuzzy, "edit_distance", _reference_edit_distance):
            reference = self._run(docs)
        extractions, decisions = fast
        assert all(extractions), "every form must yield form-field extractions"
        assert any(attrs["matched"] for _, attrs in decisions)
        assert fast == reference


class TestCallCountIsHashSeedFree:
    """The number of ``edit_distance`` calls on D2/D3 documents is a
    fixed count: fuzzy loops iterate sorted sequences, never sets whose
    order follows ``PYTHONHASHSEED``.  The call count is a benchmark
    layer metric, so it must not change between processes."""

    SCRIPT = (
        "import repro.nlp.fuzzy as fuzzy\n"
        "from repro.core.pipeline import VS2Pipeline\n"
        "from repro.synth import generate_corpus\n"
        "calls = [0]\n"
        "inner = fuzzy.edit_distance\n"
        "def counting(*args, **kwargs):\n"
        "    calls[0] += 1\n"
        "    return inner(*args, **kwargs)\n"
        "fuzzy.edit_distance = counting\n"
        "for dataset in ('D2', 'D3'):\n"
        "    pipeline = VS2Pipeline(dataset, cache=None)\n"
        "    for doc in generate_corpus(dataset, 4, 0):\n"
        "        pipeline.run(doc)\n"
        "print(calls[0])\n"
    )

    def test_counts_agree_across_hash_seeds(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        counts = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(root / "src"))
            proc = subprocess.run(
                [sys.executable, "-c", self.SCRIPT],
                cwd=root, env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            counts.append(int(proc.stdout))
        assert counts[0] > 0
        assert counts[0] == counts[1]
