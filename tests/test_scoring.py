import numpy as np
import pytest

from helpers import recursive_levenshtein
from spikefst import DataFormatError, ValidationError, levenshtein, score_corpus
from spikefst.scoring import read_trans_file


class TestLevenshtein:
    def test_identity(self):
        assert levenshtein("abc", "abc") == (0, 0, 0, 0)

    def test_empty_hypothesis_is_all_deletions(self):
        assert levenshtein("abc", "") == (3, 0, 0, 3)

    def test_empty_reference_is_all_insertions(self):
        assert levenshtein("", "abcd") == (4, 0, 4, 0)

    def test_classic_pair(self):
        d, s, i, dl = levenshtein("kitten", "sitting")
        assert d == 3 and s + i + dl == 3

    def test_counts_always_consistent(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = "".join(rng.choice(list("abc"), size=rng.integers(0, 9)))
            b = "".join(rng.choice(list("abc"), size=rng.integers(0, 9)))
            d, s, i, dl = levenshtein(a, b)
            assert s + i + dl == d

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            strs = [
                "".join(rng.choice(list("abc"), size=rng.integers(0, 7)))
                for _ in range(3)
            ]
            a, b, c = strs
            assert levenshtein(a, b)[0] == levenshtein(b, a)[0]
            assert levenshtein(a, c)[0] <= levenshtein(a, b)[0] + levenshtein(b, c)[0]

    def test_matches_recursive_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            a = "".join(rng.choice(list("abc"), size=rng.integers(0, 9)))
            b = "".join(rng.choice(list("abc"), size=rng.integers(0, 9)))
            assert levenshtein(a, b)[0] == recursive_levenshtein(a, b)


class TestScoreCorpus:
    def test_perfect_hypotheses(self):
        report = score_corpus({"u1": "a b c"}, {"u1": "a b c"})
        assert report.rate == 0.0

    def test_one_error_in_hundred(self):
        ref = " ".join(f"w{i}" for i in range(100))
        hyp = ref.replace("w50", "x")
        report = score_corpus({"u": ref}, {"u": hyp})
        assert report.percent == pytest.approx(1.0)

    def test_pooled_not_mean_of_rates(self):
        refs = {"a": "x y", "b": " ".join(["z"] * 18)}
        hyps = {"a": "x q", "b": " ".join(["z"] * 18)}
        report = score_corpus(refs, hyps)
        # pooled: 1 edit / 20 tokens, not mean(0.5, 0.0)
        assert report.rate == pytest.approx(0.05)
        # hand-summed per-utterance numerators and denominators
        assert report.total_edits == sum(c.distance for c in report.per_utt.values())
        assert report.total_ref_len == 20

    def test_char_unit_ignores_spaces(self):
        report = score_corpus({"u": "ab cd"}, {"u": "abcd"}, unit="char")
        assert report.rate == 0.0

    def test_unknown_unit_rejected(self):
        with pytest.raises(ValidationError, match="scoring unit must be 'word' or 'char'"):
            score_corpus({"u": "a"}, {"u": "a"}, unit="phone")

    def test_id_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="mismatch"):
            score_corpus({"a": "x"}, {"b": "x"})

    def test_edits_bounded_by_longer_string(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            ref = " ".join(rng.choice(list("lmn"), size=rng.integers(0, 8)))
            hyp = " ".join(rng.choice(list("lmn"), size=rng.integers(0, 8)))
            report = score_corpus({"u": ref}, {"u": hyp})
            c = report.per_utt["u"]
            assert c.distance <= max(c.ref_len, len(hyp.split()))


class TestTransFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "refs.txt"
        path.write_text("utt1\tka se\nutt2\tmu\n")
        assert read_trans_file(path) == {"utt1": "ka se", "utt2": "mu"}

    def test_id_only_line_is_empty_transcript(self, tmp_path):
        path = tmp_path / "refs.txt"
        path.write_text("utt1\n")
        assert read_trans_file(path) == {"utt1": ""}

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "refs.txt"
        path.write_text("utt1\tka se\n\n   \nutt2\tmu\n")
        assert read_trans_file(path) == {"utt1": "ka se", "utt2": "mu"}

    def test_empty_utterance_id_names_line(self, tmp_path):
        path = tmp_path / "refs.txt"
        path.write_text("utt1\tka se\n\tmu\n")
        with pytest.raises(DataFormatError, match=r"refs\.txt: line 2: empty utterance id"):
            read_trans_file(path)

    def test_repeated_utterance_id_names_line(self, tmp_path):
        path = tmp_path / "refs.txt"
        path.write_text("utt1\tka se\nutt2\tmu\nutt1 ka\n")
        with pytest.raises(DataFormatError, match=r"refs\.txt: line 3: utterance id 'utt1' repeated"):
            read_trans_file(path)
