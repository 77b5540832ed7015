import struct
import sys

import numpy as np
import pytest

from helpers import collapse_oracle, compress_oracle, koo_select_oracle, segment_blocks_oracle
from spikefst import (
    CUSTOM_BLANK,
    CompressConfig,
    CompressedPosteriors,
    DataFormatError,
    LabelSequence,
    PosteriorMatrix,
    SynthConfig,
    ValidationError,
    argmax_labels,
    compress,
    custom_blank,
    koo_select,
    load_posteriors,
    save_posteriors,
    segment_blocks,
    synth_posteriors,
)
from spikefst.compress import MODES


def matrix_from_argmax(pattern, vocab=4, peak=0.7):
    """Rows whose argmax follows *pattern*, residual spread uniformly."""
    rows = []
    for tok in pattern:
        row = np.full(vocab, (1.0 - peak) / (vocab - 1))
        row[tok] = peak
        rows.append(row)
    return PosteriorMatrix(np.array(rows) if rows else np.empty((0, vocab)))


BLK, A, B = 0, 1, 2


class TestSegmentBlocks:
    def runs(self, pattern):
        tokens, starts, ends = segment_blocks(np.array(pattern, dtype=np.intp))
        return [(int(t), int(s), int(e)) for t, s, e in zip(tokens, starts, ends)]

    def test_mixed_runs(self):
        labels = argmax_labels(matrix_from_argmax([BLK, A, A, BLK, BLK, B]))
        tokens, starts, ends = segment_blocks(labels)
        assert tokens.tolist() == [BLK, A, BLK, B]
        assert starts.tolist() == [0, 1, 3, 5]
        assert ends.tolist() == [1, 3, 5, 6]

    def test_matches_run_length_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(25):
            pattern = [int(rng.integers(0, 4)) for _ in range(int(rng.integers(0, 40)))]
            runs = self.runs(pattern)
            # brute-force scan oracle
            expected = []
            for t, tok in enumerate(pattern):
                if expected and expected[-1][0] == tok:
                    expected[-1][2] = t + 1
                else:
                    expected.append([tok, t, t + 1])
            assert [list(r) for r in runs] == expected
            # the runs tile [0, T) with no gaps, and adjacent runs differ
            assert [s for _, s, _ in runs] + [len(pattern)] == [0] + [e for _, _, e in runs]
            assert all(prev[0] != cur[0] for prev, cur in zip(runs, runs[1:]))

    def test_all_blank_single_block(self):
        assert self.runs([BLK] * 5) == [(BLK, 0, 5)]

    def test_separated_repeats_not_merged(self):
        assert [tok for tok, _, _ in self.runs([A, BLK, A])] == [A, BLK, A]

    def test_empty_input(self):
        tokens, starts, ends = segment_blocks(np.empty(0, dtype=np.intp))
        assert tokens.size == starts.size == ends.size == 0


class TestCustomBlank:
    def test_vocab_four(self):
        np.testing.assert_array_equal(custom_blank(4), [1.0, 0.0, 0.0, 0.0])

    def test_smallest_vocab(self):
        np.testing.assert_array_equal(custom_blank(2), [1.0, 0.0])

    def test_sums_to_one_exactly(self):
        assert custom_blank(17).sum() == 1.0


class TestKooSelect:
    def run(self, probs, token=A, start=10):
        """A matrix whose frames [start, start + len(probs)) form one run of
        *token* with the given peak probabilities, after *start* blank frames."""
        vocab = 4
        rows = [custom_blank(vocab)] * start
        for p in probs:
            row = np.full(vocab, (1.0 - p) / (vocab - 1))
            row[token] = p
            rows.append(row)
        p = PosteriorMatrix(np.array(rows))
        return p, np.array([token]), np.array([start]), np.array([start + len(probs)])

    def test_max_and_min(self):
        run = self.run([0.6, 0.9, 0.7])
        assert koo_select(*run, "max").tolist() == [11]
        assert koo_select(*run, "min").tolist() == [10]

    def test_singleton(self):
        run = self.run([0.8])
        assert koo_select(*run, "max").tolist() == koo_select(*run, "min").tolist() == [10]

    def test_tie_goes_earliest(self):
        run = self.run([0.8, 0.8])
        assert koo_select(*run, "max").tolist() == [10]
        assert koo_select(*run, "min").tolist() == [10]

    def test_exhaustive_scan_agreement(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            # several runs per matrix; two decimals make equal peaks common
            pattern = [int(rng.integers(0, 4)) for _ in range(int(rng.integers(0, 30)))]
            peaks = rng.uniform(0.5, 0.99, size=len(pattern)).round(2)
            rows = []
            for tok, peak in zip(pattern, peaks):
                row = np.full(4, (1.0 - peak) / 3)
                row[tok] = peak
                rows.append(row)
            p = PosteriorMatrix(np.array(rows).reshape(len(rows), 4))
            tokens, starts, ends = segment_blocks(argmax_labels(p))
            got_max = koo_select(p, tokens, starts, ends, "max").tolist()
            got_min = koo_select(p, tokens, starts, ends, "min").tolist()
            for i, (tok, s, e) in enumerate(zip(tokens, starts, ends)):
                probs = [p.values[f, tok] for f in range(s, e)]
                assert got_max[i] == s + probs.index(max(probs))
                assert got_min[i] == s + probs.index(min(probs))

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValidationError, match="unknown strategy"):
            koo_select(*self.run([0.9]), "median")


def is_custom_blank(row):
    return row[0] == 1.0 and np.all(row[1:] == 0.0)


class TestCompressCtc:
    PATTERN = [BLK, A, A, BLK, BLK, B]

    def test_all_blank_collapses_to_single_row(self):
        p = matrix_from_argmax([BLK] * 9)
        c = compress(p, CompressConfig(mode="ioo_koo"))
        assert c.frames == 1 and c.nonblank_count == 0
        assert is_custom_blank(c.values[0])
        assert c.source_map == (CUSTOM_BLANK,)

    def test_ioo_koo_max_hand_trace(self):
        p = matrix_from_argmax(self.PATTERN)
        c = compress(p, CompressConfig(mode="ioo_koo", koo_strategy="max"))
        # [custom blank, best A frame, custom blank, B frame]
        assert c.frames == 4 and c.nonblank_count == 2
        assert [is_custom_blank(r) for r in c.values] == [True, False, True, False]
        assert c.source_map[0] == CUSTOM_BLANK
        assert c.source_map[1] in (1, 2)
        assert c.source_map[2] == CUSTOM_BLANK
        assert c.source_map[3] == 5
        # the selected A frame matches a brute scan over the block
        a_probs = p.values[1:3, A]
        assert c.source_map[1] == 1 + int(np.argmax(a_probs))

    def test_ioo_keeps_all_spike_frames(self):
        p = matrix_from_argmax(self.PATTERN)
        c = compress(p, CompressConfig(mode="ioo"))
        assert c.frames == 5
        assert c.source_map == (CUSTOM_BLANK, 1, 2, CUSTOM_BLANK, 5)
        np.testing.assert_array_equal(c.values[1], p.values[1])
        np.testing.assert_array_equal(c.values[2], p.values[2])

    def test_two_blanks_per_region_doubles_everywhere(self):
        p = matrix_from_argmax(self.PATTERN)
        c = compress(p, CompressConfig(mode="ioo_koo", blanks_per_region=2))
        assert [is_custom_blank(r) for r in c.values] == [
            True, True, False, True, True, False,
        ]
        assert c.source_map[:2] == (CUSTOM_BLANK, CUSTOM_BLANK)

    def test_empty_input_single_custom_blank(self):
        p = matrix_from_argmax([])
        c = compress(p, CompressConfig(mode="ioo_koo"))
        assert c.frames == 1 and is_custom_blank(c.values[0])

    def test_leading_nonblank_still_gets_opening_blank(self):
        p = matrix_from_argmax([A, BLK, B])
        c = compress(p, CompressConfig(mode="ioo_koo"))
        assert c.source_map == (CUSTOM_BLANK, 0, CUSTOM_BLANK, 2)

    def test_length_bound_random(self):
        rng = np.random.default_rng(12)
        for trial in range(60):
            v = int(rng.integers(3, 12))
            labels = tuple(int(rng.integers(1, v)) for _ in range(int(rng.integers(0, 15))))
            cfg = SynthConfig(vocab_size=v, spike_len=(1, 3), blank_run=(0, 5),
                              peak=0.9, noise=0.05)
            p = synth_posteriors(LabelSequence(labels), cfg, seed=trial)
            for mode in ("ioo", "ioo_koo"):
                c = compress(p, CompressConfig(mode=mode))
                assert c.frames <= 2 * c.nonblank_count + 1

    def test_collapse_preserved(self):
        rng = np.random.default_rng(13)
        for trial in range(30):
            v = int(rng.integers(3, 10))
            labels = tuple(int(rng.integers(1, v)) for _ in range(int(rng.integers(0, 10))))
            cfg = SynthConfig(vocab_size=v, spike_len=(1, 3), blank_run=(0, 4),
                              peak=0.85, noise=0.05)
            p = synth_posteriors(LabelSequence(labels), cfg, seed=trial)
            before = collapse_oracle(argmax_labels(p))
            for mode in ("ioo", "ioo_koo"):
                c = compress(p, CompressConfig(mode=mode))
                after = collapse_oracle(np.argmax(c.values, axis=1))
                assert after == before

    def test_custom_blank_rows_are_exact(self):
        rng = np.random.default_rng(14)
        p = synth_posteriors(
            LabelSequence((1, 2, 1)),
            SynthConfig(vocab_size=5, noise=0.1, peak=0.9),
            seed=3,
        )
        c = compress(p, CompressConfig(mode="ioo"))
        for row, src in zip(c.values, c.source_map):
            if src == CUSTOM_BLANK:
                np.testing.assert_array_equal(row, custom_blank(5))
            else:
                np.testing.assert_array_equal(row, p.values[src])

    def test_ioo_nb_all_rewrites_every_frame(self):
        p = matrix_from_argmax(self.PATTERN, peak=0.7)
        c = compress(p, CompressConfig(mode="ioo_nb", nb_onehot="all"))
        assert c.frames == 5
        for row, src in zip(c.values, c.source_map):
            if src != CUSTOM_BLANK:
                assert row.max() == 1.0  # rewritten to one-hot

    def test_ioo_nb_threshold_gates_rewrites(self):
        p = matrix_from_argmax(self.PATTERN, peak=0.7)
        c = compress(
            p, CompressConfig(mode="ioo_nb", nb_onehot="all", nb_threshold=0.9)
        )
        for row, src in zip(c.values, c.source_map):
            if src != CUSTOM_BLANK:
                np.testing.assert_array_equal(row, p.values[src])  # kept verbatim

    def test_ioo_nb_max_keeps_one_onehot_per_block(self):
        p = matrix_from_argmax(self.PATTERN, peak=0.7)
        c = compress(p, CompressConfig(mode="ioo_nb", nb_onehot="max"))
        assert c.frames == 4 and c.nonblank_count == 2
        assert c.values[1].max() == 1.0 and c.values[3].max() == 1.0


class TestCompressAed:
    def test_two_rows_make_five(self):
        p = matrix_from_argmax([A, B])
        c = compress(p, CompressConfig(mode="aed_ioo"))
        assert c.frames == 5
        assert [is_custom_blank(r) for r in c.values] == [True, False, True, False, True]

    def test_empty_input_single_blank(self):
        c = compress(matrix_from_argmax([]), CompressConfig(mode="aed_ioo"))
        assert c.frames == 1 and is_custom_blank(c.values[0])

    def test_source_map_alternates(self):
        c = compress(matrix_from_argmax([A, B, A]), CompressConfig(mode="aed_ioo"))
        assert c.source_map == (CUSTOM_BLANK, 0, CUSTOM_BLANK, 1, CUSTOM_BLANK, 2, CUSTOM_BLANK)

    def test_length_always_odd(self):
        rng = np.random.default_rng(2)
        for t in (0, 1, 7, 33):
            p = PosteriorMatrix(rng.dirichlet(np.ones(6), size=t))
            assert compress(p, CompressConfig(mode="aed_ioo")).frames == 2 * t + 1


class TestBaselines:
    def test_discard_definition(self):
        p = matrix_from_argmax([BLK, A, BLK, B])
        c = compress(p, CompressConfig(mode="discard"))
        assert c.source_map == (1, 3)

    def test_discard_all_blank_empty(self):
        c = compress(matrix_from_argmax([BLK] * 4), CompressConfig(mode="discard"))
        assert c.frames == 0

    def test_discard_matches_filter_oracle(self):
        rng = np.random.default_rng(3)
        pattern = [int(rng.integers(0, 3)) for _ in range(50)]
        p = matrix_from_argmax(pattern)
        c = compress(p, CompressConfig(mode="discard"))
        assert list(c.source_map) == [t for t, tok in enumerate(pattern) if tok != BLK]

    def test_average_arithmetic_mean(self):
        p = PosteriorMatrix(np.array([[1.0, 0.0], [0.8, 0.2]]))
        c = compress(p, CompressConfig(mode="average"))
        assert c.frames == 1
        np.testing.assert_allclose(c.values[0], [0.9, 0.1])

    def test_average_single_frame_run_unchanged(self):
        p = matrix_from_argmax([BLK, A])
        c = compress(p, CompressConfig(mode="average"))
        np.testing.assert_array_equal(c.values[0], p.values[0])

    def test_average_rows_stay_stochastic(self):
        rng = np.random.default_rng(8)
        p = synth_posteriors(
            LabelSequence((1, 2)), SynthConfig(vocab_size=4, noise=0.2, peak=0.8), 1
        )
        c = compress(p, CompressConfig(mode="average"))
        np.testing.assert_allclose(c.values.sum(axis=1), 1.0, atol=1e-6)

    def test_lsd_drops_confident_blanks(self):
        p = PosteriorMatrix(np.array([[0.995, 0.005], [0.5, 0.5]]))
        c = compress(p, CompressConfig(mode="lsd", lsd_threshold=0.99))
        assert c.source_map == (1,)

    def test_lsd_threshold_one_drops_exact_ones(self):
        p = PosteriorMatrix(np.array([[1.0, 0.0], [0.9, 0.1]]))
        c = compress(p, CompressConfig(mode="lsd", lsd_threshold=1.0))
        assert c.source_map == (1,)

    def test_lsd_threshold_zero_empties(self):
        p = matrix_from_argmax([A, B])
        assert compress(p, CompressConfig(mode="lsd", lsd_threshold=0.0)).frames == 0

    def test_lsd_rejects_bad_threshold(self):
        with pytest.raises(ValidationError):
            CompressConfig(mode="lsd", lsd_threshold=1.5)

    @pytest.mark.parametrize("field, value, match", [
        ("mode", "foo", "unknown compression mode 'foo'"),
        ("koo_strategy", "median", "koo_strategy must be 'max' or 'min'"),
        ("blanks_per_region", 3, "blanks_per_region must be 1 or 2"),
        ("nb_onehot", "off", "nb_onehot must be all|max"),
        ("nb_threshold", 1.5, r"nb_threshold must lie in \[0, 1\]"),
        ("swd_window", -1, "swd_window must be >= 0"),
    ])
    def test_config_rejects_a_bad_field(self, field, value, match):
        with pytest.raises(ValidationError, match=match):
            CompressConfig(**{field: value})

    def test_swd_window_one(self):
        p = matrix_from_argmax([BLK, BLK, A, BLK, BLK])
        c = compress(p, CompressConfig(mode="swd", swd_window=1))
        assert c.source_map == (1, 2, 3)

    def test_swd_window_zero_equals_discard(self):
        rng = np.random.default_rng(6)
        pattern = [int(rng.integers(0, 3)) for _ in range(60)]
        p = matrix_from_argmax(pattern)
        swd = compress(p, CompressConfig(mode="swd", swd_window=0))
        assert swd.source_map == compress(p, CompressConfig(mode="discard")).source_map

    def test_swd_overlapping_windows_dedup(self):
        p = matrix_from_argmax([A, BLK, B, BLK])
        c = compress(p, CompressConfig(mode="swd", swd_window=1))
        # union oracle over {t-1..t+1}
        expected = sorted({0, 1} | {1, 2, 3})
        assert list(c.source_map) == expected

    def test_swd_set_union_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            pattern = [int(rng.integers(0, 3)) for _ in range(30)]
            w = int(rng.integers(0, 4))
            p = matrix_from_argmax(pattern)
            keep = set()
            for t, tok in enumerate(pattern):
                if tok != BLK:
                    keep |= set(range(max(0, t - w), min(len(pattern), t + w + 1)))
            swd = compress(p, CompressConfig(mode="swd", swd_window=w))
            assert list(swd.source_map) == sorted(keep)


def rewrite_map(path, frames=None, count=None):
    """Patch the source map or the content count of the version-2 file at
    *path*: *frames* replaces every byte after the count."""
    raw = bytearray(path.read_bytes())
    _, _, rows, vocab = struct.unpack_from("<4sIII", raw)
    end = 16 + 4 * rows * vocab
    if count is not None:
        struct.pack_into("<I", raw, end, count)
    if frames is not None:
        raw[end + 4:] = np.asarray(frames, dtype="<i4").tobytes()
    path.write_bytes(bytes(raw))


class TestSerialization:
    def test_round_trip_with_sidecar(self, tmp_path):
        # the source map rides in the matrix's own file: no sidecar is written
        p = synth_posteriors(
            LabelSequence((1, 2, 1)),
            SynthConfig(vocab_size=5, noise=0.1, peak=0.9),
            seed=21,
        )
        c = compress(p, CompressConfig(mode="ioo_koo"))
        path = tmp_path / "utt.spkf"
        save_posteriors(c, path)
        assert [f.name for f in tmp_path.iterdir()] == ["utt.spkf"]
        back = load_posteriors(path)
        assert type(back) is CompressedPosteriors
        assert back.source_map == c.source_map
        assert back.nonblank_count == c.nonblank_count
        np.testing.assert_allclose(back.values, c.values, atol=1e-7)

    def test_without_sidecar_degrades_to_plain_matrix(self, tmp_path):
        # a plain matrix is version 1; version 2 adds only the version and the map
        c = compress(matrix_from_argmax([BLK, A, B]), CompressConfig(mode="ioo_koo"))
        save_posteriors(c, tmp_path / "v2.spkf")
        save_posteriors(PosteriorMatrix(c.values), tmp_path / "v1.spkf")
        back = load_posteriors(tmp_path / "v1.spkf")
        assert type(back) is PosteriorMatrix
        np.testing.assert_array_equal(back.values, load_posteriors(tmp_path / "v2.spkf").values)
        v1, v2 = (tmp_path / "v1.spkf").read_bytes(), (tmp_path / "v2.spkf").read_bytes()
        assert struct.unpack_from("<I", v1, 4) == (1,) and struct.unpack_from("<I", v2, 4) == (2,)
        assert v2[:4] + v2[8:len(v1)] == v1[:4] + v1[8:]
        assert c.source_map == (CUSTOM_BLANK, 1, 2)
        assert v2[len(v1):] == struct.pack("<I3i", 2, CUSTOM_BLANK, 1, 2)

    @pytest.mark.parametrize("mode", MODES)
    def test_round_trip_keeps_source_map_and_content_count(self, tmp_path, mode):
        p = matrix_from_argmax([BLK, A, A, BLK, BLK, B, BLK, A])
        c = compress(p, CompressConfig(mode=mode))
        save_posteriors(c, tmp_path / "utt.spkf")
        back = load_posteriors(tmp_path / "utt.spkf")
        assert back.source_map == c.source_map
        assert back.nonblank_count == c.nonblank_count

    def test_aed_content_count_survives_round_trip(self, tmp_path):
        # Content rows are the source frames, blank-argmax or not, which
        # the argmax cannot tell, so a file without its count is refused
        # rather than given a count rebuilt from the argmax (1).
        c = compress(PosteriorMatrix(np.array([[0.6, 0.4], [0.3, 0.7]])),
                     CompressConfig(mode="aed_ioo"))
        assert c.nonblank_count == 2
        path = tmp_path / "utt.spkf"
        save_posteriors(c, path)
        raw = path.read_bytes()
        end = 16 + 4 * c.frames * c.vocab_size
        assert struct.unpack_from("<I", raw, end) == (2,)
        assert load_posteriors(path).nonblank_count == 2
        path.write_bytes(raw[:end] + raw[end + 4:])
        with pytest.raises(DataFormatError, match=r"utt\.spkf: truncated payload"):
            load_posteriors(path)

    @pytest.mark.parametrize("count", [5, 6, 2**32 - 1])
    def test_count_above_the_rows_is_a_data_error(self, tmp_path, count):
        c = compress(matrix_from_argmax([BLK, A, BLK, B, BLK]), CompressConfig(mode="ioo_koo"))
        assert c.frames == 5
        path = tmp_path / "utt.spkf"
        save_posteriors(c, path)
        rewrite_map(path, count=count)
        if count == c.frames:  # every row may count
            assert load_posteriors(path).nonblank_count == 5
            return
        with pytest.raises(DataFormatError, match=rf"utt\.spkf: {count} content rows but only 5"):
            load_posteriors(path)

    @pytest.mark.parametrize("row", ["-7", "-1", "+7", "-2", str(-2**31)])
    def test_signed_frame_is_a_data_error(self, tmp_path, row):
        c = compress(matrix_from_argmax([BLK, A, BLK, B]), CompressConfig(mode="ioo_koo"))
        assert c.source_map == (CUSTOM_BLANK, 1, CUSTOM_BLANK, 3)
        path = tmp_path / "utt.spkf"
        save_posteriors(c, path)
        rewrite_map(path, frames=[CUSTOM_BLANK, int(row), CUSTOM_BLANK, 3])
        if row == "-1":
            where = "row 1: marked -1 but its values are not the inserted blank"
        elif row == "+7":
            where = "row 3: source frames must strictly increase, got 3 after 7"
        else:
            where = f"row 1: source frame {row} is below -1"
        with pytest.raises(DataFormatError, match=rf"utt\.spkf: {where}"):
            load_posteriors(path)

    @pytest.mark.parametrize("rows, bad", [
        ([CUSTOM_BLANK, 999, CUSTOM_BLANK, 0, CUSTOM_BLANK], r"row 3: .*got 0 after 999"),
        ([CUSTOM_BLANK, 1, CUSTOM_BLANK, 1, CUSTOM_BLANK], r"row 3: .*got 1 after 1"),
    ])
    def test_frames_not_increasing_are_a_data_error(self, tmp_path, rows, bad):
        c = compress(matrix_from_argmax([BLK, A, BLK, B, BLK]), CompressConfig(mode="ioo_koo"))
        assert c.source_map == (CUSTOM_BLANK, 1, CUSTOM_BLANK, 3, CUSTOM_BLANK)
        path = tmp_path / "utt.spkf"
        save_posteriors(c, path)
        rewrite_map(path, frames=rows)
        with pytest.raises(DataFormatError, match=rf"utt\.spkf: {bad}"):
            load_posteriors(path)

    @pytest.mark.parametrize("rows", [[CUSTOM_BLANK, 1, CUSTOM_BLANK, 3],
                                      [CUSTOM_BLANK, 1, CUSTOM_BLANK, 3, CUSTOM_BLANK, 7]])
    def test_row_count_must_match_the_matrix(self, tmp_path, rows):
        c = compress(matrix_from_argmax([BLK, A, BLK, B, BLK]), CompressConfig(mode="ioo_koo"))
        path = tmp_path / "utt.spkf"
        save_posteriors(c, path)
        rewrite_map(path, frames=rows)
        bad = "truncated payload" if len(rows) < 5 else "4 trailing bytes after payload"
        with pytest.raises(DataFormatError, match=rf"utt\.spkf: {bad}"):
            load_posteriors(path)

    def test_trailing_byte_after_the_map_is_a_data_error(self, tmp_path):
        c = compress(matrix_from_argmax([BLK, A, BLK, B]), CompressConfig(mode="ioo_koo"))
        path = tmp_path / "utt.spkf"
        save_posteriors(c, path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(DataFormatError, match=r"utt\.spkf: 1 trailing bytes after payload"):
            load_posteriors(path)

    def test_blank_mark_on_a_content_row_is_a_data_error(self, tmp_path):
        c = compress(matrix_from_argmax([BLK, A, BLK, B]), CompressConfig(mode="ioo_koo"))
        assert c.source_map == (CUSTOM_BLANK, 1, CUSTOM_BLANK, 3)
        path = tmp_path / "utt.spkf"
        save_posteriors(c, path)
        rewrite_map(path, frames=[CUSTOM_BLANK, 1, CUSTOM_BLANK, CUSTOM_BLANK])
        with pytest.raises(DataFormatError, match=r"utt\.spkf: row 3: marked -1 but its values"):
            load_posteriors(path)


class TestDispatcher:
    def test_dense_is_identity(self):
        p = matrix_from_argmax([BLK, A, B])
        c = compress(p, CompressConfig(mode="dense"))
        np.testing.assert_array_equal(c.values, p.values)
        assert c.source_map == (0, 1, 2)

    @pytest.mark.parametrize("rows, match", [
        ([[np.nan, 0.5], [1.5, -0.5]], "non-finite"),
        ([[1.5, -0.5]], r"lie in \[0, 1\]"),
        ([[0.5, 0.4]], "row 0 sums to"),
    ])
    def test_compressed_rows_checked_like_posterior_matrix(self, rows, match):
        with pytest.raises(ValidationError, match=match):
            CompressedPosteriors(np.array(rows), tuple(range(len(rows))), 1)
        with pytest.raises(ValidationError, match=match):
            PosteriorMatrix(np.array(rows))

    def test_nb_onehot_is_all_or_max(self):
        assert CompressConfig(mode="ioo_nb").label() == "ioo_nb/all"
        with pytest.raises(ValidationError, match=r"all\|max"):
            CompressConfig(mode="ioo_nb", nb_onehot="off")

    def test_argmax_labels_is_taken_once_per_call(self, monkeypatch):
        # the package's name ``compress`` is the function, not the module
        compress_module = sys.modules["spikefst.compress"]
        calls = []

        def counted(p):
            calls.append(p)
            return argmax_labels(p)

        monkeypatch.setattr(compress_module, "argmax_labels", counted)
        p = matrix_from_argmax([BLK, A, A, BLK, BLK, B, BLK, A])
        for mode in MODES:
            calls.clear()
            compress(p, CompressConfig(mode=mode))
            assert calls == [p], mode

    def test_all_modes_deterministic(self):
        p = synth_posteriors(
            LabelSequence((1, 2, 3)),
            SynthConfig(vocab_size=5, noise=0.1, peak=0.9),
            seed=2,
        )
        for mode in ("dense", "ioo", "ioo_koo", "discard", "average", "lsd", "swd", "aed_ioo"):
            cfg = CompressConfig(mode=mode)
            c1 = compress(p, cfg)
            c2 = compress(p, cfg)
            assert np.array_equal(c1.values, c2.values)
            assert c1.source_map == c2.source_map


# Rows with exact ties between frames and exact threshold values (0.5, 0.9).
TIE_PALETTE = np.array([
    [1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0], [0.7, 0.1, 0.1, 0.1], [0.9, 0.05, 0.05, 0.0],
    [0.0, 1.0, 0.0, 0.0], [0.1, 0.9, 0.0, 0.0], [0.2, 0.5, 0.2, 0.1], [0.25, 0.5, 0.25, 0.0],
    [0.0, 0.25, 0.5, 0.25], [0.05, 0.05, 0.9, 0.0], [0.1, 0.1, 0.2, 0.6], [0.0, 0.0, 0.0, 1.0],
])


def oracle_matrices():
    rng = np.random.default_rng(404)
    mats = [np.empty((0, 4)), np.tile(custom_blank(4), (6, 1)), np.tile(TIE_PALETTE[2], (5, 1))]
    by_label = [TIE_PALETTE[np.argmax(TIE_PALETTE, axis=1) == k] for k in range(4)]
    for t in (1, 3, 9, 30):
        mats.append(rng.dirichlet(np.full(5, 0.3), size=t))
        mats.append(np.eye(4)[rng.integers(0, 4, size=t)])
    for _ in range(8):
        rows = []
        for _ in range(int(rng.integers(1, 9))):
            choices = by_label[int(rng.integers(0, 4))]
            rows += [choices[rng.integers(0, len(choices))] for _ in range(int(rng.integers(1, 5)))]
        mats.append(np.array(rows))
    return [PosteriorMatrix(m) for m in mats]


def oracle_configs():
    for mode in MODES:
        for koo in ("max", "min"):
            for bpr in (1, 2):
                for nb in ("all", "max"):
                    for thr in (None, 0.5, 0.9):
                        yield CompressConfig(mode=mode, koo_strategy=koo, blanks_per_region=bpr,
                                             nb_onehot=nb, nb_threshold=thr)
    for x in (0.0, 0.5, 0.9, 1.0):
        yield CompressConfig(mode="lsd", lsd_threshold=x)
    for w in (0, 2, 5):
        yield CompressConfig(mode="swd", swd_window=w)


class TestCompressOracle:
    def test_every_mode_bitwise_equal_to_per_run_oracle(self):
        mats = oracle_matrices()
        for cfg in oracle_configs():
            for i, p in enumerate(mats):
                got = compress(p, cfg)
                values, source_map, nonblank = compress_oracle(p, cfg)
                where = f"{cfg} on matrix {i}"
                assert got.values.dtype == values.dtype and got.values.shape == values.shape, where
                assert got.values.tobytes() == values.tobytes(), where
                assert got.source_map == source_map, where
                assert got.nonblank_count == nonblank, where


def same_arrays(got, want) -> bool:
    return len(got) == len(want) and all(
        g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))


def label_cases(rng):
    """Label sequences for the run split: the edge shapes, then random
    ones over a small alphabet so that runs of every length occur."""
    yield from ([], [BLK], [A], [BLK] * 7, [B] * 4, [A, BLK] * 6, [A, B] * 5)
    for _ in range(200):
        yield rng.integers(0, int(rng.integers(1, 5)), size=int(rng.integers(0, 40))).tolist()


def tied_matrix(rng, labels, vocab=4):
    """Rows with argmax *labels* and peaks rounded to one decimal, so that
    frames of one run tie often."""
    peaks = rng.uniform(0.5, 1.0, size=len(labels)).round(1)
    rows = np.repeat(((1.0 - peaks) / (vocab - 1))[:, None], vocab, axis=1)
    rows[np.arange(len(labels)), labels] = peaks
    return PosteriorMatrix(rows.reshape(len(labels), vocab))


class TestRunSplitOracles:
    def test_segment_blocks_same_arrays_as_diff_oracle(self):
        for labels in label_cases(np.random.default_rng(31)):
            labels = np.array(labels, dtype=np.intp)
            assert same_arrays(segment_blocks(labels), segment_blocks_oracle(labels)), labels

    @pytest.mark.parametrize("strategy", ["max", "min"])
    def test_koo_select_same_frames_as_two_reduceat_oracle(self, strategy):
        rng = np.random.default_rng(32)
        for labels in label_cases(rng):
            p = tied_matrix(rng, labels)
            tokens, starts, ends = segment_blocks(argmax_labels(p))
            content = tokens != BLK
            for run in ((tokens, starts, ends),
                        (tokens[content], starts[content], ends[content])):
                got = koo_select(p, *run, strategy)
                assert same_arrays([got], [koo_select_oracle(p, *run, strategy)]), labels


def perfbench_style_matrices():
    """Spiky matrices shaped like the benchmark's: 11 columns, spikes of 1-2
    frames, and short (3-8) or long (8-16) blank runs."""
    rng = np.random.default_rng(33)
    for blank_run in ((3, 8), (8, 16)):
        cfg = SynthConfig(vocab_size=11, spike_len=(1, 2), blank_run=blank_run,
                          peak=0.95, noise=0.04)
        for seed in range(2):
            tokens = rng.integers(1, 11, size=int(rng.integers(6, 20)))
            yield synth_posteriors(LabelSequence(tuple(tokens)), cfg, seed=seed)


class TestSavedBytes:
    def test_every_mode_writes_the_per_run_oracles_bytes(self, tmp_path):
        mats = list(perfbench_style_matrices())
        for cfg in oracle_configs():
            for i, p in enumerate(mats):
                save_posteriors(compress(p, cfg), tmp_path / "got.spkf")
                values, source_map, nonblank = compress_oracle(p, cfg)
                save_posteriors(CompressedPosteriors(values, source_map, nonblank),
                                tmp_path / "want.spkf")
                got = (tmp_path / "got.spkf").read_bytes()
                assert got == (tmp_path / "want.spkf").read_bytes(), (cfg, i)
