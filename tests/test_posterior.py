import math
import os
import re

import numpy as np
import pytest

from helpers import collapse_oracle, stochastic_oracle
from spikefst import (
    CUSTOM_BLANK,
    CompressedPosteriors,
    DataFormatError,
    LabelSequence,
    PosteriorMatrix,
    SynthConfig,
    ValidationError,
    argmax_labels,
    custom_blank,
    load_labels,
    load_posteriors,
    save_posteriors,
    softmax,
    synth_posteriors,
)
from spikefst.errors import write_file
from spikefst.posterior import ROW_SUM_TOL, check_stochastic, select_rows


class TestSoftmax:
    def test_symmetric_two_way(self):
        p = softmax(np.array([[0.0, 0.0]]))
        np.testing.assert_allclose(p.values, [[0.5, 0.5]])

    def test_direct_evaluation(self):
        p = softmax(np.array([[0.0, 0.0, math.log(2.0)]]))
        np.testing.assert_allclose(p.values, [[0.25, 0.25, 0.5]], atol=1e-12)

    def test_saturated_rows(self):
        p = softmax(np.array([[10.0, -10.0], [-10.0, 10.0]]))
        np.testing.assert_allclose(p.values, [[1.0, 0.0], [0.0, 1.0]], atol=1e-6)

    def test_rows_sum_to_one_random(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            t = int(rng.integers(1, 30))
            v = int(rng.integers(2, 40))
            p = softmax(rng.normal(0, 5, size=(t, v)))
            np.testing.assert_allclose(p.values.sum(axis=1), 1.0, atol=1e-6)

    def test_rejects_non_finite_naming_frame(self):
        bad = np.zeros((3, 4))
        bad[1, 2] = np.nan
        with pytest.raises(ValidationError, match="frame 1"):
            softmax(bad)

    def test_shape_preserved(self):
        p = softmax(np.zeros((7, 5)))
        assert (p.frames, p.vocab_size) == (7, 5)

    def test_no_frames(self):
        p = softmax(np.zeros((0, 5)))
        assert (p.frames, p.vocab_size) == (0, 5)


# A blank row and a content row, neither the exact inserted blank: the
# matrix of the two maps CompressedPosteriors once accepted and the
# loader refused, (1, 0) and (-1, 0).
TWO_ROWS = np.array([[0.9, 0.1], [0.2, 0.8]])

# Each constructor's checks, one bad value each.
INVALID = {
    "matrix_not_2d": (lambda: PosteriorMatrix(np.full(4, 0.25)), "must be 2-D"),
    "source_map_length": (
        lambda: CompressedPosteriors(np.full((2, 2), 0.5), (0,), 1), "source_map length"),
    "content_count_above_rows": (
        lambda: CompressedPosteriors(np.eye(2), (-1, 1), 3), "3 content rows but only 2 rows"),
    "content_count_negative": (
        lambda: CompressedPosteriors(np.eye(2), (-1, 1), -1), "content row count -1 is negative"),
    "content_count_float": (
        lambda: CompressedPosteriors(np.eye(2), (-1, 1), 1.5),
        "content row count 1.5 is not an integer"),
    "content_count_numpy_float": (
        lambda: CompressedPosteriors(np.eye(2), (-1, 1), np.float64(1.0)),
        r"content row count \S*1\.0\S* is not an integer"),
    "content_count_str": (
        lambda: CompressedPosteriors(np.eye(2), (-1, 1), "1"),
        "content row count '1' is not an integer"),
    "source_frame_below_blank": (
        lambda: CompressedPosteriors(np.eye(2), (-1, -2), 0), "row 1: source frame -2 is below -1"),
    "source_frame_past_i32": (
        lambda: CompressedPosteriors(np.eye(2), (-1, 2**31), 1),
        re.escape("row 1: source frame 2147483648 is not below 2**31")),
    # numpy reads the first map as floats and the second as objects
    "source_frame_past_i64_beside_a_mark": (
        lambda: CompressedPosteriors(np.eye(2), (-1, 2**63), 1),
        re.escape("row 1: source frame 9223372036854775808 is not below 2**31")),
    "source_frame_past_u64": (
        lambda: CompressedPosteriors(np.eye(2), (-1, 2**64), 1),
        re.escape("row 1: source frame 18446744073709551616 is not below 2**31")),
    "source_frame_not_an_integer": (
        lambda: CompressedPosteriors(np.eye(2), (-1, 1.5), 1),
        "source frames must be integers, got float64"),
    "source_frame_a_string": (
        lambda: CompressedPosteriors(np.eye(2), ("a", "b"), 0),
        "source frames must be integers, got <U1"),
    "source_frame_none": (
        lambda: CompressedPosteriors(np.eye(2), (-1, None), 0),
        "source frames must be integers, got object"),
    "source_map_not_1d": (
        lambda: CompressedPosteriors(np.eye(2), ((-1,), (1,)), 1), "source_map length"),
    "source_frames_decrease": (
        lambda: CompressedPosteriors(TWO_ROWS, (1, 0), 1),
        "row 1: source frames must strictly increase, got 0 after 1"),
    "source_frames_repeat_across_a_mark": (
        lambda: CompressedPosteriors(np.eye(2)[[1, 0, 1]], (4, -1, 4), 2),
        "row 2: source frames must strictly increase, got 4 after 4"),
    "blank_mark_on_a_content_row": (
        lambda: CompressedPosteriors(TWO_ROWS, (-1, 0), 1),
        "row 0: marked -1 but its values are not the inserted blank"),
    "blank_mark_on_a_blank_argmax_row": (
        lambda: CompressedPosteriors(np.array([[1.0, 0.0], [0.6, 0.4]]), (-1, -1), 0),
        "row 1: marked -1 but its values are not the inserted blank"),
    "custom_blank_width": (lambda: custom_blank(1), "vocab_size must be >= 2"),
    "label_below_one": (lambda: LabelSequence((2, 0)), "label token 0 out of range"),
    "logits_not_2d": (lambda: softmax(np.zeros(3)), "logits must be 2-D"),
    "logits_no_columns": (lambda: softmax(np.zeros((3, 0))), "vocab size must be >= 2"),
    "logits_one_column": (lambda: softmax(np.zeros((3, 1))), "vocab size must be >= 2"),
    "synth_vocab": (lambda: SynthConfig(vocab_size=1), "vocab_size must be >= 2"),
    "synth_peak": (lambda: SynthConfig(vocab_size=4, peak=0.5), "peak probability"),
    "synth_peak_minus_noise": (
        lambda: SynthConfig(vocab_size=4, peak=0.6, noise=0.4), "peak - noise"),
    "synth_noise_nan": (
        lambda: SynthConfig(vocab_size=4, noise=float("nan")), "peak - noise"),
    "synth_range": (lambda: SynthConfig(vocab_size=4, blank_run=(3, 2)), "length ranges"),
    "synth_spike": (lambda: SynthConfig(vocab_size=4, spike_len=(0, 2)), "spike length"),
    "synth_label": (
        lambda: synth_posteriors(LabelSequence((1, 4)), SynthConfig(vocab_size=4), 0),
        re.escape("label token 4 outside vocabulary [1, 4)")),
}


@pytest.mark.parametrize("case", INVALID)
def test_invalid_value_is_a_validation_error(case):
    make, match = INVALID[case]
    with pytest.raises(ValidationError, match=match):
        make()


class TestArgmaxLabels:
    def test_one_hot_rows(self):
        p = PosteriorMatrix(np.array([[1.0, 0, 0], [0, 1.0, 0]]))
        assert argmax_labels(p).tolist() == [0, 1]

    def test_tie_breaks_to_lowest_index(self):
        p = PosteriorMatrix(np.array([[0.4, 0.4, 0.2]]))
        assert argmax_labels(p).tolist() == [0]

    def test_matches_per_row_scan(self):
        rng = np.random.default_rng(0)
        p = PosteriorMatrix(rng.dirichlet(np.ones(5), size=10))
        expected = []
        for row in p.values:
            best, best_i = -1.0, -1
            for i, x in enumerate(row):
                if x > best:
                    best, best_i = x, i
            expected.append(best_i)
        assert argmax_labels(p).tolist() == expected


class TestPosteriorIO:
    def test_binary_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        raw = rng.dirichlet(np.ones(4), size=3).astype(np.float32).astype(np.float64)
        raw /= raw.sum(axis=1, keepdims=True)
        raw = raw.astype(np.float32).astype(np.float64)  # f32-representable values
        p = PosteriorMatrix(raw)
        path = tmp_path / "m.spkf"
        save_posteriors(p, path, "binary")
        q = load_posteriors(path)
        assert np.array_equal(p.values, q.values)

    def test_empty_matrix_round_trip(self, tmp_path):
        p = PosteriorMatrix(np.empty((0, 6)))
        path = tmp_path / "m.spkf"
        save_posteriors(p, path, "binary")
        q = load_posteriors(path)
        assert q.frames == 0 and q.vocab_size == 6

    def test_truncated_payload(self, tmp_path):
        p = PosteriorMatrix(np.full((3, 4), 0.25))
        path = tmp_path / "m.spkf"
        save_posteriors(p, path, "binary")
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(DataFormatError, match="truncated"):
            load_posteriors(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.spkf"
        path.write_bytes(b"XXXX" + b"\0" * 12)
        with pytest.raises(DataFormatError, match="magic"):
            load_posteriors(path)

    def test_unknown_format_is_a_validation_error(self, tmp_path):
        path = tmp_path / "m.spkf"
        with pytest.raises(ValidationError, match="unknown posterior format 'csv'"):
            save_posteriors(PosteriorMatrix(np.full((1, 2), 0.5)), path, "csv")
        assert not path.exists()

    @pytest.mark.parametrize("source_map, count", [
        ((-1, 1), -1), ((-1, 1), 2**32), ((-1, 2**31), 1), ((-1, -2**31 - 1), 1),
    ], ids=["count_negative", "count_past_u32", "frame_past_i32", "frame_below_i32"])
    def test_map_the_file_cannot_hold_is_refused_before_saving(self, tmp_path, source_map,
                                                                count):
        path = tmp_path / "m.spkf"
        with pytest.raises(ValidationError):
            save_posteriors(CompressedPosteriors(np.eye(2), source_map, count), path)
        assert not path.exists()

    @pytest.mark.parametrize("source_map", [(1, 0), (-1, 0)],
                             ids=["frames_decrease", "blank_mark_on_content"])
    def test_a_map_the_loader_would_refuse_is_never_saved(self, tmp_path, source_map):
        path = tmp_path / "m.spkf"
        with pytest.raises(ValidationError):
            save_posteriors(CompressedPosteriors(TWO_ROWS, source_map, 1), path)
        assert not path.exists()

    def test_every_accepted_map_loads_back_equal(self, tmp_path):
        # one owner for the map rules: the loader refuses nothing the type accepts
        rng = np.random.default_rng(30)
        palette = np.array([[1.0, 0.0, 0.0], [0.5, 0.25, 0.25], [0.125, 0.875, 0.0]])  # f32-exact
        path = tmp_path / "m.spkf"
        outcomes = {True: 0, False: 0}
        for _ in range(600):
            t = int(rng.integers(0, 6))
            values = palette[rng.integers(0, 3, size=t)].reshape(t, 3)
            smap = np.sort(rng.choice(9, size=t, replace=False)) - int(rng.integers(0, 2))
            marked = rng.random(t) < 0.4
            smap[marked] = CUSTOM_BLANK
            values[marked & (rng.random(t) < 0.8)] = custom_blank(3)
            if t > 1 and rng.random() < 0.2:
                smap[[0, -1]] = smap[[-1, 0]]
            try:
                c = CompressedPosteriors(values, smap, int(rng.integers(-1, t + 2)))
            except ValidationError:
                outcomes[False] += 1
                continue
            outcomes[True] += 1
            save_posteriors(c, path)
            back = load_posteriors(path)
            assert type(back) is CompressedPosteriors
            assert back.values.tobytes() == c.values.tobytes()
            assert (back.source_map, back.nonblank_count) == (c.source_map, c.nonblank_count)
        assert min(outcomes.values()) > 100, outcomes

    def test_numpy_integer_count_is_stored_as_int_and_saves_the_same_bytes(self, tmp_path):
        p = CompressedPosteriors(np.eye(2), (-1, 1), np.int64(1))
        assert type(p.nonblank_count) is int
        save_posteriors(p, tmp_path / "a.spkf")
        save_posteriors(CompressedPosteriors(np.eye(2), (-1, 1), 1), tmp_path / "b.spkf")
        assert (tmp_path / "a.spkf").read_bytes() == (tmp_path / "b.spkf").read_bytes()

    @pytest.mark.parametrize("version", [1, 2])
    def test_vocab_below_two_is_a_data_error_naming_the_file(self, tmp_path, version):
        import struct

        path = tmp_path / "m.spkf"
        raw = struct.pack("<4sIII2f", b"SPKF", version, 2, 1, 1.0, 1.0)
        if version == 2:  # both rows marked as inserted blanks
            raw += struct.pack("<I2i", 0, -1, -1)
        path.write_bytes(raw)
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: vocab"):
            load_posteriors(path)

    def test_labels_skip_blank_lines(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("1 2\n\n  \n3\n")
        assert [l.tokens for l in load_labels(path)] == [(1, 2), (3,)]

    def test_dimension_overflow(self, tmp_path):
        import struct

        path = tmp_path / "m.spkf"
        path.write_bytes(struct.pack("<4sIII", b"SPKF", 1, 2**20, 2**20))
        with pytest.raises(DataFormatError, match="overflow"):
            load_posteriors(path)


class TestAtomicWrite:
    """Every writer goes through ``errors.write_file``, which renames a
    temporary file into place, so a failed rename leaves neither the
    temporary file nor a changed target."""

    @staticmethod
    def fail_replace(monkeypatch):
        def replace(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", replace)

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.spkf"
        self.fail_replace(monkeypatch)
        with pytest.raises(DataFormatError, match=re.escape(f"{target}: cannot write: disk gone")):
            save_posteriors(PosteriorMatrix(np.full((3, 4), 0.25)), target, "binary")
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_existing_target(self, tmp_path, monkeypatch):
        target = tmp_path / "out.spkf"
        save_posteriors(PosteriorMatrix(np.full((3, 4), 0.25)), target, "binary")
        before = target.read_bytes()
        self.fail_replace(monkeypatch)
        with pytest.raises(DataFormatError, match="cannot write: disk gone"):
            save_posteriors(PosteriorMatrix(np.full((2, 4), 0.25)), target, "binary")
        assert target.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.spkf"]

    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=oct)
    def test_new_file_gets_the_mode_of_a_plain_open(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            write_file(tmp_path / "written", "x")
            (tmp_path / "plain").write_text("x")
        finally:
            os.umask(old)
        modes = {(tmp_path / name).stat().st_mode & 0o777 for name in ("written", "plain")}
        assert modes == {0o666 & ~umask}


class TestSynth:
    def test_fixed_layout(self):
        cfg = SynthConfig(vocab_size=3, spike_len=(1, 1), blank_run=(2, 2), peak=1.0)
        p = synth_posteriors(LabelSequence((1,)), cfg, seed=0)
        assert argmax_labels(p).tolist() == [0, 0, 1, 0, 0]

    def test_collapse_recovers_labels(self):
        rng = np.random.default_rng(9)
        for trial in range(30):
            v = int(rng.integers(3, 20))
            labels = tuple(int(rng.integers(1, v)) for _ in range(int(rng.integers(0, 12))))
            cfg = SynthConfig(
                vocab_size=v,
                spike_len=(1, int(rng.integers(1, 4))),
                blank_run=(int(rng.integers(0, 2)), int(rng.integers(2, 6))),
                peak=0.9,
                noise=0.1,
            )
            p = synth_posteriors(LabelSequence(labels), cfg, seed=trial)
            assert collapse_oracle(argmax_labels(p)) == list(labels)

    def test_zero_blank_runs_keep_distinct_spikes_adjacent(self):
        cfg = SynthConfig(vocab_size=4, spike_len=(1, 1), blank_run=(0, 0), peak=0.9)
        p = synth_posteriors(LabelSequence((1, 2)), cfg, seed=5)
        assert argmax_labels(p).tolist() == [1, 2]

    def test_deterministic_for_seed(self):
        cfg = SynthConfig(vocab_size=8, noise=0.2, peak=0.9)
        a = synth_posteriors(LabelSequence((1, 2, 3)), cfg, seed=11)
        b = synth_posteriors(LabelSequence((1, 2, 3)), cfg, seed=11)
        assert np.array_equal(a.values, b.values)

    def test_weak_peak_rejected(self):
        with pytest.raises(ValidationError, match="argmax"):
            SynthConfig(vocab_size=2, peak=0.51, noise=0.05)


class TestSelectRows:
    P = PosteriorMatrix(np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]]))

    def test_rows_of_the_matrix_and_inserted_blanks(self):
        c = select_rows(self.P, np.array([CUSTOM_BLANK, 0, CUSTOM_BLANK, 2]), 1)
        assert type(c) is CompressedPosteriors
        assert c.values.tolist() == [[1.0, 0.0], [0.9, 0.1], [1.0, 0.0], [0.6, 0.4]]
        assert c.source_map == (CUSTOM_BLANK, 0, CUSTOM_BLANK, 2) and c.nonblank_count == 1
        assert type(c.source_map[1]) is int and type(c.nonblank_count) is int
        assert not c.values.flags.writeable
        full = CompressedPosteriors(c.values, c.source_map, c.nonblank_count)
        assert full.values.tobytes() == c.values.tobytes()

    def test_no_frames_gives_only_inserted_blanks(self):
        c = select_rows(PosteriorMatrix(np.empty((0, 3))), np.array([CUSTOM_BLANK]), 0)
        assert c.values.tolist() == [[1.0, 0.0, 0.0]] and c.source_map == (CUSTOM_BLANK,)
        assert select_rows(PosteriorMatrix(np.empty((0, 3))), np.arange(0), 0).frames == 0

    @pytest.mark.parametrize("rows, count, match", [
        ([0, 3], 1, "row 1: source frame 3 is not below 3"),
        ([CUSTOM_BLANK, 0, 7], 1, "row 2: source frame 7 is not below 3"),
        ([-2, 0], 0, "row 0: source frame -2 is below -1"),
        ([2, CUSTOM_BLANK, 1], 1, "row 2: source frames must strictly increase, got 1 after 2"),
        ([1, 1], 1, "row 1: source frames must strictly increase, got 1 after 1"),
        ([0, 1], 1.5, "content row count 1.5 is not an integer"),
        ([0, 1], 3, "3 content rows but only 2 rows"),
        ([0, 1], -1, "content row count -1 is negative"),
        ([[0, 1]], 1, "source_map length must match row count"),
    ])
    def test_refused(self, rows, count, match):
        with pytest.raises(ValidationError, match=f"^{re.escape(match)}$"):
            select_rows(self.P, np.array(rows), count)

    def test_no_frames_refuses_every_kept_row(self):
        with pytest.raises(ValidationError, match="^row 0: source frame 0 is not below 0$"):
            select_rows(PosteriorMatrix(np.empty((0, 3))), np.array([0]), 0)


class TestValidation:
    def test_rows_must_be_stochastic(self):
        with pytest.raises(ValidationError, match="sums to"):
            PosteriorMatrix(np.array([[0.7, 0.2]]))

    def test_entries_must_be_probabilities(self):
        with pytest.raises(ValidationError):
            PosteriorMatrix(np.array([[1.5, -0.5]]))

    def test_needs_blank_plus_token(self):
        with pytest.raises(ValidationError):
            PosteriorMatrix(np.ones((2, 1)))

    def test_float64_array_is_kept_without_a_copy_and_made_read_only(self):
        a = np.array([[0.9, 0.1], [0.2, 0.8]])
        p = PosteriorMatrix(a)
        assert p.values is a
        assert not a.flags.writeable


def outcome(check, v):
    """The message of the ValidationError *check* raises on *v*, or None."""
    try:
        check(v)
    except ValidationError as exc:
        return str(exc)
    return None


def stochastic_cases(rng):
    """Matrices on both sides of every bound ``check_stochastic`` applies."""
    lo, hi = -1e-12, 1.0 + 1e-12
    yield np.empty((0, 4))
    for t in (1, 3):
        yield np.empty((t, 0))
    for _ in range(120):
        t, v = int(rng.integers(1, 9)), int(rng.integers(2, 7))
        m = rng.dirichlet(np.ones(v), size=t)
        i, j = int(rng.integers(0, t)), int(rng.integers(0, v))
        kind = int(rng.integers(0, 5))
        if kind == 0:  # a non-finite entry, alone or beside an out-of-range one
            m[i, j] = (np.nan, np.inf, -np.inf)[int(rng.integers(0, 3))]
            if rng.random() < 0.5:
                m[int(rng.integers(0, t)), int(rng.integers(0, v))] = 2.0
        elif kind == 1:  # an entry at or just below the lower bound, its mass moved
            x = lo if rng.random() < 0.5 else np.nextafter(lo, -np.inf)
            m[i, (j + 1) % v] += m[i, j] - x
            m[i, j] = x
        elif kind == 2:  # a one-hot row whose peak sits at or just past the upper bound
            m[i] = 0.0
            m[i, j] = hi if rng.random() < 0.5 else np.nextafter(hi, np.inf)
        else:  # a row sum near 1 +/- ROW_SUM_TOL, nudged by a few ulps either way
            target = 1.0 + ROW_SUM_TOL * (1 if kind == 3 else -1)
            m[i, 0] += target - m[i].sum()
            for _ in range(int(rng.integers(1, 4))):
                m[i, 0] = np.nextafter(m[i, 0], np.inf * int(rng.choice((-1, 1))))
        yield m


class TestCheckStochastic:
    def test_same_errors_as_three_scan_oracle(self):
        seen = set()
        for m in stochastic_cases(np.random.default_rng(13)):
            got = outcome(check_stochastic, m)
            assert got == outcome(stochastic_oracle, m), m
            seen.add(None if got is None else got[:14])
        # accepted, non-finite, out of range and a bad row sum all occur
        assert {None, "posterior matr", "posterior entr", "row 0 sums to "} <= seen

    def test_empty_shapes(self):
        assert outcome(check_stochastic, np.empty((0, 5))) is None
        with pytest.raises(ValidationError, match=r"^row 0 sums to 0\.000000"):
            check_stochastic(np.empty((3, 0)))
