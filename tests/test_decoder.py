import importlib
import math
import operator

import numpy as np
import pytest

from helpers import (
    fixpoint_oracle,
    fst_of,
    make_corpus,
    random_decodable_graph,
    random_posteriors,
    random_search_case,
    search_oracle,
    spiky_search_case,
    viterbi_oracle,
)
from spikefst import (
    CUSTOM_BLANK,
    CompressConfig,
    CompressedPosteriors,
    DecodeError,
    DecoderConfig,
    FstError,
    PosteriorMatrix,
    SynthConfig,
    ValidationError,
    compress,
    custom_blank,
    decode,
    decode_batch,
    sweep_params,
)
from spikefst.wfst import Arc

WIDE = DecoderConfig(beam=math.inf, max_active=10**9)


def assert_one_token_per_row(r, frames):
    """The best path crosses one emitting arc per row, in row order, so
    token k belongs to row k: its frame is ``source_map[k]``, or ``k``
    for a plain matrix."""
    assert len(r.tokens) == r.frames_processed == frames.frames
    rows = frames.source_map if isinstance(frames, CompressedPosteriors) else range(frames.frames)
    assert [frame for frame, _ in r.tokens] == list(rows)


def doubled_blanks(comp):
    """*comp* with every inserted blank row repeated, so that the search
    meets runs of two pure-blank rows."""
    smap = np.asarray(comp.source_map)
    rows = np.repeat(np.arange(comp.frames), np.where(smap == CUSTOM_BLANK, 2, 1))
    return CompressedPosteriors(comp.values[rows], smap[rows], comp.nonblank_count)


def one_word_graph(*extra, n=3, finals=None):
    """Two-symbol vocab (blank + A); accepts blk* A blk and emits word 5.
    Of *n* states; the arcs *extra*, as ``(src, ilabel, olabel, weight,
    dst)``, and the *finals* are added."""
    arcs = [(0, 1, 0, 0.3, 0), (0, 2, 5, 0.7, 1), (1, 1, 0, 0.2, 2), *extra]
    return fst_of(n, arcs, {2: 0.4, **(finals or {})})


def one_hot_rows(cols, vocab=2):
    rows = np.zeros((len(cols), vocab))
    rows[np.arange(len(cols)), cols] = 1.0
    return PosteriorMatrix(rows)


class TestDecodeBasics:
    def test_hand_summed_cost(self):
        g = one_word_graph()
        p = one_hot_rows([0, 1, 0])
        r = decode(g, p, WIDE)
        assert r.words == (5,)
        assert r.total_cost == pytest.approx(0.3 + 0.7 + 0.2 + 0.4)
        assert r.frames_processed == 3
        assert r.tokens == ((0, 1), (1, 2), (2, 1))

    def test_zero_probability_is_infinite_cost_not_error(self):
        g = one_word_graph()
        # all-blank input survives on the blank loop but never reaches the
        # final state; the zero columns themselves raise nothing
        p = one_hot_rows([0, 0, 0])
        with pytest.raises(DecodeError, match="frame 3"):
            decode(g, p, WIDE)

    def test_beam_collapse_names_frame(self):
        g = one_word_graph()
        p = one_hot_rows([1, 1, 1])  # after A the graph only accepts blanks
        with pytest.raises(DecodeError, match="frame 1"):
            decode(g, p, WIDE)

    def test_collapse_at_a_folded_step_names_its_second_row(self):
        # row 2 is a blank folded into row 3; state 2, reached on row 1, has
        # no blank arc, so the search dies on row 2 but names row 3
        with pytest.raises(DecodeError, match="frame 3"):
            decode(one_word_graph(), one_hot_rows([1, 0, 0, 1]), WIDE)

    def test_empty_frames_need_reachable_final(self):
        with pytest.raises(DecodeError, match="final"):
            decode(one_word_graph(), one_hot_rows([]), WIDE)
        r = decode(one_word_graph(finals={0: 0.125}), one_hot_rows([]), WIDE)
        assert r.words == () and r.total_cost == pytest.approx(0.125)

    def test_vocab_mismatch_rejected(self):
        g = one_word_graph((0, 9, 0, 0.0, 0))
        p = PosteriorMatrix(np.full((2, 2), 0.5))
        with pytest.raises(ValidationError, match="label 9"):
            decode(g, p, WIDE)

    def test_tiny_negative_entry_costs_like_zero(self):
        # Entries down to -1e-12 pass validation.  Column 0 must cost inf,
        # not NaN, or it would be taken as the row's cheapest column and
        # the narrowed view would skip the arc on column 1.
        g = fst_of(2, [(0, 2, 10, 0.0, 1), (0, 3, 20, 0.0, 1)], {1: 0.0})
        cfg = DecoderConfig(beam=0.5)
        r = decode(g, PosteriorMatrix([[-1e-13, 0.7, 0.3]]), cfg)
        assert r.words == (10,)
        assert r.same_search(decode(g, PosteriorMatrix([[0.0, 0.7, 0.3]]), cfg))

    def test_deterministic_apart_from_wall_time(self):
        rng = np.random.default_rng(0)
        g = random_decodable_graph(rng, max_states=20, vocab=4)
        p = random_posteriors(rng, 12, 4)
        r1 = decode(g, p, DecoderConfig(beam=8.0))
        r2 = decode(g, p, DecoderConfig(beam=8.0))
        assert r1.same_search(r2)


class TestViterbiOracle:
    def test_unpruned_matches_exhaustive_dp(self):
        rng = np.random.default_rng(42)
        checked = 0
        for trial in range(60):
            g = random_decodable_graph(rng, max_states=50, vocab=5)
            t = int(rng.integers(1, 21))
            p = random_posteriors(rng, t, 5)
            expected = viterbi_oracle(g, p.values)
            if not math.isfinite(expected):
                continue
            r = decode(g, p, WIDE)
            assert r.total_cost == pytest.approx(expected, abs=1e-6), f"trial {trial}"
            checked += 1
        assert checked >= 50

    def test_onehot_ioo_nb_rows_match_exhaustive_dp(self):
        # One-hot rows leave a single column nonzero, so every arc on any
        # other label is zero-probability and many inputs have no path.
        rng = np.random.default_rng(909)
        finite = hopeless = 0
        for trial in range(200):
            g = random_decodable_graph(rng, max_states=30, vocab=5)
            p = random_posteriors(rng, int(rng.integers(0, 8)), 5)
            comp = compress(p, CompressConfig(mode="ioo_nb"))
            expected = viterbi_oracle(g, comp.values)
            if math.isfinite(expected):
                got = decode(g, comp, WIDE).total_cost
                assert abs(got - expected) <= 1e-9, f"trial {trial}: {got} vs {expected}"
                finite += 1
            else:
                with pytest.raises(DecodeError):
                    decode(g, comp, WIDE)
                hopeless += 1
        assert finite >= 15 and hopeless >= 15

    def test_folded_steps_match_exhaustive_dp(self):
        # Each inserted blank row is folded into the next row's step (see
        # decoder.py); at beam inf the fold must still find the best path.
        # Doubling the inserted blanks makes runs of two pure-blank rows,
        # of which only the second is folded.
        rng = np.random.default_rng(1212)
        modes = (
            (CompressConfig(mode="ioo"), False),
            (CompressConfig(mode="ioo_koo", koo_strategy="max"), False),
            (CompressConfig(mode="ioo_koo", koo_strategy="min"), False),
            (CompressConfig(mode="ioo"), True),
            (CompressConfig(mode="ioo_koo", koo_strategy="min"), True),
        )
        finite = folded = blank_runs = 0
        for trial in range(250):
            g = random_decodable_graph(rng, max_states=30, vocab=3)
            cfg, double = modes[trial % len(modes)]
            comp = compress(random_posteriors(rng, int(rng.integers(1, 16)), 3), cfg)
            if double:
                comp = doubled_blanks(comp)
            expected = viterbi_oracle(g, comp.values)
            if not math.isfinite(expected):
                with pytest.raises(DecodeError):
                    decode(g, comp, WIDE)
                continue
            r = decode(g, comp, WIDE)
            assert r.total_cost == pytest.approx(expected, abs=1e-6), f"trial {trial}"
            assert_one_token_per_row(r, comp)
            finite += 1
            folded += r.frames_processed - len(r.tokens_alive_histogram)
            pure = np.all(comp.values == custom_blank(3), axis=1)
            blank_runs += bool(np.any(pure[1:] & pure[:-1]))
        assert finite >= 100 and folded >= 200 and blank_runs >= 30

    def test_acoustic_scale_respected(self):
        rng = np.random.default_rng(7)
        g = random_decodable_graph(rng, max_states=15, vocab=4)
        p = random_posteriors(rng, 8, 4)
        cfg = DecoderConfig(beam=math.inf, max_active=10**9, acoustic_scale=2.5)
        expected = viterbi_oracle(g, p.values, acoustic_scale=2.5)
        assert decode(g, p, cfg).total_cost == pytest.approx(expected, abs=1e-6)


class TestPruning:
    def test_pruned_cost_never_beats_unpruned(self):
        # Any beam's returned path is one of the paths the unpruned search
        # minimizes over, so its cost can only be worse or equal.
        rng = np.random.default_rng(3)
        for trial in range(15):
            g = random_decodable_graph(rng, max_states=25, vocab=4)
            p = random_posteriors(rng, 10, 4)
            full = decode(g, p, WIDE).total_cost
            for beam in (0.5, 2.0, 8.0):
                try:
                    pruned = decode(g, p, DecoderConfig(beam=beam, max_active=10**9)).total_cost
                except DecodeError:
                    continue
                assert pruned >= full - 1e-9

    def test_beam_ladder_monotone_on_clean_corpus(self, tlg, clean_corpus):
        # On spiky well-matched inputs the survivor sets effectively nest,
        # so walking the beam down never cheapens the returned path.
        for utt, _, mat in clean_corpus[:15]:
            costs = []
            for beam in (2.0, 8.0, 32.0, math.inf):
                try:
                    costs.append(decode(tlg, mat, DecoderConfig(beam=beam, max_active=10**9)).total_cost)
                except DecodeError:
                    costs.append(math.inf)
            for tight, wide in zip(costs, costs[1:]):
                assert tight >= wide - 1e-9

    @pytest.mark.parametrize("w4, words, histogram", [
        # 2 -> 4 at 1 + 0 undercuts the previous best's 0 + 5, so the cutoff
        # (1 + 2) falls below the bound (5 + 2) and drops state 3, reached at 5
        (0.0, (40,), (2, 1)),
        # the previous best gives the cheapest candidate, so the cutoff equals
        # the bound (5 + 2), no reached state lies above it and none is dropped
        (5.5, (30,), (2, 2)),
    ], ids=["cutoff_below_bound", "cutoff_at_bound"])
    def test_beam_prune_drops_only_states_above_the_cutoff(self, w4, words, histogram):
        # step 0 reaches 1 at 0, the best, and 2 at 1; step 1 takes 1 -> 3 at
        # 5 and 2 -> 4 at w4; state 4's final weight makes 3 the unpruned answer
        g = fst_of(5, [(0, 2, 0, 0.0, 1), (0, 2, 0, 1.0, 2), (1, 2, 30, 5.0, 3),
                       (2, 2, 40, w4, 4)], {3: 0.0, 4: 10.0})
        p = one_hot_rows([1, 1])
        cfg = DecoderConfig(beam=2.0)
        r = decode(g, p, cfg)
        assert (r.words, r.tokens_alive_histogram) == (words, histogram)
        assert r.same_search(search_oracle(g, p, cfg))
        assert decode(g, p, WIDE).words == (30,)

    def test_max_active_cap_enforced(self):
        rng = np.random.default_rng(4)
        g = random_decodable_graph(rng, max_states=40, vocab=4)
        p = random_posteriors(rng, 15, 4)
        r = decode(g, p, DecoderConfig(beam=math.inf, max_active=3))
        assert max(r.tokens_alive_histogram) <= 3
        assert len(r.tokens_alive_histogram) == 15


class TestSearchContract:
    """The determinism contract: sorted state visits, strict-improvement
    replacement, lower-numbered predecessor wins ties."""

    @staticmethod
    def two_route_graph(eps: bool):
        # 0 -> {1, 2} on blank at equal cost, then 1 -> 3 emits word 10 and
        # 2 -> 3 emits word 20 at equal weight, so both routes tie at 3.
        # State 2's arcs are added first, so arc order cannot decide.
        il = 0 if eps else 2
        return fst_of(4, [(0, 1, 0, 0.25, 2), (0, 1, 0, 0.25, 1), (2, il, 20, 0.5, 3),
                          (1, il, 10, 0.5, 3)], {3: 0.0})

    def test_emitting_tie_keeps_lower_predecessor(self):
        r = decode(self.two_route_graph(eps=False),
                   PosteriorMatrix(np.full((2, 2), 0.5)), WIDE)
        assert r.words == (10,)
        assert r.path_graph_costs == (0.25, 0.5)

    def test_epsilon_tie_keeps_lower_predecessor(self):
        r = decode(self.two_route_graph(eps=True),
                   PosteriorMatrix(np.full((1, 2), 0.5)), WIDE)
        assert r.words == (10,)
        assert r.tokens == ((0, 1),)

    def test_binding_max_active_keeps_lower_states_on_equal_cost(self):
        # Five equal-cost successors; the higher three have the cheaper
        # final weight, so they win unless the cap dropped them.
        g = fst_of(6, [(0, 1, s, 0.0, s) for s in range(5, 0, -1)],
                   {s: 1.0 if s <= 2 else 0.0 for s in range(5, 0, -1)})
        p = one_hot_rows([0])
        assert decode(g, p, WIDE).words == (3,)
        r = decode(g, p, DecoderConfig(beam=math.inf, max_active=2))
        assert r.words == (1,)
        assert r.total_cost == 1.0
        assert r.tokens_alive_histogram == (2,)

    def test_mixed_batch_matches_single_decodes(self, tlg, clean_corpus):
        cfg = DecoderConfig(beam=12.0)
        (u0, _, m0), (u1, _, m1), (u2, _, m2) = clean_corpus[:3]
        vocab = m0.vocab_size
        utts = [
            (u0, m0),
            ("empty", PosteriorMatrix(np.empty((0, vocab)))),
            ("hopeless", PosteriorMatrix(np.tile(np.eye(vocab)[vocab - 1], (4, 1)))),
            (u1, compress(m1, CompressConfig(mode="ioo_koo"))),
            (u2, m2),
        ]
        batch = decode_batch(tlg, utts, cfg)
        assert [u for u, _ in batch.failures] == ["hopeless"]
        for (utt, frames), res in zip(utts, batch.results):
            if utt == "hopeless":
                assert res is None
            else:
                assert res.same_search(decode(tlg, frames, cfg)), utt
        assert batch.results[1].frames_processed == 0


    def test_continuation_tie_goes_to_lower_epsilon_state_past_an_over_bound_entry(self):
        # 0 -> 2 costs 20, far above the frame's bound (the cheapest
        # candidate, 0.69, plus beam 12), so that entry and its
        # continuation 0 -> 2 -> 4 are dropped; 2 is still stored, at 1,
        # by the continuation through 1.  0 -> 1 -> 2 -> 4 (word 10) and
        # 0 -> 3 -> 4 (word 20) both cost 2.  Continuations are ordered by
        # the epsilon state they pass through, so the one through 1 comes
        # first and, replacement being strict, keeps the tie.
        g = fst_of(5, [(0, 1, 0, 20.0, 2), (0, 1, 0, 0.0, 1), (0, 1, 0, 0.0, 3),
                       (1, 0, 0, 1.0, 2), (2, 0, 10, 1.0, 4), (3, 0, 20, 2.0, 4)], {4: 0.0})
        r = decode(g, PosteriorMatrix(np.full((1, 2), 0.5)), DecoderConfig(beam=12.0))
        assert r.words == (10,)
        assert r.path_graph_costs == (0.0, 1.0, 1.0)

    def test_continuation_tie_goes_to_lower_epsilon_state_on_a_narrowed_row(self):
        # As above, but 0 -> 2 reads column 1, which costs -log(0.03) = 3.5,
        # more than the beam of 3 above the cheapest candidate, so 0 reads
        # only column 0's entries and skips 0 -> 2.  Its continuations
        # through 1 and 3 are on column 0 too: 2 is stored by the one
        # through 1, and 4 is reached at equal cost through 1 (word 10),
        # then through 3 (word 20), so the tie goes to word 10 as above.
        g = fst_of(5, [(0, 2, 0, 0.0, 2), (0, 1, 0, 0.0, 1), (0, 1, 0, 0.0, 3),
                       (1, 0, 0, 1.0, 2), (2, 0, 10, 1.0, 4), (3, 0, 20, 2.0, 4)], {4: 0.0})
        r = decode(g, PosteriorMatrix([[0.97, 0.03]]), DecoderConfig(beam=3.0))
        assert r.words == (10,)

    def test_one_hot_view_keeps_arc_order(self):
        # Two equal-cost blank arcs into state 1 with a token arc between
        # them; a one-hot blank row reads only the blank arcs, and the
        # lower arc id still wins the tie.
        g = fst_of(2, [(0, 1, 7, 0.5, 1), (0, 2, 9, 0.0, 1), (0, 1, 8, 0.5, 1)], {1: 0.0})
        r = decode(g, one_hot_rows([0]), WIDE)
        assert r.words == (7,)
        assert r.tokens == ((0, 1),)

    def test_hot_column_no_arc_reads_fails_at_its_frame(self):
        # The graph reads columns 0 and 1 only; frame 1 is one-hot on
        # column 2, so no arc can consume it.
        g = one_word_graph()
        p = one_hot_rows([0, 2, 0], vocab=3)
        with pytest.raises(DecodeError) as exc:
            decode(g, p, WIDE)
        assert str(exc.value) == "decode failed at frame 1: no live tokens survive pruning"
        with pytest.raises(DecodeError) as old:
            search_oracle(g, p, WIDE)
        assert str(old.value) == str(exc.value)

    def test_infinite_cost_tokens_are_not_carried(self):
        # Every path crosses an emitting arc of infinite weight.  The search
        # stores only finite costs, so it fails at the frame where the last
        # finite token dies; the dict search it replaced carried the inf
        # token to the end and failed there with "no final state reachable".
        g = fst_of(2, [(0, 1, 0, math.inf, 1), (1, 1, 0, 0.0, 1)], {1: 0.0})
        p = one_hot_rows([0, 0])
        with pytest.raises(DecodeError) as exc:
            decode(g, p, WIDE)
        assert str(exc.value) == "decode failed at frame 0: no live tokens survive pruning"
        with pytest.raises(DecodeError, match="frame 2: no final state reachable"):
            search_oracle(g, p, WIDE)


class TestEpsilonClosure:
    """Input-epsilon arcs are compiled into the table: each emitting arc
    gets one continuation per state its target reaches through epsilon
    arcs, on the cheapest such path, and the start state's closure gives
    the initial tokens."""

    def test_negative_epsilon_cycle_raises_on_first_decode(self):
        # The cycle 3 -> 4 -> 3 weighs -0.5, and no token can reach it.
        g = one_word_graph((3, 0, 0, -1.0, 4), (4, 0, 0, 0.5, 3), n=5)
        for _ in range(2):  # a failed compile is not cached
            with pytest.raises(FstError) as exc:
                decode(g, one_hot_rows([0, 1, 0]), WIDE)
            assert str(exc.value) == "non-emitting arcs did not reach a fixpoint (negative cycle?)"

    def test_equal_cost_epsilon_paths_fewer_arcs_then_lower_arc_ids(self):
        # From 1, the epsilon paths 1-3-4 (arc ids 1, 4; word 30) and 1-2-4
        # (arc ids 2, 3; word 20) both weigh 1.0.  Lower arc ids win, though
        # the other path passes through the lower state; a one-arc path of
        # the same weight (word 40), added last, beats both.
        arcs = [(0, 1, 0, 0.0, 1), (1, 0, 0, 0.5, 3), (1, 0, 0, 0.5, 2), (2, 0, 20, 0.5, 4),
                (3, 0, 30, 0.5, 4)]
        p = one_hot_rows([0])
        r = decode(fst_of(5, arcs, {4: 0.0}), p, WIDE)
        assert r.words == (30,)
        assert r.path_graph_costs == (0.0, 0.5, 0.5)
        r = decode(fst_of(5, arcs + [(1, 0, 40, 1.0, 4)], {4: 0.0}), p, WIDE)
        assert r.words == (40,)
        assert r.path_graph_costs == (0.0, 1.0)

    def test_cheapest_epsilon_path_not_first_found(self):
        # 1 -> 3 directly weighs 3.0 and is found first; 1 -> 2 -> 3 weighs 0.
        g = fst_of(4, [(0, 1, 0, 0.0, 1), (1, 0, 10, 3.0, 3), (1, 0, 0, 0.0, 2),
                       (2, 0, 20, 0.0, 3)], {3: 0.0})
        r = decode(g, one_hot_rows([0]), WIDE)
        assert r.words == (20,)
        assert r.total_cost == 0.0

    def test_epsilon_weight_joins_the_arc_weight_before_the_acoustic_cost(self):
        u, v = 0.1, 0.2
        ac = float(-np.log(0.5))
        assert (u + v) + ac != (u + ac) + v  # the two orders round apart here
        g = fst_of(3, [(0, 1, 0, u, 1), (1, 0, 7, v, 2)], {2: 0.0})
        r = decode(g, PosteriorMatrix(np.full((1, 2), 0.5)), WIDE)
        assert r.words == (7,)
        assert r.total_cost == (u + v) + ac
        assert r.path_graph_costs == (u, v)

    def test_negative_epsilon_weight_counts_in_the_narrowing_gate(self):
        # 0 -> 2 reads column 1, which costs -log(0.03) = 3.5, but the
        # epsilon arc 2 -> 3 takes 5 off, so 0's continuation to 3 is the
        # frame's cheapest candidate (-1.5).  0's cheapest entry weight is
        # -5, so 0 keeps its full entry list and 3 is stored.
        g = fst_of(4, [(0, 1, 0, 0.0, 1), (0, 2, 0, 0.0, 2), (2, 0, 10, -5.0, 3)], {3: 0.0})
        r = decode(g, PosteriorMatrix([[0.97, 0.03]]), DecoderConfig(beam=3.0))
        assert r.words == (10,)
        assert r.total_cost == pytest.approx(-5.0 - math.log(0.03))

    def test_start_closure_gives_initial_tokens(self):
        # Only the start state's epsilon arc leads to an emitting arc.
        g = fst_of(3, [(0, 0, 5, 0.5, 1), (1, 1, 0, 0.25, 2)], {2: 0.0})
        r = decode(g, one_hot_rows([0]), WIDE)
        assert r.words == (5,)
        assert r.tokens == ((0, 1),)
        assert r.path_graph_costs == (0.5, 0.25)
        assert r.total_cost == 0.75

    def test_negative_input_label_rejected(self):
        g = fst_of(2, [(0, -1, 0, 0.0, 1)], {1: 0.0})
        with pytest.raises(ValidationError, match="input label -1"):
            decode(g, one_hot_rows([0]), WIDE)


class TestSearchOracle:
    """``decode`` against ``search_oracle``: dict-stored token passing
    with no cutoff bound, over enumerated epsilon paths."""

    @staticmethod
    def check_cases(rng, make_case, beams):
        # 1 500 cases, 30% compressed with ioo_koo; each must give the
        # same search or the same DecodeError text
        found = failed = 0
        for trial in range(1500):
            g, frames = make_case(rng)
            if rng.random() < 0.3:
                frames = compress(frames, CompressConfig(mode="ioo_koo"))
            cfg = DecoderConfig(beam=float(rng.choice(beams)),
                                max_active=int(rng.choice((1, 2, 3, 5000))))
            try:
                expected = search_oracle(g, frames, cfg)
            except DecodeError as exc:
                with pytest.raises(DecodeError) as got:
                    decode(g, frames, cfg)
                assert str(got.value) == str(exc), f"trial {trial}"
                failed += 1
                continue
            got = decode(g, frames, cfg)
            assert got.same_search(expected), f"trial {trial}: {got} vs {expected}"
            assert_one_token_per_row(got, frames)
            found += 1
        assert found >= 500 and failed >= 500

    def test_same_search_and_same_errors_on_random_cases(self):
        self.check_cases(np.random.default_rng(20261018), random_search_case,
                         (0.5, 1.0, 2.0, 4.0, 8.0, 16.0))

    def test_same_search_and_same_errors_on_spiky_rows(self):
        # smaller beams, so most live states read only the peak column's arcs
        self.check_cases(np.random.default_rng(20261019), spiky_search_case,
                         (0.5, 1.0, 2.0, 3.0, 4.0, 8.0))


class TestSettledPrefix:
    """``decode`` against ``search_oracle`` on inputs longer than the
    decoder's settle interval, where it resolves the settled prefix and
    drops the step tables before it (see ``decoder.py``)."""

    every = importlib.import_module("spikefst.decoder")._SETTLE_EVERY

    @pytest.fixture
    def dropped(self, monkeypatch):
        """Tables dropped by each try to settle a prefix, in try order."""
        decoder_module = importlib.import_module("spikefst.decoder")
        settle, dropped = decoder_module._settle, []

        def counting(steps, *args):
            kept = len(steps)
            floor = settle(steps, *args)
            dropped.append(kept - len(steps))
            return floor

        monkeypatch.setattr(decoder_module, "_settle", counting)
        return dropped

    @staticmethod
    def same_as_oracle(g, frames, cfg):
        """Assert the same search or the same DecodeError text; return the
        number of search steps, 0 on an error."""
        try:
            expected = search_oracle(g, frames, cfg)
        except DecodeError as exc:
            with pytest.raises(DecodeError) as got:
                decode(g, frames, cfg)
            assert str(got.value) == str(exc)
            return 0
        got = decode(g, frames, cfg)
        assert got.same_search(expected), f"{got} vs {expected}"
        assert_one_token_per_row(got, frames)
        return len(got.tokens_alive_histogram)

    @pytest.mark.parametrize("mode", ["dense", "ioo_koo"])
    @pytest.mark.parametrize("make", [random_search_case, spiky_search_case],
                             ids=["random", "spiky"])
    def test_rows_repeated_past_the_interval(self, make, mode, dropped):
        rng = np.random.default_rng(20261020)
        for max_active in (1, 2, 3, 5000):
            long = 0
            for _ in range(30):
                g, frames = make(rng)
                reps = 4 * self.every // max(1, frames.frames) + 1
                rows = PosteriorMatrix(np.tile(frames.values, (reps, 1)))
                cfg = DecoderConfig(beam=float(rng.choice((1.0, 4.0, 16.0))),
                                    max_active=max_active)
                steps = self.same_as_oracle(g, compress(rows, CompressConfig(mode=mode)), cfg)
                long += steps > self.every
                if long == 2:
                    break
            assert long == 2, max_active
        assert sum(dropped) > 0

    def test_parallel_branches_that_never_meet_settle_nothing(self, dropped):
        # the start closure puts tokens on 1 and 2, and each loops on itself
        # at equal cost, so no step has one ancestor of every live token
        g = fst_of(3, [(0, 0, 10, 0.0, 1), (0, 0, 20, 0.0, 2),
                       (1, 1, 0, 0.5, 1), (1, 2, 0, 0.5, 1),
                       (2, 1, 0, 0.5, 2), (2, 2, 0, 0.5, 2)], {1: 0.0, 2: 0.0})
        frames = random_posteriors(np.random.default_rng(5), 3 * self.every, 2)
        assert self.same_as_oracle(g, frames, WIDE) == 3 * self.every
        assert len(dropped) == 3 and not any(dropped)
        assert decode(g, frames, WIDE).words == (10,)

    def test_failure_after_a_settled_prefix_names_its_row(self, dropped):
        # blanks up to row 3N, then a column no arc reads: the last blank
        # row folds into that row's step, which stores nothing
        g = fst_of(2, [(0, 1, 0, 0.1, 0), (0, 2, 7, 0.2, 1)], {1: 0.0})
        t = 3 * self.every
        rows = np.zeros((t + 1, 3))
        rows[:t, 0] = 1.0
        rows[t, 2] = 1.0
        assert self.same_as_oracle(g, PosteriorMatrix(rows), WIDE) == 0
        with pytest.raises(DecodeError, match=f"frame {t}"):
            decode(g, PosteriorMatrix(rows), WIDE)
        assert dropped and all(dropped)


class TestFixpointOracle:
    """On graphs from ``build_tlg``, whose epsilon arcs are single
    epsilon:word flush arcs, the compiled closure gives exactly what the
    per-frame epsilon fixpoint gave.  On compressed rows each inserted
    blank is folded into the next step, which the fixpoint search does
    not do: the best path stays the same and its cost the same up to
    float order, the live-token histogram does not, and
    ``search_oracle`` checks the whole result."""

    @pytest.mark.parametrize("graph", ["tlg", "tlg_pushed"])
    def test_build_tlg_graph_results_unchanged(self, request, graph, clean_corpus):
        tlg = request.getfixturevalue(graph)
        cfg = DecoderConfig(beam=12.0)
        for utt, _, mat in clean_corpus[:100]:
            assert decode(tlg, mat, cfg).same_search(fixpoint_oracle(tlg, mat, cfg)), utt
            comp = compress(mat, CompressConfig(mode="ioo_koo"))
            got, old = decode(tlg, comp, cfg), fixpoint_oracle(tlg, comp, cfg)
            assert (got.words, got.tokens, got.path_graph_costs) == (
                old.words, old.tokens, old.path_graph_costs), utt
            # the fold adds a blank entry's weight to the next entry's first
            assert got.total_cost == pytest.approx(old.total_cost, rel=0, abs=1e-9), utt
            assert got.same_search(search_oracle(tlg, comp, cfg)), utt


class TestGraphEdits:
    """A graph cannot be edited after a decode, so the table compiled on
    its first decode serves every later one; an edited graph is a new
    graph with a table of its own."""

    @pytest.mark.parametrize("edit, error", [
        (lambda g: operator.setitem(g.finals, 2, 2.0), TypeError),
        (lambda g: setattr(g, "start", 1), AttributeError),
    ], ids=["assign_final", "rebind_start"])
    def test_edit_raises_and_the_next_decode_is_unchanged(self, edit, error):
        g = one_word_graph()
        p = one_hot_rows([0, 1, 0])
        first = decode(g, p, WIDE)
        with pytest.raises(error):
            edit(g)
        assert decode(g, p, WIDE).same_search(first)
        assert first.same_search(decode(one_word_graph(), p, WIDE))

    def test_arcs_cannot_be_appended_to(self):
        g = one_word_graph()
        p = one_hot_rows([0, 1, 0])
        decode(g, p, WIDE)
        arcs = g.arcs(0)
        with pytest.raises(AttributeError):
            arcs.append(Arc(2, 7, 0.1, 1))
        assert decode(g, p, WIDE).same_search(decode(one_word_graph(), p, WIDE))

    def test_out_of_vocab_arc_added_after_decode_rejected(self):
        g = one_word_graph()
        p = one_hot_rows([0, 1, 0])
        first = decode(g, p, WIDE)
        with pytest.raises(ValidationError, match="label 9"):
            decode(one_word_graph((0, 9, 0, 0.0, 0)), p, WIDE)
        assert decode(g, p, WIDE).same_search(first)

    def test_two_decodes_of_one_graph_compile_once(self, monkeypatch):
        compiled = []

        def counting(graph):
            compiled.append(graph)
            return compile_table(graph)

        decoder_module = importlib.import_module("spikefst.decoder")
        compile_table = decoder_module._compile
        monkeypatch.setattr(decoder_module, "_compile", counting)
        g, h = one_word_graph(), one_word_graph()
        p = one_hot_rows([0, 1, 0])
        for graph in (g, g, h, g, h):
            decode(graph, p, WIDE)
        assert compiled == [g, h]


class TestCompressedParity:
    def test_dense_vs_compressed_transcripts(self, lang, tlg, clean_corpus):
        cfg = DecoderConfig(beam=12.0)
        truth_hits = 0
        sample = clean_corpus[:60]
        for utt, words, mat in sample:
            dense = decode(tlg, mat, cfg)
            for mode_cfg in (
                CompressConfig(mode="ioo"),
                CompressConfig(mode="ioo_koo", koo_strategy="max"),
            ):
                comp = compress(mat, mode_cfg)
                r = decode(tlg, comp, cfg)
                assert r.words == dense.words, (utt, mode_cfg.mode)
            if lang.word_syms(dense.words) == words:
                truth_hits += 1
        # near-perfect truth match; the rare misses are genuine word-boundary
        # ambiguities (e.g. "ti no" vs "tino") the language model re-segments
        assert truth_hits >= 0.9 * len(sample)

    def test_parity_frontier(self, lang, tlg):
        # Exact search, on short utterances and blank runs to keep it cheap.
        # Insert-Only-One keeps every transcript even on flat posteriors;
        # Keep-Only-One drops frames that can carry the deciding evidence,
        # so at low peak some transcript changes.  The second is documented
        # behaviour, not a bound.
        exact = DecoderConfig(beam=math.inf, max_active=10**9)
        koo_mismatches = {}
        for peak, noise in ((0.95, 0.04), (0.8, 0.1), (0.51, 0.4)):
            synth = SynthConfig(vocab_size=lang.vocab_size, peak=peak, noise=noise,
                                blank_run=(1, 3))
            koo_mismatches[peak] = 0
            corpus = make_corpus(lang, np.random.default_rng(11), 40, synth, lo=1, hi=3)
            for utt, _, mat in corpus:
                dense = decode(tlg, mat, exact).words
                ioo = decode(tlg, compress(mat, CompressConfig(mode="ioo")), exact).words
                assert ioo == dense, (peak, utt)
                koo = decode(tlg, compress(mat, CompressConfig(mode="ioo_koo")), exact).words
                koo_mismatches[peak] += koo != dense
        assert koo_mismatches[0.51] > 0, koo_mismatches

    def test_compressed_frame_loop_bound(self, tlg, clean_corpus):
        cfg = DecoderConfig(beam=12.0)
        for utt, words, mat in clean_corpus[:20]:
            comp = compress(mat, CompressConfig(mode="ioo_koo"))
            r = decode(tlg, comp, cfg)
            assert r.frames_processed == comp.frames
            assert r.frames_processed <= 2 * comp.nonblank_count + 1

    def test_alignment_maps_to_source_frames(self, lang, tlg, clean_corpus):
        utt, words, mat = clean_corpus[0]
        comp = compress(mat, CompressConfig(mode="ioo_koo"))
        r = decode(tlg, comp, DecoderConfig(beam=12.0))
        for src, token in r.tokens:
            if src == -1:
                continue  # inserted blank
            # emitting a real token at a kept frame: source row argmax agrees
            assert int(np.argmax(mat.values[src])) == token - 1


class TestBlankFold:
    """Which rows are folded is read from the row values alone: a source
    map neither causes nor prevents a fold."""

    @staticmethod
    def steps(source_map):
        """Search steps when each inserted blank followed by a kept row is
        folded into it."""
        pairs = zip(source_map, source_map[1:])
        return len(source_map) - sum(a == CUSTOM_BLANK != b for a, b in pairs)

    def test_a_blank_mark_on_a_content_row_is_refused_when_made(self, clean_corpus):
        # so no source map can mark a row that the fold would search as content
        _, _, mat = clean_corpus[3]
        comp = compress(mat, CompressConfig(mode="ioo_koo"))
        smap = list(comp.source_map)
        k = next(i for i, src in enumerate(smap) if src != CUSTOM_BLANK)
        smap[k] = CUSTOM_BLANK
        assert comp.values[k].max() < 1.0
        with pytest.raises(ValidationError,
                           match=rf"^row {k}: marked -1 but its values are not the inserted blank$"):
            CompressedPosteriors(comp.values, smap, comp.nonblank_count)

    def test_exact_one_hot_blank_rows_fold_without_a_source_map(self, tlg, clean_corpus):
        _, _, mat = clean_corpus[3]
        comp = compress(mat, CompressConfig(mode="ioo_koo"))
        cfg = DecoderConfig(beam=12.0)
        dense = decode(tlg, PosteriorMatrix(comp.values), cfg)
        assert len(dense.tokens_alive_histogram) == self.steps(comp.source_map) < comp.frames
        wrapped = CompressedPosteriors(comp.values, range(comp.frames), comp.nonblank_count)
        assert dense.same_search(decode(tlg, wrapped, cfg))


@pytest.mark.parametrize("field, value, match", [
    ("beam", 0.0, "beam and acoustic_scale must be positive"),
    ("acoustic_scale", -1.0, "beam and acoustic_scale must be positive"),
    ("acoustic_scale", math.inf, "acoustic_scale must be finite"),
    ("max_active", 0, "max_active must be >= 1"),
    ("max_active", 2.5, "max_active 2.5 is not an integer"),
    ("max_active", "7", "max_active '7' is not an integer"),
])
def test_decoder_config_rejects_a_bad_field(field, value, match):
    with pytest.raises(ValidationError, match=match):
        DecoderConfig(**{field: value})


def test_decoder_config_stores_a_numpy_integer_cap_as_int():
    cfg = DecoderConfig(max_active=np.int64(3))
    assert cfg.max_active == 3 and type(cfg.max_active) is int


class TestBatch:
    def test_batch_of_one_equals_single(self, tlg, clean_corpus):
        utt, words, mat = clean_corpus[0]
        cfg = DecoderConfig(beam=12.0)
        single = decode(tlg, mat, cfg)
        batch = decode_batch(tlg, [(utt, mat)], cfg)
        assert batch.results[0].same_search(single)

    def test_order_independence(self, tlg, clean_corpus):
        cfg = DecoderConfig(beam=12.0)
        utts = [(u, m) for u, _, m in clean_corpus[:10]]
        fwd = decode_batch(tlg, utts, cfg)
        rev = decode_batch(tlg, list(reversed(utts)), cfg)
        rev_by_id = dict(zip(rev.utt_ids, rev.results))
        for u, r in zip(fwd.utt_ids, fwd.results):
            assert rev_by_id[u].same_search(r)

    def test_jobs_other_than_one_rejected(self, tlg, clean_corpus):
        utt, _, mat = clean_corpus[0]
        with pytest.raises(ValidationError, match="jobs"):
            decode_batch(tlg, [(utt, mat)], DecoderConfig(beam=12.0), jobs=2)

    def test_wall_time_aggregates_per_utterance(self, tlg, clean_corpus):
        cfg = DecoderConfig(beam=12.0)
        utts = [(u, m) for u, _, m in clean_corpus[:20]]
        batch = decode_batch(tlg, utts, cfg)
        parts = sum(r.wall_time_ms for r in batch.results)
        assert batch.wall_time_ms >= parts * 0.99
        assert batch.wall_time_ms <= parts * 2.0 + 100.0

    def test_failures_collected_not_fatal(self, tlg, clean_corpus):
        cfg = DecoderConfig(beam=12.0)
        _, _, good = clean_corpus[0]
        vocab = good.vocab_size
        hopeless = PosteriorMatrix(np.tile(np.eye(vocab)[vocab - 1], (4, 1)))
        batch = decode_batch(tlg, [("good", good), ("bad", hopeless)], cfg)
        assert batch.results[0] is not None
        assert batch.results[1] is None
        assert [u for u, _ in batch.failures] == ["bad"]


@pytest.fixture(scope="module")
def sweep_corpus(lang, clean_corpus):
    utts = [(u, m) for u, _, m in clean_corpus[:30]]
    refs = {u: " ".join(w) for u, w, _ in clean_corpus[:30]}
    return utts, refs


class TestSweep:
    def test_single_point_matches_batch(self, tlg, sweep_corpus, lang):
        from spikefst import score_corpus, word_syms

        utts, refs = sweep_corpus
        cfg = DecoderConfig(beam=12.0)
        points = sweep_params(tlg, utts, refs, [cfg])
        assert len(points) == 1
        assert points[0].speedup_vs_first == pytest.approx(1.0)
        batch = decode_batch(tlg, utts, cfg)
        hyps = {u: " ".join(word_syms(tlg, r.words)) for u, r in batch.ok()}
        direct = score_corpus({u: refs[u] for u in hyps}, hyps)
        assert points[0].cer == pytest.approx(direct.rate)

    def test_wider_beam_never_hurts(self, tlg, sweep_corpus):
        utts, refs = sweep_corpus
        grid = [DecoderConfig(beam=b) for b in (1.0, 4.0, 16.0, math.inf)]
        points = sweep_params(tlg, utts, refs, grid)
        assert points[-1].cer <= points[0].cer + 1e-12

    def test_max_active_cap_visible_in_histogram(self, tlg, sweep_corpus):
        utts, refs = sweep_corpus
        grid = [
            DecoderConfig(beam=math.inf, max_active=2),
            DecoderConfig(beam=math.inf, max_active=5000),
        ]
        points = sweep_params(tlg, utts, refs, grid)
        assert points[0].max_live_tokens <= 2

    def test_empty_grid_rejected(self, tlg, sweep_corpus):
        utts, refs = sweep_corpus
        with pytest.raises(ValidationError, match="empty"):
            sweep_params(tlg, utts, refs, [])

    def test_refs_lacking_an_utterance_named(self, tlg, sweep_corpus):
        utts, refs = sweep_corpus
        gone = utts[3][0]
        partial = {u: text for u, text in refs.items() if u != gone}
        with pytest.raises(ValidationError, match=rf"1 utterance\(s\): \['{gone}'\]"):
            sweep_params(tlg, utts, partial, [DecoderConfig(beam=12.0)])

    @pytest.mark.parametrize("modes, repeats, match", [
        (["ioo_koo"], 1, "bench requires the dense mode as its baseline"),
        (["dense"], 0, "repeats must be >= 1"),
    ], ids=["no_dense", "no_repeats"])
    def test_bench_refuses_a_bad_plan(self, tlg, sweep_corpus, modes, repeats, match):
        from spikefst import bench

        utts, refs = sweep_corpus
        with pytest.raises(ValidationError, match=match):
            bench(tlg, utts, refs, [CompressConfig(mode=m) for m in modes],
                  DecoderConfig(beam=12.0), repeats=repeats)

    def test_bench_row_of_an_unrun_mode_is_a_key_error(self, tlg, sweep_corpus):
        from spikefst import bench

        utts, refs = sweep_corpus
        report = bench(tlg, utts[:2], refs, [CompressConfig(mode="dense")],
                       DecoderConfig(beam=12.0), repeats=1)
        assert report.row("dense").speedup == 1.0
        with pytest.raises(KeyError):
            report.row("ioo_koo/max")

    def test_bench_rows_carry_the_corpus_edit_breakdown(self):
        import json

        from spikefst import bench

        # the graph always says "5": one exact, one substituted, one with a word dropped
        utts = [(u, one_hot_rows([0, 1, 0])) for u in ("exact", "sub", "drop")]
        refs = {"exact": "5", "sub": "7", "drop": "5 5"}
        report = bench(one_word_graph(), utts, refs, [CompressConfig(mode="dense")],
                       WIDE, repeats=1)
        row = json.loads(report.to_json())["rows"][0]
        assert (row["substitutions"], row["insertions"], row["deletions"]) == (1, 0, 1)
        assert row["cer"] == 0.5

    def test_word_syms_without_an_output_table_are_ids(self):
        from spikefst import word_syms

        graph = one_word_graph()
        assert graph.osyms is None
        assert word_syms(graph, (5, 12)) == ["5", "12"]

    @pytest.mark.parametrize("run", ["bench", "sweep"])
    def test_refs_lacking_an_utterance_refused_before_any_decode(self, tlg, sweep_corpus,
                                                                 monkeypatch, run):
        # the package's ``bench`` attribute is the function, not the module
        bench_module = importlib.import_module("spikefst.bench")
        utts, refs = sweep_corpus
        partial = {u: text for u, text in refs.items() if u != utts[3][0]}
        cfg = DecoderConfig(beam=12.0)
        with pytest.raises(ValidationError) as scored:
            bench_module.score_batch(tlg, decode_batch(tlg, utts, cfg), partial)
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(bench_module, "decode_batch", counted(decode_batch))
        monkeypatch.setattr(bench_module, "compress", counted(compress))
        with pytest.raises(ValidationError) as refused:
            if run == "bench":
                bench_module.bench(tlg, utts, partial, [CompressConfig(mode="dense")], cfg)
            else:
                sweep_params(tlg, utts, partial, [cfg])
        assert str(refused.value) == str(scored.value)
        assert calls == []
