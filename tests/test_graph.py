import hashlib
import math
import re

import numpy as np
import pytest

from helpers import ToyLang, collapse_oracle, enum_weight_map, fst_of, large_build_inputs
from spikefst.errors import ArpaError, DataFormatError, FstError, GraphError
from spikefst.graph import (
    BOS,
    EOS,
    Lexicon,
    build_grammar_fst,
    build_lexicon_fst,
    build_token_fst,
    build_tlg,
    disambig_ids,
    make_token_table,
    parse_arpa,
)
from spikefst.wfst import Fst, SymbolTable, compose, determinize, write_fst_text

LN10 = math.log(10.0)

# First 16 hex digits of sha256 of the AT&T text of build_tlg's graph, by
# (ToyLang seed, use_pushing).  Any change to an algorithm's output order
# or weights shows here.
TLG_SHA256 = {
    (7, False): "2063f6c6a8c980b0",
    (7, True): "5fee3bbe80a140e0",
    (3, False): "a64ae4d100433bdd",
    (3, True): "ccf7557cd2cfa6bf",
}


def linear_acceptor(ids, isyms=None) -> Fst:
    return fst_of(len(ids) + 1, [(s, k, k, 0.0, s + 1) for s, k in enumerate(ids)],
                  {len(ids): 0.0}, isyms=isyms, osyms=isyms)


def transduce(machine: Fst, ids) -> tuple[tuple[int, ...], float]:
    """Output labels and weight of the best path for one input string."""
    paths = enum_weight_map(compose(linear_acceptor(ids), machine), len(ids))
    (_, olabels), weight = min(paths.items(), key=lambda kv: kv[1])
    return olabels, weight


@pytest.fixture(scope="module")
def table():
    return make_token_table(["a", "b", "c"])


class TestTokenFst:
    def test_repeats_collapse(self, table):
        t = build_token_fst(table)
        a = table.find_id("a")
        out, _ = transduce(t, [a, a, 1])
        assert out == (a,)

    def test_blank_separates_repeats(self, table):
        t = build_token_fst(table)
        a = table.find_id("a")
        out, _ = transduce(t, [a, 1, a])
        assert out == (a, a)

    def test_random_alignments_match_collapse_oracle(self, table):
        t = build_token_fst(table)
        rng = np.random.default_rng(3)
        for _ in range(40):
            seq = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 12)))]
            out, _ = transduce(t, seq)
            # oracle works in posterior space: graph id k <-> index k-1
            expected = tuple(k + 1 for k in collapse_oracle([k - 1 for k in seq]))
            assert out == expected

    def test_requires_blank_at_one(self):
        from spikefst.wfst import SymbolTable

        bad = SymbolTable(["x", "a"])  # id 1 is not the blank symbol
        with pytest.raises(GraphError, match="id 1"):
            build_token_fst(bad)

    def test_requires_a_real_token(self):
        with pytest.raises(GraphError, match="token table has no real tokens"):
            build_token_fst(make_token_table([], n_disambig=1))

    def test_smallest_token_set(self):
        t = build_token_fst(make_token_table(["a"]))
        assert t.num_states == 2


class TestLexiconFst:
    def test_single_entry_transduction(self):
        lex = Lexicon([("ab", ("a", "b"))])
        l = build_lexicon_fst(lex, add_disambig=False)
        ids = [lex.token_table.find_id(x) for x in ("a", "b")]
        out, _ = transduce(l, ids)
        assert out == (lex.word_table.find_id("ab"),)

    def test_homophones_need_disambig(self):
        lex = Lexicon([("one", ("a", "b")), ("two", ("a", "b"))])
        with pytest.raises(GraphError, match="collision"):
            build_lexicon_fst(lex, add_disambig=False)

    def test_homophones_recoverable_and_determinizable(self):
        lex = Lexicon([("one", ("a", "b")), ("two", ("a", "b")), ("three", ("b",))])
        l = build_lexicon_fst(lex, add_disambig=True)
        d = determinize(l)
        wt = lex.word_table
        outputs = {
            key[1] for key in enum_weight_map(d, 8, 20) if len(key[0]) <= 3
        }
        assert (wt.find_id("one"),) in outputs
        assert (wt.find_id("two"),) in outputs

    def test_prefix_pronunciation_gets_disambig(self):
        lex = Lexicon([("a", ("a",)), ("ab", ("a", "b"))])
        l = build_lexicon_fst(lex, add_disambig=True)
        aux = disambig_ids(lex.token_table)
        assert aux
        used = {arc.ilabel for s in range(l.num_states) for arc in l.arcs(s)}
        assert used & aux
        determinize(l)  # must not diverge

    def test_no_entries_rejected(self):
        with pytest.raises(GraphError, match="lexicon has no entries"):
            Lexicon([])

    def test_empty_pronunciation_rejected(self):
        with pytest.raises(GraphError, match="empty pronunciation"):
            Lexicon([("bad", ())])

    def test_token_starting_with_hash_rejected(self):
        with pytest.raises(GraphError, match="'#a' starts with '#'"):
            Lexicon([("x", ("#a", "b")), ("y", ("b",))])
        with pytest.raises(GraphError, match="'#1' starts with '#'"):
            make_token_table(["a", "#1"])

    def test_lexicon_is_a_value(self):
        lex = Lexicon([("ka", ["k", "a"]), ("se", ("s", "e")), ("ka", ("k", "e"))])
        assert lex.entries == (("ka", ("k", "a")), ("se", ("s", "e")), ("ka", ("k", "e")))
        # a word with two pronunciations has one id
        assert lex.word_table.items() == [(0, "<eps>"), (1, "ka"), (2, "se")]
        assert lex == Lexicon(list(lex.entries))
        for name in ("entries", "token_table", "word_table"):
            with pytest.raises(AttributeError):
                setattr(lex, name, None)

    @pytest.mark.parametrize("entries, match", [
        ([("<eps>", ("a",))], "symbol '<eps>' already bound to id 0"),
        ([("x", ("<blk>", "a"))], "symbol '<blk>' already bound to id 1"),
        ([("my word", ("a",))], "symbol 'my word' is empty or holds whitespace"),
        ([("", ("a",))], "symbol '' is empty or holds whitespace"),
        ([("x", ("a b",))], "symbol 'a b' is empty or holds whitespace"),
    ], ids=["epsilon_word", "blank_token", "spaced_word", "empty_word", "spaced_token"])
    def test_reserved_symbol_in_a_lexicon_is_refused(self, entries, match):
        with pytest.raises(FstError, match=f"^{re.escape(match)}$"):
            Lexicon(entries)

    @pytest.mark.parametrize("line, what", [
        ("<eps>\tk a", "word '<eps>'"), ("ka\t<eps> a", "token '<eps>'"),
        ("ka\t<blk> a", "token '<blk>'"), ("ka\t#1 a", "token '#1'"),
    ], ids=["epsilon_word", "epsilon_token", "blank_token", "disambig_token"])
    def test_from_file_refuses_a_reserved_name_on_its_line(self, tmp_path, line, what):
        path = tmp_path / "lexicon.txt"
        path.write_text(f"se\ts e\n{line}\n")
        with pytest.raises(DataFormatError,
                           match=f"^{re.escape(f'{path}: line 2: {what} is reserved')}$"):
            Lexicon.from_file(path)

    @pytest.mark.parametrize("line, word", [
        ("my word\ts e", "my word"), ("\ts e", ""), ("a\xa0b\ts e", "a\xa0b")],
        ids=["space", "empty", "no_break_space"])
    def test_from_file_refuses_a_word_its_symbol_table_cannot_hold(self, tmp_path, line, word):
        path = tmp_path / "lexicon.txt"
        path.write_text(f"se\ts e\n{line}\n")
        message = f"{path}: line 2: word {word!r} is empty or holds whitespace"
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            Lexicon.from_file(path)

    def test_from_file(self, tmp_path):
        path = tmp_path / "lexicon.txt"
        path.write_text("ka\tk a\n\n  \nse\ts e\n")
        lex = Lexicon.from_file(path)
        assert [w for w, _ in lex.entries] == ["ka", "se"]
        path.write_text("\n  \n")
        with pytest.raises(DataFormatError, match=f"^{re.escape(f'{path}: empty lexicon')}$"):
            Lexicon.from_file(path)
        bad = tmp_path / "bad.txt"
        bad.write_text("wordonly\n")
        with pytest.raises(DataFormatError, match="line 1"):
            Lexicon.from_file(bad)
        bad.write_text("se\ts e\nka\tk a\tx\n")  # a second tab, as read_trans_file refuses
        message = f"{bad}: line 2: expected 'word<TAB>token token ...'"
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            Lexicon.from_file(bad)


MINI_UNIGRAM = """\\data\\
ngram 1=3

\\1-grams:
-0.30103 a
-0.60206 b
-0.60206 c

\\end\\
"""

MINI_BIGRAM = """\\data\\
ngram 1=4
ngram 2=2

\\1-grams:
-0.5 </s>
-99 <s> -0.3
-0.4 a -0.2
-0.6 b -0.1

\\2-grams:
-0.2 <s> a
-0.3 a b

\\end\\
"""


class TestParseArpa:
    def test_minimal_unigram(self):
        model = parse_arpa(MINI_UNIGRAM)
        assert model.order == 1
        assert len(model.grams[0]) == 3
        assert model.grams[0][("a",)] == (-0.30103, 0.0)

    def test_count_mismatch(self):
        text = MINI_UNIGRAM.replace("ngram 1=3", "ngram 1=5")
        with pytest.raises(ArpaError, match="declared 5"):
            parse_arpa(text)

    def test_missing_terminator_names_parser_and_line(self):
        text = MINI_UNIGRAM.replace("\\end\\\n", "")
        with pytest.raises(ArpaError, match=r"parse_arpa: line \d+.*end"):
            parse_arpa(text)

    def test_malformed_entry_line(self):
        text = MINI_UNIGRAM.replace("-0.60206 b", "-0.60206 b extra junk here")
        with pytest.raises(ArpaError, match="fields"):
            parse_arpa(text)

    def test_positive_logprob_rejected(self):
        text = MINI_UNIGRAM.replace("-0.30103 a", "0.30103 a")
        with pytest.raises(ArpaError, match="positive"):
            parse_arpa(text)

    @pytest.mark.parametrize("text, line, match", [
        ("", 1, "missing \\\\data"),
        ("\\data\\\nngram 2=1\n", 2, "non-contiguous"),
        ("\\data\\\nngram 1=1\n\nngram 3=1\n\n", 4, "non-contiguous"),
        ("\n\n\\data\\\nngram 2=1\n", 4, "non-contiguous"),
        ("\\data\\\nngram 1=1\n\n\\x-grams:\n", 4, "malformed section header"),
        ("\\data\\\nngram 1=1\n\n\\2-grams:\n", 4, "section order 2 outside declared 1..1"),
        ("\\data\\\nngram 1=1\n\n\\1-grams:\nx a\n", 5, "malformed probability 'x'"),
        ("\n\njunk\n\\data\\\n", 3, "header, got 'junk'"),
        ("\\data\\\nngram 1=x\n", 2, "malformed count line 'ngram 1=x'"),
        ("\\data\\\n\n\\1-grams:\n", 3, "no ngram counts declared"),
        ("\\data\\\n\n", 2, "no ngram counts declared"),
        ("\\data\\\nngram 1=1\n\n-0.1 a\n", 4, "entry before any -grams section: '-0.1 a'"),
        ("\\data\\\nngram 1=1\n\n\\1-grams:\n-0.1 a x\n", 5, "malformed backoff weight 'x'"),
        ("\\data\\\nngram 1=1\n\n\\1-grams:\n-0.1 a b c\n", 5,
         "expected 2 or 3 fields, got 4"),
        ("\\data\\\nngram 1=1\n\n\\1-grams:\n0.5 a\n", 5, "log10 probability 0.5 is positive"),
        ("\\data\\\nngram 1=1\n\n\\1-grams:\n-0.1 a\n\n\n", 7, "missing \\\\end"),
        ("\\data\\\nngram 1=2\n\n\\1-grams:\n-0.1 a\n\n\\end\\\n\n", 8,
         "ngram 1: declared 2 entries, found 1"),
        ("\\data\\\nngram 1=1\n\n\\1-grams:\nnan a\n", 5, "malformed probability 'nan'"),
        ("\\data\\\nngram 1=1\n\n\\1-grams:\n-0.1 a NaN\n", 5, "malformed backoff weight 'NaN'"),
        ("\\data\\\nngram 1=1\n\n\\1-grams:\n-0.1 a inf\n", 5, "malformed backoff weight 'inf'"),
        ("\\data\\\nngram 1=1\n\n\\1-grams:\n-0.1 a +Infinity\n", 5,
         "malformed backoff weight '\\+Infinity'"),
    ], ids=["empty", "orders_from_two", "orders_skip_two", "blank_lines_before_data",
            "section_header", "section_order", "probability", "data_header", "count_line",
            "no_counts_at_a_line", "no_counts_at_the_end", "entry_before_a_section", "backoff",
            "field_count", "positive_probability", "end_after_blank_lines", "count_mismatch",
            "probability_nan", "backoff_nan", "backoff_inf", "backoff_plus_infinity"])
    def test_error_names_a_line_of_the_text(self, text, line, match):
        with pytest.raises(ArpaError, match=match) as err:
            parse_arpa(text)
        assert err.value.line == line

    def test_minus_infinity_and_a_positive_backoff_are_legal(self):
        model = parse_arpa("\\data\\\nngram 1=3\n\n\\1-grams:\n-inf a\n-0.1 b -inf\n"
                           "-0.2 c 0.5\n\n\\end\\\n")
        assert model.grams[0] == {("a",): (-math.inf, 0.0), ("b",): (-0.1, -math.inf),
                                  ("c",): (-0.2, 0.5)}

    def test_backoff_query_hand_computed(self):
        model = parse_arpa(MINI_BIGRAM)
        # direct bigram
        assert model.log10_prob(("a",), "b") == pytest.approx(-0.3)
        # missing bigram (b, a): backoff(b) + unigram(a) = -0.1 + -0.4
        assert model.log10_prob(("b",), "a") == pytest.approx(-0.5)
        # a word the model never saw
        assert model.log10_prob(("a",), "zz") == -math.inf

    def test_sentence_score_composes_terms(self):
        model = parse_arpa(MINI_BIGRAM)
        # p(a|<s>) + p(b|a) + p(</s>|b): last needs backoff(b) + uni(</s>)
        expected = -0.2 + -0.3 + (-0.1 + -0.5)
        assert model.sentence_log10(["a", "b"]) == pytest.approx(expected)


class TestGrammarFst:
    def test_ngram_without_its_context_entry_rejected(self):
        model = parse_arpa(MINI_BIGRAM.replace("ngram 2=2", "ngram 2=3")
                           .replace("-0.3 a b\n", "-0.3 a b\n-0.3 zz b\n"))
        with pytest.raises(GraphError, match="ngram 'zz b' has no context entry 'zz'"):
            build_grammar_fst(model, SymbolTable(["a", "b"]))

    def test_lm_word_missing_from_the_lexicon_is_skipped_with_a_warning(self, caplog):
        model = parse_arpa(MINI_UNIGRAM)
        wt = SymbolTable(["a", "b"])
        with caplog.at_level("WARNING", logger="spikefst.graph"):
            g = build_grammar_fst(model, wt)
        assert [r.getMessage() for r in caplog.records] == [
            "grammar skipped 1 LM words missing from the lexicon: c"]
        assert {a.olabel for s in range(g.num_states) for a in g.arcs(s)} == {1, 2}

    def test_unigram_sentence_weight(self):
        model = parse_arpa(MINI_UNIGRAM)
        from spikefst.wfst import SymbolTable

        wt = SymbolTable(["a", "b", "c"])
        g = build_grammar_fst(model, wt)
        ids = [wt.find_id(w) for w in ("a", "b", "a")]
        _, w = transduce(g, ids)
        expected = LN10 * (0.30103 + 0.60206 + 0.30103)
        assert w == pytest.approx(expected, abs=1e-9)

    def test_bigram_full_coverage_path_weight(self):
        model = parse_arpa(MINI_BIGRAM)
        from spikefst.wfst import SymbolTable

        wt = SymbolTable(["a", "b"])
        g = build_grammar_fst(model, wt)
        _, w = transduce(g, [wt.find_id("a"), wt.find_id("b")])
        expected = -LN10 * model.sentence_log10(["a", "b"])
        assert w == pytest.approx(expected, abs=1e-9)

    def test_backoff_sentence_matches_model_oracle(self, lang):
        from helpers import bigram_route_log10, sample_sentences

        g = lang.grammar_fst
        wt = lang.lexicon.word_table
        rng = np.random.default_rng(4)
        direct_hits = 0
        for words in sample_sentences(rng, 40, rare_rate=0.3):
            ids = [wt.find_id(w) for w in words]
            _, got = transduce(g, ids)
            expected = -LN10 * bigram_route_log10(lang.model, words)
            assert got == pytest.approx(expected, abs=1e-6), words
            # and when every transition takes the direct route, the graph
            # weight equals the plain backoff-model sentence score
            direct = -LN10 * lang.model.sentence_log10(words)
            if abs(direct - expected) < 1e-9:
                assert got == pytest.approx(direct, abs=1e-6)
                direct_hits += 1
        assert direct_hits >= 5


class TestBuildTlg:
    def test_no_disambig_labels_in_final_graph(self, lang, tlg):
        aux = disambig_ids(lang.lexicon.token_table)
        for s in range(tlg.num_states):
            for a in tlg.arcs(s):
                assert a.ilabel not in aux

    def test_clean_alignment_decodes_right_words(self, lang, tlg):
        words = ["kasa", "ti"]
        tt = lang.lexicon.token_table
        ids = []
        for w in words:
            for tok in ("k", "a", "s", "a") if w == "kasa" else ("t", "i"):
                ids.extend([tt.find_id(tok), 1])  # token then blank
        out, _ = transduce(tlg, ids)
        assert lang.word_syms(out) == words

    def test_pushed_and_unpushed_share_structure(self, tlg, tlg_pushed):
        rep = tlg.build_report
        rep_p = tlg_pushed.build_report
        by_name = {s["stage"]: s for s in rep.stages}
        by_name_p = {s["stage"]: s for s in rep_p.stages}
        assert by_name["minimize"]["states"] == by_name_p["minimize"]["states"]
        skeleton = sorted(
            (s, a.ilabel, a.olabel, a.nextstate) for s, a in tlg.all_arcs()
        )
        skeleton_p = sorted(
            (s, a.ilabel, a.olabel, a.nextstate) for s, a in tlg_pushed.all_arcs()
        )
        assert skeleton == skeleton_p

    @pytest.mark.parametrize("seed, pushed", sorted(TLG_SHA256))
    def test_graph_bytes_are_pinned(self, tmp_path, seed, pushed):
        lang = ToyLang(seed=seed)
        path = tmp_path / "tlg.fst.txt"
        write_fst_text(build_tlg(lang.token_fst, lang.lexicon_fst, lang.grammar_fst,
                                 use_pushing=pushed), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == TLG_SHA256[seed, pushed]

    def test_large_graph_bytes_are_pinned(self, tmp_path):
        # about 10k states: determinize, minimize and compose at scale
        path = tmp_path / "tlg.fst.txt"
        tlg = build_tlg(*large_build_inputs())
        write_fst_text(tlg, path)
        assert (tlg.num_states, tlg.num_arcs) == (9828, 79595)
        assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == "e520c2e0dae825ed"

    def test_stage_failure_names_stage(self, lang):
        # its output symbols are not the grammar's input symbols
        broken = Fst([[]], 0, {}, lang.lexicon.token_table, SymbolTable())
        with pytest.raises(GraphError, match="stage compose_lg"):
            build_tlg(lang.token_fst, broken, lang.grammar_fst)

    def test_pushed_best_path_is_front_loaded(self, lang, tlg, tlg_pushed):
        from spikefst import DecoderConfig, SynthConfig, decode, synth_posteriors

        words = ["kasa", "ti", "musu"]
        mat = synth_posteriors(
            lang.labels_for(words),
            SynthConfig(vocab_size=lang.vocab_size, peak=0.95, noise=0.02),
            seed=77,
        )
        cfg = DecoderConfig(beam=12.0)
        plain = decode(tlg, mat, cfg)
        pushed = decode(tlg_pushed, mat, cfg)
        assert pushed.words == plain.words
        assert pushed.total_cost == pytest.approx(plain.total_cost, abs=1e-9)
        # same total, but the pushed graph charges it earlier
        assert pushed.path_graph_costs[0] >= plain.path_graph_costs[0] - 1e-9
        cum_pushed = np.cumsum(pushed.path_graph_costs)
        cum_plain = np.cumsum(plain.path_graph_costs)
        n = min(len(cum_pushed), len(cum_plain))
        assert np.all(cum_pushed[:n] >= cum_plain[:n] - 1e-9)

    def test_three_word_unigram_end_to_end(self):
        lex = Lexicon([("ka", ("k", "a")), ("se", ("s", "e")), ("mu", ("m", "u"))])
        arpa = (
            "\\data\\\nngram 1=3\n\n\\1-grams:\n"
            "-0.4 ka\n-0.5 se\n-0.6 mu\n\n\\end\\\n"
        )
        model = parse_arpa(arpa)
        t = build_token_fst(lex.token_table)
        l = build_lexicon_fst(lex)
        g = build_grammar_fst(model, lex.word_table)
        graph = build_tlg(t, l, g)
        tt, wt = lex.token_table, lex.word_table
        blk = 1
        alignment = []
        for w in ("se", "ka"):
            for tok in lex.entries[[e[0] for e in lex.entries].index(w)][1]:
                alignment.extend([tt.find_id(tok), blk])
        out, _ = transduce(graph, alignment)
        assert [wt.find_symbol(i) for i in out] == ["se", "ka"]
