import math
import re

import numpy as np
import pytest

from helpers import (
    determinize_oracle,
    enum_weight_map,
    fst_of,
    machine_parts,
    maps_match,
    minimize_oracle,
    random_acyclic_fst,
    random_search_case,
    read_fst_text_oracle,
    same_outcome,
    trim_oracle,
)
from spikefst.errors import DataFormatError, FstError
from spikefst.graph import disambig_ids, relabel_input_epsilon
from spikefst.wfst import (
    EPSILON,
    ONE,
    ZERO,
    Arc,
    Fst,
    SymbolTable,
    arcsort,
    compose,
    determinize,
    minimize,
    push_weights,
    read_fst_text,
    rm_epsilon,
    trim,
    wplus,
    write_fst_text,
    wtimes,
)


class TestSemiring:
    def test_axioms_on_random_values(self):
        rng = np.random.default_rng(0)
        vals = [round(float(x), 4) for x in rng.uniform(0, 10, size=12)] + [ZERO, ONE]
        for a in vals:
            for b in vals:
                assert wplus(a, b) == wplus(b, a)
                assert wtimes(a, ZERO) == ZERO  # annihilator
                assert wtimes(a, ONE) == a
                assert wplus(a, ZERO) == a
                for c in vals:
                    assert wplus(wplus(a, b), c) == wplus(a, wplus(b, c))
                    assert wtimes(wtimes(a, b), c) == pytest.approx(wtimes(a, wtimes(b, c)))
                    # distributivity of + over min
                    lhs = wtimes(a, wplus(b, c))
                    rhs = wplus(wtimes(a, b), wtimes(a, c))
                    assert lhs == pytest.approx(rhs)


def chain(pairs, final_weight=0.0):
    """Linear machine from [(ilabel, olabel, weight), ...]."""
    return fst_of(len(pairs) + 1, [(s, *arc, s + 1) for s, arc in enumerate(pairs)],
                  {len(pairs): final_weight})


class TestStructure:
    def test_text_round_trip(self, tmp_path):
        f = fst_of(3, [(0, 1, 2, 0.5, 1), (1, 2, 3, 0.25, 2), (0, 3, 3, 1.0, 2)], {2: 0.125})
        path = tmp_path / "m.fst.txt"
        write_fst_text(f, path)
        g = read_fst_text(path)
        assert maps_match(enum_weight_map(f), enum_weight_map(g))

    def test_text_round_trip_start_only_final(self, tmp_path):
        f = Fst([[]], 0, {0: 0.75})
        path = tmp_path / "m.fst.txt"
        write_fst_text(f, path)
        g = read_fst_text(path)
        assert g.final_weight(0) == 0.75

    @pytest.mark.parametrize("start, text", [
        (1, "1 0.75\n0 2 1 1 0.5\n2 0 2 2 0.25\n2 0\n"),
        (2, "2 0 2 2 0.25\n0 2 1 1 0.5\n1 0.75\n2 0\n"),
    ], ids=["start_without_arcs", "start_with_arcs"])
    def test_text_first_line_names_the_start(self, tmp_path, start, text):
        f = fst_of(3, [(0, 1, 1, 0.5, 2), (2, 2, 2, 0.25, 0)], {2: 0.0, 1: 0.75}, start=start)
        path = tmp_path / "m.fst.txt"
        write_fst_text(f, path)
        assert path.read_text() == text
        g = read_fst_text(path)
        assert (g.start, dict(g.finals), g.num_arcs) == (start, {1: 0.75, 2: 0.0}, 2)

    def test_empty_machine_round_trips_as_an_empty_file(self, tmp_path):
        path = tmp_path / "m.fst.txt"
        write_fst_text(Fst([[]], 0, {}), path)
        assert path.read_text() == ""
        g = read_fst_text(path)
        assert (g.num_states, g.start, dict(g.finals), g.num_arcs) == (1, 0, {}, 0)

    def test_start_without_arcs_that_is_not_final_is_not_written(self, tmp_path):
        f = Fst([[], [Arc(1, 1, 0.0, 1)]], 0, {1: 0.0})
        with pytest.raises(FstError, match="start state has no arcs and is not final"):
            write_fst_text(f, tmp_path / "m.fst.txt")
        assert not (tmp_path / "m.fst.txt").exists()

    def test_repr_counts_the_machine(self):
        f = Fst([[Arc(1, 1, 0.5, 1)], []], 0, {1: 0.0})
        assert repr(f) == "Fst(states=2, arcs=1, finals=1, start=0)"

    def test_arcsort_rejects_an_unknown_key(self):
        with pytest.raises(FstError, match="arcsort key must be 'ilabel' or 'olabel'"):
            arcsort(Fst([[]], 0, {}), "weight")

    def test_malformed_text_line(self, tmp_path):
        path = tmp_path / "bad.fst.txt"
        path.write_text("0 1 2\n")
        with pytest.raises(DataFormatError, match="line 1"):
            read_fst_text(path)

    @pytest.mark.parametrize("text, line, what", [
        ("0 1 -1 0 0.5\n1\n", 1, "negative state id or label"),
        ("0 1 1 -3\n1\n", 1, "negative state id or label"),
        ("0 1 1 0\n1 -2 1 0\n1\n", 2, "negative state id or label"),
        ("0 1 1 0\n-1 0.5\n", 2, "negative state id or label"),
        ("0 1 1 0 nan\n1\n", 1, "NaN weight"),
        ("0 1 1 0\n1 NaN\n", 2, "NaN weight"),
        ("0 1 -1 0 nan\n1\n", 1, "negative state id or label"),
        ("0 1 1 0\n-1 x\n", 2, "malformed FST line"),
    ])
    def test_negative_id_or_nan_weight_is_a_data_error(self, tmp_path, text, line, what):
        path = tmp_path / "bad.fst.txt"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=f"line {line}: {what}"):
            read_fst_text(path)

    def test_nan_weight_is_rejected_when_built(self):
        with pytest.raises(FstError, match="NaN weight on arc 0 -> 1"):
            Fst([[Arc(1, 5, math.nan, 1)], []], 0, {})
        with pytest.raises(FstError, match="NaN final weight at state 1"):
            Fst([[], []], 0, {1: math.nan})

    @pytest.mark.parametrize("arcs, start, finals, message", [
        ([[Arc(1, 1, 0.0, 2)], []], 0, {}, "state 2 out of range [0, 2)"),
        ([[Arc(1, 1, 0.0, -1)], []], 0, {}, "state -1 out of range [0, 2)"),
        ([[], [Arc(1, 1, math.nan, 0)]], 0, {}, "NaN weight on arc 1 -> 0"),
        ([[], []], 0, {1: math.nan}, "NaN final weight at state 1"),
        ([[], []], 0, {2: 0.0}, "state 2 out of range [0, 2)"),
        ([[], []], 2, {}, "state 2 out of range [0, 2)"),
        ([], 0, {}, "state 0 out of range [0, 0)"),
    ], ids=["arc_past_end", "arc_negative", "nan_arc", "nan_final", "final_past_end",
            "start_past_end", "no_states"])
    def test_whole_machine_constructor_checks_like_the_mutators(self, arcs, start, finals,
                                                                 message):
        with pytest.raises(FstError, match=f"^{re.escape(message)}$"):
            Fst(arcs, start, finals)

    def test_machine_cannot_be_changed(self):
        rows = [[Arc(1, 1, 0.5, 1)], []]
        finals = {1: 0.0}
        f = Fst(rows, 0, finals)
        before = machine_parts(f)
        with pytest.raises(AttributeError):
            f.start = 1
        with pytest.raises(TypeError):
            f.finals[0] = 1.0
        with pytest.raises(AttributeError):
            f.arcs(0).append(Arc(2, 2, 0.0, 0))
        # the constructor's inputs are not the machine
        rows[1].append(Arc(1, 1, 0.0, 0))
        finals[0] = 1.0
        assert machine_parts(f) == before

    def test_symbol_tables_of_a_read_machine_cannot_be_rebound(self, tmp_path):
        path = tmp_path / "m.fst.txt"
        path.write_text("0 1 1 2\n1\n")
        isyms, osyms = SymbolTable(["a"]), SymbolTable(["x", "y"])
        f = read_fst_text(path, isyms, osyms)
        with pytest.raises(AttributeError):
            f.isyms = None
        with pytest.raises(AttributeError):
            f.osyms = isyms
        assert f.isyms is isyms and f.osyms is osyms
        assert not hasattr(f.osyms, "add_symbol")

    def test_read_gives_the_same_machine_for_out_of_order_state_ids(self, tmp_path):
        path = tmp_path / "m.fst.txt"
        path.write_text("2 4 1 1 0.5\n0 1 2 2\n4 0 3 3 0.25\n4 1.5\n3 inf\n"
                        "1 2 1 0 1\n0 5 4 4 2\n1 0.5\n")
        g = read_fst_text(path)
        f = fst_of(6, [(2, 1, 1, 0.5, 4), (0, 2, 2, 0.0, 1), (4, 3, 3, 0.25, 0),
                       (1, 1, 0, 1.0, 2), (0, 4, 4, 2.0, 5)], {4: 1.5, 1: 0.5}, start=2)
        assert (g.num_states, g.start, g.finals) == (f.num_states, f.start, f.finals)
        assert [g.arcs(s) for s in range(6)] == [f.arcs(s) for s in range(6)]

    def test_symbol_table_round_trip(self, tmp_path):
        path = tmp_path / "syms.txt"
        path.write_text("b\t7\n<eps>\t0\na\t1\n")
        t = SymbolTable.from_file(path)
        assert t.find_symbol(7) == "b" and t.find_id("a") == 1
        t.to_file(path)
        assert path.read_text() == "<eps>\t0\na\t1\nb\t7\n"
        assert SymbolTable.from_file(path) == t
        u = SymbolTable(["a", "b"])
        u.to_file(path)
        assert path.read_text() == "<eps>\t0\na\t1\nb\t2\n"
        assert SymbolTable.from_file(path) == u != t

    def test_symbol_table_numbers_its_symbols_after_epsilon(self):
        t = SymbolTable(["b", "a"])
        assert t.items() == [(0, "<eps>"), (1, "b"), (2, "a")]
        assert (len(t), "a" in t, "c" in t) == (3, True, False)
        assert (t.find_id("a"), t.find_symbol(1)) == (2, "b")
        assert t == SymbolTable(iter(["b", "a"])) != SymbolTable(["a", "b"])
        assert SymbolTable().items() == [(0, "<eps>")]

    @pytest.mark.parametrize("symbols, match", [
        (["a", "b", "a"], "symbol 'a' already bound to id 1"),
        (["a", "<eps>"], "symbol '<eps>' already bound to id 0"),
    ], ids=["repeated", "epsilon"])
    def test_symbol_table_refuses_a_repeated_symbol(self, symbols, match):
        with pytest.raises(FstError, match=f"^{re.escape(match)}$"):
            SymbolTable(symbols)

    def test_symbol_table_rejects_non_integer_id(self, tmp_path):
        path = tmp_path / "syms.txt"
        path.write_text("<eps> 0\na x\n")
        with pytest.raises(DataFormatError, match=r"syms\.txt: line 2: id 'x' is not an integer"):
            SymbolTable.from_file(path)

    def test_symbol_table_rejects_negative_id(self, tmp_path):
        path = tmp_path / "syms.txt"
        path.write_text("<eps> 0\na\t-1\n")
        with pytest.raises(DataFormatError, match=r"syms\.txt: line 2: id -1 is negative"):
            SymbolTable.from_file(path)

    @pytest.mark.parametrize("text, match", [
        ("<eps> 0\na 1\nb 1\n", "line 3: id 1 already bound to 'a'"),
        ("<eps> 0\na 1\na 2\n", "line 3: symbol 'a' already bound to id 1"),
        ("<eps> 0\n\n  \na b c\n", "line 4: expected 'symbol<TAB>id'"),
        ("a 1\n\n", "no symbol bound to id 0"),
    ], ids=["repeated id", "repeated symbol", "three_fields", "no_epsilon"])
    def test_symbol_table_rejects_repeated_symbol_or_id(self, tmp_path, text, match):
        path = tmp_path / "syms.txt"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=match):
            SymbolTable.from_file(path)

    def test_arcsort_binary_search_matches_scan(self):
        rng = np.random.default_rng(1)
        labels = [int(rng.integers(0, 9)) for _ in range(25)]
        g = arcsort(fst_of(2, [(0, il, il, 0.0, 1) for il in labels], {}), "ilabel")
        import bisect

        arcs = g.arcs(0)
        ilabels = [a.ilabel for a in arcs]
        assert ilabels == sorted(ilabels)
        for probe in range(10):
            i = bisect.bisect_left(ilabels, probe)
            via_bisect = {a for a in arcs[i:] if a.ilabel == probe}
            via_scan = {a for a in arcs if a.ilabel == probe}
            assert via_bisect == via_scan

    def test_trim_keeps_connected_machine(self):
        f = chain([(1, 1, 0.0), (2, 2, 0.0)])
        g = trim(f)
        assert g.num_states == f.num_states and g.num_arcs == f.num_arcs

    def test_trim_keeping_every_state_returns_a_separate_copy(self):
        f = fst_of(3, [(0, 1, 1, 0.5, 1), (1, 2, 2, 0.25, 2)], {2: 0.125, 1: 2.0})
        g = trim(f)
        assert g is not f
        # finals in sorted state order
        assert machine_parts(g) == machine_parts(trim_oracle(f))
        # no arc was rebuilt
        assert all(a is b for s in range(f.num_states) for a, b in zip(f.arcs(s), g.arcs(s)))

    def test_trim_keeping_every_state_and_final_order_returns_its_input(self):
        f = fst_of(3, [(0, 1, 1, 0.5, 1), (1, 2, 2, 0.25, 2)], {1: 2.0, 2: 0.125})
        assert trim(f) is f

    def test_trim_drops_one_dead_state(self):
        # state 3 is accessible, not co-accessible
        f = fst_of(4, [(0, 1, 1, 0.0, 1), (1, 2, 2, 0.0, 2), (1, 3, 3, 0.0, 3)], {2: 0.0})
        g = trim(f)
        assert g.num_states == f.num_states - 1
        assert machine_parts(g) == machine_parts(trim_oracle(f))

    def test_trim_drops_dead_states(self):
        # state 2 is not accessible, state 3 not co-accessible
        f = fst_of(4, [(0, 1, 1, 0.0, 1), (2, 2, 2, 0.0, 1), (0, 3, 3, 0.0, 3)], {1: 0.0})
        g = trim(f)
        assert g.num_states == 2
        assert maps_match(enum_weight_map(f), enum_weight_map(g))


class TestCompose:
    def test_hand_trace(self):
        a = chain([(1, 2, 0.5)])
        b = chain([(2, 3, 0.25)])
        ab = compose(a, b)
        assert enum_weight_map(ab) == {((1,), (3,)): 0.75}

    def test_identity_composition(self):
        rng = np.random.default_rng(5)
        for trial in range(15):
            a = random_acyclic_fst(rng, eps_prob=0.2)
            ident = fst_of(1, [(0, k, k, 0.0, 0) for k in range(1, 4)], {0: 0.0})
            ab = compose(a, ident)
            assert maps_match(enum_weight_map(a, 20, 40), enum_weight_map(ab, 20, 40))

    def test_relation_composition_random(self):
        rng = np.random.default_rng(6)
        for trial in range(40):
            a = random_acyclic_fst(rng, max_states=5, eps_prob=0.25)
            b = random_acyclic_fst(rng, max_states=5, eps_prob=0.25)
            ab = compose(a, b)
            ma = enum_weight_map(a, 20, 40)
            mb = enum_weight_map(b, 20, 40)
            expected: dict = {}
            for (x, z), wa in ma.items():
                for (z2, y), wb in mb.items():
                    if z == z2:
                        key = (x, y)
                        w = wa + wb
                        if w < expected.get(key, math.inf):
                            expected[key] = w
            got = enum_weight_map(ab, 20, 60)
            assert maps_match(expected, got), f"trial {trial}"

    def test_nan_weight_from_opposite_infinities_raises(self):
        a = chain([(1, 2, math.inf)])
        b = chain([(2, 3, -math.inf)])
        with pytest.raises(FstError, match="NaN weight on arc 0 -> 1"):
            compose(a, b)

    def test_symbol_table_mismatch(self):
        ta, tb = SymbolTable(["x"]), SymbolTable(["y"])
        a = Fst([[]], 0, {}, osyms=ta)
        b = Fst([[]], 0, {}, isyms=tb)
        with pytest.raises(FstError, match="symbol"):
            compose(a, b)


class TestDeterminize:
    def test_parallel_arcs_merge_with_residual(self):
        f = fst_of(3, [(0, 1, 1, 0.3, 1), (0, 1, 1, 0.7, 2)], {1: 0.0, 2: 0.0})
        d = determinize(f)
        assert len(d.arcs(0)) == 1
        assert d.arcs(0)[0].weight == pytest.approx(0.3)
        assert enum_weight_map(d)[((1,), (1,))] == pytest.approx(0.3)

    def test_epsilon_free_subsets_skip_the_closure_exactly(self):
        from spikefst.wfst.ops import _close_elems, _relax

        # Only state 1 has an input-epsilon arc (to 0, output 3).
        eps = [[], [(0, 0.5, (3,))], []]

        def full_closure(elems):
            seeds = {}
            for s, w, z in elems:
                seeds[s, z] = min(seeds.get((s, z), ZERO), w)
            best = _relax(
                seeds, lambda key: [((t, key[1] + z), w) for t, w, z in eps[key[0]]],
                100, "diverged",
            )
            return [(s, w, z) for (s, z), w in best.items()]

        rng = np.random.default_rng(5)
        for _ in range(200):
            elems = [
                (int(rng.choice([0, 2])), float(rng.integers(0, 4)) / 2,
                 tuple(int(x) for x in rng.integers(1, 3, int(rng.integers(0, 2)))))
                for _ in range(int(rng.integers(1, 7)))
            ]
            assert _close_elems(eps, elems, 100) == full_closure(elems)
        closed = [(1, 1.0, ()), (2, 0.0, ())]
        assert _close_elems(eps, closed, 100) == full_closure(closed) == [
            (1, 1.0, ()), (2, 0.0, ()), (0, 1.5, (3,))]

    def test_already_deterministic_language_equal(self):
        f = chain([(1, 1, 0.25), (2, 2, 0.5)], final_weight=0.125)
        d = determinize(f)
        assert maps_match(enum_weight_map(f), enum_weight_map(d))

    def test_random_acyclic_weight_preservation(self):
        rng = np.random.default_rng(7)
        for trial in range(40):
            acceptor = trial % 2 == 0
            f = random_acyclic_fst(rng, max_states=6, acceptor=acceptor)
            d = determinize(f)
            assert maps_match(enum_weight_map(f, 20, 40), enum_weight_map(d, 20, 60), 1e-9)

    def test_output_is_input_deterministic(self):
        rng = np.random.default_rng(8)
        for trial in range(25):
            f = random_acyclic_fst(rng, max_states=7, acceptor=True)
            d = determinize(f)
            for s in range(d.num_states):
                ilabels = [a.ilabel for a in d.arcs(s)]
                assert len(ilabels) == len(set(ilabels))
                assert EPSILON not in ilabels

    def test_homophone_outputs_delayed_until_disambiguated(self):
        # two words sharing input 1,2 but separated by inputs 3 vs 4
        f = fst_of(7, [(0, 1, 10, 0.0, 1), (1, 2, 0, 0.0, 2), (2, 3, 0, 0.0, 5),
                       (0, 1, 20, 0.0, 3), (3, 2, 0, 0.0, 4), (4, 4, 0, 0.0, 6)],
                   {5: 0.0, 6: 0.0})
        d = determinize(f)
        for s in range(d.num_states):
            ilabels = [a.ilabel for a in d.arcs(s)]
            assert len(ilabels) == len(set(ilabels))
        assert maps_match(enum_weight_map(f), enum_weight_map(d))

    def test_budget_guard_diagnoses_divergence(self):
        with pytest.raises(FstError, match="budget"):
            determinize(not_determinizable())

    def test_label_whose_arcs_all_weigh_zero_gets_no_arc(self):
        # an inf arc is no path
        d = determinize(fst_of(2, [(0, 1, 1, ZERO, 1)], {1: 0.0}))
        assert (d.num_states, d.num_arcs, dict(d.finals)) == (1, 0, {})


class TestMinimize:
    def test_bisimilar_states_merge(self):
        f = fst_of(4, [(0, 1, 1, 0.5, 1), (0, 2, 2, 0.5, 2), (1, 3, 3, 0.2, 3),
                       (2, 3, 3, 0.2, 3)], {3: 0.0})
        m = minimize(f)
        assert m.num_states == f.num_states - 1
        assert maps_match(enum_weight_map(f), enum_weight_map(m))

    def test_already_minimal_fixpoint(self):
        f = chain([(1, 1, 0.5), (2, 2, 0.25)])
        m = minimize(f)
        assert m.num_states == f.num_states
        assert minimize(m).num_states == m.num_states

    def test_random_det_machines_language_preserved(self):
        rng = np.random.default_rng(9)
        for trial in range(30):
            f = random_acyclic_fst(rng, max_states=7, acceptor=True)
            d = determinize(f)
            m = minimize(d)
            assert m.num_states <= d.num_states
            assert maps_match(enum_weight_map(d, 20, 40), enum_weight_map(m, 20, 40), 1e-9)

    def test_nondeterministic_rejected(self):
        f = fst_of(2, [(0, 1, 1, 0.1, 1), (0, 1, 2, 0.2, 1)], {1: 0.0})
        with pytest.raises(FstError, match="deterministic"):
            minimize(f)


class TestPushWeights:
    def test_single_path_front_loads(self):
        f = chain([(1, 1, 0.2), (2, 2, 0.3)], final_weight=0.1)
        p = push_weights(f)
        assert p.arcs(0)[0].weight == pytest.approx(0.6)
        assert p.arcs(1)[0].weight == pytest.approx(0.0)
        assert p.final_weight(2) == pytest.approx(0.0)

    def test_idempotent(self):
        rng = np.random.default_rng(10)
        for trial in range(25):
            f = trim(random_acyclic_fst(rng, eps_prob=0.15))
            p1 = push_weights(f)
            p2 = push_weights(p1)
            assert p1.num_states == p2.num_states
            for s in range(p1.num_states):
                for a1, a2 in zip(p1.arcs(s), p2.arcs(s)):
                    assert a1[:2] == a2[:2] and a1.nextstate == a2.nextstate
                    assert abs(a1.weight - a2.weight) <= 1e-9

    def test_random_weight_preservation(self):
        rng = np.random.default_rng(11)
        for trial in range(40):
            f = trim(random_acyclic_fst(rng, eps_prob=0.15))
            p = push_weights(f)
            assert maps_match(enum_weight_map(f, 20, 40), enum_weight_map(p, 20, 40), 1e-9)

    def test_non_coaccessible_rejected(self):
        # state 2 never reaches a final
        f = fst_of(3, [(0, 1, 1, 0.5, 1), (0, 2, 2, 0.1, 2)], {1: 0.0})
        with pytest.raises(FstError, match="trim"):
            push_weights(f)

    def test_distance_to_final_includes_the_final_weight(self):
        from spikefst.wfst.ops import _distance_to_final

        f = chain([(1, 1, 0.25), (2, 2, 0.5)], final_weight=0.125)
        d = _distance_to_final(f)
        assert d[0] == pytest.approx(0.875)
        assert d[2] == pytest.approx(0.125)


class TestRmEpsilon:
    def test_bridge_folded_into_successor(self):
        f = fst_of(4, [(0, 1, 1, 0.1, 1), (1, EPSILON, EPSILON, 0.5, 2), (2, 2, 2, 0.2, 3)],
                   {3: 0.0})
        g = rm_epsilon(f)
        for s in range(g.num_states):
            for a in g.arcs(s):
                assert not (a.ilabel == EPSILON and a.olabel == EPSILON)
        assert enum_weight_map(g)[((1, 2), (1, 2))] == pytest.approx(0.8)

    def test_random_preservation(self):
        rng = np.random.default_rng(12)
        for trial in range(40):
            f = random_acyclic_fst(rng, eps_prob=0.35)
            g = rm_epsilon(f)
            assert maps_match(enum_weight_map(f, 20, 40), enum_weight_map(g, 20, 40), 1e-9)


def two_cycle(there, back):
    """0 -1:1-> 1, then a 2-cycle 1 -there-> 2 -back-> 1, each arc given as
    (ilabel, olabel, weight); 2 is final."""
    return fst_of(3, [(0, 1, 1, 0.0, 1), (1, *there, 2), (2, *back, 1)], {2: 0.0})


NEG_EPS = ((EPSILON, EPSILON, -1.0), (EPSILON, EPSILON, 0.5))
NEG = ((1, 1, -1.0), (1, 1, 0.5))


class TestRelaxGuard:
    """Each shortest-distance search gives up on a cycle it cannot close."""

    @pytest.mark.parametrize("op, cycle, what", [
        (rm_epsilon, NEG_EPS, "epsilon-closure did not converge"),
        (push_weights, NEG, "push_weights: distances to a final state did not converge"),
        (determinize, ((EPSILON, 5, 0.0), (EPSILON, EPSILON, 0.0)),
         "epsilon closure diverged"),
        (determinize, NEG_EPS, "epsilon closure diverged"),
    ], ids=["rm_epsilon", "push_weights", "determinize_growing_output",
            "determinize_negative"])
    def test_cycle_raises(self, op, cycle, what):
        with pytest.raises(FstError, match=what):
            op(two_cycle(*cycle))


def not_determinizable():
    """Two paths on the same input string whose weights drift apart
    without bound: the subset construction never closes."""
    return fst_of(3, [(0, 1, 1, 0.1, 1), (0, 1, 1, 0.2, 2), (1, 1, 1, 0.3, 1),
                      (2, 1, 1, 0.5, 2)], {1: 0.0, 2: 0.0})


def damaged(lines, rng):
    """One copy of *lines* with one line damaged: truncated, a field
    dropped or added, an id replaced by -1, nan or 1.5, or a blank line
    inserted.  About one copy in eight damages line 0, which names the
    start state."""
    lines = list(lines)
    k = 0 if rng.random() < 0.125 else int(rng.integers(0, len(lines)))
    parts = lines[k].split()
    kind = int(rng.integers(0, 7))
    if kind == 0:
        lines[k] = lines[k][:int(rng.integers(0, len(lines[k])))]
    elif kind == 1:
        del parts[int(rng.integers(0, len(parts)))]
        lines[k] = " ".join(parts)
    elif kind == 2:
        parts.insert(int(rng.integers(0, len(parts) + 1)), "7")
        lines[k] = " ".join(parts)
    elif kind < 6:
        # an id: the state of a final line, any of the four of an arc line
        i = 0 if len(parts) < 4 else int(rng.integers(0, 4))
        parts[i] = ("-1", "nan", "1.5")[kind - 3]
        lines[k] = " ".join(parts)
    else:
        lines.insert(k, "")
    return "\n".join(lines) + "\n"


class TestSetupOracles:
    """trim, determinize, minimize and the AT&T reader give exactly the
    machines, or the errors, of the earlier versions kept in helpers."""

    @staticmethod
    def check_all(f, tmp_path, det=True):
        same_outcome(trim, trim_oracle, f)
        same_outcome(minimize, minimize_oracle, f)
        if det and (d := same_outcome(determinize, determinize_oracle, f)) is not None:
            same_outcome(minimize, minimize_oracle, d)
        if f.arcs(f.start) or f.is_final(f.start):
            path = tmp_path / "m.fst.txt"
            write_fst_text(f, path)
            same_outcome(read_fst_text, read_fst_text_oracle, path)

    def test_random_machines(self, tmp_path):
        rng = np.random.default_rng(15)
        for trial in range(60):
            f = random_acyclic_fst(rng, max_states=8, eps_prob=(0.0, 0.3)[trial % 2],
                                   acceptor=trial % 3 == 0)
            self.check_all(f, tmp_path)
        for _ in range(60):
            # Cyclic, with dead states; most are not determinizable, and
            # their subsets grow for a long time before the budget stops them.
            f, _ = random_search_case(rng)
            self.check_all(f, tmp_path, det=False)

    def test_minimize_merges_states_whose_arcs_differ_only_in_order(self):
        f = fst_of(4, [(0, 1, 1, 0.5, 1), (0, 2, 2, 0.5, 2)]
                   + [(src, il, il, 0.2, 3) for src, labels in ((1, (3, 4)), (2, (4, 3)))
                      for il in labels], {3: 0.0})
        m = same_outcome(minimize, minimize_oracle, f)
        assert m.num_states == 3

    def test_every_toylang_build_stage(self, lang, tmp_path):
        t, l, g = lang.token_fst, lang.lexicon_fst, lang.grammar_fst
        stages = [t, l, g, compose(arcsort(l, "olabel"), g)]
        stages.append(rm_epsilon(stages[-1]))
        stages.append(determinize(stages[-1]))
        stages.append(push_weights(trim(stages[-1])))
        stages.append(minimize(stages[-2]))
        stages.append(relabel_input_epsilon(stages[-1], disambig_ids(l.isyms)))
        stages.append(compose(t, arcsort(stages[-1], "ilabel")))
        stages.append(arcsort(stages[-1], "ilabel"))
        for f in stages:
            self.check_all(f, tmp_path)

    @pytest.mark.parametrize("op, oracle, machine, what", [
        (determinize, determinize_oracle, not_determinizable(), "budget"),
        (determinize, determinize_oracle, two_cycle(*NEG_EPS), "epsilon closure diverged"),
        (determinize, determinize_oracle, two_cycle((EPSILON, 5, 0.0), (EPSILON, EPSILON, 0.0)),
         "epsilon closure diverged"),
        (minimize, minimize_oracle, not_determinizable(), "deterministic"),
    ], ids=["budget", "negative_eps_cycle", "growing_output", "nondeterministic"])
    def test_failures_raise_the_same_error(self, op, oracle, machine, what):
        with pytest.raises(FstError, match=what) as want:
            oracle(machine)
        with pytest.raises(FstError, match=f"^{re.escape(str(want.value))}$"):
            op(machine)

    def test_damaged_att_text_is_a_data_error_or_the_same_machine(self, tlg, tmp_path):
        path = tmp_path / "tlg.fst.txt"
        write_fst_text(tlg, path)
        lines = path.read_text().splitlines()
        rng = np.random.default_rng(16)
        outcomes = set()
        for _ in range(56):
            path.write_text(damaged(lines, rng))
            try:
                want = read_fst_text_oracle(path)
            except DataFormatError as exc:
                with pytest.raises(DataFormatError) as got:
                    read_fst_text(path)
                assert str(got.value) == str(exc)
                outcomes.add(re.search(r"line \d+: (\D+?) (in )?'", str(exc)).group(1))
            else:
                assert machine_parts(read_fst_text(path)) == machine_parts(want)
                outcomes.add("read")
        assert outcomes == {"read", "malformed FST line", "negative state id or label"}
