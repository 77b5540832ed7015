import errno
import json
import re
import os
import shlex
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import ToyLang, sample_sentences, toy_lexicon_text, TOY_WORDS
from spikefst import (CompressConfig, DataFormatError, DecoderConfig, SymbolTable, load_labels,
                      load_posteriors)
from spikefst.cli import _compress_config, _decoder_config, build_parser, main
from spikefst.errors import read_file
from spikefst.graph import Lexicon, load_arpa
from spikefst.scoring import read_trans_file
from spikefst.wfst import read_fst_text, write_fst_text


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    lang = ToyLang(seed=7)
    (d / "lexicon.txt").write_text(toy_lexicon_text())
    (d / "lm.arpa").write_text(lang.arpa_text)
    rng = np.random.default_rng(11)
    sentences = sample_sentences(rng, 8)
    with open(d / "labels.txt", "w") as fh, open(d / "refs.txt", "w") as rfh:
        for i, words in enumerate(sentences):
            tokens = " ".join(t for w in words for t in TOY_WORDS[w].split())
            fh.write(tokens + "\n")
            rfh.write(f"utt{i:05d}\t{' '.join(words)}\n")
    return d


@pytest.fixture(scope="module")
def graph_dir(workdir):
    out = workdir / "graph"
    rc = main(["build-graph", "--lexicon", str(workdir / "lexicon.txt"),
               "--arpa", str(workdir / "lm.arpa"), "--out-dir", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def posterior_dir(workdir, graph_dir):
    out = workdir / "dense"
    rc = main(["synth", "--labels", str(workdir / "labels.txt"),
               "--tokens", str(graph_dir / "tokens.txt"),
               "--out-dir", str(out), "--peak", "0.95", "--noise", "0.04",
               "--seed", "5"])
    assert rc == 0
    return out


class TestBuildGraph:
    def test_outputs_and_manifest(self, graph_dir):
        assert (graph_dir / "tlg.fst.txt").exists()
        assert (graph_dir / "tokens.txt").exists()
        assert (graph_dir / "words.txt").exists()
        manifest = json.loads((graph_dir / "manifest.json").read_text())
        assert manifest["pushed"] is False
        assert [(s["stage"], s["states"], s["arcs"]) for s in manifest["stages"]] == [
            ("compose_lg", 124, 479), ("rmepsilon", 123, 453), ("determinize", 257, 670),
            ("minimize", 257, 670), ("rm_disambig", 257, 670), ("compose_tlg", 776, 3260),
            ("final", 776, 3260),
        ]
        for s in manifest["stages"]:
            assert isinstance(s["seconds"], float) and s["seconds"] >= 0.0

    def test_push_flag_changes_only_weights(self, workdir, graph_dir):
        out = workdir / "graph_pushed"
        rc = main(["build-graph", "--lexicon", str(workdir / "lexicon.txt"),
                   "--arpa", str(workdir / "lm.arpa"), "--out-dir", str(out),
                   "--push"])
        assert rc == 0
        plain = json.loads((graph_dir / "manifest.json").read_text())
        pushed = json.loads((out / "manifest.json").read_text())
        assert pushed["pushed"] is True
        by_name = {s["stage"]: s["states"] for s in plain["stages"]}
        by_name_p = {s["stage"]: s["states"] for s in pushed["stages"]}
        assert by_name["minimize"] == by_name_p["minimize"]
        assert by_name["final"] == by_name_p["final"]

        def skeleton(path):
            lines = []
            for line in (path / "tlg.fst.txt").read_text().splitlines():
                parts = line.split()
                if len(parts) == 5:
                    lines.append(tuple(parts[:4]))
            return sorted(lines)

        assert skeleton(graph_dir) == skeleton(out)

    def test_missing_arpa_terminator_names_parser(self, workdir, caplog):
        bad = workdir / "broken.arpa"
        bad.write_text((workdir / "lm.arpa").read_text().replace("\\end\\", ""))
        out = workdir / "graph_broken"
        rc = main(["build-graph", "--lexicon", str(workdir / "lexicon.txt"),
                   "--arpa", str(bad), "--out-dir", str(out)])
        assert rc == 2
        assert any("parse_arpa" in r.message and "line" in r.message
                   for r in caplog.records)
        assert not (out / "tlg.fst.txt").exists()  # nothing partial written


class TestSynth:
    def test_one_file_per_utterance(self, workdir, posterior_dir):
        n_labels = len((workdir / "labels.txt").read_text().splitlines())
        assert len(list(posterior_dir.glob("*.spkf"))) == n_labels

    def test_label_symbols_resolve_before_integers(self, tmp_path, caplog):
        # '\u00b2' and '7' are bound symbols, so they name their table ids;
        # '1' is not, so it still reads as column 1
        from spikefst import argmax_labels, load_posteriors

        tokens = tmp_path / "tokens.txt"
        tokens.write_text("<eps>\t0\n<blk>\t1\na\t2\n\u00b2\t3\n7\t4\n", encoding="utf-8")
        labels = tmp_path / "labels.txt"
        labels.write_text("a \u00b2 7 1\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["synth", "--labels", str(labels), "--tokens", str(tokens),
                     "--out-dir", str(out)]) == 0
        frames = argmax_labels(load_posteriors(out / "utt00000.spkf"))
        runs = [int(t) for i, t in enumerate(frames) if i == 0 or t != frames[i - 1]]
        assert [t for t in runs if t != 0] == [1, 2, 3, 1]
        labels.write_text("a b\n")
        assert main(["synth", "--labels", str(labels), "--tokens", str(tokens),
                     "--out-dir", str(out)]) == 2
        assert any(f"{labels}: line 1: unknown token 'b'" in r.message for r in caplog.records)

    def test_fixed_seed_reproduces_bytes(self, workdir, graph_dir, posterior_dir):
        again = workdir / "dense_again"
        rc = main(["synth", "--labels", str(workdir / "labels.txt"),
                   "--tokens", str(graph_dir / "tokens.txt"),
                   "--out-dir", str(again), "--peak", "0.95", "--noise", "0.04",
                   "--seed", "5"])
        assert rc == 0
        for f in sorted(posterior_dir.glob("*.spkf")):
            assert f.read_bytes() == (again / f.name).read_bytes()

    def test_blank_ratio_flag_hits_target(self, workdir, graph_dir):
        out = workdir / "blanky"
        rc = main(["synth", "--labels", str(workdir / "labels.txt"),
                   "--tokens", str(graph_dir / "tokens.txt"),
                   "--out-dir", str(out), "--blank-ratio", "0.8", "--seed", "3"])
        assert rc == 0
        from spikefst import argmax_labels, load_posteriors

        blanks = frames = 0
        for f in out.glob("*.spkf"):
            mat = load_posteriors(f)
            labels = argmax_labels(mat)
            blanks += int(np.count_nonzero(labels == 0))
            frames += mat.frames
        assert abs(blanks / frames - 0.8) <= 0.05


class TestPipeline:
    def test_compress_then_decode_matches_in_process(self, workdir, graph_dir, posterior_dir):
        comp_dir = workdir / "comp"
        rc = main(["compress", "--input", str(posterior_dir), "--out", str(comp_dir),
                   "--mode", "ioo_koo", "--koo-strategy", "max"])
        assert rc == 0
        results = workdir / "results.jsonl"
        hyps = workdir / "hyps.txt"
        rc = main(["decode", "--graph-dir", str(graph_dir), "--input", str(comp_dir),
                   "--out", str(results), "--hyps", str(hyps), "--beam", "12"])
        assert rc == 0

        from spikefst import CompressConfig, DecoderConfig, compress, decode, load_posteriors
        from spikefst.bench import word_syms
        from spikefst.wfst import SymbolTable, read_fst_text

        tokens = SymbolTable.from_file(graph_dir / "tokens.txt")
        words = SymbolTable.from_file(graph_dir / "words.txt")
        graph = read_fst_text(graph_dir / "tlg.fst.txt", tokens, words)
        for line in results.read_text().splitlines():
            rec = json.loads(line)
            mat = load_posteriors(posterior_dir / f"{rec['utt']}.spkf")
            comp = compress(mat, CompressConfig(mode="ioo_koo"))
            expect = decode(graph, comp, DecoderConfig(beam=12.0))
            assert rec["words"] == word_syms(graph, expect.words)
            assert rec["cost"] == pytest.approx(expect.total_cost)
            assert rec["frames"] == expect.frames_processed

    def test_compress_writes_what_save_compressed_writes(self, workdir, posterior_dir):
        # one file per utterance, the same bytes that save_posteriors writes
        from spikefst import CompressConfig, compress, load_posteriors, save_posteriors

        comp_dir = workdir / "comp_aed"
        assert main(["compress", "--input", str(posterior_dir), "--out", str(comp_dir),
                     "--mode", "aed_ioo"]) == 0
        ref_dir = workdir / "ref_aed"
        inputs = sorted(posterior_dir.glob("*.spkf"))
        assert [f.name for f in sorted(comp_dir.iterdir())] == [f.name for f in inputs]
        for path in inputs:
            comp = compress(load_posteriors(path), CompressConfig(mode="aed_ioo"))
            save_posteriors(comp, ref_dir / path.name)
            assert (comp_dir / path.name).read_bytes() == (ref_dir / path.name).read_bytes()
            assert load_posteriors(comp_dir / path.name).nonblank_count == comp.nonblank_count

    def test_a_copied_file_keeps_its_alignment(self, graph_dir, posterior_dir, tmp_path):
        # the source map travels inside the .spkf, so one file copied alone
        # still reports source frames, not row indices
        import shutil

        from spikefst import CompressConfig, DecoderConfig, compress, decode, load_posteriors

        assert main(["compress", "--input", str(posterior_dir), "--out", str(tmp_path / "comp"),
                     "--mode", "ioo_koo"]) == 0
        name = sorted(posterior_dir.glob("*.spkf"))[2].name
        (tmp_path / "alone").mkdir()
        shutil.copy(tmp_path / "comp" / name, tmp_path / "alone" / name)
        out = tmp_path / "out.jsonl"
        assert main(["decode", "--graph-dir", str(graph_dir), "--input", str(tmp_path / "alone"),
                     "--out", str(out), "--alignment", "--beam", "12"]) == 0
        (record,) = [json.loads(line) for line in out.read_text().splitlines()]
        graph = read_fst_text(graph_dir / "tlg.fst.txt", SymbolTable.from_file(
            graph_dir / "tokens.txt"), SymbolTable.from_file(graph_dir / "words.txt"))
        comp = compress(load_posteriors(posterior_dir / name), CompressConfig(mode="ioo_koo"))
        expect = decode(graph, comp, DecoderConfig(beam=12.0)).tokens
        assert -1 in [frame for frame, _ in expect]
        assert record["alignment"] == [list(pair) for pair in expect]

    def test_score_identical_files_is_zero(self, workdir, capsys):
        rc = main(["score", "--refs", str(workdir / "refs.txt"),
                   "--hyps", str(workdir / "refs.txt")])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rate"] == 0.0

    def test_score_reports_each_kind_of_edit(self, tmp_path, capsys):
        refs, hyps = tmp_path / "refs.txt", tmp_path / "hyps.txt"
        refs.write_text("u1\ta b c\nu2\td e\nu3\tf\n")
        hyps.write_text("u1\ta x c\nu2\td e g h\nu3\t\n")
        assert main(["score", "--refs", str(refs), "--hyps", str(hyps)]) == 0
        payload = json.loads(capsys.readouterr().out)
        counts = [payload[k] for k in ("substitutions", "insertions", "deletions")]
        assert counts == [1, 2, 1]
        assert sum(counts) == payload["edits"] == 4

    def test_decode_then_score_end_to_end(self, workdir, graph_dir, posterior_dir, capsys):
        hyps = workdir / "hyps_dense.txt"
        rc = main(["decode", "--graph-dir", str(graph_dir), "--input", str(posterior_dir),
                   "--out", str(workdir / "r.jsonl"), "--hyps", str(hyps), "--beam", "12"])
        assert rc == 0
        rc = main(["score", "--refs", str(workdir / "refs.txt"), "--hyps", str(hyps)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["percent"] <= 10.0

    def test_bench_writes_table_with_requested_rows(self, workdir, graph_dir, posterior_dir):
        out = workdir / "bench"
        rc = main(["bench", "--graph-dir", str(graph_dir), "--input", str(posterior_dir),
                   "--refs", str(workdir / "refs.txt"), "--out-dir", str(out),
                   "--modes", "dense,ioo,ioo_koo,discard,average,lsd,swd",
                   "--repeats", "2", "--beam", "12"])
        assert rc == 0
        lines = (out / "bench.csv").read_text().strip().splitlines()
        assert lines[0] == "mode,cer,mean_frames,frame_reduction,speedup"
        assert len(lines) == 8  # header + 7 modes
        dense_row = [l for l in lines if l.startswith("dense,")][0]
        assert dense_row.split(",")[4] == "1.000"
        payload = json.loads((out / "bench.json").read_text())
        assert len(payload["rows"]) == 7

    def test_sweep_emits_grid_rows(self, workdir, graph_dir, posterior_dir, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--graph-dir", str(graph_dir), "--input", str(posterior_dir),
                   "--refs", str(workdir / "refs.txt"), "--beams", "8,16",
                   "--max-actives", "5000", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert out.read_text() == text
        assert len(text.strip().splitlines()) == 3  # header + 2 beams

    def test_decode_without_out_writes_results_to_stdout(self, workdir, graph_dir,
                                                         posterior_dir, capsys):
        results = workdir / "results_stdout.jsonl"
        assert main(["decode", "--graph-dir", str(graph_dir), "--input", str(posterior_dir),
                     "--out", str(results), "--beam", "12"]) == 0
        capsys.readouterr()
        assert main(["decode", "--graph-dir", str(graph_dir), "--input", str(posterior_dir),
                     "--beam", "12"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        expect = [json.loads(line) for line in results.read_text().splitlines()]
        for rec in records + expect:
            del rec["wall_time_ms"]
        assert records == expect and len(records) == 8


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert main(["decode", "--graph-dir"]) == 1

    @pytest.mark.parametrize("flag, value", [
        ("--beams", "abc"), ("--beams", "8,x"), ("--max-actives", "1.5")])
    def test_bad_sweep_axis_is_one_before_any_decode(self, workdir, graph_dir, posterior_dir,
                                                     monkeypatch, capsys, flag, value):
        calls = []
        monkeypatch.setattr("spikefst.cli.sweep_params", lambda *a, **k: calls.append(a))
        rc = main(["sweep", "--graph-dir", str(graph_dir), "--input", str(posterior_dir),
                   "--refs", str(workdir / "refs.txt"), flag, value])
        assert rc == 1
        assert calls == []
        assert f"argument {flag}: expected comma-separated" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["compress", "--input", "{posteriors}", "--out", "{out}", "--mode", "foo"],
        ["bench", "--graph-dir", "{graph}", "--input", "{posteriors}", "--refs", "{refs}",
         "--out-dir", "{out}", "--modes", "dense,foo"],
    ], ids=["compress_mode", "bench_modes"])
    def test_bad_mode_is_one_before_any_file_is_read(self, workdir, graph_dir, posterior_dir,
                                                     tmp_path, monkeypatch, capsys, argv):
        reads = []
        monkeypatch.setattr("spikefst.cli._iter_corpus", lambda *a: reads.append(a))
        paths = {"posteriors": posterior_dir, "out": tmp_path / "out", "graph": graph_dir,
                 "refs": workdir / "refs.txt"}
        assert main([a.format(**paths) for a in argv]) == 1
        assert reads == []
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "invalid choice: 'foo'" in err
        assert not (tmp_path / "out").exists()

    def test_no_flags_give_the_library_defaults(self):
        parse = build_parser().parse_args
        bench = parse(["bench", "--graph-dir", "g", "--input", "i", "--refs", "r",
                       "--out-dir", "o"])
        assert _decoder_config(bench) == DecoderConfig()
        assert _compress_config(bench) == CompressConfig(mode="ioo_koo")
        assert _compress_config(parse(["compress", "--input", "i", "--out", "o"])) \
            == CompressConfig(mode="ioo_koo")
        assert _decoder_config(parse(["decode", "--graph-dir", "g", "--input", "i"])) \
            == DecoderConfig()
        sweep = parse(["sweep", "--graph-dir", "g", "--input", "i", "--refs", "r"])
        assert (sweep.max_actives, sweep.acoustic_scale) == (
            [DecoderConfig().max_active], DecoderConfig().acoustic_scale)

    def test_unknown_subcommand_is_one(self):
        assert main(["frobnicate"]) == 1

    def test_seed_only_on_synth_and_no_nb_onehot_off(self):
        assert main(["score", "--refs", "r.txt", "--hyps", "h.txt", "--seed", "1"]) == 1
        # one blank per region and every frame of an ioo_nb run are not flags
        for flag, value in (("--nb-onehot", "off"), ("--nb-onehot", "max"),
                            ("--blanks-per-region", "2")):
            assert main(["compress", "--input", "in", "--out", "out", flag, value]) == 1

    def test_data_error_is_two(self, workdir):
        rc = main(["score", "--refs", str(workdir / "nope.txt"),
                   "--hyps", str(workdir / "refs.txt")])
        assert rc == 2

    @pytest.mark.parametrize("argv, message", [
        (["compress", "--input", "{empty}", "--out", "{out}"], "{empty}: no .spkf files found"),
        (["synth", "--labels", "{labels}", "--out-dir", "{out}"],
         "synth needs --tokens or --vocab-size"),
        (["synth", "--labels", "{labels}", "--tokens", "{tokens}", "--out-dir", "{out}",
          "--blank-ratio", "1.0"], "--blank-ratio must be in (0, 1)"),
    ], ids=["no_spkf_files", "synth_without_a_vocabulary", "blank_ratio_out_of_range"])
    def test_bad_value_is_two_before_any_output(self, workdir, graph_dir, tmp_path, caplog,
                                                argv, message):
        paths = {"empty": tmp_path / "empty", "out": tmp_path / "out",
                 "labels": workdir / "labels.txt", "tokens": graph_dir / "tokens.txt"}
        paths["empty"].mkdir()
        assert main([a.format(**paths) for a in argv]) == 2
        assert [r.message for r in caplog.records] == [message.format(**paths)]
        assert not paths["out"].exists()

    def test_non_numeric_label_without_tokens_is_two(self, tmp_path, caplog):
        labels = tmp_path / "l.txt"
        labels.write_text("a b\n")
        rc = main(["synth", "--labels", str(labels), "--vocab-size", "4",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert any("l.txt: line 1: token 'a' is not an integer" in r.message
                   for r in caplog.records)

    def test_sidecar_with_a_negative_frame_is_two(self, workdir, graph_dir, posterior_dir,
                                                  tmp_path, caplog):
        comp_dir = tmp_path / "comp"
        assert main(["compress", "--input", str(posterior_dir), "--out", str(comp_dir),
                     "--mode", "ioo_koo"]) == 0
        bad = sorted(comp_dir.glob("*.spkf"))[0]
        raw = bytearray(bad.read_bytes())
        _, _, rows, vocab = struct.unpack_from("<4sIII", raw)
        struct.pack_into("<i", raw, 16 + 4 * rows * vocab + 4 + 4 * 2, -7)  # row 2's frame
        bad.write_bytes(bytes(raw))
        rc = main(["decode", "--graph-dir", str(graph_dir), "--input", str(comp_dir),
                   "--out", str(tmp_path / "out.jsonl")])
        assert rc == 2
        assert any(f"{bad}: row 2: source frame -7 is below -1" in r.message
                   for r in caplog.records)

    @pytest.mark.parametrize("command", [
        ["bench", "--modes", "dense,ioo_koo", "--repeats", "1"],
        ["sweep", "--beams", "12"],
    ])
    def test_refs_missing_an_utterance_is_two(self, workdir, graph_dir, posterior_dir,
                                              tmp_path, caplog, command):
        refs = tmp_path / "refs.txt"
        kept = [l for l in (workdir / "refs.txt").read_text().splitlines()
                if not l.startswith("utt00003\t")]
        refs.write_text("\n".join(kept) + "\n")
        out = ["--out-dir", str(tmp_path / "bench")] if command[0] == "bench" else []
        rc = main(command[:1] + ["--graph-dir", str(graph_dir), "--input", str(posterior_dir),
                                 "--refs", str(refs)] + out + command[1:])
        assert rc == 2
        assert any("refs have no transcript for 1 utterance(s): ['utt00003']" in r.message
                   for r in caplog.records)
        assert not (tmp_path / "bench").exists()

    def test_decode_failure_is_three(self, workdir, graph_dir, posterior_dir):
        from spikefst import PosteriorMatrix, save_posteriors

        bad_dir = workdir / "hopeless"
        bad_dir.mkdir(exist_ok=True)
        vocab = 11
        rows = np.zeros((3, vocab))
        rows[:, vocab - 1] = 1.0  # a token the toy graph cannot finish on
        save_posteriors(PosteriorMatrix(rows), bad_dir / "bad.spkf", "binary")
        rc = main(["decode", "--graph-dir", str(graph_dir), "--input", str(bad_dir),
                   "--out", str(workdir / "bad.jsonl"), "--beam", "4"])
        assert rc == 3

    @pytest.mark.parametrize("fst_text", [
        "0 1 -1 0 0.5\n1\n",  # a negative input label
        "0 1 1 0\n1 2 0 0 -1\n2 1 0 0 0.5\n1\n",  # an epsilon cycle of weight -0.5
    ])
    def test_bad_graph_is_two(self, tmp_path, graph_dir, posterior_dir, fst_text):
        bad = tmp_path / "graph"
        bad.mkdir()
        for name in ("tokens.txt", "words.txt"):
            (bad / name).write_text((graph_dir / name).read_text())
        (bad / "tlg.fst.txt").write_text(fst_text)
        rc = main(["decode", "--graph-dir", str(bad), "--input", str(posterior_dir),
                   "--out", str(tmp_path / "out.jsonl")])
        assert rc == 2

    def test_damaged_graph_line_is_two(self, tmp_path, graph_dir, posterior_dir, caplog):
        bad = tmp_path / "graph"
        bad.mkdir()
        for name in ("tokens.txt", "words.txt"):
            (bad / name).write_text((graph_dir / name).read_text())
        lines = (graph_dir / "tlg.fst.txt").read_text().splitlines()
        lines[99] = " ".join(["1.5"] + lines[99].split()[1:])
        (bad / "tlg.fst.txt").write_text("\n".join(lines) + "\n")
        rc = main(["decode", "--graph-dir", str(bad), "--input", str(posterior_dir),
                   "--out", str(tmp_path / "out.jsonl")])
        assert rc == 2
        assert any("tlg.fst.txt: line 100: malformed FST line '1.5 " in r.message
                   for r in caplog.records)

    def test_negative_symbol_id_is_two(self, tmp_path, graph_dir, posterior_dir, caplog):
        bad = tmp_path / "graph"
        bad.mkdir()
        for name in ("tokens.txt", "words.txt", "tlg.fst.txt"):
            (bad / name).write_text((graph_dir / name).read_text())
        with open(bad / "words.txt", "a") as fh:
            fh.write("zz\t-1\n")
        rc = main(["decode", "--graph-dir", str(bad), "--input", str(posterior_dir),
                   "--out", str(tmp_path / "out.jsonl")])
        assert rc == 2
        lines = (bad / "words.txt").read_text().splitlines()
        assert any(f"words.txt: line {len(lines)}: id -1 is negative" in r.message
                   for r in caplog.records)


LOADERS = {
    "posteriors_binary": load_posteriors,
    "labels": load_labels,
    "lexicon": Lexicon.from_file,
    "arpa": load_arpa,
    "symbols": SymbolTable.from_file,
    "fst_text": read_fst_text,
    "transcripts": read_trans_file,
}


class TestUnreadableFiles:
    """Every loader reads through one helper, so a file that cannot be
    read or is not UTF-8 text raises a DataFormatError naming it, and
    the CLI exits 2."""

    @pytest.mark.parametrize("kind", ["not_utf8", "directory", "missing"])
    @pytest.mark.parametrize("loader", LOADERS)
    def test_loader_raises_a_data_error_naming_the_path(self, tmp_path, loader, kind):
        path = tmp_path / "input"
        if kind == "not_utf8":
            path.write_bytes(b"caf\xe9\t1\n")
        elif kind == "directory":
            path.mkdir()
        with pytest.raises(DataFormatError, match=re.escape(str(path))):
            LOADERS[loader](path)

    @pytest.mark.parametrize("binary", [True, False], ids=["binary", "text"])
    @pytest.mark.parametrize("kind, reason", [
        ("missing", os.strerror(errno.ENOENT)), ("directory", os.strerror(errno.EISDIR))])
    def test_read_file_names_the_path_and_the_reason(self, tmp_path, kind, reason, binary):
        path = tmp_path / "input"
        if kind == "directory":
            path.mkdir()
        with pytest.raises(DataFormatError) as err:
            read_file(path, binary=binary)
        assert str(err.value) == f"{path}: cannot read: {reason}"

    def test_read_file_names_the_first_byte_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "input"
        path.write_bytes(b"caf\xe9\t1\n")
        with pytest.raises(DataFormatError) as err:
            read_file(path)
        assert str(err.value) == f"{path}: byte 3 is not UTF-8 text"
        assert read_file(path, binary=True) == b"caf\xe9\t1\n"

    def test_read_file_text_mode_reads_every_line_ending_as_newline(self, tmp_path):
        path = tmp_path / "input"
        path.write_bytes(b"a\r\nb\rc\n")
        assert read_file(path) == "a\nb\nc\n"
        assert read_file(path, binary=True) == b"a\r\nb\rc\n"

    @pytest.mark.parametrize("loader, content", [
        # row 0 sums to 1.3
        ("posteriors_binary", struct.pack("<4sIII2f", b"SPKF", 1, 1, 2, 0.8, 0.5)),
        ("labels", b"1 2\n1 0\n"),
        ("lexicon", b"se\ts e\nka\n"),
        ("arpa", b"\\data\\\nngram 1=1\n\n\\1-grams:\n0.5 se\n\n\\end\\\n"),
        ("symbols", b"<eps>\t0\na\t-1\n"),
        ("fst_text", b"0 1 x 0\n"),
        ("transcripts", b"u1\ta\nu1\tb\n"),
    ], ids=list(LOADERS))
    def test_malformed_input_raises_a_data_error_naming_the_path(self, tmp_path, loader,
                                                                 content):
        path = tmp_path / "input"
        path.write_bytes(content)
        with pytest.raises(DataFormatError) as err:
            LOADERS[loader](path)
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("case, source", [
        ("lexicon", "lexicon.txt"), ("arpa", "lm.arpa"), ("refs", "refs.txt"),
        ("refs_directory", None)])
    def test_cli_exits_two(self, workdir, tmp_path, case, source, caplog):
        bad = tmp_path / "bad"
        if source is None:
            bad.mkdir()
        else:  # a good file with one latin-1 byte appended
            bad.write_bytes((workdir / source).read_bytes() + b"caf\xe9\n")
        lexicon = bad if case == "lexicon" else workdir / "lexicon.txt"
        arpa = bad if case == "arpa" else workdir / "lm.arpa"
        if case.startswith("refs"):
            argv = ["score", "--refs", str(bad), "--hyps", str(workdir / "refs.txt")]
        else:
            argv = ["build-graph", "--lexicon", str(lexicon), "--arpa", str(arpa),
                    "--out-dir", str(tmp_path / "graph")]
        assert main(argv) == 2
        assert any(r.message.startswith(f"{bad}: ") for r in caplog.records)


    def test_reserved_lexicon_name_exits_two_naming_its_line(self, workdir, tmp_path, caplog):
        lexicon = tmp_path / "lexicon.txt"
        lexicon.write_text("se\ts e\n<eps>\tk a\n")
        rc = main(["build-graph", "--lexicon", str(lexicon), "--arpa", str(workdir / "lm.arpa"),
                   "--out-dir", str(tmp_path / "graph")])
        assert rc == 2
        assert any(r.message == f"{lexicon}: line 2: word '<eps>' is reserved"
                   for r in caplog.records)


class TestUnwritableOutput:
    """Every writer goes through ``errors.write_file``, so an output path
    that cannot be written raises a DataFormatError naming it, the CLI
    exits 2, and no temporary file is left behind."""

    @pytest.mark.parametrize("case", ["under_a_file", "onto_a_directory"])
    def test_cli_exits_two_and_leaves_no_temporary_file(self, workdir, tmp_path, case, caplog):
        (tmp_path / "afile").write_text("kept\n")
        (tmp_path / "adir").mkdir()
        out = tmp_path / ("afile/x.json" if case == "under_a_file" else "adir")
        refs = str(workdir / "refs.txt")
        assert main(["score", "--refs", refs, "--hyps", refs, "--out", str(out)]) == 2
        assert any(r.message.startswith(f"{out}: cannot write: ") for r in caplog.records)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "afile"]
        assert (tmp_path / "afile").read_text() == "kept\n"
        assert not any((tmp_path / "adir").iterdir())

    def test_utterance_id_that_is_not_utf8_is_two(self, graph_dir, posterior_dir, tmp_path,
                                                  caplog):
        # a file name byte that is not UTF-8 decodes to a lone surrogate
        corpus = tmp_path / "out"
        corpus.mkdir()
        src = sorted(posterior_dir.glob("*.spkf"))[0]
        (corpus / "caf\udce9.spkf").write_bytes(src.read_bytes())
        hyps = tmp_path / "hyps.txt"
        rc = main(["decode", "--graph-dir", str(graph_dir), "--input", str(corpus),
                   "--out", str(tmp_path / "out.jsonl"), "--hyps", str(hyps)])
        assert rc == 2
        assert any(r.message == f"{hyps}: cannot write: character 3 has no UTF-8 encoding"
                   for r in caplog.records)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "out.jsonl"]

    def test_writer_raises_a_data_error_naming_the_path(self, tmp_path, tlg):
        (tmp_path / "afile").write_text("")
        path = tmp_path / "afile" / "tlg.fst.txt"
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: cannot write: ")):
            write_fst_text(tlg, path)


def test_build_graph_writes_utf8_under_an_ascii_locale(tmp_path):
    """Text is written as UTF-8 whatever the locale, as it is read."""
    (tmp_path / "lexicon.txt").write_text("café\tk a\nse\ts e\n", encoding="utf-8")
    (tmp_path / "lm.arpa").write_text(
        "\\data\\\nngram 1=2\n\n\\1-grams:\n-0.4 café\n-0.6 se\n\n\\end\\\n",
        encoding="utf-8")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "spikefst.cli", "build-graph", "--lexicon", "lexicon.txt",
         "--arpa", "lm.arpa", "--out-dir", "graph"],
        cwd=tmp_path, env=env, capture_output=True, text=True, encoding="utf-8")
    assert done.returncode == 0, done.stderr
    assert "café" in SymbolTable.from_file(tmp_path / "graph" / "words.txt")
    assert sorted(p.name for p in (tmp_path / "graph").iterdir()) == [
        "manifest.json", "tlg.fst.txt", "tokens.txt", "words.txt"]


class TestLoaderFuzz:
    """Damaged copies of files the pipeline wrote: each load raises a
    typed error, never a bare ValueError, IndexError or KeyError, and
    the CLI exits 2.  The exit code follows from the error's type alone,
    so the CLI reads a spread of the prefixes that the loaders read."""

    def test_every_prefix_of_a_posterior_file(self, posterior_dir, tmp_path):
        from spikefst import DataFormatError, load_posteriors

        raw = min(posterior_dir.glob("*.spkf"), key=lambda f: f.stat().st_size).read_bytes()
        bad = tmp_path / "bad.spkf"
        for k in range(len(raw)):
            bad.write_bytes(raw[:k])
            with pytest.raises(DataFormatError):
                load_posteriors(bad)
            if k <= 16 or k % 64 == 0:  # the whole header, then a spread of payloads
                assert main(["compress", "--input", str(bad),
                             "--out", str(tmp_path / "out")]) == 2

    def test_every_prefix_of_a_compressed_file(self, graph_dir, posterior_dir, tmp_path):
        from spikefst import DataFormatError, load_posteriors

        source = min(posterior_dir.glob("*.spkf"), key=lambda f: f.stat().st_size)
        assert main(["compress", "--input", str(source), "--out", str(tmp_path / "c.spkf"),
                     "--mode", "ioo_koo"]) == 0
        raw = (tmp_path / "c.spkf").read_bytes()
        _, version, rows, vocab = struct.unpack_from("<4sIII", raw)
        assert version == 2 and len(raw) == 16 + 4 * rows * vocab + 4 + 4 * rows
        (tmp_path / "bad").mkdir()
        bad = tmp_path / "bad" / "bad.spkf"
        for k in range(len(raw)):
            bad.write_bytes(raw[:k])
            with pytest.raises(DataFormatError):
                load_posteriors(bad)
            # the whole header, a spread of the matrix, then the count and the map
            if k <= 16 or k % 64 == 0 or k >= len(raw) - 4 * rows - 4 and k % 4 == 0:
                assert main(["decode", "--graph-dir", str(graph_dir), "--input",
                             str(bad.parent), "--out", str(tmp_path / "out.jsonl")]) == 2
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("field, match", [
        (0, "bad magic"), (1, "unsupported format version 2147483648"),
        (2, r"dimension overflow \(2147483648 x"), (3, r"dimension overflow \(\d+ x 2147483648\)"),
    ], ids=["magic", "version", "frames", "vocab"])
    def test_two_to_the_31_in_a_header_field(self, posterior_dir, tmp_path, field, match):
        from spikefst import DataFormatError, load_posteriors

        raw = bytearray(sorted(posterior_dir.glob("*.spkf"))[0].read_bytes())
        struct.pack_into("<I", raw, 4 * field, 2**31)
        bad = tmp_path / "bad.spkf"
        bad.write_bytes(raw)
        with pytest.raises(DataFormatError, match=match):
            load_posteriors(bad)
        assert main(["compress", "--input", str(bad), "--out", str(tmp_path / "out")]) == 2

    def test_every_prefix_of_an_arpa_file(self, workdir, tmp_path):
        from spikefst.errors import ArpaError
        from spikefst.graph import parse_arpa

        text = (workdir / "lm.arpa").read_text()
        # every prefix that stops short of the terminator
        end = text.rindex("\\end\\") + len("\\end\\")
        cli_cuts = [k for k in range(end) if k == 0 or text[k - 1] == "\n"][::16]
        bad = tmp_path / "bad.arpa"
        for k in range(end):
            with pytest.raises(ArpaError) as err:
                parse_arpa(text[:k])
            assert 1 <= err.value.line <= max(1, len(text[:k].splitlines())), k
            if k in cli_cuts:  # a spread of whole-line prefixes
                bad.write_text(text[:k])
                assert main(["build-graph", "--lexicon", str(workdir / "lexicon.txt"),
                             "--arpa", str(bad), "--out-dir", str(tmp_path / "graph")]) == 2
        assert not (tmp_path / "graph").exists()


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_walkthrough() -> tuple[dict[str, str], list[list[str]]]:
    """The README's ``mkdir demo`` block as the files its heredocs write
    and the argument lists of its ``spikefst`` commands."""
    block = README.read_text().split("```sh\nmkdir demo", 1)[1].split("```", 1)[0]
    files: dict[str, str] = {}
    commands: list[list[str]] = []
    lines = iter(block.splitlines())
    for line in lines:
        if line.startswith("cat > "):
            body = []
            for inner in lines:
                if inner == "EOF":
                    break
                body.append(inner)
            files[line.split()[2]] = "\n".join(body) + "\n"
        elif line.startswith("spikefst "):
            while line.endswith("\\"):
                line = line[:-1] + next(lines)
            commands.append(shlex.split(line)[1:])
    return files, commands


def test_readme_walkthrough_runs(tmp_path, monkeypatch, capsys):
    files, commands = readme_walkthrough()
    assert sorted(files) == ["labels.txt", "lexicon.txt", "lm.arpa", "refs.txt"]
    assert [c[0] for c in commands] == [
        "build-graph", "synth", "compress", "decode", "score", "bench", "sweep"]
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    for argv in commands:
        capsys.readouterr()
        assert main(argv) == 0, argv
        if argv[0] == "score":
            assert json.loads(capsys.readouterr().out)["rate"] == 0.0
