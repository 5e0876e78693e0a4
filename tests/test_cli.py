"""End-to-end command-line behavior: JSON output, exit codes, corpus
files, and the counterexample persistence path."""

import json
import sys
import time
import warnings
from types import SimpleNamespace

import pytest

from qube import enumeration, hypercube
from qube.cli import build_parser, main
from qube.cycles import DimensionProfile, gray_cycle, validate_cycle
from qube.enumeration import enumerate_cycles, sample_cycles
from qube.graphs import (
    UndirectedGraph,
    format_bipartite,
    hypercube_bipartite,
    parse_bipartite,
    parse_graph,
)
from qube.independence import brute_force_equi, equi_reduction
from qube.squares import find_squares
from test_mis import rowless
from test_squares import RIM_FREE_Q7, RIM_FREE_Q8


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def write_cycles(path, cycles) -> str:
    with open(path, "w", encoding="utf-8") as f:
        for h in cycles:
            f.write(json.dumps(h.to_dict()) + "\n")
    return str(path)


class TestGray:
    def test_one_cube_exact_output(self, capsys):
        code, out, _ = run(capsys, "gray", "--n", "1")
        assert code == 0
        assert out == '{"n": 1, "seq": [0, 1]}\n'

    def test_output_validates(self, capsys):
        code, out, _ = run(capsys, "gray", "--n", "5")
        doc = json.loads(out)
        assert code == 0
        validate_cycle(doc["n"], doc["seq"])

    def test_bad_dimension_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "gray", "--n", "0")
        assert code == 2
        assert "error:" in err


class TestEnumerate:
    def test_count_only(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--count-only")
        assert code == 0
        assert json.loads(out) == {"n": 3, "count": 6}

    def test_emission_to_file(self, capsys, tmp_path):
        target = tmp_path / "q3.jsonl"
        code, _, err = run(capsys, "enumerate", "--n", "3", "--out", str(target))
        assert code == 0
        docs = [json.loads(line) for line in target.read_text().splitlines()]
        assert len(docs) == 6
        for doc in docs:
            validate_cycle(doc["n"], doc["seq"])
        assert "6 cycles" in err

    def test_emission_to_stdout_matches_prune_none(self, capsys):
        code_a, out_a, _ = run(capsys, "enumerate", "--n", "3")
        code_b, out_b, _ = run(capsys, "enumerate", "--n", "3", "--prune", "none")
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_prefix_splitting_flow(self, capsys, tmp_path):
        pre = tmp_path / "prefixes.txt"
        code, out, _ = run(
            capsys, "enumerate", "--n", "3", "--split-depth", "2",
            "--prefixes-out", str(pre),
        )
        assert code == 0
        assert json.loads(out) == {"n": 3, "prefix_count": 6}

        seqs = []
        for k in range(6):
            code, out, _ = run(
                capsys, "enumerate", "--n", "3",
                "--prefixes-in", str(pre), "--prefix-index", str(k),
            )
            assert code == 0
            seqs.extend(tuple(doc["seq"]) for doc in json_lines(out))
        assert seqs == [h.seq for h in enumerate_cycles(3)]

    def test_prefix_index_out_of_range(self, capsys, tmp_path):
        pre = tmp_path / "prefixes.txt"
        run(capsys, "enumerate", "--n", "3", "--split-depth", "2",
            "--prefixes-out", str(pre))
        code, _, err = run(
            capsys, "enumerate", "--n", "3",
            "--prefixes-in", str(pre), "--prefix-index", "99",
        )
        assert code == 2
        assert "out of range" in err

    def test_dimension_beyond_the_enumeration_cap(self, capsys, tmp_path):
        target = tmp_path / "q17.jsonl"
        code, out, err = run(capsys, "enumerate", "--n", "17", "--out", str(target))
        assert code == 2
        assert out == ""
        assert "error: enumeration supports 2 <= n <= 16" in err

    def test_the_sixteen_cube_is_in_range(self, capsys, monkeypatch, tmp_path):
        # only the range is checked: the search itself is replaced
        searched = []
        monkeypatch.setattr(
            "qube.cli.enumerate_cycles", lambda n, cfg, prefix: searched.append(n) or iter(())
        )
        code, _, err = run(capsys, "enumerate", "--n", "16", "--out", str(tmp_path / "q16"))
        assert code == 0
        assert "0 cycles of the 16-cube emitted" in err
        assert searched == [16]

    @pytest.mark.parametrize(
        "argv,prefixes",
        [(["--n", "17"], None), (["--n", "1"], None),
         (["--n", "4"], "0 1 3\n0 16\n"), (["--n", "3"], "0 1 3\n0 3\n"),
         (["--n", "17"], "")],
        ids=["n17", "n1", "later-prefix-leaves-the-cube", "later-prefix-not-a-path",
             "n17-empty-prefix-file"],
    )
    def test_argument_error_leaves_the_out_file_alone(self, capsys, tmp_path, argv, prefixes):
        target = tmp_path / "out.jsonl"
        target.write_text("keep")
        if prefixes is not None:
            pre = tmp_path / "prefixes.txt"
            pre.write_text(prefixes)
            argv = argv + ["--prefixes-in", str(pre)]
        code, _, err = run(capsys, "enumerate", *argv, "--out", str(target))
        assert code == 2
        assert "error:" in err
        assert target.read_text() == "keep"

    @pytest.mark.parametrize("prefixes_in", [False, True], ids=["whole-cube", "prefixes-in"])
    def test_count_only_cannot_be_combined_with_out(self, capsys, tmp_path, prefixes_in):
        # --count-only writes no cycle, so --out would name a file that
        # is never written
        argv = ["--n", "3", "--count-only", "--out", str(tmp_path / "o.jsonl")]
        if prefixes_in:
            argv += ["--prefixes-in", str(tmp_path / "missing.txt")]
        code, out, err = run(capsys, "enumerate", *argv)
        assert code == 2
        assert out == ""
        assert "error: --count-only cannot be combined with --out" in err
        assert list(tmp_path.iterdir()) == []

    def test_count_only_of_one_prefix_counts_its_canonical_completions(self, capsys, tmp_path):
        # the prefix starts in dimension 1, which no first-use word does
        pre = tmp_path / "prefixes.txt"
        run(capsys, "enumerate", "--n", "4", "--split-depth", "3", "--prefixes-out", str(pre))
        prefixes = enumeration.read_prefixes(pre.read_text())
        k = next(k for k, p in enumerate(prefixes) if p[1] == 2)
        expected = len(list(enumerate_cycles(4, prefix=prefixes[k])))
        assert expected > 0
        code, out, _ = run(
            capsys, "enumerate", "--n", "4", "--prefixes-in", str(pre),
            "--prefix-index", str(k), "--count-only",
        )
        assert code == 0
        assert json.loads(out) == {"n": 4, "count": expected}

    @pytest.mark.parametrize("threads", ["1", "2", "0"])
    def test_count_only_ignores_qube_threads(self, capsys, monkeypatch, threads):
        # the count runs in one process and reads no environment variable
        monkeypatch.setenv("QUBE_THREADS", threads)
        code, out, _ = run(capsys, "enumerate", "--n", "4", "--count-only")
        assert code == 0
        assert json.loads(out) == {"n": 4, "count": 1344}

    def test_prefix_vertex_outside_the_cube(self, capsys, tmp_path):
        pre = tmp_path / "prefixes.txt"
        pre.write_text("0 16\n")
        code, out, err = run(
            capsys, "enumerate", "--n", "4", "--prefixes-in", str(pre)
        )
        assert code == 2
        assert out == ""
        assert "error: vertex 16 out of range for dimension 4" in err

    def test_a_bad_prefix_token_names_its_file_and_line(self, capsys, tmp_path):
        pre = tmp_path / "prefixes.txt"
        pre.write_text("0 1\n\n0 x\n")
        code, out, err = run(capsys, "enumerate", "--n", "4", "--prefixes-in", str(pre))
        assert (code, out) == (2, "")
        assert f"error: {pre}: line 3: invalid literal for int()" in err

    def test_prefixes_out_requires_depth(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "enumerate", "--n", "3",
            "--prefixes-out", str(tmp_path / "p.txt"),
        )
        assert code == 2
        assert "--split-depth" in err

    @pytest.mark.parametrize(
        "argv,needs",
        [(["--prefix-index", "5", "--count-only"], "--prefixes-in"),
         (["--split-depth", "2", "--count-only"], "--prefixes-out")],
        ids=["prefix-index", "split-depth"],
    )
    def test_flags_that_need_their_partner(self, capsys, argv, needs):
        code, out, err = run(capsys, "enumerate", "--n", "3", *argv)
        assert code == 2
        assert out == ""
        assert f"requires {needs}" in err

    @pytest.mark.parametrize(
        "argv",
        [["--prefixes-in", "missing.txt"], ["--prefix-index", "4"],
         ["--out", "o.jsonl"], ["--count-only"]],
        ids=["prefixes-in", "prefix-index", "out", "count-only"],
    )
    def test_flags_that_clash_with_prefixes_out(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(
            capsys, "enumerate", "--n", "3", "--split-depth", "2",
            "--prefixes-out", "p.txt", *argv,
        )
        assert code == 2
        assert out == ""
        assert f"--prefixes-out cannot be combined with {argv[0]}" in err
        assert list(tmp_path.iterdir()) == []

    def test_too_many_prefix_vertices(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(enumeration, "MAX_PREFIX_VERTICES", 1000)
        pre = tmp_path / "prefixes.txt"
        code, out, err = run(
            capsys, "enumerate", "--n", "10", "--split-depth", "1000",
            "--prefixes-out", str(pre),
        )
        assert code == 2
        assert out == ""
        assert "error:" in err and "Traceback" not in err
        assert not pre.exists()

    def test_prefixes_in_closes_its_file(self, capsys, tmp_path):
        pre = tmp_path / "prefixes.txt"
        run(capsys, "enumerate", "--n", "3", "--split-depth", "2",
            "--prefixes-out", str(pre))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, _ = run(
                capsys, "enumerate", "--n", "3", "--prefixes-in", str(pre),
                "--count-only",
            )
        assert code == 0
        assert json.loads(out) == {"n": 3, "count": 6}
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


class TestAnalyze:
    def test_full_profile_document(self, capsys, tmp_path):
        corpus = write_cycles(tmp_path / "g3.jsonl", [gray_cycle(3)])
        code, out, _ = run(capsys, "analyze", "--in", corpus)
        assert code == 0
        doc = json.loads(out)
        assert doc["chromatic_vector"] == [4, 2, 2]
        assert doc["chromatic_ok"] is True
        assert len(doc["profiles"]) == 3
        dim0 = doc["profiles"][0]
        assert dim0["index_list"] == [0, 2, 4, 6]
        assert dim0["segments"] == [2, 2, 2, 2]
        assert dim0["parity_list"] == [0, 1, 0, 1]
        assert dim0["balanced"] is True
        assert dim0["segment_sums_ok"] is True

    def test_single_dimension(self, capsys, tmp_path):
        corpus = write_cycles(tmp_path / "g3.jsonl", [gray_cycle(3)])
        code, out, _ = run(capsys, "analyze", "--in", corpus, "--dim", "2")
        doc = json.loads(out)
        assert code == 0
        assert [p["dim"] for p in doc["profiles"]] == [2]
        assert doc["profiles"][0]["index_list"] == [0, 4]

    def test_a_line_that_is_not_json_names_its_file_and_line(self, capsys, tmp_path):
        corpus = write_cycles(tmp_path / "g3.jsonl", [gray_cycle(3)])
        with open(corpus, "a", encoding="utf-8") as f:
            f.write("{not json\n")
        code, out, err = run(capsys, "analyze", "--in", corpus)
        assert (code, out) == (2, "")
        assert f"error: {corpus}:2: invalid JSON: " in err

    def test_a_dimension_out_of_range_for_a_later_cycle_leaves_no_output(
        self, capsys, tmp_path
    ):
        # --dim 4 fits the Q6 cycle but not the Q3 cycle after it
        corpus = write_cycles(tmp_path / "mixed.jsonl", [gray_cycle(6), gray_cycle(3)])
        code, out, err = run(capsys, "analyze", "--in", corpus, "--dim", "4")
        assert (code, out) == (2, "")
        assert "error: dimension index 4 out of range for n=3" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "--in", "no-such-file.jsonl")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "text",
        ['{"n": 2, "seq": [0, 1, 3]}\n',
         '{"n": 2, "seq": [0, 1, 3, 2]}\n{"n": 2, "seq": [0, 1, 3]}\n'],
        ids=["corrupt", "valid-then-corrupt"],
    )
    @pytest.mark.parametrize(
        "command",
        [["analyze"], ["squares"], ["verify", "--n", "2", "--property", "balance"]],
        ids=["analyze", "squares", "verify"],
    )
    def test_corrupt_corpus(self, capsys, tmp_path, command, text):
        # the corpus is read lazily, but a bad line still leaves no output
        bad = tmp_path / "bad.jsonl"
        bad.write_text(text)
        code, out, err = run(capsys, *command, "--in", str(bad))
        assert code == 2
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize(
        "line",
        ['{"n": 2, "seq": [0, 1, 3, 2.9]}', '{"n": 2, "seq": "0132"}',
         '{"n": 2.7, "seq": [0, 1, 3, 2]}', '{"n": 2, "seq": [0, 1, 3, 2.0]}',
         '{"n": 2, "seq": [false, true, 3, 2]}', '{"n": true, "seq": [0, 1]}'],
        ids=["float-vertex", "string-seq", "float-n", "integral-float", "bools", "bool-n"],
    )
    def test_non_integer_values_are_rejected_not_coerced(self, capsys, tmp_path, line):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"n": 2, "seq": [0, 1, 3, 2]}\n' + line + "\n")
        code, out, err = run(capsys, "analyze", "--in", str(bad))
        assert (code, out) == (2, "")
        assert f"error: {bad}:2: malformed cycle object" in err

    def test_an_out_of_range_dimension_names_its_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"n": 2, "seq": [0, 1, 3, 2]}\n{"n": 30, "seq": [0, 1]}\n')
        code, out, err = run(capsys, "analyze", "--in", str(bad))
        assert (code, out) == (2, "")
        assert f"error: {bad}:2: dimension must be an integer in 1..24, got 30" in err

    def test_a_one_cube_is_not_a_counterexample(self, capsys, tmp_path):
        # the parity-balance theorem is about n >= 2; {0, 1} walked both
        # ways is no Hamiltonian cycle
        bad = tmp_path / "q1.jsonl"
        bad.write_text('{"n": 1, "seq": [0, 1]}\n')
        code, out, err = run(
            capsys, "verify", "--n", "1", "--property", "balance", "--in", str(bad)
        )
        assert (code, out) == (2, "")
        assert f"error: {bad}:1: a Hamiltonian cycle needs n >= 2" in err


class TestSquares:
    def test_both_squares_of_the_two_cube(self, capsys, tmp_path):
        corpus = write_cycles(tmp_path / "g2.jsonl", [gray_cycle(2)])
        code, out, _ = run(capsys, "squares", "--in", corpus)
        doc = json.loads(out)
        assert code == 0
        assert doc["count"] == 2
        assert {s["kind"] for s in doc["squares"]} == {"straight"}

    def test_first_only(self, capsys, tmp_path):
        corpus = write_cycles(tmp_path / "g2.jsonl", [gray_cycle(2)])
        code, out, _ = run(capsys, "squares", "--in", corpus, "--first-only")
        doc = json.loads(out)
        assert doc["count"] == 1
        assert doc["squares"][0] == {
            "rim_dim": 0, "kind": "straight", "rim_indexes": [0, 2], "ray_dim": 1,
        }

    def test_a_cube_above_the_cap_exits_2_before_any_line(self, capsys, monkeypatch, tmp_path):
        # the Q3 cycle comes first, so writing its line before the Q19
        # cycle is checked fails the test, and so does listing a square
        def no_listing(h):
            raise AssertionError("a listing started")

        monkeypatch.setattr("qube.cli.find_squares", no_listing)
        corpus = write_cycles(tmp_path / "g3-g19.jsonl", [gray_cycle(3), gray_cycle(19)])
        code, out, err = run(capsys, "squares", "--in", corpus)
        assert (code, out) == (2, "")
        assert "listed only for n <= 18, got n=19" in err

    def test_a_line_is_written_in_slices(self, monkeypatch, tmp_path):
        # the 9,218 squares of the Gray Q11 line reach stdout at most 4,096
        # at a time, so no whole line is built
        corpus = write_cycles(tmp_path / "g11.jsonl", [gray_cycle(11)])
        writes = []
        monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append))
        assert main(["squares", "--in", corpus]) == 0
        per_write = [w.count('"rim_dim"') for w in writes]
        assert sum(per_write) == 9218
        assert max(per_write) == 4096

    def test_each_line_is_the_json_dumps_of_the_square_dicts(
        self, capsys, tmp_path, q4_cycles
    ):
        # every Q4 cycle, Gray cycles whose positions and dimensions reach
        # two digits, and sampled cycles of Q5 to Q7
        cycles = (
            q4_cycles
            + [gray_cycle(n) for n in range(2, 12)]
            + [h for n in (5, 6, 7) for h in sample_cycles(n, 1, 3)]
        )
        corpus = write_cycles(tmp_path / "mixed.jsonl", cycles)
        for flags in ([], ["--first-only"]):
            code, out, _ = run(capsys, "squares", "--in", corpus, *flags)
            expected = []
            for h in cycles:
                rows = find_squares(h)[: 1 if flags else None]
                squares = [
                    {"rim_dim": i, "kind": kind, "rim_indexes": [a, k], "ray_dim": j}
                    for i, a, k, kind, j in rows
                ]
                doc = {"n": h.n, "count": len(rows), "squares": squares}
                expected.append(json.dumps(doc) + "\n")
            assert code == 0
            # line by line: a diff of the 2.7 MB output as one string takes
            # pytest minutes to report
            assert out.splitlines(keepends=True) == expected, flags


class TestVerify:
    @pytest.mark.parametrize(
        "prop", ["balance", "segments", "squares", "chromatic", "threshold"]
    )
    def test_exhaustive_q3_holds(self, capsys, prop):
        code, out, err = run(
            capsys, "verify", "--n", "3", "--property", prop, "--exhaustive"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["checked"] == 6
        assert doc["violations"] == 0
        assert doc["first_counterexample"] is None
        assert "holds" in err

    def test_exhaustive_balance_q4(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "4", "--property", "balance", "--exhaustive"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["checked"] == 1344

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_no_environment_variable_changes_an_exhaustive_verify(
        self, capsys, monkeypatch, value
    ):
        # no command reads an environment variable, so a stray value of
        # one changes neither the exit code nor the report
        argv = ("verify", "--n", "3", "--property", "balance", "--exhaustive")
        code, out, _ = run(capsys, *argv)
        monkeypatch.setenv("QUBE_THREADS", value)
        code2, out2, _ = run(capsys, *argv)
        assert code == code2 == 0
        docs = [json.loads(out), json.loads(out2)]
        for doc in docs:
            del doc["seconds"]
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("n", ["1", "17"])
    def test_dimension_out_of_range_has_one_error(self, capsys, n):
        # valid dimensions, but outside the enumerator's range
        code, out, err = run(
            capsys, "verify", "--n", n, "--property", "balance", "--exhaustive"
        )
        assert code == 2
        assert out == ""
        assert "error: enumeration supports 2 <= n <= 16" in err

    @pytest.mark.parametrize(
        "prop,mode,corpus",
        [("balance", "independence", ["--exhaustive"]),
         ("squares", "equi", ["--exhaustive"]),
         ("isomorphism", "equi", [])],
        ids=["balance", "squares", "isomorphism"],
    )
    def test_mode_goes_only_with_threshold(self, capsys, prop, mode, corpus):
        code, out, err = run(
            capsys, "verify", "--n", "3", "--property", prop, *corpus, "--mode", mode
        )
        assert code == 2
        assert out == ""
        assert "error: --mode goes only with --property threshold" in err

    def test_sampled_corpus(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "5", "--property", "balance",
            "--sample", "30", "--seed", "17",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["checked"] == 30
        assert doc["corpus"] == "sample(seed=17, k=30)"

    def test_file_corpus(self, capsys, tmp_path):
        corpus = write_cycles(
            tmp_path / "mix.jsonl", [gray_cycle(4), gray_cycle(4).rotated(5)]
        )
        code, out, _ = run(
            capsys, "verify", "--n", "4", "--property", "threshold", "--in", corpus
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["checked"] == 2

    @pytest.mark.parametrize("n,seq", [(7, RIM_FREE_Q7), (8, RIM_FREE_Q8)], ids=["q7", "q8"])
    def test_a_top_rim_free_cycle_meets_the_threshold(self, capsys, tmp_path, n, seq):
        # the top dimension has as many edges as the computed balanced-
        # independence number of the next cube down, more than the reference
        # value, and no square has both rims in it: the theorem holds
        corpus = write_cycles(tmp_path / "rim_free.jsonl", [validate_cycle(n, seq)])
        code, out, err = run(
            capsys, "verify", "--n", str(n), "--property", "threshold", "--in", corpus
        )
        doc = json.loads(out)
        assert code == 0
        assert (doc["checked"], doc["violations"], doc["first_counterexample"]) == (1, 0, None)
        assert (doc["threshold"], doc["alpha_table"]) == ({7: 20, 8: 44}[n], "computed")
        assert "holds" in err

    @pytest.mark.parametrize(
        "prop,mode,named",
        [("threshold", [], {"threshold": 4, "alpha_table": "computed"}),
         ("threshold", ["--mode", "independence"], {"threshold": 8, "alpha_table": None}),
         ("balance", [], {})],
        ids=["equi", "independence", "balance"],
    )
    def test_a_threshold_report_names_its_alpha_table(self, capsys, prop, mode, named):
        # equi reads the computed table; the quarter-order bound reads none
        code, out, _ = run(
            capsys, "verify", "--n", "5", "--property", prop, "--sample", "2", "--seed", "0",
            *mode,
        )
        doc = json.loads(out)
        assert code == 0
        assert {key: doc[key] for key in ("threshold", "alpha_table") if key in doc} == named

    def test_the_least_counterexample_whatever_the_order_of_the_lines(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("qube.verify.has_square", lambda cyc: False)
        cycles = sample_cycles(4, 5, 6)
        assert len({h.seq for h in cycles}) == 6
        least = min(cycles, key=lambda h: h.seq)
        firsts = []
        for order in (cycles, cycles[::-1], cycles[3:] + cycles[:3]):
            corpus = write_cycles(tmp_path / "corpus.jsonl", order)
            code, out, _ = run(
                capsys, "verify", "--n", "4", "--property", "squares", "--in", corpus
            )
            assert code == 1
            firsts.append(json.loads(out)["first_counterexample"])
        assert firsts == [{"cycle": least.to_dict(), "square_free": True}] * 3

    def test_isomorphism_property(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "5", "--property", "isomorphism",
            "--exhaustive",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["checked"] == 5  # one dimension graph per dimension
        assert doc["violations"] == 0

    def test_isomorphism_dimension_out_of_range(self, capsys):
        code, out, err = run(capsys, "verify", "--n", "0", "--property", "isomorphism")
        assert code == 2
        assert out == ""
        assert "error: dimension must be an integer in 1..24, got 0" in err

    def test_isomorphism_refused_above_its_cap(self, capsys, monkeypatch):
        def no_work(v, i):
            raise AssertionError("the check started")

        monkeypatch.setattr(hypercube, "drop_entry", no_work)
        code, out, err = run(capsys, "verify", "--n", "19", "--property", "isomorphism")
        assert code == 2
        assert out == ""
        assert "error: the isomorphism check runs only for n <= 18" in err

    @pytest.mark.parametrize(
        "corpus",
        [["--in", "/nonexistent.jsonl"], ["--sample", "3", "--seed", "1"]],
        ids=["in", "sample"],
    )
    def test_isomorphism_reads_no_corpus(self, capsys, corpus):
        code, out, err = run(
            capsys, "verify", "--n", "3", "--property", "isomorphism", *corpus
        )
        assert code == 2
        assert out == ""
        assert f"error: --property isomorphism reads no corpus; drop {corpus[0]}" in err

    @pytest.mark.parametrize(
        "prop,corpus",
        [("balance", ["--exhaustive"]), ("balance", ["--in", "missing.jsonl"]),
         ("isomorphism", [])],
        ids=["exhaustive", "in", "isomorphism"],
    )
    def test_seed_requires_sample(self, capsys, prop, corpus):
        code, out, err = run(
            capsys, "verify", "--n", "3", "--property", prop, *corpus, "--seed", "5"
        )
        assert code == 2
        assert out == ""
        assert "error: --seed requires --sample" in err

    def test_sample_requires_seed(self, capsys):
        code, _, err = run(
            capsys, "verify", "--n", "4", "--property", "balance", "--sample", "5"
        )
        assert code == 2
        assert "--seed" in err

    def test_some_corpus_flag_is_required(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "4", "--property", "balance")
        assert code == 2
        assert "required" in err

    @pytest.mark.parametrize(
        "source",
        [["--in", "missing.jsonl"], ["--sample", "2", "--seed", "1"]],
        ids=["in", "sample"],
    )
    def test_a_second_corpus_source_is_a_usage_error(self, capsys, source):
        # the sweep must not run on one source and ignore the other
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "3", "--property", "balance", "--exhaustive", *source])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument --exhaustive" in captured.err

    @pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank-lines"])
    def test_a_corpus_file_without_cycles_is_a_usage_error(self, capsys, tmp_path, text):
        # like --sample 0, it would give a verdict that rests on no cycle
        corpus = tmp_path / "none.jsonl"
        corpus.write_text(text, encoding="utf-8")
        code, out, err = run(
            capsys, "verify", "--n", "4", "--property", "balance", "--in", str(corpus)
        )
        assert code == 2
        assert out == ""
        assert f"error: {corpus} holds no cycles" in err

    def test_file_dimension_mismatch(self, capsys, tmp_path):
        corpus = write_cycles(tmp_path / "g3.jsonl", [gray_cycle(3)])
        code, _, err = run(
            capsys, "verify", "--n", "4", "--property", "balance", "--in", corpus
        )
        assert code == 2
        assert "n=3" in err

    @pytest.mark.parametrize(
        "source,corpus",
        [("sample_cycles", ["--sample", "4", "--seed", "1"]),
         ("read_cycles", ["--in", "g.jsonl"]),
         ("sweep_exhaustive", ["--exhaustive"])],
        ids=["sample", "in", "exhaustive"],
    )
    def test_a_missing_threshold_fails_before_any_cycle(
        self, capsys, monkeypatch, source, corpus
    ):
        # no stored value for the 9-cube: the corpus is never drawn, read or searched
        def untouched(*args, **kwargs):
            raise AssertionError(f"{source} was called")

        monkeypatch.setattr(f"qube.cli.{source}", untouched)
        code, out, err = run(
            capsys, "verify", "--n", "10", "--property", "threshold", *corpus
        )
        assert code == 2
        assert out == ""
        assert "error: no stored balanced-independence number for dimension 9" in err

    def test_sampling_beyond_the_mask_table_fails_before_any_draw(self, capsys, monkeypatch):
        def no_search(*args):
            raise AssertionError("a search ran")

        monkeypatch.setattr(enumeration, "_random_cycle", no_search)
        code, out, err = run(
            capsys, "verify", "--n", "13", "--property", "balance", "--sample", "1",
            "--seed", "0",
        )
        assert (code, out) == (2, "")
        assert "error: sampling supports 2 <= n <= 12" in err

    def test_sampler_exhaustion_is_not_a_usage_error(self, capsys, monkeypatch):
        # a 2-node budget abandons every search, so the run cannot finish
        monkeypatch.setattr(enumeration, "attempt_budget", lambda n: 2)
        code, out, err = run(
            capsys, "verify", "--n", "4", "--sample", "1", "--seed", "0",
            "--property", "balance",
        )
        assert code == 3
        assert out == ""
        assert "error:" in err and "abandoned searches in a row" in err

    def test_forced_violation_exits_one_and_persists(
        self, capsys, tmp_path, monkeypatch
    ):
        # simulate a square-free discovery to exercise the counterexample
        # reporting contract end to end
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("qube.verify.has_square", lambda cyc: False)
        code, out, err = run(
            capsys, "verify", "--n", "3", "--property", "squares", "--exhaustive"
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["violations"] == 6
        assert doc["first_counterexample"]["square_free"] is True
        seq = doc["first_counterexample"]["cycle"]["seq"]
        validate_cycle(3, seq)
        saved = tmp_path / "square_free_counterexamples_n3.jsonl"
        assert saved.exists()
        lines = [json.loads(x) for x in saved.read_text().splitlines()]
        assert len(lines) == 6
        assert "VIOLATED" in err
        assert "square-free counterexamples written" in err

    def test_forced_balance_violation_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(DimensionProfile, "balanced", property(lambda p: False))
        code, out, _ = run(
            capsys, "verify", "--n", "3", "--property", "balance", "--exhaustive"
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["violations"] == 18  # three dimensions on each of six cycles
        assert doc["first_counterexample"]["dim"] == 0


class TestEquiind:
    def test_hypercube_all_methods(self, capsys):
        for method in ("direct", "reduction", "oracle"):
            code, out, _ = run(
                capsys, "equiind", "--hypercube", "3", "--method", method
            )
            doc = json.loads(out)
            assert code == 0
            assert doc["size"] == 2
            if method == "oracle":
                assert doc["witness"] is None
            else:
                assert len(doc["witness"]) == 2

    def test_graph_file(self, capsys, tmp_path):
        b = hypercube_bipartite(4)
        path = tmp_path / "q4.bip"
        path.write_text(format_bipartite(b))
        code, out, _ = run(capsys, "equiind", "--graph", str(path))
        doc = json.loads(out)
        assert code == 0
        assert doc["size"] == 4 == brute_force_equi(b)

    def test_reduction_beyond_the_solver_cap(self, capsys):
        code, out, err = run(
            capsys, "equiind", "--hypercube", "8", "--method", "reduction"
        )
        assert code == 2
        assert out == ""
        assert "error: 15360 vertices exceeds the solver cap 5000" in err

    def test_reduction_fails_fast_far_beyond_the_cap(self, capsys, monkeypatch):
        # the 257,024-pair graph of Q_10 would need gigabytes to build, so
        # a build fails the test at once instead of exhausting memory
        def no_build(b):
            raise AssertionError("the pair graph was built")

        monkeypatch.setattr("qube.independence.equi_reduction", no_build)
        start = time.perf_counter()
        code, out, err = run(
            capsys, "equiind", "--hypercube", "10", "--method", "reduction"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "error: 257024 vertices exceeds the solver cap 5000" in err

    @pytest.mark.parametrize(
        "n,method,message",
        [("10", "reduction", "257024 vertices exceeds the solver cap 5000"),
         ("5", "oracle", "32 vertices exceeds the oracle cap 20"),
         ("13", "direct", "8192 vertices exceeds the solver cap 5000")],
    )
    def test_each_route_fails_before_the_cube_is_built(
        self, capsys, monkeypatch, n, method, message
    ):
        # the cube's rows take about 4**n / 8 bytes, gigabytes from n = 18;
        # the direct route's cap is checked in hypercube_graph, before
        # near_table builds them
        def no_build(n):
            raise AssertionError("the cube was built")

        if method == "direct":
            monkeypatch.setattr("qube.graphs.near_table", no_build)
        else:
            monkeypatch.setattr("qube.cli.hypercube_bipartite", no_build)
        code, out, err = run(capsys, "equiind", "--hypercube", n, "--method", method)
        assert code == 2
        assert out == ""
        assert f"error: {message}" in err

    @pytest.mark.parametrize("n", ["6", "7"])
    def test_reduction_refuses_the_cubes_above_n5_before_building_them(
        self, capsys, monkeypatch, n
    ):
        # their pair graphs are under the solver cap, but the reduction
        # takes more than half a minute on the 6-cube
        def no_build(n):
            raise AssertionError("the cube was built")

        monkeypatch.setattr("qube.cli.hypercube_bipartite", no_build)
        start = time.perf_counter()
        code, out, err = run(capsys, "equiind", "--hypercube", n, "--method", "reduction")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert "error: the reduction solves the n-cube only for n <= 5" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "equiind", "--graph", "missing.bip")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("command", ["equiind", "reduce"])
    @pytest.mark.parametrize(
        "text,message",
        [("p bipartite 1 1 1\nc a remark\ne 0 x\n",
          "line 3: invalid literal for int() with base 10: 'x'"),
         ("p bipartite 1 1 1\ne 0 9\n", "line 2: vertex 9 out of range"),
         ("p bipartite 1 y 0\n", "line 1: invalid literal for int() with base 10: 'y'"),
         ("p bipartite 1 1 1\ne 0 1\ne 1 0\n", "line 3: duplicate edge 0 1"),
         ("p bipartite 1 1 2\ne 0 1\ne 0 1\n", "line 3: duplicate edge 0 1"),
         ("p bipartite 2 2 1\ne 0 1\n", "line 2: edge inside class 0 at vertex 0")],
        ids=["edge-token", "edge-vertex", "header-token", "repeat-reversed", "repeat-same",
             "inside-class"],
    )
    def test_a_bad_graph_line_names_its_file_and_line(
        self, capsys, tmp_path, command, text, message
    ):
        src = tmp_path / "g.bip"
        src.write_text(text)
        dst = tmp_path / "pairs.graph"
        argv = ["--graph", str(src)] + (["--out", str(dst)] if command == "reduce" else [])
        code, out, err = run(capsys, command, *argv)
        assert (code, out) == (2, "")
        assert f"error: {src}: {message}" in err
        assert not dst.exists()

    @pytest.mark.parametrize("command", ["equiind", "reduce"])
    def test_a_header_beyond_the_solver_cap_is_refused_before_allocation(
        self, capsys, tmp_path, command
    ):
        # a graph of 10^15 vertices would raise MemoryError, and exit 1 is
        # the code of a found counterexample
        src = tmp_path / "huge.bip"
        src.write_text("p bipartite 1000000000000000 1 0\n")
        dst = tmp_path / "pairs.graph"
        argv = ["--graph", str(src)] + (["--out", str(dst)] if command == "reduce" else [])
        code, out, err = run(capsys, command, *argv)
        assert (code, out) == (2, "")
        message = "line 1: 1000000000000001 vertices exceeds the solver cap 5000"
        assert f"error: {src}: {message}" in err
        assert not dst.exists()

    def test_an_invalid_witness_is_not_a_counterexample(self, capsys, monkeypatch):
        # 0 and 1 are adjacent in the 3-cube: a solver fault, so the run
        # could not finish (exit 3), not a found counterexample (exit 1)
        monkeypatch.setattr("qube.independence._direct_balanced", lambda b: (2, [0, 1]))
        code, out, err = run(capsys, "equiind", "--hypercube", "3")
        assert code == 3
        assert out == ""
        assert "error: the direct solver returned an invalid witness" in err


class TestReduce:
    def test_roundtrip(self, capsys, tmp_path):
        b = hypercube_bipartite(3)
        src = tmp_path / "q3.bip"
        dst = tmp_path / "q3.pairs"
        src.write_text(format_bipartite(b))
        code, _, err = run(capsys, "reduce", "--graph", str(src), "--out", str(dst))
        assert code == 0
        assert "4 vertices, 6 edges" in err
        written = parse_graph(dst.read_text())
        direct = equi_reduction(b).graph
        assert written.vertex_count == direct.vertex_count
        assert written.adj == direct.adj

    @pytest.mark.parametrize("command", ["reduce", "equiind"])
    def test_a_pair_graph_beyond_the_solver_cap_is_refused_before_it_is_built(
        self, capsys, tmp_path, monkeypatch, command
    ):
        # an edgeless 100+100 graph has 10,000 pairs; a 2500+2500 one, which
        # the header cap admits, would take terabytes, so the parsed graph's
        # rows cannot be read, and any pair-graph work before the cap check
        # fails the test at once instead of exhausting memory
        monkeypatch.setattr("qube.cli.parse_bipartite", lambda text: rowless(parse_bipartite(text)))
        src = tmp_path / "edgeless.bip"
        src.write_text("p bipartite 100 100 0\n")
        dst = tmp_path / "pairs.graph"
        argv = ["--out", str(dst)] if command == "reduce" else ["--method", "reduction"]
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--graph", str(src), *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert "error: 10000 vertices exceeds the solver cap 5000" in err
        assert not dst.exists()


class TestTable1:
    def test_small_rows(self, capsys):
        code, out, _ = run(capsys, "table1", "--max-n", "5")
        rows = json_lines(out)
        assert code == 0
        assert [r["alpha_equi"] for r in rows] == [2, 4, 10]
        assert [r["reduced_vertices"] for r in rows] == [4, 32, 176]
        assert [r["reduced_edges"] for r in rows] == [6, 448, 9720]
        assert all(r["alpha_matches_reference"] for r in rows)
        assert not any(r["reduced_vertices_mismatch"] for r in rows)

    def test_six_cube_row_flags_both_discrepancies(self, capsys):
        code, out, err = run(
            capsys, "table1", "--max-n", "6", "--alpha-max-n", "6"
        )
        rows = json_lines(out)
        assert code == 0
        row6 = rows[-1]
        assert row6["reduced_vertices"] == 832
        assert row6["reference_reduced_vertices"] == 882
        assert row6["reduced_vertices_mismatch"] is True
        assert row6["alpha_equi"] == 20
        assert row6["reference_alpha"] == 16
        assert row6["alpha_matches_reference"] is False
        assert "832 differs from the reference value 882" in err
        assert "20 differs from the reference value 16" in err

    def test_alpha_cap_skips_the_solve(self, capsys):
        code, out, _ = run(
            capsys, "table1", "--max-n", "6", "--alpha-max-n", "4"
        )
        rows = json_lines(out)
        assert code == 0
        assert [r["alpha_equi"] for r in rows] == [2, 4, None, None]
        assert [r["reference_alpha"] for r in rows] == [2, 4, 10, 16]
        assert rows[-1]["reduced_vertices"] == 832

    def test_out_of_range(self, capsys):
        code, _, err = run(capsys, "table1", "--max-n", "9")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv,message",
        [(["--max-n", "8"], "table1 solves alpha_equi only for n <= 7"),
         (["--max-n", "8", "--alpha-max-n", "8"], "table1 solves alpha_equi only for n <= 7"),
         (["--method", "reduction"], "the reduction solves the n-cube only for n <= 5"),
         (["--max-n", "6", "--method", "reduction"],
          "the reduction solves the n-cube only for n <= 5"),
         (["--max-n", "8", "--alpha-max-n", "6", "--method", "reduction"],
          "the reduction solves the n-cube only for n <= 5")],
        ids=["n8-default-solves", "n8-solved", "reduction-default", "reduction-n6",
             "reduction-n8-sizes"],
    )
    def test_solves_above_n7_and_reductions_above_n5_are_refused_before_any_row(
        self, capsys, monkeypatch, argv, message
    ):
        # the exact n = 7 solve takes minutes, the 8-cube's has never
        # finished, and the reduction takes more than half a minute at n = 6
        def no_build(n):
            raise AssertionError("a cube was built")

        monkeypatch.setattr("qube.bounds.hypercube_bipartite", no_build)
        start = time.perf_counter()
        code, out, err = run(capsys, "table1", *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert f"error: {message}" in err

    def test_sizes_are_counted_without_the_pair_graph(self, capsys, monkeypatch):
        def no_build(b):
            raise AssertionError("the pair graph was built")

        monkeypatch.setattr("qube.independence.equi_reduction", no_build)
        code, out, _ = run(capsys, "table1", "--max-n", "8", "--alpha-max-n", "6")
        rows = json_lines(out)
        assert code == 0
        assert [r["reduced_vertices"] for r in rows] == [4, 32, 176, 832, 3648, 15360]
        assert rows[-1]["reduced_edges"] == 16103424
        assert [r["alpha_equi"] for r in rows] == [2, 4, 10, 20, None, None]

    def test_only_the_solved_cubes_are_built(self, capsys, monkeypatch):
        built = []

        def record(n):
            built.append(n)
            return hypercube_bipartite(n)

        monkeypatch.setattr("qube.bounds.hypercube_bipartite", record)
        code, _, _ = run(capsys, "table1", "--max-n", "8", "--alpha-max-n", "6")
        assert code == 0
        assert built == [3, 4, 5, 6]

    def test_a_row_with_no_alpha_shows_a_dash(self, capsys):
        code, _, err = run(capsys, "table1", "--max-n", "8", "--alpha-max-n", "6")
        lines = err.splitlines()
        assert code == 0
        assert lines[-2].split()[:2] == ["7", "(40)"]
        assert lines[-1].split() == ["8", "-", "15360", "16103424"]


class TestPigeonhole:
    def test_full_range(self, capsys):
        code, out, err = run(capsys, "pigeonhole", "--max-n", "7")
        docs = json_lines(out)
        assert code == 0
        assert [d["n"] for d in docs] == [2, 3, 4, 5, 6, 7]
        assert all(d["forced"] for d in docs)
        last = docs[-1]
        assert last == {
            "n": 7, "threshold": 16, "product": 112, "order": 128, "forced": True,
            "alpha_table": "reference",
        }
        assert "112 < 128" in err

    def test_eight_cube_is_not_decided_by_counting(self, capsys):
        code, out, err = run(capsys, "pigeonhole", "--max-n", "8")
        docs = json_lines(out)
        assert code == 0
        assert docs[-1] == {
            "n": 8, "threshold": 40, "product": 320, "order": 256, "forced": False,
            "alpha_table": "reference",
        }
        assert "not decided by counting" in err

    def test_only_the_verdict_the_computed_table_overturns_names_the_table(self, capsys):
        code, _, err = run(capsys, "pigeonhole", "--max-n", "8")
        lines = err.splitlines()
        assert code == 0
        assert [line.split(":")[0] for line in lines] == [f"n={n}" for n in range(2, 9)]
        assert lines[5] == (
            "n=7: 7 * 16 = 112 < 128 -> squares forced in every Hamiltonian cycle; "
            "this rests on the reference table: the computed value 20 gives 140 >= 128, "
            "so the counting argument does not decide n=7"
        )
        assert not any("table" in line for line in lines[:5] + lines[6:])

    def test_nine_cube_needs_a_stored_value(self, capsys):
        code, out, err = run(capsys, "pigeonhole", "--max-n", "9")
        assert code == 2
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize("max_n", ["1", "0", "-3"])
    def test_a_range_without_a_cube_is_a_usage_error(self, capsys, max_n):
        code, out, err = run(capsys, "pigeonhole", "--max-n", max_n)
        assert (code, out) == (2, "")
        assert f"error: --max-n must be at least 2, got {max_n}" in err


class TestUsageErrors:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_property(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "3", "--property", "sorcery", "--exhaustive"])
        assert exc.value.code == 2

    def test_equiind_needs_exactly_one_source(self):
        with pytest.raises(SystemExit) as exc:
            main(["equiind", "--hypercube", "3", "--graph", "x.bip"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [["enumerate", "--n", "6", "--count-only"],
         ["verify", "--n", "6", "--property", "balance", "--exhaustive"],
         ["verify", "--n", "7", "--property", "squares", "--exhaustive"]],
        ids=["count-n6", "verify-n6", "verify-n7"],
    )
    def test_whole_cube_work_that_cannot_finish_fails_fast(self, capsys, monkeypatch, argv):
        # Q6 has about 3.6e22 cycles; a search started by mistake fails
        # the test at once instead of running without end
        def no_search(*args, **kwargs):
            raise AssertionError("a whole-cube search was started")

        monkeypatch.setattr("qube.enumeration._search", no_search)
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert "error: a search of every cycle supports n <= 5" in err

    def test_a_count_of_given_prefixes_is_not_whole_cube_work(self, capsys, tmp_path):
        prefix = gray_cycle(6).seq[:56]
        pre = tmp_path / "prefixes.txt"
        pre.write_text(" ".join(map(str, prefix)) + "\n")
        expected = len(list(enumerate_cycles(6, prefix=prefix)))
        assert expected > 0
        code, out, _ = run(
            capsys, "enumerate", "--n", "6", "--prefixes-in", str(pre), "--count-only"
        )
        assert code == 0
        assert json.loads(out) == {"n": 6, "count": expected}


class TestDispatch:
    def test_the_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_a_replaced_command_runs_after_the_parser_is_built(
        self, capsys, monkeypatch
    ):
        run(capsys, "gray", "--n", "1")
        calls = []
        monkeypatch.setattr(
            "qube.cli.cmd_gray", lambda args: calls.append(args.n) or 0
        )
        code, out, _ = run(capsys, "gray", "--n", "2")
        assert code == 0
        assert calls == [2]
        assert out == ""

    @pytest.mark.parametrize("fault", [KeyError, IndexError])
    def test_an_internal_lookup_error_is_not_a_usage_error(
        self, capsys, monkeypatch, fault
    ):
        # a failed lookup inside a command is a fault of the run: it could
        # not finish (exit 3); only a missing stored value is a usage error
        def broken(args):
            raise fault(7)

        monkeypatch.setattr("qube.cli.cmd_gray", broken)
        code, out, err = run(capsys, "gray", "--n", "2")
        assert (code, out) == (3, "")
        assert f"error: {fault.__name__}: 7" in err

    def test_no_flag_carries_over_between_calls(self, capsys, tmp_path):
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--count-only")
        assert code == 0
        count = json.loads(out)["count"]
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--n", "3", "--no-such-flag"])
        assert exc.value.code == 2
        capsys.readouterr()
        target = tmp_path / "q3.jsonl"
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--out", str(target))
        assert code == 0
        assert out == ""
        assert len(target.read_text().splitlines()) == count

    def test_a_seed_does_not_carry_over_between_calls(self, capsys):
        code, _, _ = run(
            capsys, "verify", "--n", "4", "--property", "balance",
            "--sample", "2", "--seed", "1",
        )
        assert code == 0
        code, out, err = run(
            capsys, "verify", "--n", "4", "--property", "balance", "--sample", "2"
        )
        assert code == 2
        assert out == ""
        assert "--seed" in err
