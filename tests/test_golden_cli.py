"""Golden outputs of the command-line interface.

Every case runs ``qube.cli.main`` in-process on deterministic inputs (all
cycles of the 3-cube, a slice of the 4-cube enumeration, rotated, reversed
and relabelled Gray cycles, rotated and reversed seeded samples of the 6-
and 7-cube, and small graph files) and compares stdout,
the exit code and any written files byte for byte with
``data/golden_cli.json``.  The only field left out is the timing
``"seconds"`` of ``verify`` reports.

Regenerate the data file (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import itertools
import json
import os
import re
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from qube.cli import main
from qube.cycles import gray_cycle, permute_dims
from qube.enumeration import enumerate_cycles, path_prefixes, sample_cycles, write_prefixes
from qube.graphs import format_bipartite, hypercube_bipartite

GOLDEN = Path(__file__).with_name("data") / "golden_cli.json"

# a bipartite graph that is not a hypercube: class 0 = 0..3, class 1 = 4..8
SMALL_BIPARTITE = """\
p bipartite 4 5 7
e 0 4
e 0 5
e 1 5
e 1 6
e 2 7
e 3 7
e 3 8
"""


def write_inputs(root: Path) -> None:
    def cycles(name, items):
        text = "".join(json.dumps(h.to_dict()) + "\n" for h in items)
        (root / name).write_text(text, encoding="utf-8")

    cycles("q3.jsonl", enumerate_cycles(3))
    cycles("q4.jsonl", itertools.islice(enumerate_cycles(4), 0, 40, 5))
    g5 = gray_cycle(5)
    cycles("g5.jsonl", [g5.rotated(7), g5.reversed_cycle(),
                        permute_dims(g5, [3, 0, 4, 1, 2]).rotated(11)])
    g6 = gray_cycle(6)
    cycles("g6.jsonl", [g6.rotated(13).reversed_cycle(),
                        permute_dims(g6, [5, 2, 0, 4, 1, 3]).rotated(30)])
    s6 = sample_cycles(6, 3, 2)
    cycles("s6.jsonl", [s6[0], s6[1].rotated(17).reversed_cycle()])
    s7 = sample_cycles(7, 3, 2)
    cycles("s7.jsonl", [s7[0].rotated(45), s7[1].reversed_cycle()])
    (root / "pre.txt").write_text(write_prefixes(path_prefixes(4, 3)), encoding="utf-8")
    (root / "q3.graph").write_text(format_bipartite(hypercube_bipartite(3)), encoding="utf-8")
    (root / "small.graph").write_text(SMALL_BIPARTITE, encoding="utf-8")


def _verify(n, prop, *corpus):
    return ["verify", "--n", str(n), "--property", prop, *corpus]


# name -> (argv, files the command writes)
CASES: dict[str, tuple[list[str], list[str]]] = {
    "gray_n2": (["gray", "--n", "2"], []),
    "gray_n5": (["gray", "--n", "5"], []),
    "enumerate_n3": (["enumerate", "--n", "3"], []),
    "enumerate_n3_prune_none": (["enumerate", "--n", "3", "--prune", "none"], []),
    "enumerate_n4_count_pruned": (["enumerate", "--n", "4", "--count-only"], []),
    "enumerate_n4_count_unpruned":
        (["enumerate", "--n", "4", "--count-only", "--prune", "none"], []),
    "enumerate_prefixes_out":
        (["enumerate", "--n", "4", "--split-depth", "3", "--prefixes-out", "out.txt"],
         ["out.txt"]),
    "enumerate_prefixes_in":
        (["enumerate", "--n", "4", "--prefixes-in", "pre.txt", "--prefix-index", "2"], []),
    "enumerate_n3_out": (["enumerate", "--n", "3", "--out", "cycles.jsonl"], ["cycles.jsonl"]),
    "analyze_q3": (["analyze", "--in", "q3.jsonl"], []),
    "analyze_q3_dim1": (["analyze", "--in", "q3.jsonl", "--dim", "1"], []),
    "analyze_q4": (["analyze", "--in", "q4.jsonl"], []),
    "analyze_g5": (["analyze", "--in", "g5.jsonl"], []),
    "analyze_g6_dim4": (["analyze", "--in", "g6.jsonl", "--dim", "4"], []),
    "squares_q3": (["squares", "--in", "q3.jsonl"], []),
    "squares_q4_first_only": (["squares", "--in", "q4.jsonl", "--first-only"], []),
    "squares_g5": (["squares", "--in", "g5.jsonl"], []),
    "squares_g6_first_only": (["squares", "--in", "g6.jsonl", "--first-only"], []),
    "analyze_s6": (["analyze", "--in", "s6.jsonl"], []),
    "analyze_s7": (["analyze", "--in", "s7.jsonl"], []),
    "squares_s6": (["squares", "--in", "s6.jsonl"], []),
    "squares_s7": (["squares", "--in", "s7.jsonl"], []),
    "squares_s6_first_only": (["squares", "--in", "s6.jsonl", "--first-only"], []),
    "squares_s7_first_only": (["squares", "--in", "s7.jsonl", "--first-only"], []),
    "equiind_q3_direct": (["equiind", "--hypercube", "3", "--method", "direct"], []),
    "equiind_q3_reduction": (["equiind", "--hypercube", "3", "--method", "reduction"], []),
    "equiind_q3_oracle": (["equiind", "--hypercube", "3", "--method", "oracle"], []),
    "equiind_q3_graph": (["equiind", "--graph", "q3.graph"], []),
    "equiind_small_graph_reduction":
        (["equiind", "--graph", "small.graph", "--method", "reduction"], []),
    "reduce_q3": (["reduce", "--graph", "q3.graph", "--out", "red.txt"], ["red.txt"]),
    "reduce_small": (["reduce", "--graph", "small.graph", "--out", "red.txt"], ["red.txt"]),
    "table1_max5": (["table1", "--max-n", "5"], []),
    "table1_max6_alpha4":
        (["table1", "--max-n", "6", "--alpha-max-n", "4", "--method", "reduction"], []),
    "table1_max8_alpha6": (["table1", "--max-n", "8", "--alpha-max-n", "6"], []),
    "pigeonhole_max8": (["pigeonhole", "--max-n", "8"], []),
    "error_verify_without_corpus": (_verify(4, "balance"), []),
    "error_analyze_dim_out_of_range": (["analyze", "--in", "g5.jsonl", "--dim", "5"], []),
    "error_pigeonhole_beyond_table": (["pigeonhole", "--max-n", "9"], []),
    "error_verify_dimension_mismatch": (_verify(5, "segments", "--in", "g6.jsonl"), []),
    "verify_isomorphism_n5": (_verify(5, "isomorphism", "--exhaustive"), []),
}
for _prop in ("balance", "segments", "squares", "chromatic", "threshold"):
    CASES[f"verify_{_prop}_exhaustive_n3"] = (_verify(3, _prop, "--exhaustive"), [])
    CASES[f"verify_{_prop}_exhaustive_n4"] = (_verify(4, _prop, "--exhaustive"), [])
    CASES[f"verify_{_prop}_in_g5"] = (_verify(5, _prop, "--in", "g5.jsonl"), [])
    CASES[f"verify_{_prop}_in_g6"] = (_verify(6, _prop, "--in", "g6.jsonl"), [])
for _n in (4, 5, 6):
    CASES[f"verify_threshold_independence_n{_n}"] = (
        _verify(_n, "threshold", "--mode", "independence",
                *(["--exhaustive"] if _n == 4 else ["--in", f"g{_n}.jsonl"])),
        [],
    )

_SECONDS = re.compile(r', "seconds": [0-9.eE+-]+')


def run_case(name: str, root: Path) -> dict:
    """Run one case with ``root`` as the working directory."""
    argv, written = CASES[name]
    buf = StringIO()
    cwd = os.getcwd()
    os.chdir(root)
    try:
        with redirect_stdout(buf):
            code = main(list(argv))
        files = {f: (root / f).read_text(encoding="utf-8") for f in written}
    finally:
        os.chdir(cwd)
    return {"argv": argv, "code": code,
            "stdout": _SECONDS.sub("", buf.getvalue()), "files": files}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_case_is_recorded(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, golden, tmp_path):
    write_inputs(tmp_path)
    assert run_case(name, tmp_path) == golden[name]


if __name__ == "__main__":
    import tempfile

    out = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            write_inputs(Path(tmp))
            out[case] = run_case(case, Path(tmp))
        print(f"{case}: exit {out[case]['code']}", file=sys.stderr)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
