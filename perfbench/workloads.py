"""Seeded inputs, ops and output checks of the benchmark workloads.

Every input is made by this file from the workload seed, never by the code
under test, so a rewrite of a sampler or a solver cannot change what is
measured.  An op is one unit of independent work whose output is checked
after its timing stops.  Checks rest only on facts the package proves:

* Hamiltonian cycles of Q_n split each dimension's edges evenly between
  the two parity classes, their segment sums are 2**(n-1), and their
  dimension histogram meets the chromatic conditions;
* every Hamiltonian cycle of Q_n has an inscribed square for n <= 6 (the
  counting argument forces one), so a square is asserted only there;
* alpha_equi(Q_n) = 2, 4, 10, 20 for n = 3..6 and the pair graphs of Q_3..Q_7
  have 4, 32, 176, 832 and 3648 vertices (1,577,184 edges at n = 7);
* Q_4 has 1344 Hamiltonian cycles.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

DATA = Path(__file__).resolve().parent / "data"
BASE_SEED = 20101015  # seed of the fixed base inputs that workload seeds permute


@dataclass(frozen=True)
class Op:
    id: str
    kind: str
    args: tuple


# ---------------------------------------------------------------------------
# helpers that do not use the code under test


def cycle_problem(n: int, seq) -> str | None:
    """Why ``seq`` is not a Hamiltonian cycle of Q_n, or None."""
    size = 1 << n
    if len(seq) != size or sorted(seq) != list(range(size)):
        return "not a permutation of the vertices"
    for k in range(size):
        if (seq[k] ^ seq[(k + 1) % size]).bit_count() != 1:
            return f"step {k} is not an edge"
    return None


def dimension_counts(n: int, seq) -> list[int]:
    """How many edges of the cycle run along each dimension."""
    counts = [0] * n
    for k in range(len(seq)):
        counts[(seq[k] ^ seq[(k + 1) % len(seq)]).bit_length() - 1] += 1
    return counts


def permute_bits(n: int, v: int, perm: list[int]) -> int:
    """Move bit i of v to bit perm[i]."""
    return sum(1 << perm[i] for i in range(n) if v >> i & 1)


def automorphism(n: int, seq: list[int], rng: random.Random) -> list[int]:
    """The image of a cycle under a random automorphism of Q_n (coordinate
    permutation, then XOR translation), rotated and possibly reversed."""
    perm = rng.sample(range(n), n)
    mask = rng.randrange(1 << n)
    image = [permute_bits(n, v, perm) ^ mask for v in seq]
    k = rng.randrange(len(image))
    image = image[k:] + image[:k]
    if rng.random() < 0.5:
        image = image[:1] + image[:0:-1]
    return image


def random_prefix(n: int, depth: int, rng: random.Random) -> list[int]:
    """A uniformly stepped random simple path of ``depth`` edges from 0."""
    while True:
        path, seen = [0], {0}
        while len(path) <= depth:
            steps = [path[-1] ^ (1 << i) for i in range(n) if path[-1] ^ (1 << i) not in seen]
            if not steps:
                break
            v = rng.choice(steps)
            path.append(v)
            seen.add(v)
        if len(path) == depth + 1:
            return path


def induced_subgraph(n: int, m: int, rng: random.Random) -> tuple[list[int], int]:
    """A random m-vertex induced subgraph of Q_n: its vertices, even ones
    first, and the number of even ones (the bipartite class 0)."""
    chosen = rng.sample(range(1 << n), m)
    even = sorted(v for v in chosen if v.bit_count() % 2 == 0)
    odd = sorted(v for v in chosen if v.bit_count() % 2 == 1)
    return even + odd, len(even)


def bipartite_text(n: int, vertices: list[int], n0: int) -> str:
    """The ``p bipartite`` file of the subgraph of Q_n induced by
    ``vertices``, whose first ``n0`` entries form class 0."""
    index = {v: k for k, v in enumerate(vertices)}
    edges = sorted(
        (index[v], index[v ^ (1 << i)])
        for v in vertices[:n0]
        for i in range(n)
        if v ^ (1 << i) in index
    )
    lines = [f"p bipartite {n0} {len(vertices) - n0} {len(edges)}"]
    lines.extend(f"e {u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def witness_problem(labels, size: int) -> str | None:
    """Why the hypercube vertices ``labels`` are not a balanced independent
    set of ``size`` vertices, or None."""
    if len(labels) != size or len(set(labels)) != size:
        return f"witness does not have {size} distinct vertices"
    if 2 * sum(v.bit_count() % 2 for v in labels) != size:
        return "witness is not balanced"
    if any((a ^ b).bit_count() == 1 for a in labels for b in labels):
        return "witness is not independent"
    return None


# ---------------------------------------------------------------------------
# running the CLI in-process


def run_cli(q: SimpleNamespace, argv: list[str]) -> tuple[int, str]:
    """``qube.cli.main(argv)`` with stdout captured: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = q.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def json_lines(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def verify_problems(code: int, out: str, checked: int, expect_hold: bool = True) -> list[str]:
    """Problems with a ``verify`` result that should check ``checked``
    cycles and, if ``expect_hold``, find no violation."""
    (doc,) = json_lines(out)
    problems = []
    if doc["checked"] != checked:
        problems.append(f"checked {doc['checked']} of {checked} cycles")
    if expect_hold and (code != 0 or doc["violations"] != 0):
        problems.append(f"exit {code} with {doc['violations']} violations")
    return problems


# ---------------------------------------------------------------------------
# workloads


class Corpus:
    """Structural analysis of stored cycles through the real CLI."""

    name = "corpus"
    items_are_cycles = True
    chunk = 4  # cycles per chunk file
    ops_per_second = 29.0

    def build(self, seed: int, seconds: float, workdir: Path) -> list[Op]:
        base = json.loads((DATA / "corpus_base.json").read_text())["cycles"]
        by_n = {n: [c["seq"] for c in base if c["n"] == n] for n in (6, 7)}
        rng = random.Random(seed)
        ops = []
        for j in range(max(4, round(seconds * self.ops_per_second))):
            n = 7 if j % 4 == 3 else 6  # one chunk in four holds n = 7 cycles
            pool = by_n[n]
            lines = []
            for t in range(self.chunk):
                seq = automorphism(n, pool[(j * self.chunk + t) % len(pool)], rng)
                problem = cycle_problem(n, seq)
                if problem:
                    raise AssertionError(f"generated corpus cycle: {problem}")
                lines.append(json.dumps({"n": n, "seq": seq}))
            path = workdir / f"chunk{j:04d}_n{n}.jsonl"
            path.write_text("\n".join(lines) + "\n")
            ops.append(Op(f"chunk{j}", f"n{n}", (n, path.name)))
        return ops

    def run(self, q, op: Op):
        n, path = op.args
        out = {
            "analyze": run_cli(q, ["analyze", "--in", path]),
            "squares": run_cli(q, ["squares", "--in", path]),
        }
        props = ["balance", "segments", "squares", "chromatic"]
        if n == 6:
            # rests on alpha_equi(Q_5) = 10, which both solvers confirm
            props.append("threshold")
        for prop in props:
            argv = ["verify", "--n", str(n), "--in", path, "--property", prop]
            out[f"verify {prop}"] = run_cli(q, argv)
        return out

    def check(self, op: Op, out) -> tuple[int, list[str]]:
        n, path = op.args
        cycles = json_lines(Path(path).read_text())
        problems = [f"{cmd} exited {code}" for cmd, (code, _) in out.items()
                    if code != 0 and cmd != "verify squares"]
        if problems:
            return len(cycles), problems
        reports = json_lines(out["analyze"][1])
        if len(reports) != len(cycles):
            problems.append(f"analyze reported {len(reports)} of {len(cycles)} cycles")
        for cyc, rep in zip(cycles, reports):
            if rep["chromatic_vector"] != dimension_counts(n, cyc["seq"]):
                problems.append("analyze: wrong chromatic vector")
            if not rep["chromatic_ok"]:
                problems.append("analyze: chromatic conditions fail")
            if len(rep["profiles"]) != n or not all(
                p["balanced"] and p["segment_sums_ok"] for p in rep["profiles"]
            ):
                problems.append("analyze: a dimension is unbalanced or its segment sums fail")
        square_counts = [doc["count"] for doc in json_lines(out["squares"][1])]
        if len(square_counts) != len(cycles):
            problems.append(f"squares reported {len(square_counts)} of {len(cycles)} cycles")
        all_have = all(c > 0 for c in square_counts)
        if n <= 6 and not all_have:
            problems.append("squares: a cycle of Q_6 without an inscribed square")
        for cmd, (code, text) in out.items():
            if cmd.startswith("verify "):
                # squares are asserted for n <= 6 only; at n = 7 the two
                # commands must agree
                hold = cmd != "verify squares" or n <= 6
                problems += [f"{cmd}: {p}" for p in verify_problems(code, text, len(cycles), hold)]
        code, text = out["verify squares"]
        if (code == 0 and json_lines(text)[0]["violations"] == 0) != all_have:
            problems.append("verify squares disagrees with the squares command")
        return len(cycles), problems


class Enumerate:
    """Exhaustive search: shards of the Q_5 enumeration and the Q_4 count."""

    name = "enumerate"
    items_are_cycles = True
    depth = 13
    ops_per_second = 16.0

    def build(self, seed: int, seconds: float, workdir: Path) -> list[Op]:
        # Random prefixes differ a lot in search cost, so a seed-dependent set
        # of a few hundred would differ by tens of percent from seed to seed.
        # Each prefix is instead the image of a fixed base prefix under a
        # seeded permutation of the coordinates.  That permutation fixes
        # vertex 0, and the search visits the same nodes for a prefix and its
        # image (the prunes do not depend on coordinate labels), so the work
        # does not depend on the seed while the prefixes and cycles do.  The
        # permutation keeps the first step's dimension f and maps dimensions
        # below f below it, so the canonical-form test (first dimension <
        # last dimension) keeps the same completions too.
        base_rng, rng = random.Random(BASE_SEED), random.Random(seed)
        ops = [Op("n4-prune-all", "count", ("all",)), Op("n4-prune-none", "count", ("none",))]
        for j in range(max(4, round(seconds * self.ops_per_second))):
            base = random_prefix(5, self.depth, base_rng)
            f = base[1].bit_length() - 1
            perm = rng.sample(range(f), f) + [f] + rng.sample(range(f + 1, 5), 4 - f)
            ops.append(Op(f"prefix{j}", "prefix", tuple(permute_bits(5, v, perm) for v in base)))
        return ops

    def run(self, q, op: Op):
        if op.kind == "count":
            return run_cli(q, ["enumerate", "--n", "4", "--count-only", "--prune", op.args[0]])
        out = []
        for h in q.enumeration.enumerate_cycles(5, prefix=op.args):
            out.append((h.seq, q.squares.has_square(h)))
        return out

    def check(self, op: Op, out) -> tuple[int, list[str]]:
        if op.kind == "count":
            code, text = out
            count = json_lines(text)[0]["count"] if code == 0 else None
            return 1344, [] if count == 1344 else [f"Q_4 count {count} (exit {code})"]
        problems = []
        prefix = list(op.args)
        for seq, square in out:
            problem = cycle_problem(5, seq)
            if problem:
                problems.append(problem)
            elif list(seq[: len(prefix)]) != prefix:
                problems.append("cycle does not extend its prefix")
            elif (seq[0] ^ seq[1]).bit_length() >= (seq[-1] ^ seq[0]).bit_length():
                problems.append("cycle is not in canonical form")
            elif not square:
                problems.append("cycle of Q_5 without an inscribed square")
        if len({seq for seq, _ in out}) != len(out):
            problems.append("a cycle was emitted twice")
        return len(out), problems


class Sample:
    """Randomized generation with the backtracking sampler."""

    name = "sample"
    items_are_cycles = True
    # The cost of one draw is heavy-tailed (most draws take about 1 ms, about
    # a quarter take a second or more), so a seed-dependent set of a few dozen
    # draws would differ by tens of percent from seed to seed.  The workload
    # therefore draws one fixed pool of sampler seeds, 0..k-1 for each n,
    # chosen by count and not by cost; the workload seed sets their order.
    draws_per_second = {7: 2.0, 8: 0.5}

    def build(self, seed: int, seconds: float, workdir: Path) -> list[Op]:
        pools = {n: [Op(f"n{n}-s{s}", f"n{n}", (n, s))
                     for s in range(max(2, round(seconds * rate)))]
                 for n, rate in self.draws_per_second.items()}
        ops = [op for pool in pools.values() for op in pool]
        random.Random(seed).shuffle(ops)
        return ops

    def run(self, q, op: Op):
        n, s = op.args
        return q.enumeration.sample_cycles(n, s, 1)

    def check(self, op: Op, out) -> tuple[int, list[str]]:
        n, _ = op.args
        if len(out) != 1 or out[0].n != n:
            return len(out), [f"expected one cycle of Q_{n}"]
        problem = cycle_problem(n, out[0].seq)
        return 1, [problem] if problem else []


TABLE1_ALPHA = {3: 2, 4: 4, 5: 10, 6: 20}
TABLE1_REDUCED_VERTICES = {3: 4, 4: 32, 5: 176, 6: 832, 7: 3648}
TABLE1_REDUCED_EDGES_N7 = 1_577_184


class Equi:
    """Balanced independence: the table, a hypercube solve, induced subgraphs."""

    name = "equi"
    items_are_cycles = False
    # (n, vertices, methods): induced subgraphs of Q_6 and Q_7 solved by the
    # direct branch and bound, and the smallest ones by both routes
    shapes = ((6, 56, ("direct",)), (7, 48, ("direct",)), (6, 20, ("direct", "reduction")))
    ops_per_second = 30.0

    def build(self, seed: int, seconds: float, workdir: Path) -> list[Op]:
        rng = random.Random(seed)
        ops = [Op("table1", "table1", ()), Op("hypercube5", "hypercube5", ())]
        for j in range(max(3, round(seconds * self.ops_per_second))):
            n, m, methods = self.shapes[j % len(self.shapes)]
            vertices, n0 = induced_subgraph(n, m, rng)
            path = workdir / f"graph{j:04d}_q{n}_{m}.txt"
            path.write_text(bipartite_text(n, vertices, n0))
            ops.append(Op(f"graph{j}", f"q{n}-{m}", (path.name, methods, tuple(vertices))))
        return ops

    def run(self, q, op: Op):
        if op.kind == "table1":
            return run_cli(q, ["table1", "--max-n", "7", "--alpha-max-n", "6"])
        if op.kind == "hypercube5":
            return run_cli(q, ["equiind", "--hypercube", "5", "--method", "reduction"])
        path, methods = op.args[:2]
        return [run_cli(q, ["equiind", "--graph", path, "--method", m]) for m in methods]

    def check(self, op: Op, out) -> tuple[int, list[str]]:
        if op.kind == "table1":
            code, text = out
            if code != 0:
                return 4, [f"table1 exited {code}"]
            rows = {row["n"]: row for row in json_lines(text)}
            problems = [f"alpha_equi(Q_{n}) = {rows[n]['alpha_equi']}, expected {a}"
                        for n, a in TABLE1_ALPHA.items() if rows[n]["alpha_equi"] != a]
            problems += [f"|V'| at n = {n} is {rows[n]['reduced_vertices']}, expected {v}"
                         for n, v in TABLE1_REDUCED_VERTICES.items()
                         if rows[n]["reduced_vertices"] != v]
            if rows[7]["reduced_edges"] != TABLE1_REDUCED_EDGES_N7:
                problems.append(f"|E'| at n = 7 is {rows[7]['reduced_edges']}")
            return len(TABLE1_ALPHA), problems
        if op.kind == "hypercube5":
            code, text = out
            if code != 0:
                return 1, [f"equiind Q_5 exited {code}"]
            doc = json_lines(text)[0]
            if doc["size"] != 10:
                return 1, [f"alpha_equi(Q_5) = {doc['size']}, expected 10"]
            problem = witness_problem(doc["witness"], 10)
            return 1, [f"equiind Q_5: {problem}"] if problem else []
        _, methods, vertices = op.args
        problems = []
        sizes = []
        for method, (code, text) in zip(methods, out):
            if code != 0:
                problems.append(f"equiind --method {method} exited {code}")
                continue
            doc = json_lines(text)[0]
            sizes.append(doc["size"])
            problem = witness_problem([vertices[k] for k in doc["witness"]], doc["size"])
            if problem:
                problems.append(f"{method}: {problem}")
        if len(set(sizes)) > 1:
            problems.append(f"direct and reduction disagree: {sizes}")
        return 1, problems


WORKLOADS = {w.name: w for w in (Corpus(), Enumerate(), Sample(), Equi())}
