"""Command-line interface.

Subcommands cover cycle generation (``gray``, ``enumerate``), structural
analysis (``analyze``, ``squares``), property sweeps (``verify``),
balanced-independence computation (``equiind``, ``reduce``, ``table1``)
and the counting argument that forces inscribed squares (``pigeonhole``).

Machine-readable JSON goes to stdout (corpora as one JSON object per
line); human-readable summaries go to stderr.  Exit status: 0 when the
requested property holds / the command succeeds, 1 when a counterexample
or violation was found, 2 on usage or input errors (including a dimension
without a stored balanced-independence number), 3 when the run could not
finish (a ``RuntimeError``, such as a sampler that abandoned too many
searches in a row, or a solver witness that fails its check, and a
``LookupError``, such as a ``KeyError`` or ``IndexError`` from a fault in
the program).  No command reads an environment variable.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import Callable, Iterable, Iterator

from .bounds import THRESHOLD_ALPHA_TABLE, pigeonhole_report, rim_threshold, table1_rows
from .cycles import (  # noqa: F401 -- check_balance stays a public name of qube.cli
    HamiltonianCycle,
    check_balance,
    check_chromatic_conditions,
    dimension_profiles,
)
from .enumeration import (
    PruneConfig,
    check_search_args,
    count_cycles,
    enumerate_cycles,
    path_prefixes,
    read_prefixes,
    sample_cycles,
    write_prefixes,
)
from .graphs import format_graph, hypercube_bipartite, parse_bipartite
from .hypercube import gray_code, isomorphism_violations
from .independence import (
    brute_force_equi,
    check_hypercube_caps,
    equi_independence,
    equi_reduction,
)
from .squares import check_squares_dim, find_squares
from .verify import PROPERTIES, persist_square_free, sweep, sweep_exhaustive

# ---------------------------------------------------------------------------
# corpus I/O


def read_cycles(path: str) -> Iterator[HamiltonianCycle]:
    """Yield the cycles of a JSON-lines corpus, one line at a time."""
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                cyc = HamiltonianCycle.from_dict(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from None
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            yield cyc


def _parse_file(path: str, parse: Callable):
    """``parse`` of a whole file's text; a parse error names the file."""
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _of_dimension(n: int, cycles: Iterable[HamiltonianCycle]) -> Iterator[HamiltonianCycle]:
    for cyc in cycles:
        if cyc.n != n:
            raise ValueError(f"corpus cycle has n={cyc.n}, but --n {n} was given")
        yield cyc


# the bytes of json.dumps for the tree-shaped documents the CLI writes,
# without the circular-reference bookkeeping
_encode = json.JSONEncoder(check_circular=False).encode

# one square of a ``squares`` line, the bytes json.dumps gives the dict
# {"rim_dim", "kind", "rim_indexes": [earlier, later], "ray_dim"}
_SQUARE = '{"rim_dim": %d, "kind": "%s", "rim_indexes": [%d, %d], "ray_dim": %d}'

# the squares of a ``squares`` line are formatted and written this many at
# a time, so no whole line is built (a Q16 cycle can have 500k squares)
_SQUARE_SLICE = 4096


def _emit(doc: dict, out) -> None:
    out.write(_encode(doc) + "\n")


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args: argparse.Namespace) -> int:
    prop = args.property
    n = args.n
    start = time.perf_counter()
    if args.seed is not None and args.sample is None:
        raise ValueError("--seed requires --sample")
    if args.mode is not None and prop != "threshold":
        raise ValueError("--mode goes only with --property threshold")
    mode = args.mode or "equi"
    # no stored value: a usage error before any cycle is drawn
    threshold = rim_threshold(n, mode) if prop == "threshold" else None
    named_table = {} if threshold is None else {
        "threshold": threshold, "alpha_table": THRESHOLD_ALPHA_TABLE[mode],
    }

    if prop == "isomorphism":
        # it checks every dimension graph of the n-cube, which is what
        # --exhaustive asks for; a corpus would go unread
        for flag, value in (("--sample", args.sample), ("--in", args.infile)):
            if value is not None:
                raise ValueError(f"--property isomorphism reads no corpus; drop {flag}")
        corpus = "all dimension graphs"
        checked, found = isomorphism_violations(n)
        violations, first = len(found), (found[0] if found else None)
    else:
        if args.exhaustive:
            corpus = "exhaustive"
            tally = sweep_exhaustive(n, (prop,), threshold)[prop]
        elif args.sample is not None:
            if args.seed is None:
                raise ValueError("--sample requires --seed")
            corpus = f"sample(seed={args.seed}, k={args.sample})"
            tally = sweep((prop,), sample_cycles(n, args.seed, args.sample), threshold)[prop]
        elif args.infile is not None:
            corpus = f"file:{args.infile}"
            tally = sweep((prop,), _of_dimension(n, read_cycles(args.infile)), threshold)[prop]
            if not tally.checked:
                # a verdict on no cycles would hold vacuously, like --sample 0
                raise ValueError(f"{args.infile} holds no cycles")
        else:
            raise ValueError(
                "one of --exhaustive, --sample K --seed S, or --in FILE is required"
            )
        persisted = persist_square_free(n, tally.square_free)
        if persisted:
            print(f"square-free counterexamples written to {persisted}", file=sys.stderr)
        checked, violations, first = tally.checked, tally.violations, tally.first_counterexample

    seconds = time.perf_counter() - start
    _emit(
        {"property": prop, "n": n, **named_table, "corpus": corpus, "checked": checked,
         "violations": violations, "first_counterexample": first,
         "seconds": round(seconds, 3)},
        sys.stdout,
    )
    status = "holds" if violations == 0 else "VIOLATED"
    print(
        f"{prop} on n={n} ({corpus}): {status}, {checked} checked, "
        f"{violations} violations, {seconds:.2f}s",
        file=sys.stderr,
    )
    return 0 if violations == 0 else 1


# ---------------------------------------------------------------------------
# other subcommands


def cmd_gray(args: argparse.Namespace) -> int:
    seq = gray_code(args.n)
    _emit({"n": args.n, "seq": seq}, sys.stdout)
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    cfg = PruneConfig(args.prune == "all")
    if args.split_depth is not None and args.prefixes_out is None:
        raise ValueError("--split-depth requires --prefixes-out")
    if args.prefixes_out is not None:
        clash = [flag for flag, used in (
            ("--prefixes-in", args.prefixes_in is not None),
            ("--prefix-index", args.prefix_index is not None),
            ("--out", args.out is not None),
            ("--count-only", args.count_only),
        ) if used]
        if clash:
            raise ValueError(f"--prefixes-out cannot be combined with {', '.join(clash)}")
        if args.split_depth is None:
            raise ValueError("--prefixes-out requires --split-depth")
        prefixes = path_prefixes(args.n, args.split_depth)
        with open(args.prefixes_out, "w", encoding="utf-8") as f:
            f.write(write_prefixes(prefixes))
        _emit({"n": args.n, "prefix_count": len(prefixes)}, sys.stdout)
        return 0
    if args.prefix_index is not None and args.prefixes_in is None:
        raise ValueError("--prefix-index requires --prefixes-in")
    if args.count_only and args.out is not None:
        raise ValueError("--count-only cannot be combined with --out")
    if args.count_only and args.prefixes_in is None:
        count = count_cycles(args.n, cfg)
        _emit({"n": args.n, "count": count}, sys.stdout)
        return 0

    if args.prefixes_in is not None:
        prefixes = _parse_file(args.prefixes_in, read_prefixes)
        if args.prefix_index is not None:
            if not 0 <= args.prefix_index < len(prefixes):
                raise ValueError(f"--prefix-index out of range 0..{len(prefixes) - 1}")
            prefixes = [prefixes[args.prefix_index]]
    else:
        prefixes = [None]
    # the searches are generators that check their arguments only when
    # first resumed, so check n (also for an empty prefix file) and every
    # prefix before --out truncates its file
    check_search_args(args.n)
    for p in prefixes:
        check_search_args(args.n, p)
    stream: Iterator[HamiltonianCycle] = (
        cyc for p in prefixes for cyc in enumerate_cycles(args.n, cfg, prefix=p)
    )

    if args.count_only:
        count = sum(1 for _ in stream)
        _emit({"n": args.n, "count": count}, sys.stdout)
        return 0

    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        count = 0
        for cyc in stream:
            _emit(cyc.to_dict(), out)
            count += 1
    finally:
        if args.out:
            out.close()
    print(f"{count} cycles of the {args.n}-cube emitted", file=sys.stderr)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    # the whole file is read and --dim checked against every cycle first,
    # so a bad line or an index out of range leaves no output
    cycles = list(read_cycles(args.infile))
    if args.dim is not None:
        for cyc in cycles:
            if not 0 <= args.dim < cyc.n:
                raise ValueError(f"dimension index {args.dim} out of range for n={cyc.n}")
    for cyc in cycles:
        profiles = dimension_profiles(cyc)
        counts = [len(p.index_list) for p in profiles]
        if args.dim is not None:
            profiles = [profiles[args.dim]]
        _emit(
            {
                "n": cyc.n,
                "chromatic_vector": counts,
                "chromatic_ok": check_chromatic_conditions(counts, cyc.n).ok,
                "profiles": [p.to_dict() for p in profiles],
            },
            sys.stdout,
        )
    return 0


def cmd_squares(args: argparse.Namespace) -> int:
    # the whole file is read and every cube checked first, so a bad line or
    # a cube too large to list leaves no output; each line is the
    # json.dumps of {"n", "count", "squares": [...]}
    cycles = list(read_cycles(args.infile))
    for cyc in cycles:
        check_squares_dim(cyc.n)
    write = sys.stdout.write
    for cyc in cycles:
        rows = find_squares(cyc)
        if args.first_only:
            rows = rows[:1]
        write('{"n": %d, "count": %d, "squares": [' % (cyc.n, len(rows)))
        for s in range(0, len(rows), _SQUARE_SLICE):
            if s:
                write(", ")
            part = rows[s : s + _SQUARE_SLICE]
            write(", ".join([_SQUARE % (i, kind, a, k, j) for i, a, k, kind, j in part]))
        write("]}\n")
    return 0


def cmd_equiind(args: argparse.Namespace) -> int:
    if args.hypercube is not None:
        check_hypercube_caps(args.hypercube, args.method)
        b = hypercube_bipartite(args.hypercube)
        source = f"hypercube:{args.hypercube}"
    else:
        b = _parse_file(args.graph, parse_bipartite)
        source = f"file:{args.graph}"
    if args.method == "oracle":
        size = brute_force_equi(b)
        witness = None
    else:
        size, witness = equi_independence(b, method=args.method)
    _emit(
        {"source": source, "method": args.method, "size": size, "witness": witness},
        sys.stdout,
    )
    print(f"largest balanced independent set of {source}: {size}", file=sys.stderr)
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    b = _parse_file(args.graph, parse_bipartite)
    red = equi_reduction(b)
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(format_graph(red.graph))
    print(
        f"pair graph: {red.graph.vertex_count} vertices, "
        f"{red.graph.edge_count} edges -> {args.out}",
        file=sys.stderr,
    )
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    rows = table1_rows(args.max_n, method=args.method, alpha_max_n=args.alpha_max_n)
    for row in rows:
        _emit(row, sys.stdout)
    print(f"{'n':>2} {'alpha':>6} {'|V_red|':>8} {'|E_red|':>9}", file=sys.stderr)
    for row in rows:
        notes = []
        if row["reduced_vertices_mismatch"]:
            notes.append(
                f"computed |V_red| {row['reduced_vertices']} differs from the "
                f"reference value {row['reference_reduced_vertices']}"
            )
        if row["alpha_matches_reference"] is False:
            notes.append(
                f"computed alpha {row['alpha_equi']} differs from the "
                f"reference value {row['reference_alpha']}"
            )
        alpha, ref = row["alpha_equi"], row["reference_alpha"]
        shown = str(alpha) if alpha is not None else f"({ref})" if ref is not None else "-"
        note = f"  << {'; '.join(notes)}" if notes else ""
        print(
            f"{row['n']:>2} {shown:>6} {row['reduced_vertices']:>8} "
            f"{row['reduced_edges']:>9}{note}",
            file=sys.stderr,
        )
    return 0


def cmd_pigeonhole(args: argparse.Namespace) -> int:
    if args.max_n < 2:
        raise ValueError(f"--max-n must be at least 2, got {args.max_n}")
    # every report is built before the first is written, so a dimension
    # without a stored value leaves stdout empty; each reads the count that
    # ``verify --property threshold`` reads
    reports = [pigeonhole_report(n, rim_threshold(n)) for n in range(2, args.max_n + 1)]
    for report in reports:
        _emit({**report.to_dict(), "alpha_table": THRESHOLD_ALPHA_TABLE["equi"]}, sys.stdout)
        relation = "<" if report.forced else ">="
        outcome = "squares forced in every Hamiltonian cycle" if report.forced else "not decided by counting"
        print(
            f"n={report.n}: {report.n} * {report.threshold} = {report.product} {relation} "
            f"{report.order} -> {outcome}",
            file=sys.stderr,
        )
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qube",
        description="Structural analysis of Hamiltonian cycles in the n-cube.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gray", help="emit the reflected Gray code cycle")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("enumerate", help="enumerate all Hamiltonian cycles")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--prune", choices=("all", "none"), default="all")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--split-depth", type=int, metavar="D")
    p.add_argument("--prefixes-out", metavar="FILE")
    p.add_argument("--prefixes-in", metavar="FILE")
    p.add_argument("--prefix-index", type=int, metavar="K")

    p = sub.add_parser("analyze", help="chromatic vector and per-dimension profiles")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--dim", type=int)

    p = sub.add_parser("squares", help="list inscribed squares of cycles")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--first-only", action="store_true")

    p = sub.add_parser("verify", help="sweep a structural property over a corpus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--property", choices=PROPERTIES, required=True)
    # one corpus source at most: isomorphism needs none
    source = p.add_mutually_exclusive_group()
    source.add_argument("--exhaustive", action="store_true")
    source.add_argument("--sample", type=int, metavar="K")
    source.add_argument("--in", dest="infile", metavar="FILE")
    p.add_argument("--seed", type=int, metavar="S")
    p.add_argument("--mode", choices=("equi", "independence"),
                   help="threshold flavor for --property threshold (default equi)")

    p = sub.add_parser("equiind", help="largest balanced independent set")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--hypercube", type=int, metavar="N")
    group.add_argument("--graph", metavar="FILE")
    p.add_argument("--method", choices=("reduction", "direct", "oracle"),
                   default="direct")

    p = sub.add_parser("reduce", help="write the pair graph of a bipartite graph")
    p.add_argument("--graph", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="FILE")

    p = sub.add_parser("table1", help="reproduce the reference table")
    p.add_argument("--max-n", type=int, default=7)
    p.add_argument("--method", choices=("reduction", "direct"), default="direct")
    p.add_argument("--alpha-max-n", type=int, metavar="K",
                   help="solve the balanced-independence number only for "
                        "n <= K (larger rows report sizes and the reference "
                        "value; the exact solve grows steeply with n)")

    p = sub.add_parser("pigeonhole", help="square-forcing counting argument")
    p.add_argument("--max-n", type=int, default=7)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up by name at call time, so a cmd_* replaced in this
        # module's namespace (by a test or a tracer) is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, RuntimeError) else 2
    except LookupError as exc:
        # a KeyError or IndexError is a fault of the run, not of its input
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
