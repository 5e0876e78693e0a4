"""Property sweeps: check several per-cycle properties on a corpus in one pass.

:func:`sweep` takes a tuple of properties, keys of :data:`CHECKS`, and any
iterable of cycles, which it reads one cycle at a time; it returns one
:class:`Tally` per property.  Balance, segment sums and the gap recurrence
share one :func:`~qube.cycles.dimension_profiles` list per cycle, built only
when one of them is asked for.  :func:`sweep_exhaustive` checks every
Hamiltonian cycle of the n-cube in one pass over
:func:`~qube.enumeration.enumerate_cycles`, in this process.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

from .cycles import (
    HamiltonianCycle,
    check_chromatic_conditions,
    chromatic_vector,
    dimension_profiles,
)
from .enumeration import check_whole_cube, enumerate_cycles
from .squares import check_threshold_implication, has_square

# the choices of ``verify --property``; isomorphism is a property of the
# cube, not of a cycle: the CLI checks it with isomorphism_violations
PROPERTIES = ("balance", "segments", "squares", "chromatic", "isomorphism", "threshold")

SQUARE_FREE_FILE = "square_free_counterexamples_n{n}.jsonl"


def _per_dimension(holds):
    """A check that records each dimension whose profile fails ``holds``."""
    return lambda cyc, profiles, mode: [{"dim": p.dim} for p in profiles if not holds(p)]


def _chromatic(cyc: HamiltonianCycle, profiles, mode: str) -> list[dict]:
    failed = check_chromatic_conditions(chromatic_vector(cyc), cyc.n).failures()
    return [{"failed": failed}] if failed else []


# the per-cycle properties: (cycle, its dimension profiles, threshold mode)
# -> violation records, an empty list when the property holds
CHECKS = {
    "balance": _per_dimension(lambda p: p.balanced),
    "segments": _per_dimension(lambda p: p.segment_sums_ok),
    "recurrence": _per_dimension(lambda p: p.parity_list == p.parity_direct),
    "chromatic": _chromatic,
    "squares": lambda cyc, profiles, mode: [] if has_square(cyc) else [{"square_free": True}],
    "threshold": lambda cyc, profiles, mode: [
        {"dim": i} for i in check_threshold_implication(cyc, mode).violations
    ],
}
PROFILED = ("balance", "segments", "recurrence")


@dataclass
class Tally:
    """What a sweep found for one property.  ``first`` pairs a cycle
    sequence, its sort key, with the counterexample it names; the least
    sequence wins, because ``verify --in`` reports the least counterexample
    of its file, whatever the order of its lines (a cycle's violation
    records depend on the cycle alone).  ``square_free`` holds the
    square-free cycles in sweep order."""

    checked: int = 0
    violations: int = 0
    first: tuple | None = None
    square_free: list[dict] = field(default_factory=list)

    @property
    def first_counterexample(self) -> dict | None:
        return self.first[1] if self.first else None


def sweep(
    props: Iterable[str], cycles: Iterable[HamiltonianCycle], mode: str = "equi"
) -> dict[str, Tally]:
    """Check every property of ``props`` on each cycle, in one pass, and
    return each property's tally; ``mode`` is the threshold flavour of the
    ``threshold`` property (see :func:`~qube.bounds.rim_threshold`)."""
    names = () if isinstance(props, str) else tuple(props)  # read a generator once
    if not names:
        raise ValueError(f"props must be a non-empty tuple of property names, got {props!r}")
    for prop in names:
        if prop not in CHECKS:
            raise ValueError(
                "isomorphism is a property of the cube, not a per-cycle property"
                if prop == "isomorphism" else f"unknown property {prop!r}"
            )
    tallies = {prop: Tally() for prop in names}
    profiled = any(prop in PROFILED for prop in names)
    for cyc in cycles:
        profiles = dimension_profiles(cyc) if profiled else None
        for prop, tally in tallies.items():
            tally.checked += 1
            records = CHECKS[prop](cyc, profiles, mode)
            if not records:
                continue
            tally.violations += len(records)
            if prop == "squares":
                tally.square_free.append(cyc.to_dict())
            if tally.first is None or cyc.seq < tally.first[0]:
                tally.first = (cyc.seq, {"cycle": cyc.to_dict(), **records[0]})
    return tallies


def sweep_exhaustive(n: int, props: Iterable[str], mode: str = "equi") -> dict[str, Tally]:
    """:func:`sweep` over every Hamiltonian cycle of the n-cube, in one pass
    over :func:`~qube.enumeration.enumerate_cycles`.  Cubes above
    ``MAX_WHOLE_CUBE_DIM`` dimensions are refused before any search."""
    check_whole_cube(n)
    return sweep(props, enumerate_cycles(n), mode)


def persist_square_free(n: int, cycles: list[dict]) -> str | None:
    """Append square-free cycles to ``SQUARE_FREE_FILE`` in the working
    directory, one JSON object per line; return the path, or None when
    there is nothing to write."""
    if not cycles:
        return None
    path = SQUARE_FREE_FILE.format(n=n)
    with open(path, "a", encoding="utf-8") as f:
        for obj in cycles:
            f.write(json.dumps(obj) + "\n")
            f.flush()
    return path
