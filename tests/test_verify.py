"""Property sweeps: one pass over several properties against one pass per
property, and the exhaustive sweep's refusals and inputs."""

import pytest

from qube import verify
from qube.bounds import rim_threshold
from qube.enumeration import enumerate_cycles
from qube.verify import CHECKS, sweep, sweep_exhaustive

ALL = tuple(CHECKS)


def outcome(tally):
    return tally.checked, tally.violations, tally.first_counterexample, tally.square_free


def test_one_pass_equals_one_pass_per_property(monkeypatch, q4_cycles):
    # every cycle square-free, so one property has a violation per cycle
    monkeypatch.setattr("qube.verify.has_square", lambda cyc: False)
    thr = rim_threshold(4, "equi")
    together = sweep(ALL, q4_cycles, thr)
    assert set(together) == set(ALL)
    for prop in ALL:
        assert outcome(together[prop]) == outcome(sweep((prop,), q4_cycles, thr)[prop]), prop
    assert together["squares"].violations == 1344
    assert together["balance"].checked == 1344


def test_sweep_exhaustive_equals_one_sequential_pass(monkeypatch):
    # every cycle a violation, so the first counterexample and the order
    # of the square-free list are compared over all 1344 cycles
    monkeypatch.setattr("qube.verify.has_square", lambda cyc: False)
    thr = rim_threshold(4, "equi")
    exhaustive = sweep_exhaustive(4, ALL, thr)
    sequential = sweep(ALL, enumerate_cycles(4), thr)
    assert exhaustive.keys() == sequential.keys() == set(ALL)
    for prop in ALL:
        assert outcome(exhaustive[prop]) == outcome(sequential[prop]), prop
    squares = exhaustive["squares"]
    assert squares.checked == squares.violations == 1344
    assert squares.first_counterexample is not None


def test_sweep_exhaustive_refuses_cubes_beyond_the_whole_cube_cap(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("a whole-cube search was started")

    monkeypatch.setattr("qube.enumeration._search", no_search)
    for n in (6, 7):
        with pytest.raises(ValueError, match="supports n <= 5"):
            sweep_exhaustive(n, ("balance",))


def test_a_recurrence_mismatch_is_caught(monkeypatch):
    # the direct parity word of dimension 2 disagrees with the recurrence's:
    # the flipped word is seeded as the profile's computed value
    def profiles(cyc):
        found = real(cyc)
        found[2].__dict__["parity_direct"] = tuple(1 - b for b in found[2].parity_direct)
        return found

    real = verify.dimension_profiles
    monkeypatch.setattr("qube.verify.dimension_profiles", profiles)
    tallies = sweep(("balance", "recurrence"), enumerate_cycles(3))
    assert tallies["balance"].violations == 0
    assert tallies["recurrence"].checked == tallies["recurrence"].violations == 6
    assert tallies["recurrence"].first_counterexample["dim"] == 2


@pytest.mark.parametrize(
    "props,calls",
    [(ALL, 6), (("balance", "segments", "recurrence"), 6),
     (("chromatic", "squares", "threshold"), 0)],
    ids=["all", "profiled", "unprofiled"],
)
def test_one_profile_list_per_cycle_and_only_when_asked(monkeypatch, props, calls):
    made = []

    def counted(cyc):
        made.append(cyc)
        return real(cyc)

    real = verify.dimension_profiles
    monkeypatch.setattr("qube.verify.dimension_profiles", counted)
    assert sweep(props, enumerate_cycles(3), rim_threshold(3, "equi"))[props[0]].checked == 6
    assert len(made) == calls


def test_an_unknown_property_fails_before_any_cycle():
    with pytest.raises(ValueError, match="unknown property 'bogus'"):
        sweep(("balance", "bogus"), [])


def test_isomorphism_is_not_a_per_cycle_property():
    with pytest.raises(ValueError, match="not a per-cycle property"):
        sweep(("isomorphism",), enumerate_cycles(3))


def unread():
    raise AssertionError("a cycle was read")
    yield


@pytest.mark.parametrize("props", ["balance", ()], ids=["string", "empty"])
def test_sweep_takes_a_non_empty_tuple(props):
    # a bare string would be read one letter at a time, and no property
    # would read the whole corpus for an empty report
    with pytest.raises(ValueError, match="non-empty tuple"):
        sweep(props, unread())


@pytest.mark.parametrize("props", ["balance", ()], ids=["string", "empty"])
def test_sweep_exhaustive_takes_a_non_empty_tuple(monkeypatch, props):
    monkeypatch.setattr("qube.verify.enumerate_cycles", lambda *args, **kw: unread())
    with pytest.raises(ValueError, match="non-empty tuple"):
        sweep_exhaustive(4, props)


def test_a_generator_of_properties_is_read_once(q4_cycles):
    tallies = sweep((prop for prop in ("balance", "squares")), q4_cycles)
    assert list(tallies) == ["balance", "squares"]
    assert [t.checked for t in tallies.values()] == [len(q4_cycles)] * 2


def test_the_threshold_property_needs_a_count():
    # the count is the caller's choice of table; a sweep has no default
    with pytest.raises(ValueError, match="needs a threshold count"):
        sweep(("threshold",), unread())


def test_sweep_exhaustive_needs_a_count_before_any_search(monkeypatch):
    monkeypatch.setattr("qube.verify.enumerate_cycles", lambda *args, **kw: unread())
    with pytest.raises(ValueError, match="needs a threshold count"):
        sweep_exhaustive(4, ("threshold",))


def test_sweep_exhaustive_takes_a_generator_of_properties():
    tallies = sweep_exhaustive(3, (prop for prop in ("balance",)))
    assert list(tallies) == ["balance"] and tallies["balance"].checked == 6
