"""Property sweeps: sharded exhaustive sweeps against one sequential pass."""

from qube.enumeration import enumerate_cycles
from qube.verify import sweep, sweep_exhaustive


def test_merged_shards_equal_one_sequential_pass(monkeypatch):
    # every cycle a violation, so the first counterexample and the order
    # of the square-free list are compared over all 1344 cycles
    monkeypatch.setattr("qube.verify.has_square", lambda cyc: False)
    sharded = sweep_exhaustive(4, "squares")
    sequential = sweep("squares", enumerate_cycles(4))
    assert sharded.checked == sequential.checked == 1344
    assert sharded.violations == sequential.violations == 1344
    assert sharded.first_counterexample == sequential.first_counterexample
    assert sharded.first_counterexample is not None
    assert sharded.square_free == sequential.square_free
