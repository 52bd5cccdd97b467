"""The trace-op contract: what ``Context.delay``/``transfer`` record.

Adjacent ops merge only when summing them is exact — same kind, same phase,
same note, and for transfers the same resource and stream cap — so the
replay of a merged trace equals the replay of the unmerged one.  Ops are
value records: equality, hashing, ``repr`` and pickling (the procs engine
ships traces between processes) all go by their fields.
"""

import pickle

import pytest

from repro.config import DEFAULT_MACHINE
from repro.sim.engine import Context
from repro.sim.trace import Acquire, Barrier, Delay, RankTrace, Release, Transfer


def make_ctx() -> Context:
    return Context(0, 1, machine=DEFAULT_MACHINE, scale=1, board=None,
                   trace=RankTrace(rank=0))


class TestMerging:
    def test_adjacent_delays_sum(self):
        ctx = make_ctx()
        ctx.delay(5.0, note="x")
        ctx.delay(7.0, note="x")
        assert ctx.trace.ops == [Delay(12.0, "", "x")]
        assert ctx.lb_ns == 12.0

    def test_adjacent_transfers_sum(self):
        ctx = make_ctx()
        with ctx.phase("io"):
            ctx.transfer("dev", 100.0, 4.0, note="n")
            ctx.transfer("dev", 60.0, 4.0, note="n")
        assert ctx.trace.ops == [Transfer("dev", 160.0, 4.0, "io", "n")]
        assert ctx.lb_ns == 40.0

    def test_different_note_does_not_merge(self):
        ctx = make_ctx()
        ctx.delay(5.0, note="a")
        ctx.delay(5.0, note="b")
        ctx.transfer("dev", 1.0, 1.0, note="a")
        ctx.transfer("dev", 1.0, 1.0, note="b")
        assert ctx.trace.ops == [
            Delay(5.0, "", "a"), Delay(5.0, "", "b"),
            Transfer("dev", 1.0, 1.0, "", "a"),
            Transfer("dev", 1.0, 1.0, "", "b"),
        ]

    def test_different_phase_does_not_merge(self):
        ctx = make_ctx()
        ctx.delay(5.0)
        with ctx.phase("p"):
            ctx.delay(5.0)
        ctx.transfer("dev", 1.0, 1.0)
        with ctx.phase("p"):
            ctx.transfer("dev", 1.0, 1.0)
        assert ctx.trace.ops == [
            Delay(5.0), Delay(5.0, "p"),
            Transfer("dev", 1.0, 1.0), Transfer("dev", 1.0, 1.0, "p"),
        ]

    def test_transfer_needs_same_resource_and_cap(self):
        ctx = make_ctx()
        ctx.transfer("dev", 1.0, 1.0)
        ctx.transfer("net", 1.0, 1.0)
        ctx.transfer("net", 1.0, 2.0)
        assert [(op.resource, op.stream_cap) for op in ctx.trace.ops] == [
            ("dev", 1.0), ("net", 1.0), ("net", 2.0),
        ]

    def test_op_in_between_does_not_merge(self):
        ctx = make_ctx()
        ctx.transfer("dev", 1.0, 1.0)
        ctx.delay(3.0)
        ctx.transfer("dev", 1.0, 1.0)
        ctx.lock_acquired("L")
        ctx.delay(3.0)
        ctx.lock_released("L")
        ctx.delay(3.0)
        assert ctx.trace.ops == [
            Transfer("dev", 1.0, 1.0), Delay(3.0), Transfer("dev", 1.0, 1.0),
            Acquire("L"), Delay(3.0), Release("L"), Delay(3.0),
        ]

    def test_a_delay_never_merges_into_a_transfer(self):
        ctx = make_ctx()
        ctx.delay(1.0)
        ctx.transfer("dev", 1.0, 1.0)
        ctx.delay(1.0)
        assert [type(op) for op in ctx.trace.ops] == [Delay, Transfer, Delay]

    def test_non_positive_charges_record_nothing(self):
        ctx = make_ctx()
        ctx.delay(0.0)
        ctx.delay(-1.0)
        ctx.transfer("dev", 0.0, 1.0)
        assert ctx.trace.ops == [] and ctx.lb_ns == 0.0


class TestValueSemantics:
    def test_pickle_round_trip_of_a_recorded_trace(self):
        ctx = make_ctx()
        with ctx.phase("w"):
            ctx.delay(10.0, note="setup")
            ctx.transfer("pmem_write", 4096.0, 2.5, note="copy")
            ctx.lock_acquired("L", shared=True, note="meta")
            ctx.lock_released("L")
        ctx.trace.append(Barrier(0, (0, 1), phase="sync"))
        ops = ctx.trace.ops
        for proto in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(ops, protocol=proto))
            assert back == ops
            assert [type(op) for op in back] == [type(op) for op in ops]

    def test_equality_hash_and_repr_go_by_fields(self):
        assert Delay(1.0, "p", "n") == Delay(ns=1.0, phase="p", note="n")
        assert hash(Delay(1.0, "p")) == hash(Delay(1.0, "p"))
        assert Delay(1.0) != Delay(1.0, note="x")
        assert Release("L") != Acquire("L")
        assert len({Transfer("d", 1.0, 1.0), Transfer("d", 1.0, 1.0)}) == 1
        assert repr(Delay(1.5)) == "Delay(ns=1.5, phase='', note='')"
        assert repr(Transfer("dev", 2.0, 1.0, note="c")) == (
            "Transfer(resource='dev', amount=2.0, stream_cap=1.0, "
            "phase='', note='c')"
        )
        assert repr(Barrier(3, (0, 1))) == (
            "Barrier(barrier_id=3, participants=(0, 1), phase='')"
        )


class TestValidation:
    def test_negative_delay(self):
        with pytest.raises(ValueError, match="negative delay"):
            Delay(-1.0)

    def test_negative_amount(self):
        with pytest.raises(ValueError, match="negative transfer amount"):
            Transfer("dev", -1.0, 1.0)

    @pytest.mark.parametrize("cap", [0.0, -2.0])
    def test_non_positive_cap(self, cap):
        with pytest.raises(ValueError, match="non-positive stream cap"):
            Transfer("dev", 1.0, cap)
