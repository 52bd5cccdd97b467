"""Tests for the max-min fluid replay simulator."""


import pytest
from hypothesis import given, strategies as st

from repro.config import DEFAULT_MACHINE
from repro.sim.fluid import FluidSimulator, waterfill
from repro.sim.resources import Resource, ResourceSet, build_standard_resources
from repro.sim.trace import Acquire, Barrier, Delay, RankTrace, Release, Transfer


def const_resources(**caps):
    return ResourceSet([Resource(n, (lambda c: (lambda _n: c))(c)) for n, c in caps.items()])


class TestWaterfill:
    def test_under_capacity_gives_caps(self):
        assert waterfill([1.0, 2.0], 10.0) == [1.0, 2.0]

    def test_equal_split_when_saturated(self):
        assert waterfill([5.0, 5.0], 6.0) == [3.0, 3.0]

    def test_small_stream_keeps_cap(self):
        # 1 is below fair share (5), so it keeps its cap and the big
        # streams split the rest.
        rates = waterfill([1.0, 100.0, 100.0], 15.0)
        assert rates[0] == pytest.approx(1.0)
        assert rates[1] == pytest.approx(7.0)
        assert rates[2] == pytest.approx(7.0)

    def test_empty(self):
        assert waterfill([], 5.0) == []

    @given(
        st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=20),
        st.floats(min_value=0.01, max_value=500.0),
    )
    def test_properties(self, caps, capacity):
        rates = waterfill(caps, capacity)
        assert len(rates) == len(caps)
        # feasibility
        for r, c in zip(rates, caps):
            assert 0 <= r <= c + 1e-9
        assert sum(rates) <= capacity + 1e-6
        # work conservation: either all streams capped, or capacity is used
        if any(r < c - 1e-9 for r, c in zip(rates, caps)):
            assert sum(rates) == pytest.approx(capacity, rel=1e-6)
        # max-min: any stream below its cap gets at least as much as any
        # other stream's floor (no one below-cap is starved relative to peers)
        uncapped = [r for r, c in zip(rates, caps) if r < c - 1e-9]
        if uncapped:
            assert min(uncapped) >= max(min(rates) - 1e-9, 0)


class TestFluidBasics:
    def test_single_delay(self):
        trace = RankTrace(0, [Delay(100.0)])
        res = FluidSimulator(const_resources()).run([trace])
        assert res.finish_ns[0] == pytest.approx(100.0)

    def test_single_transfer_stream_capped(self):
        trace = RankTrace(0, [Transfer("dev", 1000.0, stream_cap=2.0)])
        res = FluidSimulator(const_resources(dev=100.0)).run([trace])
        assert res.finish_ns[0] == pytest.approx(500.0)

    def test_single_transfer_capacity_capped(self):
        trace = RankTrace(0, [Transfer("dev", 1000.0, stream_cap=50.0)])
        res = FluidSimulator(const_resources(dev=10.0)).run([trace])
        assert res.finish_ns[0] == pytest.approx(100.0)

    def test_two_streams_share_fairly(self):
        traces = [
            RankTrace(0, [Transfer("dev", 100.0, stream_cap=10.0)]),
            RankTrace(1, [Transfer("dev", 100.0, stream_cap=10.0)]),
        ]
        res = FluidSimulator(const_resources(dev=10.0)).run(traces)
        # each gets 5 units/ns -> 20ns
        assert res.finish_ns[0] == pytest.approx(20.0)
        assert res.finish_ns[1] == pytest.approx(20.0)

    def test_short_stream_releases_bandwidth(self):
        traces = [
            RankTrace(0, [Transfer("dev", 50.0, stream_cap=10.0)]),
            RankTrace(1, [Transfer("dev", 150.0, stream_cap=10.0)]),
        ]
        res = FluidSimulator(const_resources(dev=10.0)).run(traces)
        # both at 5 until t=10 (rank0 done, 50 units each);
        # rank1 then runs at its cap 10 for remaining 100 -> t=20.
        assert res.finish_ns[0] == pytest.approx(10.0)
        assert res.finish_ns[1] == pytest.approx(20.0)

    def test_sequential_ops_accumulate(self):
        trace = RankTrace(0, [Delay(10.0), Transfer("dev", 20.0, 2.0), Delay(5.0)])
        res = FluidSimulator(const_resources(dev=100.0)).run([trace])
        assert res.finish_ns[0] == pytest.approx(25.0)

    def test_zero_amount_ops_skipped(self):
        trace = RankTrace(0, [Transfer("dev", 0.0, 1.0), Delay(0.0), Delay(7.0)])
        res = FluidSimulator(const_resources(dev=1.0)).run([trace])
        assert res.finish_ns[0] == pytest.approx(7.0)

    def test_empty_trace(self):
        res = FluidSimulator(const_resources()).run([RankTrace(0, [])])
        assert res.finish_ns[0] == 0.0

    def test_unknown_resource_raises(self):
        trace = RankTrace(0, [Transfer("nope", 10.0, 1.0)])
        with pytest.raises(KeyError):
            FluidSimulator(const_resources(dev=1.0)).run([trace])

    def test_duplicate_rank_rejected(self):
        with pytest.raises(ValueError):
            FluidSimulator(const_resources()).run([RankTrace(0), RankTrace(0)])


class TestBarriers:
    def test_barrier_synchronizes(self):
        b = Barrier(0, (0, 1))
        traces = [
            RankTrace(0, [Delay(100.0), b, Delay(10.0)]),
            RankTrace(1, [Delay(5.0), b, Delay(10.0)]),
        ]
        res = FluidSimulator(const_resources()).run(traces)
        assert res.finish_ns[0] == pytest.approx(110.0)
        assert res.finish_ns[1] == pytest.approx(110.0)

    def test_subset_barrier_ignores_others(self):
        b = Barrier(0, (0, 1))
        traces = [
            RankTrace(0, [b]),
            RankTrace(1, [Delay(50.0), b]),
            RankTrace(2, [Delay(3.0)]),
        ]
        res = FluidSimulator(const_resources()).run(traces)
        assert res.finish_ns[2] == pytest.approx(3.0)
        assert res.finish_ns[0] == pytest.approx(50.0)

    def test_two_sequential_barriers(self):
        b0, b1 = Barrier(0, (0, 1)), Barrier(1, (0, 1))
        traces = [
            RankTrace(0, [b0, Delay(10.0), b1]),
            RankTrace(1, [Delay(20.0), b0, b1]),
        ]
        res = FluidSimulator(const_resources()).run(traces)
        assert res.finish_ns[0] == pytest.approx(30.0)
        assert res.finish_ns[1] == pytest.approx(30.0)

    def test_unmatched_barrier_deadlocks(self):
        traces = [
            RankTrace(0, [Barrier(0, (0, 1))]),
            RankTrace(1, [Delay(1.0)]),
        ]
        with pytest.raises(RuntimeError, match="deadlock"):
            FluidSimulator(const_resources()).run(traces)


class TestBreakdown:
    def test_phase_accounting_sums_to_finish(self):
        traces = [
            RankTrace(0, [
                Transfer("dev", 100.0, 10.0, phase="write"),
                Delay(50.0, phase="sync"),
            ]),
        ]
        res = FluidSimulator(const_resources(dev=100.0)).run(traces)
        total = sum(ns for (r, _p, _b), ns in res.breakdown.items() if r == 0)
        assert total == pytest.approx(res.finish_ns[0])
        assert res.breakdown[(0, "write", "dev")] == pytest.approx(10.0)
        assert res.breakdown[(0, "sync", "delay")] == pytest.approx(50.0)

    def test_phase_totals_max_over_ranks(self):
        traces = [
            RankTrace(0, [Delay(10.0, phase="a")]),
            RankTrace(1, [Delay(30.0, phase="a")]),
        ]
        res = FluidSimulator(const_resources()).run(traces)
        assert res.phase_totals()["a"] == pytest.approx(30.0)


class TestAgainstAnalytic:
    """Cross-check the simulator against closed-form results."""

    @given(
        st.integers(min_value=1, max_value=32),
        st.floats(min_value=1.0, max_value=1e6),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.5, max_value=100.0),
    )
    def test_symmetric_streams(self, n, amount, cap, capacity):
        traces = [
            RankTrace(r, [Transfer("dev", amount, cap)]) for r in range(n)
        ]
        res = FluidSimulator(const_resources(dev=capacity)).run(traces)
        rate = min(cap, capacity / n)
        expected = amount / rate
        assert res.makespan_ns == pytest.approx(expected, rel=1e-6)

    def test_standard_resources_40gb_write(self):
        machine = DEFAULT_MACHINE
        rs = build_standard_resources(machine)
        n = 24
        per_rank = 40e9 / n
        traces = [
            RankTrace(
                r, [Transfer("pmem_write", per_rank, machine.pmem.stream_write_bw)]
            )
            for r in range(n)
        ]
        res = FluidSimulator(rs).run(traces)
        # 24 * 0.55 GB/s > 8 GB/s aggregate -> device-bound: 5.0s
        assert res.makespan_ns == pytest.approx(5.0e9, rel=1e-3)

    def test_cpu_smt_capacity(self):
        machine = DEFAULT_MACHINE
        rs = build_standard_resources(machine)
        # 48 single-core streams of 1e6 core-ns each on a 24c/48t machine
        traces = [
            RankTrace(r, [Transfer("cpu", 1e6, 1.0)]) for r in range(48)
        ]
        res = FluidSimulator(rs).run(traces)
        cores = machine.cores_available(48)
        assert res.makespan_ns == pytest.approx(48 * 1e6 / cores, rel=1e-6)

    @given(st.data())
    def test_makespan_at_least_lower_bound(self, data):
        n = data.draw(st.integers(min_value=1, max_value=8))
        traces = []
        for r in range(n):
            ops = []
            for _ in range(data.draw(st.integers(0, 5))):
                kind = data.draw(st.sampled_from(["delay", "xfer"]))
                if kind == "delay":
                    ops.append(Delay(data.draw(st.floats(0.0, 100.0))))
                else:
                    ops.append(
                        Transfer(
                            "dev",
                            data.draw(st.floats(0.0, 1000.0)),
                            data.draw(st.floats(0.5, 10.0)),
                        )
                    )
            traces.append(RankTrace(r, ops))
        res = FluidSimulator(const_resources(dev=5.0)).run(traces)
        for t in traces:
            # absolute slack: ops below the simulator's 1e-9 ns epsilon are
            # legitimately skipped
            n_ops = len(t.ops)
            assert res.finish_ns[t.rank] >= t.lower_bound_ns() * (1 - 1e-9) - 1e-6 * (n_ops + 1)


class TestPinnedReplay:
    """A hand-made four-rank trace replayed to exact, pinned values.

    It covers two streams contending on ``dev`` with caps that force
    water-filling (5/5 while ranks 0 and 1 share it, then 7/3 once rank 2
    joins rank 0), a barrier, an exclusive lock holder with two batched
    shared readers and an exclusive writer queued behind them, and
    zero-length delays and transfers.  The expected values were captured
    from the replay and are compared with ``==``: a change to the event
    loop must keep every modeled nanosecond bit-identical.
    """

    EVERYONE = (0, 1, 2, 3)

    @staticmethod
    def resources():
        return ResourceSet([
            Resource("dev", lambda n: 10.0),
            Resource("net", lambda n: 4.0 + n),
        ])

    def traces(self):
        every = self.EVERYONE
        return [
            RankTrace(0, [
                Transfer("dev", 100.0, 8.0, phase="write"),
                Delay(0.0, phase="write"),
                Barrier(0, every, phase="sync"),
                Acquire("L", phase="meta"),
                Delay(30.0, phase="meta", note="crit"),
                Release("L", phase="meta"),
                Transfer("net", 0.0, 1.0, phase="send"),
                Delay(5.0, phase="tail"),
            ]),
            RankTrace(1, [
                Transfer("dev", 60.0, 6.0, phase="write"),
                Transfer("dev", 0.0, 6.0, phase="write"),
                Barrier(0, every, phase="sync"),
                Delay(1.0, phase="meta"),
                Acquire("L", shared=True, phase="meta"),
                Delay(10.0, phase="meta"),
                Release("L", phase="meta"),
                Transfer("net", 24.0, 3.0, phase="send"),
            ]),
            RankTrace(2, [
                Delay(20.0, phase="gen"),
                Transfer("dev", 40.0, 3.0, phase="write"),
                Barrier(0, every, phase="sync"),
                Delay(1.0, phase="meta"),
                Acquire("L", shared=True, phase="meta"),
                Delay(12.0, phase="meta"),
                Release("L", phase="meta"),
                Transfer("net", 30.0, 3.0, phase="send"),
            ]),
            RankTrace(3, [
                Transfer("net", 50.0, 2.5, phase="send"),
                Barrier(0, every, phase="sync"),
                Delay(2.0, phase="meta"),
                Acquire("L", phase="meta"),
                Delay(3.0, phase="meta"),
                Release("L", phase="meta"),
                Delay(0.0, phase="tail"),
            ]),
        ]

    FINISH = {0: 68.33333333333334, 1: 81.33333333333334,
              2: 85.33333333333334, 3: 78.33333333333334}
    BREAKDOWN = {
        (3, "send", "net"): 20.0,
        (1, "write", "dev"): 12.0,
        (0, "write", "dev"): 17.0,
        (2, "gen", "delay"): 20.0,
        (1, "sync", "barrier"): 21.333333333333336,
        (0, "sync", "barrier"): 16.333333333333336,
        (2, "write", "dev"): 13.333333333333334,
        (3, "sync", "barrier"): 13.333333333333334,
        (1, "meta", "delay"): 11.000000000000007,
        (3, "meta", "delay"): 5.0,
        (2, "meta", "delay"): 13.000000000000007,
        (0, "meta", "delay"): 30.0,
        (2, "meta", "lock"): 29.0,
        (1, "meta", "lock"): 29.0,
        (3, "meta", "lock"): 40.00000000000001,
        (0, "tail", "delay"): 5.000000000000007,
        (1, "send", "net"): 8.0,
        (2, "send", "net"): 10.0,
    }
    TIMELINE = [
        (1, "write", "dev", 0.0, 12.0),
        (0, "write", "dev", 0.0, 17.0),
        (3, "send", "net", 0.0, 20.0),
        (2, "gen", "delay", 0.0, 20.0),
        (2, "write", "dev", 20.0, 33.333333333333336),
        (0, "sync", "barrier", 17.0, 33.333333333333336),
        (1, "sync", "barrier", 12.0, 33.333333333333336),
        (3, "sync", "barrier", 20.0, 33.333333333333336),
        (1, "meta", "delay", 33.333333333333336, 34.333333333333336),
        (2, "meta", "delay", 33.333333333333336, 34.333333333333336),
        (3, "meta", "delay", 33.333333333333336, 35.333333333333336),
        (0, "meta", "delay", 33.333333333333336, 63.333333333333336),
        (2, "meta", "lock", 34.333333333333336, 63.333333333333336),
        (1, "meta", "lock", 34.333333333333336, 63.333333333333336),
        (0, "tail", "delay", 63.333333333333336, 68.33333333333334),
        (1, "meta", "delay", 63.333333333333336, 73.33333333333334),
        (2, "meta", "delay", 63.333333333333336, 75.33333333333334),
        (3, "meta", "lock", 35.333333333333336, 75.33333333333334),
        (3, "meta", "delay", 75.33333333333334, 78.33333333333334),
        (1, "send", "net", 73.33333333333334, 81.33333333333334),
        (2, "send", "net", 75.33333333333334, 85.33333333333334),
    ]
    SEGMENTS = [
        (0, 0, "write", "dev", 0.0, 17.0, None),
        (0, 2, "sync", "barrier", 17.0, 33.333333333333336, 2),
        (0, 4, "meta", "delay", 33.333333333333336, 63.333333333333336, None),
        (0, 7, "tail", "delay", 63.333333333333336, 68.33333333333334, None),
        (1, 0, "write", "dev", 0.0, 12.0, None),
        (1, 2, "sync", "barrier", 12.0, 33.333333333333336, 2),
        (1, 3, "meta", "delay", 33.333333333333336, 34.333333333333336, None),
        (1, 4, "meta", "lock", 34.333333333333336, 63.333333333333336, 0),
        (1, 5, "meta", "delay", 63.333333333333336, 73.33333333333334, None),
        (1, 7, "send", "net", 73.33333333333334, 81.33333333333334, None),
        (2, 0, "gen", "delay", 0.0, 20.0, None),
        (2, 1, "write", "dev", 20.0, 33.333333333333336, None),
        (2, 3, "meta", "delay", 33.333333333333336, 34.333333333333336, None),
        (2, 4, "meta", "lock", 34.333333333333336, 63.333333333333336, 0),
        (2, 5, "meta", "delay", 63.333333333333336, 75.33333333333334, None),
        (2, 7, "send", "net", 75.33333333333334, 85.33333333333334, None),
        (3, 0, "send", "net", 0.0, 20.0, None),
        (3, 1, "sync", "barrier", 20.0, 33.333333333333336, 2),
        (3, 2, "meta", "delay", 33.333333333333336, 35.333333333333336, None),
        (3, 3, "meta", "lock", 35.333333333333336, 75.33333333333334, 2),
        (3, 4, "meta", "delay", 75.33333333333334, 78.33333333333334, None),
    ]
    LOCKS = {"L": {
        "acquires": 4, "contended": 3, "holds": 4,
        "hold_ns": 55.000000000000014, "wait_ns": 98.0, "max_queue": 3,
        "edges": {(2, 0): 1, (1, 0): 1, (3, 0): 1},
    }}

    def test_plain_replay(self):
        res = FluidSimulator(self.resources()).run(self.traces())
        assert res.finish_ns == self.FINISH
        assert res.breakdown == self.BREAKDOWN
        # the breakdown's insertion order is part of the result: callers
        # fold it in order (phase_totals), so float sums depend on it
        assert list(res.breakdown) == list(self.BREAKDOWN)
        assert res.timeline == [] and res.causal is None

    def test_recorded_replay(self):
        res = FluidSimulator(self.resources()).run(
            self.traces(), record_timeline=True, record_causal=True
        )
        assert res.finish_ns == self.FINISH
        assert res.breakdown == self.BREAKDOWN
        assert res.timeline == self.TIMELINE
        assert res.causal.segments == self.SEGMENTS
        assert res.causal.locks == self.LOCKS
