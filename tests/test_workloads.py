"""Tests for decomposition math, the Domain3D workload, and the jobs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DimensionMismatchError
from repro.workloads import Domain3D, block_decompose, factor3, proc_grid
from repro.workloads.decomp import coords_of


class TestFactor3:
    def test_paper_proc_counts(self):
        # the grids that drive the Fig. 6/7 shape
        assert factor3(8) == (2, 2, 2)
        assert factor3(16) == (4, 2, 2)
        assert factor3(24) == (4, 3, 2)
        assert factor3(32) == (4, 4, 2)
        assert factor3(48) == (4, 4, 3)

    def test_one(self):
        assert factor3(1) == (1, 1, 1)

    def test_prime(self):
        assert factor3(7) == (7, 1, 1)

    @given(st.integers(1, 1024))
    def test_product_is_p(self, p):
        a, b, c = factor3(p)
        assert a * b * c == p
        assert a >= b >= c >= 1

    def test_invalid(self):
        with pytest.raises(DimensionMismatchError):
            factor3(0)


class TestBlockDecompose:
    @given(
        st.integers(1, 48),
        st.tuples(st.integers(4, 50), st.integers(4, 50), st.integers(4, 50)),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, nprocs, gdims):
        """Blocks tile the domain exactly: disjoint cover, full volume."""
        total = 0
        marks = np.zeros(gdims, dtype=np.int32)
        for r in range(nprocs):
            offs, dims = block_decompose(gdims, nprocs, r)
            for o, d, g in zip(offs, dims, gdims):
                assert 0 <= o and o + d <= g
            sl = tuple(slice(o, o + d) for o, d in zip(offs, dims))
            marks[sl] += 1
            total += math.prod(dims)
        assert total == math.prod(gdims)
        assert np.all(marks == 1)

    def test_remainder_distribution(self):
        # 10 elements over 3 ranks -> 4,3,3
        sizes = [block_decompose((10,), 3, r)[1][0] for r in range(3)]
        assert sizes == [4, 3, 3]

    def test_coords_roundtrip(self):
        grid = (4, 3, 2)
        seen = set()
        for r in range(24):
            seen.add(coords_of(r, grid))
        assert len(seen) == 24

    def test_proc_grid_2d(self):
        assert math.prod(proc_grid(12, 2)) == 12
        assert proc_grid(5, 1) == (5,)


class TestDomain3D:
    def test_paper_scale_numbers(self):
        w = Domain3D()
        assert w.nvars == 10
        # ~40 GB total at model scale
        assert abs(w.model_total_bytes - 40.96e9) < 1e9
        assert w.functional_dims == (80, 80, 80)
        assert w.scale == 1000

    def test_axis_scale_must_divide(self):
        with pytest.raises(ValueError):
            Domain3D(model_dims=(100, 100, 100), axis_scale=8)

    def test_generate_deterministic_and_global(self):
        w = Domain3D(axis_scale=20)  # small functional cube (40^3)
        a = w.generate(0, (0, 0, 0), (4, 4, 4))
        b = w.generate(0, (0, 0, 0), (4, 4, 4))
        np.testing.assert_array_equal(a, b)
        # a block at an offset equals the corresponding slice of the whole
        whole = w.generate(0, (0, 0, 0), w.functional_dims)
        blk = w.generate(0, (3, 5, 7), (4, 4, 4))
        np.testing.assert_array_equal(whole[3:7, 5:9, 7:11], blk)

    def test_vars_differ(self):
        w = Domain3D(axis_scale=20)
        a = w.generate(0, (0, 0, 0), (4, 4, 4))
        b = w.generate(1, (0, 0, 0), (4, 4, 4))
        assert not np.array_equal(a, b)

    def test_verify(self):
        w = Domain3D(axis_scale=20)
        block = w.generate(2, (1, 2, 3), (5, 5, 5))
        assert w.verify(2, (1, 2, 3), block)
        block[0, 0, 0] += 1
        assert not w.verify(2, (1, 2, 3), block)

    def test_blocks_divide_total(self):
        w = Domain3D()
        for p in (8, 16, 24, 32, 48):
            total = 0
            for r in range(p):
                _offs, dims = w.block_for(p, r)
                total += math.prod(dims)
            assert total == math.prod(w.functional_dims)


class TestJobs:
    @pytest.mark.parametrize("driver", ["pmemcpy", "adios", "netcdf4"])
    def test_write_then_read_job_verifies(self, driver):
        from repro.cluster import Cluster
        from repro.workloads import read_job, write_job

        w = Domain3D(nvars=2, model_dims=(80, 80, 80), axis_scale=5)
        cl = Cluster(scale=w.scale, pmem_capacity=64 * 1024 * 1024)
        cl.run(4, lambda ctx: write_job(ctx, w, driver, "/pmem/j"))
        # read_job raises if verification fails
        cl.run(4, lambda ctx: read_job(ctx, w, driver, "/pmem/j"))

    def test_read_job_detects_corruption(self):
        from repro.cluster import Cluster
        from repro.errors import BaselineError, RankFailedError
        from repro.workloads import read_job, write_job

        w = Domain3D(nvars=1, model_dims=(40, 40, 40), axis_scale=5)
        cl = Cluster(scale=w.scale, pmem_capacity=32 * 1024 * 1024)
        cl.run(2, lambda ctx: write_job(ctx, w, "posix", "/pmem/c"))
        # flip bytes inside the variable's data region (the posix layout
        # puts rank blocks right after the 8-byte index pointer)
        node = cl.fs.lookup("/c")
        dev_off = node.extents[0].dev_block * cl.fs.block_size
        cl.device._flat[dev_off + 100 : dev_off + 200] ^= 0xFF
        with pytest.raises(RankFailedError) as ei:
            cl.run(2, lambda ctx: read_job(ctx, w, "posix", "/pmem/c"))
        assert isinstance(ei.value.original, BaselineError)


class TestHarness:
    def test_run_io_experiment_returns_both_directions(self):
        from repro.harness import run_io_experiment

        w = Domain3D(nvars=1, model_dims=(80, 80, 80), axis_scale=10)
        out = run_io_experiment("PMCPY-A", 4, w)
        assert [r.direction for r in out] == ["write", "read"]
        assert all(r.seconds > 0 for r in out)
        assert "write" in out[0].phases

    def test_sweep_and_series(self):
        from repro.harness import run_sweep
        from repro.harness.experiment import series_from

        w = Domain3D(nvars=1, model_dims=(40, 40, 40), axis_scale=5)
        res = run_sweep(
            libraries={"PMCPY-A": ("pmemcpy", {}), "ADIOS": ("adios", {})},
            proc_counts=(2, 4),
            workload=w,
        )
        series = series_from(res, "write")
        assert set(series) == {"PMCPY-A", "ADIOS"}
        assert set(series["ADIOS"]) == {2, 4}

    def test_profile_prints_counter_table_per_job(self, tmp_path, capsys):
        from repro.harness.__main__ import main
        from repro.harness.experiment import PAPER_LIBRARIES

        assert main(["fig6", "--procs", "2", "--axis-scale", "40",
                     "--profile", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        tables = [t for t in out.split("\n== ") if "I/O telemetry ==" in t]
        assert len(tables) == len(PAPER_LIBRARIES)
        for table in tables:
            assert "driver_write_ops" in table, table
            assert "device_persists" in table, table

    def test_figures_render(self):
        from repro.harness import ascii_chart, render_table, write_csv
        import os, tempfile

        series = {"A": {8: 1.0, 16: 0.5}, "B": {8: 2.0, 16: 1.0}}
        chart = ascii_chart("t", series)
        assert "#procs = 8" in chart and "B" in chart
        table = render_table("t", ["x", "y"], [(1, 2), (3, 4)])
        assert "x" in table and "3" in table
        with tempfile.TemporaryDirectory() as d:
            p = write_csv(os.path.join(d, "sub", "f.csv"), ["a"], [(1,)])
            assert os.path.exists(p)

    def test_token_counting(self):
        from repro.harness import count_source_metrics

        src = '"""doc"""\n# comment\nx = 1\ny = f(x, 2)\n'
        m = count_source_metrics(src)
        assert m["lines"] == 2
        # x = 1 -> 3 tokens; y = f ( x , 2 ) -> 8 tokens
        assert m["tokens"] == 11
