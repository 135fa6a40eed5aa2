"""Brownian ensembles: determinism, substream independence, statistics,
Euler paths, bridge refinement and the level-major storage order."""

import dataclasses
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox
from scipy import stats
from scipy.special import ndtri

from fbsde_pc import (
    GridSpec,
    NumericalError,
    ValidationError,
    brownian_increments,
    euler_paths,
    sample_ensemble,
)
from fbsde_pc import simulation
from fbsde_pc.problems import FbsdeProblem, constant_problem, example2
from fbsde_pc.simulation import (
    _CHUNK_BLOCKS,
    _WORKER_MIN_WORK,
    BRIDGE_STREAM,
    MAIN_STREAM,
    refine_increments,
    substream_normals,
)


def brownian_problem(d=2):
    return constant_problem(value=1.0, d=d)


class TestGridSpec:
    def test_step_size(self):
        grid = GridSpec(T=1.0, N=20)
        assert grid.h * grid.N == pytest.approx(grid.T, abs=1e-15)
        assert grid.times[0] == 0.0
        assert grid.times[-1] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(T=0.0, N=5)
        with pytest.raises(ValueError):
            GridSpec(T=1.0, N=0)

    def test_step_underflowing_to_zero_rejected(self):
        # the smallest subnormal T takes a step of its own on one step only
        assert GridSpec(T=5e-324, N=1).h == 5e-324
        with pytest.raises(ValidationError, match=r"T/N = 5e-324/2 underflows to 0"):
            GridSpec(T=5e-324, N=2)


class TestBrownianIncrements:
    def test_bit_identical_given_seed(self):
        grid = GridSpec(T=1.0, N=8)
        a = brownian_increments(grid, 2, 64, seed=42)
        b = brownian_increments(grid, 2, 64, seed=42)
        assert np.array_equal(a, b)

    def test_substream_prefix_invariance(self):
        grid = GridSpec(T=1.0, N=6)
        big = brownian_increments(grid, 3, 10_000, seed=5)
        small = brownian_increments(grid, 3, 17, seed=5)
        assert np.array_equal(big[:17], small)

    def test_seed_changes_draws(self):
        grid = GridSpec(T=1.0, N=6)
        assert not np.array_equal(
            brownian_increments(grid, 1, 8, seed=0),
            brownian_increments(grid, 1, 8, seed=1),
        )

    def test_moments(self):
        grid = GridSpec(T=1.0, N=10)
        d, M = 2, 100_000
        dw = brownian_increments(grid, d, M, seed=3)
        n = dw.size
        # zero-mean Gaussian with variance h per entry
        assert abs(dw.mean()) <= 4.0 * np.sqrt(grid.h / n)
        assert dw.var() == pytest.approx(grid.h, rel=0.01)

    def test_kolmogorov_smirnov(self):
        grid = GridSpec(T=1.0, N=10)
        dw = brownian_increments(grid, 1, 100_000, seed=11)
        z = (dw / np.sqrt(grid.h)).ravel()
        assert z.size == 1_000_000
        stat, pvalue = stats.kstest(z, "norm")
        assert pvalue > 0.001

    def test_allocation_budget(self):
        grid = GridSpec(T=1.0, N=1000)
        with pytest.raises(ValidationError, match="exceed the budget"):
            # 20 000 * 1000 * 10 = 2e8 elements, past the 2**27 budget
            brownian_increments(grid, 10, 20_000, seed=0)


class TestEulerPaths:
    def test_degenerate_dynamics_constant(self):
        problem = dataclasses.replace(constant_problem(d=2), x0=np.array([2.0, -1.0]),
                                      sigma=lambda t, x: np.zeros((2, 2)))
        grid = GridSpec(T=1.0, N=5)
        dw = brownian_increments(grid, 2, 16, seed=0)
        ens = euler_paths(problem, grid, dw, seed=0)
        assert np.all(ens.X == np.array([2.0, -1.0]))

    def test_pure_drift_tracks_time(self):
        problem = FbsdeProblem(
            name="drift", d=2, T=1.0, x0=np.zeros(2),
            b=lambda t, x: np.ones_like(x),
            sigma=lambda t, x: np.zeros((2, 2)),
            f=lambda t, x, y, z: np.zeros(x.shape[0]),
            phi=lambda x: np.zeros(x.shape[0]),
            grad_phi=lambda x: np.zeros_like(x),
        )
        grid = GridSpec(T=1.0, N=4)
        dw = brownian_increments(grid, 2, 8, seed=0)
        ens = euler_paths(problem, grid, dw, seed=0)
        for i, t in enumerate(grid.times):
            assert ens.X[:, i, :] == pytest.approx(np.full((8, 2), t))

    def test_identity_diffusion_is_cumsum(self):
        problem = brownian_problem(d=2)
        grid = GridSpec(T=1.0, N=6)
        dw = brownian_increments(grid, 2, 32, seed=1)
        ens = euler_paths(problem, grid, dw, seed=1)
        assert ens.X[:, 1:, :] == pytest.approx(np.cumsum(dw, axis=1))

    def test_state_dependent_sigma_shape(self):
        problem = example2()
        grid = GridSpec(T=1.0, N=10)
        ens = sample_ensemble(problem, grid, 50, seed=2)
        assert ens.X.shape == (50, 11, 1)
        assert np.all(np.isfinite(ens.X))

    def test_non_finite_state_reported(self):
        problem = FbsdeProblem(
            name="blowup", d=1, T=1.0, x0=np.zeros(1),
            b=lambda t, x: np.full_like(x, np.inf if t > 0.4 else 0.0),
            sigma=lambda t, x: np.zeros((1, 1)),
            f=lambda t, x, y, z: np.zeros(x.shape[0]),
            phi=lambda x: np.zeros(x.shape[0]),
            grad_phi=lambda x: np.zeros_like(x),
        )
        grid = GridSpec(T=1.0, N=4)
        dw = brownian_increments(grid, 1, 4, seed=0)
        with pytest.raises(NumericalError, match="non-finite state at trajectory .*, step"):
            euler_paths(problem, grid, dw, seed=0)

    @pytest.mark.parametrize("shape, match", [
        ((4, 4), "increments must have shape"),
        ((4, 5, 2), "increments disagree with the grid"),
        ((4, 4, 1), "increments disagree with the grid"),
    ], ids=["2-d", "wrong-N", "wrong-d"])
    def test_increment_shape_checked(self, shape, match):
        with pytest.raises(ValidationError, match=match):
            euler_paths(brownian_problem(d=2), GridSpec(T=1.0, N=4), np.zeros(shape), seed=0)


class TestBridgeRefinement:
    def test_fine_sums_reproduce_coarse_increments(self):
        problem = brownian_problem()
        grid = GridSpec(T=1.0, N=8)
        ens = sample_ensemble(problem, grid, 40, seed=9)
        fine = refine_increments(ens, first_step=5, substeps=7)
        assert fine.shape == (40, 21, 2)
        sums = fine.reshape(40, 3, 7, 2).sum(axis=2)
        assert sums == pytest.approx(ens.dW[:, 5:, :], abs=1e-12)

    def test_single_substep_returns_coarse(self):
        problem = brownian_problem()
        grid = GridSpec(T=1.0, N=4)
        ens = sample_ensemble(problem, grid, 10, seed=9)
        fine = refine_increments(ens, first_step=2, substeps=1)
        assert np.array_equal(fine, ens.dW[:, 2:, :])

    def test_fine_increment_variance(self):
        problem = brownian_problem(d=1)
        grid = GridSpec(T=1.0, N=2)
        ens = sample_ensemble(problem, grid, 30_000, seed=1)
        r = 4
        fine = refine_increments(ens, first_step=0, substeps=r)
        h_f = grid.h / r
        # bridge increments have variance h_f (unconditionally)
        assert fine.var() == pytest.approx(h_f, rel=0.02)

    @pytest.mark.parametrize("first_step, substeps, match", [
        (1, 0, "substeps must be >= 1"),
        (-1, 2, "first_step outside the grid"),
        (4, 2, "first_step outside the grid"),
    ], ids=["no-substep", "negative-step", "past-the-grid"])
    def test_arguments_checked(self, first_step, substeps, match):
        ens = sample_ensemble(brownian_problem(), GridSpec(T=1.0, N=4), 10, seed=9)
        with pytest.raises(ValidationError, match=match):
            refine_increments(ens, first_step=first_step, substeps=substeps)

    def test_deterministic(self):
        problem = brownian_problem()
        grid = GridSpec(T=1.0, N=4)
        ens = sample_ensemble(problem, grid, 12, seed=3)
        assert np.array_equal(refine_increments(ens, 1, 5), refine_increments(ens, 1, 5))

    def test_allocation_budget(self, monkeypatch):
        # the coarse 40 * 8 * 2 = 640 increments fit; the bridge over the last
        # 3 steps in 7 pieces holds 40 * 3 * 7 * 2 = 1680 elements
        ens = sample_ensemble(brownian_problem(), GridSpec(T=1.0, N=8), 40, seed=9)
        monkeypatch.setattr(simulation, "DEFAULT_MAX_ELEMENTS", 1680)
        assert refine_increments(ens, first_step=5, substeps=7).shape == (40, 21, 2)
        monkeypatch.setattr(simulation, "DEFAULT_MAX_ELEMENTS", 1679)
        calls = []
        monkeypatch.setattr(simulation, "substream_normals", lambda *args: calls.append(args))
        with pytest.raises(ValidationError,
                           match="bridge refinement: 1680 elements exceed the budget of 1679"):
            refine_increments(ens, first_step=5, substeps=7)
        assert calls == []


def _levels_contiguous(arr):
    return all(arr[:, i, :].flags.c_contiguous for i in range(arr.shape[1]))


class TestLevelMajorStorage:
    """Ensembles keep their (M, levels, d) shapes but store each level
    contiguously; the values are those of the trajectory-major arrays."""

    @pytest.mark.parametrize("d", [1, 3])
    def test_ensemble_levels_contiguous_and_equal_to_reference(self, d):
        grid = GridSpec(T=0.8, N=6)
        ens = sample_ensemble(brownian_problem(d), grid, 37, seed=11)
        assert ens.dW.shape == (37, 6, d) and ens.X.shape == (37, 7, d)
        assert _levels_contiguous(ens.dW) and _levels_contiguous(ens.X)
        z = substream_normals(11, 37, 6 * d, MAIN_STREAM)
        assert np.array_equal(ens.dW, z.reshape(37, 6, d) * np.sqrt(grid.h))
        assert np.array_equal(ens.X[:, 1:, :], np.cumsum(ens.dW, axis=1) + ens.X[:, :1, :])

    def test_euler_paths_value_independent_of_increment_layout(self):
        problem = example2()
        grid = GridSpec(T=1.0, N=5)
        dw = brownian_increments(grid, 1, 29, seed=6)
        native = euler_paths(problem, grid, dw, seed=6)
        trajectory_major = euler_paths(problem, grid, np.ascontiguousarray(dw), seed=6)
        assert _levels_contiguous(trajectory_major.X)
        assert np.array_equal(native.X, trajectory_major.X)

    @pytest.mark.parametrize("r", [1, 5])
    def test_fine_levels_contiguous_and_equal_to_reference(self, r):
        grid = GridSpec(T=1.0, N=6)
        ens = sample_ensemble(brownian_problem(2), grid, 23, seed=12)
        fine = refine_increments(ens, first_step=3, substeps=r)
        assert fine.shape == (23, 3 * r, 2)
        assert _levels_contiguous(fine)
        coarse = ens.dW[:, 3:, :]
        if r == 1:
            want = coarse
        else:
            z = substream_normals(12, 23, 3 * r * 2, BRIDGE_STREAM)
            g = z.reshape(23, 3, r, 2) * np.sqrt(grid.h / r)
            correction = (g.sum(axis=2) - coarse) / r
            want = (g - correction[:, :, None, :]).reshape(23, 3 * r, 2)
        assert np.array_equal(fine, want)
        trajectory_major = dataclasses.replace(ens, dW=np.ascontiguousarray(ens.dW))
        assert np.array_equal(refine_increments(trajectory_major, 3, r), fine)


def _substream(seed, trajectory, stream):
    key = [np.uint64(seed), np.uint64(trajectory) | (np.uint64(stream) << np.uint64(56))]
    return Generator(Philox(key=key))


def _normals(gen, n):
    # strictly interior uniforms -> ndtri never sees 0 or 1
    u = (gen.integers(0, 1 << 53, size=n) + 0.5) * 2.0**-53
    return ndtri(u)


def _reference(seed, n, per, stream):
    return np.stack([_normals(_substream(seed, m, stream), per) for m in range(n)])


# rows of 11 draws (3 counter blocks) that fill one chunk
_ROWS_PER_CHUNK = _CHUNK_BLOCKS // 3
_ROWS_PER_HALF_CHUNK = _CHUNK_BLOCKS // 2 // 3
STREAMS = [MAIN_STREAM, BRIDGE_STREAM]


class TestSubstreams:
    @pytest.mark.parametrize("stream", [MAIN_STREAM, BRIDGE_STREAM], ids=["main", "bridge"])
    def test_rows_match_per_trajectory_reference(self, stream):
        got = substream_normals(6, 103, 11, stream)
        reference = np.stack([_normals(_substream(6, m, stream), 11) for m in range(103)])
        assert np.array_equal(got, reference)

    @pytest.mark.parametrize("stream", STREAMS, ids=["main", "bridge"])
    @pytest.mark.parametrize("seed, n, per", [
        (6, 2 * _ROWS_PER_CHUNK + 7, 11),
        (6, 37, 1), (6, 37, 3), (6, 37, 5), (6, 37, 384),
        (2**64 - 1, 37, 5),
        (6, 2, 4 * _CHUNK_BLOCKS + 5),
    ], ids=["chunks-and-remainder", "per-1", "per-3", "per-5", "per-384",
            "seed-2^64-1", "row-longer-than-chunk"])
    def test_shapes_match_reference(self, stream, seed, n, per):
        assert np.array_equal(substream_normals(seed, n, per, stream),
                              _reference(seed, n, per, stream))

    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 30),
           per=st.integers(1, 30), stream=st.sampled_from(STREAMS))
    @settings(max_examples=60, deadline=None)
    def test_random_shapes_match_reference(self, seed, n, per, stream):
        assert np.array_equal(substream_normals(seed, n, per, stream),
                              _reference(seed, n, per, stream))

    # boundaries of half a chunk (a chunk of 2^14 blocks, the earlier tile
    # size) and of a whole chunk
    @pytest.mark.parametrize("k", [1, _ROWS_PER_HALF_CHUNK - 1, _ROWS_PER_HALF_CHUNK,
                                   _ROWS_PER_HALF_CHUNK + 1, 2 * _ROWS_PER_HALF_CHUNK + 6,
                                   _ROWS_PER_CHUNK - 1, _ROWS_PER_CHUNK,
                                   _ROWS_PER_CHUNK + 1, 2 * _ROWS_PER_CHUNK + 6])
    def test_prefix_equals_fewer_rows(self, k):
        full = substream_normals(11, 2 * _ROWS_PER_CHUNK + 7, 11)
        assert np.array_equal(substream_normals(11, k, 11), full[:k])

    @pytest.mark.parametrize("seed, n", [(-1, 4), (2**64, 4), (0, 2**56 + 1)],
                             ids=["seed-negative", "seed-2^64", "rows-past-stream-tag"])
    def test_out_of_range_key_rejected(self, seed, n):
        # raises before the (n, per) output would be allocated
        with pytest.raises(ValidationError, match=r"2\*\*(64|56)"):
            substream_normals(seed, n, 3)


def _affinity():
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


_REAL_CORES = simulation._cores()


def _record_ranges(monkeypatch, cores, fail_from=None):
    """Pretend the affinity holds `cores` cores (the real ones, repeated) and
    log each (r0, r1, thread, thread affinity) that fills rows; the range
    starting at fail_from raises instead."""
    monkeypatch.setattr(simulation, "_cores", lambda: (_REAL_CORES * cores)[:cores])
    calls = []
    fill = simulation._fill_rows

    def recording(out, seed, stream, r0, r1, buffers):
        calls.append((r0, r1, threading.get_ident(), _affinity()))
        if r0 == fail_from:
            raise MemoryError("planted")
        fill(out, seed, stream, r0, r1, buffers)

    monkeypatch.setattr(simulation, "_fill_rows", recording)
    return calls


# rows of 11 draws (3 counter blocks) enough for three workers; the count is
# odd and not a multiple of 3, so neither split is even
_PARALLEL_ROWS = _WORKER_MIN_WORK + 9


class TestParallelSubstreams:
    @pytest.mark.parametrize("cores", [2, 3])
    @pytest.mark.parametrize("stream", STREAMS, ids=["main", "bridge"])
    @pytest.mark.parametrize("n, per", [(_PARALLEL_ROWS, 11), (5, 4 * _CHUNK_BLOCKS + 5)],
                             ids=["many-rows", "row-longer-than-chunk"])
    def test_row_ranges_match_one_worker(self, monkeypatch, cores, stream, n, per):
        assert n % cores and n * -(-per // 4) >= cores * _WORKER_MIN_WORK
        monkeypatch.setattr(simulation, "_cores", lambda: _REAL_CORES[:1])
        serial = substream_normals(9, n, per, stream)
        threads, affinity = threading.active_count(), _affinity()
        calls = _record_ranges(monkeypatch, cores)
        got = substream_normals(9, n, per, stream)
        assert threading.active_count() == threads
        assert _affinity() == affinity
        bounds = [n * k // cores for k in range(cores + 1)]
        assert sorted(c[:2] for c in calls) == list(zip(bounds[:-1], bounds[1:]))
        workers = {c[2] for c in calls}
        assert threading.get_ident() not in workers and len(workers) <= cores
        if affinity is not None:
            # each range's thread runs on the core the split gave it
            pinned = (_REAL_CORES * cores)[:cores]
            assert {c[0]: c[3] for c in calls} == {
                b: {core} for b, core in zip(bounds, pinned)}
        assert np.array_equal(got, serial)
        edges = sorted({0, n - 1} | {b + e for b in bounds[1:-1] for e in (-1, 0)})
        want = np.stack([_normals(_substream(9, m, stream), per) for m in edges])
        assert np.array_equal(got[edges], want)

    @pytest.mark.parametrize("cores, n", [(1, _PARALLEL_ROWS), (3, 2 * _WORKER_MIN_WORK // 3)],
                             ids=["one-core", "below-two-workers"])
    def test_one_worker_starts_no_thread(self, monkeypatch, cores, n):
        calls = _record_ranges(monkeypatch, cores)
        threads = threading.active_count()
        substream_normals(9, n, 11)
        assert threading.active_count() == threads
        assert calls == [(0, n, threading.get_ident(), _affinity())]

    def test_worker_error_reraised_after_join(self, monkeypatch):
        n = _PARALLEL_ROWS
        calls = _record_ranges(monkeypatch, 2, fail_from=n // 2)
        threads = threading.active_count()
        with pytest.raises(MemoryError, match="planted"):
            substream_normals(9, n, 11)
        assert threading.active_count() == threads
        assert sorted(c[:2] for c in calls) == [(0, n // 2), (n // 2, n)]


def _force_workers(monkeypatch, count):
    """Pretend the affinity holds count cores and that 64 rows pay for a
    worker, so that a few hundred paths split into count row ranges."""
    monkeypatch.setattr(simulation, "_cores", lambda: (_REAL_CORES * count)[:count])
    monkeypatch.setattr(simulation, "_WORKER_MIN_WORK", 64)


class TestParallelEuler:
    """euler_states runs every step of a row range on that range's worker."""

    M = 600  # three workers split the rows at 192 and 384, two at 256

    @pytest.mark.parametrize("cores", [2, 3])
    def test_ranges_bit_identical_to_one_worker(self, monkeypatch, cores):
        problem, grid = example2(), GridSpec(T=1.0, N=12)
        dw = brownian_increments(grid, 1, self.M, seed=4)
        _force_workers(monkeypatch, 1)
        serial = euler_paths(problem, grid, dw, seed=4).X
        _force_workers(monkeypatch, cores)
        threads, affinity = threading.active_count(), _affinity()
        assert simulation.RowWorkers(self.M).bounds == (
            [0, 256, 600] if cores == 2 else [0, 192, 384, 600])
        got = euler_paths(problem, grid, dw, seed=4).X
        assert threading.active_count() == threads and _affinity() == affinity
        assert np.array_equal(got, serial)

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_first_step_then_first_trajectory_reported(self, monkeypatch, cores):
        # infinite increments planted in every range; the earliest failing
        # step is 2, where trajectories 250, 300 and 400 fail (250 lies in the
        # second of three ranges), while trajectory 100 fails at step 4
        problem, grid = constant_problem(d=1), GridSpec(T=1.0, N=5)
        dw = brownian_increments(grid, 1, self.M, seed=4)
        for row, level in ((100, 3), (400, 1), (300, 1), (250, 1), (500, 2)):
            dw[row, level, 0] = np.inf
        _force_workers(monkeypatch, cores)
        threads, affinity = threading.active_count(), _affinity()
        with pytest.raises(NumericalError) as err:
            euler_paths(problem, grid, dw, seed=4)
        assert threading.active_count() == threads and _affinity() == affinity
        assert str(err.value) == "non-finite state at trajectory 250, step 2"


def test_many_workers_under_fast_thread_switching(monkeypatch):
    # eight pinned workers on the real cores, switching threads every
    # microsecond: 200 phases each add one to every row of their range, and
    # return their range.  A row touched by two workers, or a phase whose
    # result came back to the wrong range, breaks the count or the order
    monkeypatch.setattr(simulation, "_cores", lambda: (_REAL_CORES * 8)[:8])
    monkeypatch.setattr(simulation, "_WORKER_MIN_WORK", 64)
    n = 8 * 64 + 37
    hits = np.zeros(n, dtype=np.int64)
    ranges = []

    def phase(r0, r1):
        hits[r0:r1] += 1
        return r0, r1

    def body():
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with simulation.RowWorkers(n) as workers:
                ranges.extend(workers.run(phase) for _ in range(200))
        finally:
            sys.setswitchinterval(switch)

    threads = threading.active_count()
    caller = threading.Thread(target=body)
    caller.start()
    caller.join(timeout=120)
    assert not caller.is_alive()
    assert threading.active_count() == threads
    bounds = simulation.RowWorkers(n).bounds
    assert len(bounds) == 9 and all(b % 64 == 0 for b in bounds[:-1])
    assert ranges == [list(zip(bounds[:-1], bounds[1:]))] * 200
    assert np.all(hits == 200)
