"""Reproducible Brownian ensembles and forward Euler paths on uniform grids.

Every trajectory draws from its own counter-based substream keyed by
(seed, trajectory index), so trajectory m is bit-identical no matter how many
trajectories are requested alongside it.  The generator is Philox4x64-10
(Salmon, Moraes, Dror and Shaw, "Parallel random numbers: as easy as 1, 2, 3",
SC 2011), the bit generator behind numpy's ``Philox``: each block of four
64-bit words is a pure function of (counter, key), so the substreams are
computed together on (rows, blocks) arrays, in contiguous row ranges spread
over the process's cores, with the same values for any split.  Gaussians
come from the inverse normal CDF applied to strictly-interior uniforms,
keeping the stream layout transparent.

Work that is row by row (the draws, every Euler step, and the row-wise
phases of each backward level in the solver) runs on RowWorkers: contiguous
row ranges, one per core of the process's affinity once each range carries
_WORKER_MIN_WORK rows (or counter blocks), each on a thread pinned to its
core.  Every row's value is computed by the same operations whatever the
split, so results do not depend on the core count.

Increments and states keep their trajectory-first shapes, (M, N, d) and
(M, N+1, d), but are stored level-major: each is a transposed view of a
C-ordered (N, M, d) or (N+1, M, d) buffer, so the (M, d) slice at one time
level, which every Euler step and backward level reads, is contiguous.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import os
import queue
import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .exceptions import NumericalError, ValidationError
from .problems import require_shape

# trajectory substream tags; packed into the high bits of the Philox key word
MAIN_STREAM = 0
BRIDGE_STREAM = 1

DEFAULT_MAX_ELEMENTS = 2**27  # ~1 GiB of float64 per array

# Philox4x64-10: round multipliers and the key increments (Weyl constants)
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10
_U64 = 2**64
_LO32 = np.uint64(0xFFFFFFFF)
# counter blocks per tile: eight uint64 scratch arrays of 256 KiB per thread
# stay in cache, and each numpy call carries enough work to amortize the GIL
# hand-off between threads
_CHUNK_BLOCKS = 2**15
# fewest rows, or counter blocks, worth a worker thread of their own: one full
# tile.  Measured on two cores, a thread with fewer blocks does not pay for
# its start-up, and example2's backward pass on two workers was 27 % slower
# than on one at 2^14 rows each and 12 % faster at 2^15 rows each
_WORKER_MIN_WORK = _CHUNK_BLOCKS
# row ranges start on multiples of this many rows: numpy's matrix-vector
# products round a row differently depending on where it falls in the
# kernel's row blocks, and aligned ranges keep every row where it was
_ROW_ALIGN = 64


@dataclass(frozen=True)
class GridSpec:
    """Uniform partition of [0, T] into N steps of size h = T/N."""

    T: float
    N: int

    def __post_init__(self):
        if not (math.isfinite(self.T) and self.T > 0):
            raise ValidationError(f"horizon T must be finite and positive, got {self.T}")
        if not (isinstance(self.N, (int, np.integer)) and self.N >= 1):
            raise ValidationError("step count N must be a positive integer")
        if self.T / self.N == 0.0:
            raise ValidationError(f"step h = T/N = {self.T}/{self.N} underflows to 0")

    @property
    def h(self) -> float:
        return self.T / self.N

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.N + 1)


def _mulhi(a: np.ndarray, m: int, scratch: list) -> np.ndarray:
    """High 64 bits of the 128-bit products a * m, built from 32-bit halves
    (no partial sum overflows); scratch holds four arrays shaped like a, and
    the result lands in scratch[1]."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    a_lo, a_hi, t, u = scratch
    np.bitwise_and(a, _LO32, out=a_lo)
    np.right_shift(a, 32, out=a_hi)
    np.multiply(a_lo, m_lo, out=t)
    np.right_shift(t, 32, out=t)
    np.multiply(a_hi, m_lo, out=u)
    u += t                          # u = a_hi m_lo + hi32(a_lo m_lo)
    a_lo *= m_hi
    np.bitwise_and(u, _LO32, out=t)
    a_lo += t                       # v = a_lo m_hi + lo32(u)
    a_lo >>= 32
    u >>= 32
    a_hi *= m_hi
    a_hi += u
    a_hi += a_lo                    # a_hi m_hi + hi32(u) + hi32(v)
    return a_hi


def _philox_blocks(seed: int, key1: np.ndarray, first_block: int, tile: list) -> list:
    """Philox4x64-10 on (rows, blocks) arrays: row i has key (seed, key1[i]) and
    column j counter (first_block + j, 0, 0, 0).  tile holds eight scratch
    arrays of that shape; returns the four holding output words 0..3."""
    c0, c1, c2, c3 = tile[:4]
    scratch = tile[4:]
    c0[...] = np.arange(first_block, first_block + c0.shape[1], dtype=np.uint64)
    c1.fill(0)
    c2.fill(0)
    c3.fill(0)
    k0, k1 = seed, key1.copy()
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0 = (k0 + _PHILOX_W0) % _U64
            k1 += np.uint64(_PHILOX_W1)
        # (c0, c1, c2, c3) -> (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1, lo(M0 c0))
        c1 ^= _mulhi(c2, _PHILOX_M1, scratch)
        c1 ^= np.uint64(k0)
        c2 *= np.uint64(_PHILOX_M1)
        c3 ^= _mulhi(c0, _PHILOX_M0, scratch)
        c3 ^= k1
        c0 *= np.uint64(_PHILOX_M0)
        c0, c1, c2, c3 = c1, c2, c3, c0
    return [c0, c1, c2, c3]


def _cores() -> list:
    """The cores of this process's CPU affinity; where the platform cannot
    tell, one None per core, which pins no thread."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:
        return [None] * (os.cpu_count() or 1)


class RowWorkers:
    """Contiguous ranges of n_rows rows, one per worker, for work done row by
    row.

    A worker is added only while each keeps at least _WORKER_MIN_WORK units
    of work (work counts them; by default one per row) and align rows, up to
    one per core of the process's affinity.  Range boundaries fall on
    multiples of align rows.

    Used as a context manager: inside it, run(fn) calls fn(r0, r1) on every
    range and returns the results in range order.  With one worker,
    fn(0, n_rows) runs in the calling thread and no thread starts.  With
    more, each range has a thread of its own, pinned to its core and kept
    for the whole with block (left to the scheduler on a two-core machine,
    two workers often shared one core for a whole call while the other
    idled).  fn runs in a copy of the caller's context, so np.errstate set
    around the call applies in the workers.  Every range runs to its end;
    then the exception of the first range that raised, if any, is raised.
    The threads exit before the with block does.
    """

    def __init__(self, n_rows: int, work: int | None = None, align: int = _ROW_ALIGN):
        cores = _cores()
        work = n_rows if work is None else work
        count = max(1, min(len(cores), work // _WORKER_MIN_WORK, n_rows // align))
        cuts = [n_rows * k // count // align * align for k in range(1, count)]
        self.bounds = [0, *cuts, n_rows]
        self._cores = cores[:count]
        self._threads: list = []
        self._done: queue.SimpleQueue = queue.SimpleQueue()

    def __enter__(self) -> "RowWorkers":
        if len(self._cores) > 1:
            for core in self._cores:
                tasks = queue.SimpleQueue()
                thread = threading.Thread(target=self._serve, args=(core, tasks), daemon=True)
                self._threads.append((thread, tasks))
                thread.start()
        return self

    def __exit__(self, *exc) -> None:
        for _, tasks in self._threads:
            tasks.put(None)
        for thread, _ in self._threads:
            thread.join()
        self._threads = []

    def _serve(self, core, tasks: queue.SimpleQueue) -> None:
        if core is not None:
            # the pin only places the thread: a core that left the affinity
            # since _cores() leaves it unpinned rather than lost
            with contextlib.suppress(OSError):
                os.sched_setaffinity(0, {core})
        while (task := tasks.get()) is not None:
            k, context, fn = task
            try:
                self._done.put((k, context.run(fn, self.bounds[k], self.bounds[k + 1]), None))
            except BaseException as err:  # handed to the caller, which raises it
                self._done.put((k, None, err))

    def run(self, fn) -> list:
        if not self._threads:
            return [fn(0, self.bounds[-1])]
        for k, (_, tasks) in enumerate(self._threads):
            tasks.put((k, contextvars.copy_context(), fn))
        results, errors = [None] * len(self._threads), [None] * len(self._threads)
        for _ in self._threads:
            k, results[k], errors[k] = self._done.get()
        for err in errors:
            if err is not None:
                raise err
        return results


def _fill_rows(out: np.ndarray, seed: int, stream: int, r0: int, r1: int,
               buffers: np.ndarray) -> None:
    """Write the normals of rows r0..r1-1 into out, one tile of at most
    buffers.shape[1] counter blocks at a time, using only the (8, tile)
    scratch in buffers."""
    n_blocks = -(-out.shape[1] // 4)
    cols = max(1, min(n_blocks, buffers.shape[1]))
    rows = buffers.shape[1] // cols
    for t0 in range(r0, r1, rows):
        t1 = min(t0 + rows, r1)
        key1 = np.arange(t0, t1, dtype=np.uint64)[:, None] | np.uint64(stream << 56)
        for b0 in range(0, n_blocks, cols):
            b1 = min(b0 + cols, n_blocks)
            tile = [a[:(t1 - t0) * (b1 - b0)].reshape(t1 - t0, b1 - b0) for a in buffers]
            words = _philox_blocks(seed, key1, b0 + 1, tile)
            block = out[t0:t1, 4 * b0:min(4 * b1, out.shape[1])]
            for j, w in enumerate(words):
                w >>= 11
                dst = block[:, j::4]
                dst[...] = w[:, :dst.shape[1]]
            block += 0.5
            block *= 2.0**-53
            ndtri(block, out=block)


def substream_normals(seed: int, n_trajectories: int, per_trajectory: int,
                      stream: int = MAIN_STREAM) -> np.ndarray:
    """(n_trajectories, per_trajectory) standard normals, one substream per row.

    Row m is the stream of numpy's ``Philox(key=[seed, m | stream << 56])``:
    its k-th block of four 64-bit words (k = 1, 2, ...) is Philox4x64-10 of
    counter (k, 0, 0, 0), and the words are taken in order.  Each word w gives
    the 53-bit integer w >> 11 (what ``Generator.integers(0, 1 << 53)`` draws,
    never rejecting), mapped to the strictly interior uniform
    ((w >> 11) + 0.5) 2^-53 (so ndtri never sees 0 or 1) and then through the
    inverse normal CDF.  Rows are generated in tiles of about _CHUNK_BLOCKS
    blocks, on RowWorkers that count counter blocks as work.  Every value is
    a pure function of (seed, row, column), so the output does not depend on
    the split, and the ranges need no alignment.  The seed must lie in
    [0, 2^64) and the row count may not exceed 2^56, where the row index
    would reach the stream tag.
    """
    if not 0 <= seed < _U64:
        raise ValidationError(f"seed must lie in [0, 2**64), got {seed}")
    if n_trajectories > 2**56:
        raise ValidationError(
            f"{n_trajectories} trajectories exceed the 2**56 a substream key can index")
    seed = int(seed)
    out = np.empty((n_trajectories, per_trajectory))
    n_blocks = -(-per_trajectory // 4)
    workers = RowWorkers(n_trajectories, n_trajectories * n_blocks, align=1)
    starts = workers.bounds[:-1]
    cols = max(1, min(n_blocks, _CHUNK_BLOCKS))
    rows = max(1, min(-(-n_trajectories // len(starts)), _CHUNK_BLOCKS // cols))
    # all scratch is allocated here, one set per range: the threads allocate
    # nothing large
    scratch = dict(zip(starts, np.empty((len(starts), 8, rows * cols), dtype=np.uint64)))
    with workers:
        workers.run(lambda r0, r1: _fill_rows(out, seed, stream, r0, r1, scratch[r0]))
    return out


def _level_major(M: int, n: int, d: int) -> np.ndarray:
    """An uninitialized (M, n, d) array whose (M, d) level slices are contiguous."""
    return np.empty((n, M, d)).transpose(1, 0, 2)


def _check_budget(n_elements: int, what: str) -> None:
    if n_elements > DEFAULT_MAX_ELEMENTS:
        raise ValidationError(
            f"{what}: {n_elements} elements exceed the budget of {DEFAULT_MAX_ELEMENTS}")


def brownian_increments(grid: GridSpec, d: int, M: int, seed: int) -> np.ndarray:
    """(M, N, d) increments W_{t_{i+1}} - W_{t_i}, each coordinate N(0, h),
    stored level-major.

    Deterministic in (grid, d, M, seed); the first k trajectories agree with a
    fresh call at M = k.
    """
    if M < 1 or d < 1:
        raise ValidationError("need M >= 1 and d >= 1")
    _check_budget(M * grid.N * d, "Brownian increments")
    z = substream_normals(seed, M, grid.N * d, MAIN_STREAM)
    dW = _level_major(M, grid.N, d)
    np.multiply(z.reshape(M, grid.N, d), np.sqrt(grid.h), out=dW)
    return dW


@dataclass
class PathEnsemble:
    """Simulated increments plus the forward Euler states that consumed them.

    Storage order: sample_ensemble and euler_paths build dW (M, N, d) and
    X (M, N+1, d) as transposed views of C-ordered (N, M, d) and (N+1, M, d)
    buffers, so dW[:, i, :] and X[:, i, :] are C-contiguous.  An ensemble
    holding the same values in any other layout solves to the same values,
    only more slowly.
    """

    grid: GridSpec
    seed: int
    dW: np.ndarray  # (M, N, d)
    X: np.ndarray   # (M, N+1, d)

    @property
    def M(self) -> int:
        return self.dW.shape[0]

    @property
    def d(self) -> int:
        return self.dW.shape[2]


def _apply_sigma(sigma_val: np.ndarray, dw: np.ndarray) -> np.ndarray:
    if sigma_val.ndim == 2:
        return dw @ sigma_val.T
    return np.einsum("mij,mj->mi", sigma_val, dw)


def euler_states(problem, times: np.ndarray, h: float, dW: np.ndarray,
                 start) -> np.ndarray:
    """Forward Euler X_{i+1} = X_i + h b(t_i, X_i) + sigma(t_i, X_i) dW_i from
    the start state(s) at times[0]: (M, n, d) increments -> (M, n+1, d) states,
    stored level-major.  Each of RowWorkers' row ranges runs every step on its
    own rows; a non-finite state is reported at its first step, and at that
    step its first trajectory, as one pass over all rows would find it."""
    M, n, d = dW.shape
    X = _level_major(M, n + 1, d)
    X[:, 0, :] = start

    def steps(r0: int, r1: int):
        """Every step on rows r0..r1-1; (step, trajectory) of the first
        non-finite state, or None."""
        rows = (r1 - r0, M)
        for i in range(n):
            # the step is summed in place in the next level's rows, each term
            # dropped once added, so a worker holds two temporaries at a time
            xi, nxt = X[r0:r1, i, :], X[r0:r1, i + 1, :]
            drift = require_shape(np.asarray(problem.b(times[i], xi), dtype=float), "b",
                                  (M, d), (), rows=rows)
            np.add(xi, h * drift, out=nxt)
            del drift
            diffusion = require_shape(np.asarray(problem.sigma(times[i], xi), dtype=float),
                                      "sigma", (d, d), (M, d, d), rows=rows)
            nxt += _apply_sigma(diffusion, dW[r0:r1, i, :])
            del diffusion
            if not np.all(np.isfinite(nxt)):
                return i + 1, r0 + int(np.argwhere(~np.isfinite(nxt))[0, 0])
        return None

    with RowWorkers(M) as workers:
        failures = [found for found in workers.run(steps) if found is not None]
    if failures:
        step, trajectory = min(failures)
        raise NumericalError(f"non-finite state at trajectory {trajectory}, step {step}")
    return X


def euler_paths(problem, grid: GridSpec, increments: np.ndarray, seed: int) -> PathEnsemble:
    """Forward Euler over the grid from the problem's x0.  seed is the one the
    increments were drawn with: the start-up's bridge draws are keyed on it."""
    dW = np.asarray(increments, dtype=float)
    if dW.ndim != 3:
        raise ValidationError("increments must have shape (M, N, d)")
    _, N, d = dW.shape
    if N != grid.N or d != problem.d:
        raise ValidationError("increments disagree with the grid or problem dimension")
    X = euler_states(problem, grid.times, grid.h, dW, problem.x0)
    return PathEnsemble(grid=grid, seed=seed, dW=dW, X=X)


def sample_ensemble(problem, grid: GridSpec, M: int, seed: int) -> PathEnsemble:
    """brownian_increments followed by euler_paths from the problem's x0."""
    dW = brownian_increments(grid, problem.d, M, seed)
    return euler_paths(problem, grid, dW, seed=seed)


def refine_increments(ensemble: PathEnsemble, first_step: int, substeps: int) -> np.ndarray:
    """Brownian-bridge refinement of coarse steps first_step..N-1 into substeps
    pieces each: (M, (N - first_step) * substeps, d) fine increments, stored
    level-major, whose per-coarse-step sums reproduce the stored increments
    exactly.  The bridge draws and the fine increments are each held in one
    array, so M * (N - first_step) * substeps * d is held to the same
    allocation budget as the coarse increments.
    """
    r = int(substeps)
    if r < 1:
        raise ValidationError("substeps must be >= 1")
    N = ensemble.grid.N
    if not 0 <= first_step < N:
        raise ValidationError("first_step outside the grid")
    coarse = ensemble.dW[:, first_step:, :]  # (M, k, d)
    M, k, d = coarse.shape
    if r == 1:
        fine = _level_major(M, k, d)
        fine[...] = coarse
        return fine
    _check_budget(M * k * r * d, "bridge refinement")
    h_fine = ensemble.grid.h / r
    g = substream_normals(ensemble.seed, M, k * r * d, BRIDGE_STREAM).reshape(M, k, r, d)
    g *= np.sqrt(h_fine)
    # condition the free draws on the known coarse sum
    correction = (g.sum(axis=2) - coarse) / r
    fine = np.empty((k, r, M, d))
    np.subtract(g.transpose(1, 2, 0, 3), correction.transpose(1, 0, 2)[:, None], out=fine)
    return fine.reshape(k * r, M, d).transpose(1, 0, 2)
