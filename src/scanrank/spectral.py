"""Spatial-compatibility matrices and the spectral fitness score.

The fitness of a candidate is the optimal inter-cluster score of the
correspondence compatibility graph: s* = v*^T M v* with v* the principal
eigenvector of M, approximated by power iteration, batched over all
candidates of one query. Both modes iterate M + sigma*I with sigma = 1/4,
so (M + sigma*I)v >= sigma*v for the non-negative iterates. By default (tol
mode) a plain float64 iteration normalises and checks every step against
`tol`, and a candidate's score s* is bitwise independent of the batch it
shares: every stage computes each candidate's slice at the shape of a call
on it alone, its NN GEMM included. The re-ranker needs only the order of
the scores, so it scores in order mode (`score_candidates(...,
order=True)`): a float32 sweep, normalised once per block, stops each
candidate once bounds on lambda_1 from a step it already takes prove its
rank in the batch. Its scores are then certified lower bounds on lambda_1,
not s* converged to `tol`, and they depend on which candidates share the
batch; candidates left unproven after `max_iters` (near and exact ties)
get the default s*.
`score_candidates` is the one re-ranking path. Per query it makes one
matmul call of one NN GEMM per candidate and one distance stack, the
query's distances in slice 0 and every candidate's after it, from which
`_compat_values` builds the compatibility stack; with mutual matching, a
candidate's dropped pairs get zero rows and columns in that stack and zero
start entries. `build_compatibility_matrix`, `CompatibilityMatrix` and
`power_iterate` are the one-matrix API, and the oracle of the tests; the
one matrix is built by the same `_compat_values`.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, EmptyMatrixError, NonPositiveThresholdError
from .geometry import ScanRecord
from .matching import CorrespondenceSet, mutual_pairs, nn_squared_distances, sample_query_points


@dataclass(frozen=True)
class SpectralParams:
    """Knobs for correspondence scoring. All defaults are deliberate:
    d_thr bounds the pairwise length difference treated as compatible,
    n_max keeps the matrix at most n_max^2 entries."""

    d_thr: float = 0.5
    n_max: int = 1000
    tol: float = 1e-6
    max_iters: int = 100
    mutual: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.d_thr < math.inf:
            raise NonPositiveThresholdError(f"d_thr must be finite and > 0, got {self.d_thr}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class CompatibilityMatrix:
    """Symmetric non-negative matrix of pairwise compatibility scores.

    Entries lie in [0, 1] with an exactly zero diagonal. Symmetry is exact
    by construction, not by mirroring: every step of the build is symmetric
    in i and j, down to the Gram matrix, which BLAS syrk computes once and
    numpy mirrors (see `_pairwise_distances`).
    """

    values: np.ndarray  # (n, n) float64
    d_thr: float

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"values must be square, got {v.shape}")
        if not np.array_equal(v, v.T):
            raise ValueError("compatibility matrix must be exactly symmetric")
        if v.size and (v.min() < 0.0 or v.max() > 1.0):
            raise ValueError("entries must lie in [0, 1]")
        if v.size and np.any(np.diagonal(v) != 0.0):
            raise ValueError("diagonal must be exactly zero")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def _outer_sum(sq: np.ndarray) -> np.ndarray:
    """sq_i + sq_j over the last axis, (..., n) -> (..., n, n), as a GEMM
    with inner dimension 2: [sq_i, 1] . [1, sq_j].

    Bitwise equal to the broadcast sum in any kernel order: both products
    are exact, so each entry is the single rounding of sq_i + sq_j. On a
    20 x 96 x 96 stack it took 83-108 us against 235-246 us for the
    broadcast add (1 BLAS thread).
    """
    a = np.empty(sq.shape + (2,))
    a[..., 0] = sq
    a[..., 1] = 1.0
    b = np.empty(sq.shape[:-1] + (2,) + sq.shape[-1:])
    b[..., 0, :] = 1.0
    b[..., 1, :] = sq
    return np.matmul(a, b)


def _pairwise_distances(points: np.ndarray, d_thr: float) -> np.ndarray:
    """Euclidean distances in units of d_thr over the last two axes,
    (..., n, 3) -> (..., n, n), exactly symmetric with an exactly zero diagonal.

    The scaling multiply writes the points into a fresh C-contiguous array p,
    so G = p p^T is one BLAS syrk per slice, which numpy mirrors: G is exactly
    symmetric (a strided or Fortran-ordered operand may take a gemm path that
    is not). d^2 = (sq_i + sq_j) - 2G with sq = diag G is then exactly
    symmetric too, and exactly zero on the diagonal; `_outer_sum` forms
    sq_i + sq_j with the bits of the broadcast sum. Each slice's distances
    are those of its points alone, whatever else shares the stack.
    """
    p = np.multiply(points, 1.0 / d_thr, dtype=np.float64, order="C")
    g = np.matmul(p, np.swapaxes(p, -1, -2))
    d2 = _outer_sum(np.diagonal(g, axis1=-2, axis2=-1))
    g *= 2.0
    d2 -= g
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2, out=d2)


def _compat_values(points: np.ndarray, d_thr: float) -> np.ndarray:
    """Compatibility stack (b, n, n) of b candidates' points against the
    query's, from one point stack (b + 1, n, 3) whose slice 0 holds the
    query's points and slice 1 + k candidate k's, aligned with them.

    One `_pairwise_distances` call gives the query's distances dx and every
    candidate's dy, in units of d_thr; then m_ij = max(0, 1 - (dy_ij - dx_ij)^2),
    written in place over the candidates' slices. dx and dy are exactly
    symmetric, so m is too; its diagonal is written to zero.
    """
    d = _pairwise_distances(points, d_thr)  # (b + 1, n, n)
    m = d[1:]
    m -= d[0]
    m *= m
    np.subtract(1.0, m, out=m)
    np.maximum(m, 0.0, out=m)
    n = m.shape[-1]
    m[..., np.arange(n), np.arange(n)] = 0.0
    return m


def build_compatibility_matrix(corrs: CorrespondenceSet, d_thr: float) -> CompatibilityMatrix:
    """Pairwise spatial-compatibility matrix of a correspondence set."""
    if not 0 < d_thr < math.inf:
        raise NonPositiveThresholdError(f"d_thr must be finite and > 0, got {d_thr}")
    points = np.stack((corrs.query_points, corrs.candidate_points))
    return CompatibilityMatrix(_compat_values(points, d_thr)[0], d_thr)


@dataclass(frozen=True)
class SpectralResult:
    """Principal-eigenpair approximation plus the fitness score."""

    v_star: np.ndarray  # (n,), unit L2 norm
    s_star: float       # v*^T M v*, the Rayleigh quotient at v_star
    iterations: int
    converged: bool


_SHIFT = 0.25  # sigma: power iteration runs on M + sigma*I
_CHECK_EVERY = 8  # float32 steps per block between normalisations and checks
_U32 = 2.0 ** -24  # unit roundoff of float32
_U_FLOOR = 2.0 ** -100  # iterate entries below it count as 0 in an upper bound


def _iterate(a, v, max_iters, block, stop):
    """Power-iterate every slice of a from v, in blocks of `block` steps
    w = a u, until `stop` retires it or it has taken `max_iters` steps;
    returns (v, steps taken, stopped), one entry per slice.

    `stop(active, u, w)` sees the last step w = a u of each block before
    normalisation, for the live slices `active` (indices into the batch),
    and returns which of them retire, stopped, with that iterate. Only that
    iterate is normalised, and every step run is counted. The live slices
    sit at the front of a, which is overwritten: retirements move only the
    live slices past the new end into the freed slots.
    """
    out = v.copy()
    taken = np.zeros(a.shape[0], dtype=np.int64)
    stopped = np.zeros(a.shape[0], dtype=bool)
    active, va, k = np.arange(a.shape[0]), v, 0
    while active.size:
        s = min(block, max_iters - k)
        trail = np.empty((s + 1,) + va.shape, dtype=va.dtype)
        trail[0] = va
        for t in range(s):
            np.matmul(a, trail[t], out=trail[t + 1])
        hit = stop(active, trail[s - 1], trail[s])
        trail[s] /= np.sqrt(np.einsum("bij,bij->b", trail[s], trail[s]))[:, None, None]
        k += s
        retire = hit | (k >= max_iters)
        done = np.flatnonzero(retire)
        if done.size == 0:
            va = trail[s]
            continue
        retired = active[done]
        out[retired] = trail[s, done]
        taken[retired] = k
        stopped[retired] = hit[done]
        live = np.flatnonzero(~retire)
        holes = done[done < live.size]
        movers = live[live >= live.size]
        a[holes] = a[movers]
        a = a[:live.size]
        live = np.arange(live.size)
        live[holes] = movers
        active, va = active[live], trail[s][live]
    return out, taken, stopped


def _power_iteration_batch(
    m_stack: np.ndarray, keep: np.ndarray, tol: float, max_iters: int, order: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Power iteration over a stack of symmetric matrices (b, n, n), each
    slice on the pairs (at least one) that its row of `keep` (b, n) marks;
    returns (v, key, iterations, converged), one entry per slice.

    Iterates the shifted matrix M + sigma*I, sigma = 1/4: same eigenvectors
    as M, but the shift breaks the +/- eigenvalue symmetry of bipartite-ish
    compatibility graphs (e.g. isolated correspondence chains), where plain
    iteration oscillates forever. M is non-negative and so are the iterates,
    so (M + sigma*I)v >= sigma*v and no normalisation divides by zero. The
    step ratio is |lambda_2 + sigma| / (lambda_1 + sigma). On the default
    world sigma = 1/4 took 860 matvecs per query against 1008 at sigma = 1.
    The trade-off is bipartite M, where lambda_2 = -lambda_1 and the ratio
    (lambda - sigma) / (lambda + sigma) nears 1 as sigma shrinks: complete
    bipartite K(30,60) and K(100,200) take about 4x the steps they take at
    sigma = 1 (1083 and 3606 against 271 and 902 at tol = 1e-6).

    A slice starts from 1/sqrt(n_kept) on its kept pairs and 0 on the rest,
    whose rows and columns of M must be zero, so their entries stay exactly
    0: the uniform start when every pair is kept. By default every slice
    iterates to `tol` and its key is s* = v^T M v (`_tol_mode`). With
    `order`, a slice stops once its rank among the slices is proven, and the
    keys only order the slices (`_order_mode`). `iterations` counts every
    step run on M + sigma*I.
    """
    return (_order_mode if order else _tol_mode)(m_stack, keep, tol, max_iters)


def _shifted(m_stack, keep, dtype):
    """A copy of M + sigma*I in `dtype`, and the start vectors (b, n, 1)."""
    n = m_stack.shape[1]
    a = m_stack.astype(dtype)
    a[:, np.arange(n), np.arange(n)] = _SHIFT  # the shift, in M's zero diagonal
    start = (keep / np.sqrt(keep.sum(axis=1, keepdims=True))).astype(dtype)[..., None]
    return a, start


def _tol_mode(m_stack, keep, tol, max_iters):
    """Every slice to `tol`; key s* = v^T M v.

    A plain float64 power iteration on M + sigma*I: every step is normalised
    and checked, and a slice stops at the first step that moves its unit
    iterate by less than `tol`, that step counted. `converged` means a slice
    stopped on `tol` within `max_iters` steps. Each operation works on every
    slice alone, so a slice's results are bitwise independent of the batch
    it shares.
    """
    a, start = _shifted(m_stack, keep, np.float64)

    def moved_less_than_tol(active, u, w):
        d = w / np.sqrt(np.einsum("bij,bij->b", w, w))[:, None, None]
        d -= u
        return np.sqrt(np.einsum("bij,bij->b", d, d)) < tol

    v, iterations, converged = _iterate(a, start, max_iters, 1, moved_less_than_tol)
    lam = np.einsum("bij,bij->b", v, np.matmul(m_stack, v))
    return v[..., 0], lam, iterations, converged


def _bracket(u, w, nonzero):
    """Bounds lo <= lambda_1(M) <= hi, one pair per slice, from one float32
    sweep step w = (M + sigma*I)u; u and w are (a, n, 1) and `nonzero`
    (a, n) marks the non-zero rows of M. Needs u >= 0 and every non-zero
    entry of M at least float32's smallest normal number (compatibility
    entries are 0 or at least 2^-53).

    Exact arithmetic, with A = M + sigma*I symmetric and non-negative: the
    Rayleigh quotient u^T A u / u^T u is at most lambda_1(A), and
    lambda_1(A) <= max_i (Au)_i / u_i when every u_i > 0 (Collatz-Wielandt:
    the bound is the row-sum norm of D^-1 A D, D = diag(u); Meyer, Matrix
    Analysis, ch. 8). A zero row of the symmetric M is a zero column too,
    so it splits off a 1x1 block of M with eigenvalue 0 <= lambda_1(M), the
    Perron root of a non-negative M: such rows are skipped, whatever u_i
    is. A non-zero row with u_i = 0 makes hi = +inf, as does one with
    u_i < 2^-100, where float32 products may underflow. Skipping every 0/0
    instead would be unsound: for M = diag(1, 5) and u = (1, 0), Mu <= u,
    yet lambda_1 = 5.

    Rounding: the float32 copy holds sigma in its diagonal, so each w_i is
    a float32 sum of n non-negative products, within gamma_n = ne / (1 - ne),
    e = 2^-24, of its exact value, relative (Higham, Accuracy and Stability,
    ch. 3); the float64 reductions here add far less. Both bounds are
    widened by 2 gamma_{n+2}. The float32 copy of M is within e of M
    entrywise, relative, and the Perron root is monotone in the entries, so
    lambda_1(M) lies between lambda_1(fl32(M)) / (1 + e) and / (1 - e).
    """
    n = u.shape[1]
    g = 2 * (n + 2) * _U32 / (1 - (n + 2) * _U32)
    u, w = u[..., 0].astype(np.float64), w[..., 0].astype(np.float64)
    rayleigh = np.einsum("ai,ai->a", u, w) / np.einsum("ai,ai->a", u, u)
    ratio = np.divide(w, u, out=np.full_like(w, np.inf), where=u >= _U_FLOOR)
    ratio[~nonzero] = _SHIFT
    lo = np.maximum(rayleigh * (1 - g) - _SHIFT, 0.0) / (1 + _U32)
    hi = (ratio.max(axis=1) * (1 + g) - _SHIFT) / (1 - _U32)
    return lo, hi


def _order_mode(m_stack, keep, tol, max_iters):
    """Each slice only until its rank among the slices is proven; the keys
    order the slices as lambda_1 does.

    A float32 sweep on M + sigma*I, at half the memory traffic of float64,
    runs blocks of up to 8 steps and normalises only the last step of each.
    At that step, `_bracket` bounds every live slice's lambda_1 by
    [lo, hi], intersected with that slice's earlier brackets. A slice
    retires, certified, once its bracket is disjoint from the current
    bracket of every other slice. A retired slice's bracket stays frozen and
    a live one's only shrinks, so the final bracket of a certified slice is
    disjoint from every other final bracket. Slices still uncertified after
    `max_iters` steps (near-ties, and exact ties such as two copies of one
    scan) are scored by `_tol_mode` from the uniform start, on just that
    subset; a slice's tol-mode result does not depend on its batch, so their
    keys are tol mode's s*, bit for bit.

    Keys: a certified slice's key is its final lo. Two certified slices have
    disjoint brackets, so their keys order them as lambda_1 does. An
    uncertified slice's bracket lies wholly above or below each certified
    one, which proves their order; its s* must lie on the same side of that
    slice's key, or every slice is scored by `_tol_mode` instead. So the
    keys order each pair with a certified slice as lambda_1 does, and the
    other pairs as tol mode's s*. The keys are bounds, not s* converged to
    `tol`, and they depend on which slices share the batch. `iterations`
    counts every matvec, the fallbacks' included; `converged` is True for a
    certified slice.
    """
    b, n = m_stack.shape[0], m_stack.shape[1]
    m32, start = _shifted(m_stack, keep, np.float32)
    # Entries of M + sigma*I lie in [0, 1], so a step grows a unit vector's
    # norm by at most n and a block of s steps by n^s. Its squared norm must
    # stay below the float32 maximum, n^(2s) < 3.4e38: s = 8 up to n = 254,
    # 5 at n = 2000. A step keeps at least sigma = 1/4 of the norm, so a
    # block of 8 keeps at least 4^-8 of it, far from underflow.
    log_max = np.log(np.finfo(np.float32).max)
    block = min(_CHECK_EVERY, int(log_max / (2 * np.log(max(n, 2)))))
    nonzero = np.matmul(m_stack, np.ones(n)) > 0  # a non-negative row sums to 0 only if zero
    lo, hi = np.full(b, -np.inf), np.full(b, np.inf)

    def certify(active, u, w):
        lo_a, hi_a = _bracket(u, w, nonzero[active])
        lo[active] = lo_a = np.maximum(lo[active], lo_a)
        hi[active] = hi_a = np.minimum(hi[active], hi_a)
        apart = (hi_a[:, None] < lo) | (lo_a[:, None] > hi)
        apart[np.arange(active.size), active] = True  # a slice is not compared with itself
        return apart.all(axis=1)

    v32, iterations, certified = _iterate(m32, start, max_iters, block, certify)
    v = v32[..., 0].astype(np.float64)
    v /= np.sqrt(np.einsum("bi,bi->b", v, v))[:, None]
    key, converged = lo.copy(), certified.copy()
    rest = np.flatnonzero(~certified)
    if rest.size:
        v[rest], key[rest], extra, converged[rest] = _tol_mode(m_stack[rest], keep[rest], tol,
                                                               max_iters)
        iterations[rest] += extra
        s, lo_c = key[rest, None], lo[certified]
        if np.any(np.where(lo[rest, None] > hi[certified], s <= lo_c, s >= lo_c)):
            v, key, extra, converged = _tol_mode(m_stack, keep, tol, max_iters)
            iterations += extra
    return v, key, iterations, converged


def power_iterate(
    matrix: CompatibilityMatrix, tol: float = 1e-6, max_iters: int = 100
) -> SpectralResult:
    """Approximate the principal eigenpair of a compatibility matrix.

    Starts from the uniform vector; converged means the successive-iterate
    difference dropped below `tol`. Hitting `max_iters` is not an error:
    the current Rayleigh quotient is returned with converged=False.
    """
    if matrix.n == 0:
        raise EmptyMatrixError("cannot power-iterate an empty matrix")
    SpectralParams(tol=tol, max_iters=max_iters)  # the one check of tol and max_iters
    keep = np.ones((1, matrix.n), dtype=bool)
    v, lam, iters, conv = _power_iteration_batch(matrix.values[None], keep, tol, max_iters)
    return SpectralResult(
        v_star=v[0],
        s_star=float(lam[0]),
        iterations=int(iters[0]),
        converged=bool(conv[0]),
    )


def score_candidates(
    query: ScanRecord,
    candidates: list[ScanRecord],
    params: SpectralParams = SpectralParams(),
    workers: int = 1,
    *,
    order: bool = False,
) -> tuple[np.ndarray, int]:
    """Spectral fitness of every candidate against one query.

    Returns (scores, n) where n is the number of sampled query points, each
    matched to its nearest candidate feature; with `params.mutual` a
    candidate is scored on the subset of those n pairs that `mutual_pairs`
    keeps. `workers` > 1 splits the compatibility build over a thread pool
    started per call, with identical scores; `rerank_spectral` uses 1.

    By default each score is s* = v*^T M v*, converged to `params.tol`.
    With `order`, the re-ranker's mode, the scores are sort keys: sorted in
    descending order they rank the candidates by lambda_1, proven wherever
    float32 rounding separates them, and by the default s* among the rest.
    A proven candidate's key is a certified lower bound on its lambda_1,
    not s* converged to `tol`, and it depends on which candidates share the
    batch (see `_order_mode`).
    """
    for cand in candidates:
        if cand.feature_dim != query.feature_dim:
            raise DimMismatchError(
                f"feature dims differ: query d'={query.feature_dim}, "
                f"candidate {cand.id!r} d'={cand.feature_dim}"
            )
    sampled = sample_query_points(query, params.n_max)
    n = sampled.shape[0]
    if not candidates:
        return np.zeros(0), n

    # One NN GEMM per candidate, at its shape alone, and one matmul call for
    # all candidates of a point count. Slice 0 of `points` holds the query's
    # sampled points, slice 1 + k candidate k's matches. Only the
    # compatibility step is split across threads: it is a few large numpy
    # operations that release the GIL. The power iteration (a loop of small
    # operations) holds the GIL most of the time, so it runs here, on the
    # calling thread.
    query_feats = query.local_features[sampled]
    points = np.empty((len(candidates) + 1, n, 3))
    points[0] = query.cloud[sampled]
    keep = np.ones((len(candidates), n), dtype=bool)
    sizes = np.array([cand.cloud.shape[0] for cand in candidates])
    for size in set(sizes.tolist()):  # not np.unique: its first call in a process took 10-16 ms
        group = np.flatnonzero(sizes == size)
        feats = np.stack([candidates[k].local_features for k in group])
        d2 = nn_squared_distances(query_feats, feats)
        nn = d2.argmin(axis=2)
        clouds = np.stack([candidates[k].cloud for k in group])
        points[1 + group] = clouds[np.arange(group.size)[:, None], nn]
        if params.mutual:
            keep[group] = mutual_pairs(d2, nn)
    workers = min(max(1, workers), len(candidates))
    if workers == 1:
        m_stack = _compat_values(points, params.d_thr)
    else:
        bounds = np.linspace(0, len(candidates), workers + 1).astype(int)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(
                lambda lo, hi: _compat_values(points[np.r_[0, lo + 1:hi + 1]], params.d_thr),
                bounds[:-1], bounds[1:]))
        m_stack = np.concatenate(parts)
    if params.mutual:  # dropped pairs get zero rows and columns
        m_stack *= keep[:, :, None] & keep[:, None, :]
    _, lam, _, _ = _power_iteration_batch(m_stack, keep, params.tol, params.max_iters, order)
    return lam, n
