"""Lowest eigenpairs of sparse Hermitian matrices, solved block by block.

A sector Hamiltonian that commutes with a symmetry splits into blocks with
no matrix elements between them.  The symmetry-adapted basis of hamiltonian
declares them as ordered, contiguous (start, stop) ranges
(AdaptedBasis.sector_blocks): four real blocks for an m_s = 0 sector (Eu from
j = 1 and j = 2, A1u, A2u), three for an m_s = +/-1 sector (j = 1, 2, 0), and
the J ranges inside the four for the linear model, which also conserves J.
solve_lowest cuts each range out by a range slice, solves it, and merges the
block spectra, so every eigenvector it returns lies in one block, exact
degeneracies across blocks cannot mix, and the result names the block of
each pair.  A stored entry outside its row's range raises ValueError rather
than being dropped.  Without ranges the whole matrix is one block.

A block whose CSR arrays (shape, indptr, indices, data) are exactly equal to
those of a block already solved in the same call is not solved again: it
takes that block's eigenvalues, eigenvectors and residuals, embedded in its
own index range.  Both solves would be deterministic on the same input, so
no result changes; lowest_per_block reuses a twin whatever start it was
given, since any start leads ARPACK to the same lowest pair within tol.
Reuse is decided by exact equality alone, with no tolerance and no
knowledge of where the matrix came from; it finds the two m_s = 0 Eu
blocks (the j = 2 states are the C2' images of the j = 1 states, in the
same order) and the j = 1 / j = 2 J-block twins of the linear model.

Every sector the package builds is real symmetric; a complex Hermitian
matrix from elsewhere is solved as it is.

Blocks with dim <= dense_threshold go to LAPACK (scipy.linalg.eigh), which
also serves as the independent oracle for the iterative path in the test
suite.  Larger ones go to ARPACK (scipy.sparse.linalg.eigsh, which="SA"), an
implicitly restarted Lanczos method (Lehoucq, Sorensen & Yang, ARPACK Users'
Guide, SIAM 1998), started from a seeded random vector so results are
reproducible.  Residuals ||H v - theta v|| are recomputed from the returned
pairs, and the iterative path fails loudly rather than return a pair above
tol * max(1, max |theta|).

The default threshold of 400 was measured on whole real sectors (k = 10,
PbV0 m_s = +1, two OpenBLAS threads on a 2-core x86-64 host): LAPACK won at
dim 364 (10.4 vs 12.2 ms) and ARPACK at dim 420 (11.8 vs 14.4 ms).  With the
blocks a third to a sixth of the sector, the bundled runs solve the
cutoff-20 blocks (308 and 154) by LAPACK at k = 10; the cutoff-36 large
sectors are j blocks of 937-938, all ARPACK.

lowest_pair finds the lowest pair of one block by ARPACK at k = 1, started
from a vector the caller passes; calibrate_soc passes each Eu block the
vector of its previous Newton step.  On one m_s = +1 j block on the same
host, LAPACK at k = 10 against a warm k = 1 ARPACK solve took 9.3 against
2.5 ms at dim 308, 29 against 4.4 ms at dim 580 and 74 against 5.3 ms at
dim 937.  lowest_per_block finds the lowest pair of every block of a
matrix, each started from a vector of its own where the caller has one; the
cutoff sweep of analysis confirms each cutoff that way, so the bundled runs
solve their confirming cutoff-28 blocks (580 and 290) by warm ARPACK at
k = 1: with assembly and labels, 6-7 ms per m_s = 0 sector against 18-20 ms
for the k = 10 solve.  Below WARM_START_MIN_DIM a start does not pay for
ARPACK, and LAPACK solves the block at k = 1.

Each block logs one DEBUG record (dim, dtype, path, k, wall and CPU seconds,
nnz, and the largest residual against its bound) to the "spinvibronic"
logger; a reused block says path=reused and names the block it copied.
converge_cutoff logs one record per cutoff it tries (n, the value, its drift
from the previous cutoff and the tolerance that drift is held to, and the
drift and tolerance of every further value it holds).
"""

from __future__ import annotations

import logging
import time
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

DENSE_THRESHOLD_DEFAULT = 400

# a start vector pays for ARPACK at k = 1 only above this block dim: warm ARPACK
# against LAPACK at k = 1 on the m_s = 0 blocks of SiV0 and PbV0 took 1.5-1.6
# against 1.5-1.8 ms at dim 204, 1.1-1.4 against 1.6-1.9 ms at dim 217 and 0.7-1.0
# against 0.05-0.13 ms at dim 30-60 (the J ranges of the linear model)
WARM_START_MIN_DIM = 200

log = logging.getLogger("spinvibronic")


class SolverError(RuntimeError):
    """Iterative solve failed to converge; carries the best residuals seen."""

    def __init__(self, message: str, residuals: np.ndarray | None = None):
        super().__init__(message)
        self.residuals = residuals


class ConvergenceError(RuntimeError):
    """Cutoff sweep hit n_max before the observable settled."""

    def __init__(self, message: str, history: list[tuple[int, float]]):
        super().__init__(message)
        self.history = history


@dataclass
class EigResult:
    """Ascending eigenpairs; pair i was solved in the block ranges[block[i]] = (start, stop)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual_norms: np.ndarray
    ranges: tuple[tuple[int, int], ...]
    block: np.ndarray

    @property
    def k(self) -> int:
        return self.eigenvalues.size


def _residuals(h: sp.csr_matrix, vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    return np.linalg.norm(h @ vecs - vecs * vals, axis=0)


def _dense_lowest(h: sp.csr_matrix, k: int) -> tuple[np.ndarray, np.ndarray]:
    return scipy.linalg.eigh(h.toarray(), subset_by_index=[0, k - 1])


def _arpack_lowest(
    h: sp.csr_matrix, k: int, tol: float, v0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    try:
        vals, vecs = eigsh(h, k, which="SA", v0=v0, tol=tol)
    except ArpackNoConvergence as exc:
        raise SolverError(
            f"ARPACK did not reach tol={tol:g}: {len(exc.eigenvalues)} of {k} pairs converged",
            residuals=_residuals(h, exc.eigenvalues.real, exc.eigenvectors),
        ) from exc
    order = np.argsort(vals)
    return vals[order].real, vecs[:, order]


def _log_block(h, path: str, k: int, t0: float, c0: float, res, bound: float, note: str = ""):
    """One DEBUG record per block, timed from (t0, c0); note is appended as is."""
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "solve_lowest block: dim=%d dtype=%s path=%s k=%d seconds=%.6f cpu_seconds=%.6f "
            "nnz=%d residual_max=%.3e bound=%.3e%s",
            h.shape[0], h.dtype, path, k, time.perf_counter() - t0, time.process_time() - c0,
            h.nnz, res.max(), bound, note,
        )


def _bound(tol: float, vals: np.ndarray) -> float:
    return tol * max(1.0, float(np.abs(vals).max()))


def _block_lowest(
    h: sp.csr_matrix, k: int, dense: bool, tol: float, v0: np.ndarray | None
) -> EigResult:
    """Lowest k pairs of one block; v0 starts ARPACK and is unused by LAPACK."""
    t0, c0 = time.perf_counter(), time.process_time()
    vals, vecs = _dense_lowest(h, k) if dense else _arpack_lowest(h, k, tol, v0)
    res = _residuals(h, vals, vecs)
    bound = _bound(tol, vals)
    _log_block(h, "dense" if dense else "lanczos", k, t0, c0, res, bound)
    if not dense and np.any(res > bound):
        raise SolverError(
            f"ARPACK residuals exceed tol * max(1, max|theta|) = {bound:.2e} "
            f"(residuals {np.array2string(res, precision=2)})",
            residuals=res,
        )
    return EigResult(vals, vecs, res, ranges=((0, h.shape[0]),), block=np.zeros(k, dtype=int))


def _same_csr(a: sp.csr_matrix, b: sp.csr_matrix) -> bool:
    """True when a and b store the same entries in the same layout."""
    return (
        a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


def _check_blocks(h: sp.csr_matrix, ranges: tuple[tuple[int, int], ...]) -> None:
    """Raise ValueError unless ranges tile h in order and hold every stored entry of h."""
    lo, hi = np.array(ranges).T
    if lo[0] != 0 or hi[-1] != h.shape[0] or np.any(lo[1:] != hi[:-1]) or np.any(hi <= lo):
        raise ValueError(f"blocks {ranges} are not ordered, non-empty ranges that tile h")
    per_block = np.diff(h.indptr[np.append(lo, hi[-1])])
    lo, hi = np.repeat(lo, per_block), np.repeat(hi, per_block)
    outside = np.flatnonzero((h.indices < lo) | (h.indices >= hi))
    if outside.size:
        at, row = outside[0], np.searchsorted(h.indptr, outside[0], side="right") - 1
        raise ValueError(f"stored entry ({row}, {h.indices[at]}) lies outside the block "
                         f"({lo[at]}, {hi[at]}) of its row")


def _solve_blocks(
    h: sp.csr_matrix,
    blocks: Sequence[tuple[int, int]] | None,
    tol: float,
    keep: int | None,
    solve_block: Callable[[int, sp.csr_matrix], EigResult],
) -> EigResult:
    """The block loop of solve_lowest and lowest_per_block.

    Checks the ranges, solves block b by solve_block(b, h_b) unless it is an
    earlier block's twin, and merges the block spectra by a stable sort,
    keeping the lowest keep pairs (all of them for None).
    """
    n = h.shape[0]
    ranges = ((0, n),) if blocks is None else tuple((int(lo), int(hi)) for lo, hi in blocks)
    _check_blocks(h, ranges)
    parts = []
    solved: list[tuple[int, sp.csr_matrix]] = []  # (block number, matrix) of each block solved
    for b, (lo, hi) in enumerate(ranges):
        hb = h[lo:hi, lo:hi]
        t0, c0 = time.perf_counter(), time.process_time()
        twin = next((j for j, prev in solved if _same_csr(prev, hb)), None)
        if twin is not None:
            # the same matrix, entry for entry: a second solve would give the same pairs
            r = parts[twin]
            parts.append(r)
            _log_block(hb, "reused", r.k, t0, c0, r.residual_norms, _bound(tol, r.eigenvalues),
                       f" reused_from={twin}")
            continue
        solved.append((b, hb))
        parts.append(solve_block(b, hb))
    vals = np.concatenate([r.eigenvalues for r in parts])
    kept = np.argsort(vals, kind="stable")[:keep]
    # embed only the kept pairs: the linear model has dozens of blocks
    starts = np.cumsum([0] + [r.k for r in parts])
    block = np.searchsorted(starts, kept, side="right") - 1
    vecs = np.zeros((n, kept.size), dtype=h.dtype)
    for col, (i, b) in enumerate(zip(kept, block)):
        lo, hi = ranges[b]
        vecs[lo:hi, col] = parts[b].eigenvectors[:, i - starts[b]]
    res = np.concatenate([r.residual_norms for r in parts])
    return EigResult(vals[kept], vecs, res[kept], ranges, block)


def _seeded_lowest(
    hb: sp.csr_matrix, k: int, tol: float, seed: int, dense_threshold: int
) -> EigResult:
    """Lowest min(k, dim) pairs of one block by LAPACK or by ARPACK from the seeded start."""
    nb = hb.shape[0]
    kb = min(k, nb)
    dense = nb <= dense_threshold or kb >= nb - 1
    v0 = None if dense else np.random.default_rng(seed).standard_normal(nb).astype(hb.dtype)
    return _block_lowest(hb, kb, dense, tol, v0)


def solve_lowest(
    h: sp.csr_matrix,
    k: int,
    tol: float = 1e-10,
    seed: int = 0,
    dense_threshold: int = DENSE_THRESHOLD_DEFAULT,
    blocks: Sequence[tuple[int, int]] | None = None,
) -> EigResult:
    """Algebraically smallest k eigenpairs of a Hermitian matrix, ascending.

    blocks are the (start, stop) ranges of the decoupled blocks of h, in
    order; they must tile h and hold its every stored entry (else
    ValueError), and None makes h one block.  Each block gives its lowest
    min(k, dim_b) pairs; the block spectra are merged by a stable sort and
    the lowest k kept, with the eigenvectors embedded in the full space.
    Blocks with dim_b <= dense_threshold go to LAPACK and larger ones to
    ARPACK (implicitly restarted Lanczos), except that k_b >= dim_b - 1
    always goes to LAPACK, which ARPACK cannot serve; dense_threshold = 0
    therefore sends every other block to ARPACK.  tol is ARPACK's relative
    tolerance.  Results are deterministic for a fixed seed.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > h.shape[0]:
        raise ValueError(f"k={k} exceeds matrix dimension {h.shape[0]}")
    return _solve_blocks(
        h, blocks, tol, k, lambda b, hb: _seeded_lowest(hb, k, tol, seed, dense_threshold)
    )


def lowest_pair(h: sp.csr_matrix, v0: np.ndarray, tol: float = 1e-10) -> EigResult:
    """Lowest eigenpair of one block, by ARPACK started from v0.

    A block of dim <= 2, which ARPACK cannot serve at k = 1, goes to LAPACK.
    The residual bound, SolverError and block record are those of
    solve_lowest; the block is not split further.
    """
    return _block_lowest(h, 1, dense=h.shape[0] <= 2, tol=tol, v0=v0)


def lowest_per_block(
    h: sp.csr_matrix,
    blocks: Sequence[tuple[int, int]],
    starts: Sequence[np.ndarray | None],
    tol: float = 1e-10,
    seed: int = 0,
    dense_threshold: int = DENSE_THRESHOLD_DEFAULT,
) -> EigResult:
    """The lowest pair of every block of h, ascending, one pair per block.

    starts[b] is a start vector over block b's range, or None.  A block with
    a start and dim > WARM_START_MIN_DIM goes to lowest_pair (ARPACK at k = 1
    from that vector); any other is solved at k = 1 as solve_lowest would,
    by LAPACK or from the seeded start.  The range check, the reuse of a
    block equal to an earlier one (which then takes that block's pair,
    whatever its own start) and the block records are solve_lowest's.
    """
    if len(starts) != len(blocks):
        raise ValueError(f"{len(starts)} start vectors for {len(blocks)} blocks")

    def solve_block(b: int, hb: sp.csr_matrix) -> EigResult:
        if starts[b] is not None and hb.shape[0] > WARM_START_MIN_DIM:
            return lowest_pair(hb, starts[b], tol)
        return _seeded_lowest(hb, 1, tol, seed, dense_threshold)

    return _solve_blocks(h, blocks, tol, None, solve_block)


@dataclass
class ConvergenceResult:
    value: float
    cutoff: int
    history: list[tuple[int, float]] = field(default_factory=list)
    # the caller's full solve at the reported cutoff, if it keeps one (converge_observable does)
    solution: object = None


def converge_cutoff(
    observable: Callable[[int], Mapping[str, float]],
    rel_tol: float = 0.01,
    n_start: int = 16,
    n_step: int = 8,
    n_max: int = 56,
) -> ConvergenceResult:
    """Increase the basis cutoff until the observable's named values stop drifting.

    observable(n) returns named values at cutoff n.  The first is the one
    reported and kept in the history; every one must agree with the next
    cutoff's to rel_tol.  Returns the first cutoff where they all do (so the
    reported value is already converged at the reported cutoff).  Each
    cutoff logs one DEBUG record, with a name_drift and name_tol pair for
    each value after the first; the first cutoff has no drift or tolerance
    yet and logs them as nan.
    """
    if n_step < 1:
        raise ValueError("n_step must be >= 1")
    if n_max < n_start + n_step:
        raise ValueError(
            f"a cutoff sweep needs two cutoffs: n_max={n_max} is below "
            f"n_start={n_start} + n_step={n_step}"
        )
    history: list[tuple[int, float]] = []
    prev: dict[str, float] | None = None
    unsettled: list[str] = []
    nan = float("nan")
    n = n_start
    while n <= n_max:
        values = {name: float(x) for name, x in observable(n).items()}
        v = next(iter(values.values()))
        history.append((n, v))
        drifts = {
            name: (nan, nan)
            if prev is None
            else (abs(x - prev[name]), rel_tol * max(abs(x), abs(prev[name]), 1e-300))
            for name, x in values.items()
        }
        if log.isEnabledFor(logging.DEBUG):
            (drift, tol), *_ = drifts.values()
            extra = "".join(
                f" {name}_drift={d:.3e} {name}_tol={t:.3e}"
                for name, (d, t) in list(drifts.items())[1:]
            )
            log.debug(
                "converge_cutoff: n=%d value=%.9g drift=%.3e tol=%.3e%s", n, v, drift, tol, extra
            )
        unsettled = [name for name, (d, t) in drifts.items() if not d <= t]
        if prev is not None and not unsettled:
            prev_n, prev_v = history[-2]
            return ConvergenceResult(value=prev_v, cutoff=prev_n, history=history)
        prev = values
        n += n_step
    raise ConvergenceError(
        f"observable did not converge to rel_tol={rel_tol:g} by cutoff {n_max} "
        f"(unsettled: {unsettled}); history: {history}",
        history=history,
    )
