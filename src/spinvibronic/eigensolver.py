"""Lowest eigenpairs of sparse Hermitian matrices, solved block by block.

A sector Hamiltonian that commutes with a symmetry splits into blocks with
no matrix elements between them.  The symmetry-adapted basis of hamiltonian
declares them as ordered, contiguous (start, stop) ranges
(AdaptedBasis.sector_blocks): four real blocks for an m_s = 0 sector (Eu from
j = 1 and j = 2, A1u, A2u), three for an m_s = +/-1 sector (j = 1, 2, 0), and
the J ranges inside the four for the linear model, which also conserves J.
solve_lowest cuts each range out of the CSR arrays, solves it, and merges the
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
knowledge of where the matrix came from; only blocks of the same dim and
nnz are compared entry by entry.  It finds the two m_s = 0 Eu blocks (the
j = 2 states are the C2' images of the j = 1 states, in the same order) and
the j = 1 / j = 2 J-block twins of the linear model.

Every sector the package builds is real symmetric; a complex Hermitian
matrix from elsewhere is solved as it is.

Each block is solved by LAPACK (scipy.linalg.eigh), which also serves as
the independent oracle for the iterative path in the test suite, or by
ARPACK (scipy.sparse.linalg.eigsh, which="SA"), an implicitly restarted
Lanczos method (Lehoucq, Sorensen & Yang, ARPACK Users' Guide, SIAM 1998).
One rule, in _block_lowest, picks the path and the ARPACK start of every
block, for solve_lowest (k pairs per block) and lowest_per_block (the lowest
pair, from a start vector where the caller has one) alike:

- k_b >= dim - 1 goes to LAPACK, which ARPACK cannot serve;
- a block with a start goes to ARPACK from that start above
  WARM_START_MIN_DIM, and to LAPACK otherwise;
- any other block goes to ARPACK from a seeded random vector (so results
  are reproducible) above dense_threshold, and to LAPACK otherwise.

Residuals ||H v - theta v|| are recomputed from the returned pairs, and the
iterative path fails loudly rather than return a pair above
tol * max(1, max |theta|); a tol that is not positive raises ValueError
before any block is solved.

A merge that keeps the lowest keep pairs of B blocks reads few pairs of
each: at k = 10 the sectors of all four defects at cutoffs 20 and 36 keep
[3, 3, 1, 3] of the four m_s = 0 blocks and, at the calibrated spin-orbit
couplings, [3, 3, 4] of the three m_s = +1 blocks.  ARPACK's implicit
restarts cost more as k grows (ncv >= 2k + 1), so the pairs rule asks a
block that the routing rule sends to ARPACK from the seeded start for
min(k, ceil(keep / B) + 1) pairs (4 for m_s = 0, 5 for m_s = +1 at
k = 10), with the path still picked at k.  After the merge, the keep
certificate is checked: a block's uncomputed pairs lie at or above its last
computed pair, so where that pair was not kept none of them could be, and
the kept set is the one a solve of every block at k keeps.  Each block whose
computed pairs were all kept is solved again at k from the same seeded
start, its twins take that solve, and the spectra are merged again.  LAPACK
blocks and warm ARPACK blocks are still solved at k: the warm pairs of
lowest_per_block are one per block already, and a smaller LAPACK subset
moves the eigenvalue bits of the bundled runs' dense blocks, and with them
report bytes (the a-split a2u_ms_split_mev of SiV0 sits on a rounding edge).

dense_threshold (default 400) was the crossover of LAPACK and cold ARPACK
at k = 10.  Cold ARPACK at the pairs rule's 4-5 pairs is faster from dim
308 up, but routing the cutoff-20 j blocks (308) to ARPACK moves the
eigenvalue bits of every bundled cutoff-20 report and the printed a-split
a2u_ms_split_mev of SiV0 (a rounding edge), so 400 stays: the bundled runs
solve their cutoff-20 blocks (308 and 154) by LAPACK at k = 10 and the
cutoff-36 j blocks of 937-938 by ARPACK.  A start vector moves the
crossover of a k = 1 solve down to WARM_START_MIN_DIM, and above it a warm
pair costs a fraction of a LAPACK solve at k.  The cutoff sweep of analysis
confirms each cutoff by lowest_per_block from the cutoff before, so the
bundled runs solve their confirming cutoff-28 blocks (580 and 290) by warm
ARPACK at k = 1; calibrate_soc takes each Newton step the same way, on its
two Eu blocks, each started from its previous step's vector.  The timings
behind both thresholds and the pairs rule, each from one host, are in
CHANGES.md, in the entries that begin "Cutoff sweeps confirm with one warm
pair per block" and "One block-minima route".

Each block logs one DEBUG record (dim, dtype, path, k, wall and CPU seconds,
nnz, and the largest residual against its bound) to the "spinvibronic"
logger; an ARPACK block adds matvecs, the count of products h @ x eigsh
took, and a reused block says path=reused and names the block it copied.
"""

from __future__ import annotations

import logging
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

DENSE_THRESHOLD_DEFAULT = 400

# a start vector pays for ARPACK at k = 1 only above this block dim, where warm
# ARPACK overtakes LAPACK at k = 1; every J range of the linear model (at most
# 73 states at cutoff 36) stays with LAPACK (timings: CHANGES.md, "Cutoff sweeps
# confirm with one warm pair per block")
WARM_START_MIN_DIM = 200

log = logging.getLogger("spinvibronic")


class SolverError(RuntimeError):
    """Iterative solve failed to converge; carries the best residuals seen."""

    def __init__(self, message: str, residuals: np.ndarray | None = None):
        super().__init__(message)
        self.residuals = residuals


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
) -> tuple[np.ndarray, np.ndarray, int]:
    """The lowest k pairs by ARPACK, ascending, and the number of products h @ x it took."""
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    matvecs = 0

    def matvec(x: np.ndarray) -> np.ndarray:
        nonlocal matvecs
        matvecs += 1
        return h @ x

    try:
        op = LinearOperator(h.shape, matvec, dtype=h.dtype)
        vals, vecs = eigsh(op, k, which="SA", v0=v0, tol=tol)
    except ArpackNoConvergence as exc:
        raise SolverError(
            f"ARPACK did not reach tol={tol:g}: {len(exc.eigenvalues)} of {k} pairs converged",
            residuals=_residuals(h, exc.eigenvalues.real, exc.eigenvectors),
        ) from exc
    order = np.argsort(vals)
    return vals[order].real, vecs[:, order], matvecs


def _log_block(h, path: str, k: int, t0: float, c0: float, res, bound: float, note: str):
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
    hb: sp.csr_matrix, k: int, tol: float, seed: int, dense_threshold: int,
    start: np.ndarray | None = None, cold_k: int | None = None,
) -> EigResult:
    """Lowest min(k, dim) pairs of one block, on the path and start the module's rule picks.

    The path is picked at k; a block it sends to ARPACK from the seeded start
    is asked for min(k, cold_k) pairs instead, when cold_k is given.
    """
    nb = hb.shape[0]
    kb = min(k, nb)
    t0, c0 = time.perf_counter(), time.process_time()
    if kb >= nb - 1 or nb <= (dense_threshold if start is None else WARM_START_MIN_DIM):
        path, note, (vals, vecs) = "dense", "", _dense_lowest(hb, kb)
    else:
        if start is None:
            start = np.random.default_rng(seed).standard_normal(nb).astype(hb.dtype)
            kb = min(kb, cold_k or kb)
        vals, vecs, matvecs = _arpack_lowest(hb, kb, tol, start)
        path, note = "lanczos", f" matvecs={matvecs}"
    res = _residuals(hb, vals, vecs)
    bound = _bound(tol, vals)
    _log_block(hb, path, kb, t0, c0, res, bound, note)
    if path == "lanczos" and np.any(res > bound):
        raise SolverError(
            f"ARPACK residuals exceed tol * max(1, max|theta|) = {bound:.2e} "
            f"(residuals {np.array2string(res, precision=2)})",
            residuals=res,
        )
    return EigResult(vals, vecs, res, ranges=((0, nb),), block=np.zeros(kb, dtype=int))


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


def _block_view(h: sp.csr_matrix, lo: int, hi: int) -> sp.csr_matrix:
    """h[lo:hi, lo:hi] cut from h's CSR arrays, for rows whose every entry lies in [lo, hi)."""
    a, b = h.indptr[lo], h.indptr[hi]
    return sp.csr_matrix(
        (h.data[a:b], h.indices[a:b] - lo, h.indptr[lo:hi + 1] - a), shape=(hi - lo, hi - lo)
    )


def _merged(parts: list[EigResult], keep: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(index into the concatenated block spectra, block, block offsets) of the kept pairs."""
    kept = np.argsort(np.concatenate([r.eigenvalues for r in parts]), kind="stable")[:keep]
    offsets = np.cumsum([0] + [r.k for r in parts])
    return kept, np.searchsorted(offsets, kept, side="right") - 1, offsets


def _block_loop(
    h: sp.csr_matrix,
    blocks: Sequence[tuple[int, int]] | None,
    k: int,
    keep: int | None,
    tol: float,
    seed: int,
    dense_threshold: int,
    starts: Sequence[np.ndarray | None] | None = None,
) -> EigResult:
    """The block loop of solve_lowest and lowest_per_block.

    Checks the ranges, solves the lowest k pairs of block b by _block_lowest
    (from starts[b], if given) unless it is an earlier block's twin, and
    merges the block spectra by a stable sort, keeping the lowest keep pairs
    (all of them for None).  With keep, a block sent to cold ARPACK is first
    asked for ceil(keep / blocks) + 1 pairs; each such block whose computed
    pairs were all kept is solved again at k, and the spectra merged again
    (the module's pairs rule).
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive (got {tol})")
    n = h.shape[0]
    ranges = ((0, n),) if blocks is None else tuple((int(lo), int(hi)) for lo, hi in blocks)
    _check_blocks(h, ranges)
    cold_k = None if keep is None else -(-keep // len(ranges)) + 1
    parts, source = [], []
    # (block number, matrix) of each block solved, by (dim, nnz): only those can be twins
    solved: dict[tuple[int, int], list[tuple[int, sp.csr_matrix]]] = {}
    for b, (lo, hi) in enumerate(ranges):
        hb = _block_view(h, lo, hi)
        t0, c0 = time.perf_counter(), time.process_time()
        candidates = solved.setdefault((hi - lo, hb.nnz), [])
        twin = next((j for j, prev in candidates if _same_csr(prev, hb)), None)
        if twin is not None:
            # the same matrix, entry for entry: a second solve would give the same pairs
            r = parts[twin]
            parts.append(r)
            source.append(twin)
            _log_block(hb, "reused", r.k, t0, c0, r.residual_norms, _bound(tol, r.eigenvalues),
                       f" reused_from={twin}")
            continue
        candidates.append((b, hb))
        source.append(b)
        start = None if starts is None else starts[b]
        parts.append(_block_lowest(hb, k, tol, seed, dense_threshold, start, cold_k))
    kept, block, offsets = _merged(parts, keep)
    # a block asked for fewer than k pairs whose pairs were all kept may hold
    # more below the cut: solve it (and so its twins) again at k.  Where one
    # pair of a block was not kept, no pair above it can be, so the kept set is
    # the one a solve of every block at k keeps
    counts = np.bincount(block, minlength=len(parts))
    again = {source[b] for b, ((lo, hi), r) in enumerate(zip(ranges, parts))
             if r.k < min(k, hi - lo) and counts[b] == r.k}
    if again:
        full = {s: _block_lowest(_block_view(h, *ranges[s]), k, tol, seed, dense_threshold)
                for s in sorted(again)}
        parts = [full.get(s, r) for s, r in zip(source, parts)]
        kept, block, offsets = _merged(parts, keep)
    # embed only the kept pairs: the linear model has dozens of blocks
    vecs = np.zeros((n, kept.size), dtype=h.dtype)
    for col, (i, b) in enumerate(zip(kept, block)):
        lo, hi = ranges[b]
        vecs[lo:hi, col] = parts[b].eigenvectors[:, i - offsets[b]]
    vals = np.concatenate([r.eigenvalues for r in parts])
    res = np.concatenate([r.residual_norms for r in parts])
    return EigResult(vals[kept], vecs, res[kept], ranges, block)


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
    ValueError), and None makes h one block.  The block spectra are merged
    by a stable sort and the lowest k kept, with the eigenvectors embedded in
    the full space; the kept set is the one the lowest min(k, dim_b) pairs of
    every block would give.  The module's routing rule sends each block to
    LAPACK at k, or to ARPACK from the seeded start above dense_threshold,
    where the pairs rule first asks it for min(k, ceil(k / blocks) + 1) pairs
    and the keep certificate solves it again at k where all of them were
    kept.  dense_threshold = 0 sends every block with k_b < dim_b - 1 to
    ARPACK.  tol is ARPACK's relative tolerance and must be positive.
    Results are deterministic for a fixed seed.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > h.shape[0]:
        raise ValueError(f"k={k} exceeds matrix dimension {h.shape[0]}")
    return _block_loop(h, blocks, k, k, tol, seed, dense_threshold)


def lowest_per_block(
    h: sp.csr_matrix,
    blocks: Sequence[tuple[int, int]],
    starts: Sequence[np.ndarray | None],
    tol: float = 1e-10,
    seed: int = 0,
    dense_threshold: int = DENSE_THRESHOLD_DEFAULT,
    keep: int | None = None,
) -> EigResult:
    """The lowest pair of every block of h, ascending, one pair per block.

    starts[b] is a start vector over block b's range, or None; the module's
    routing rule sends a started block above WARM_START_MIN_DIM to ARPACK
    from its start, and any other block as solve_lowest would at k = 1.  The
    range check, the reuse of a block equal to an earlier one (which then
    takes that block's pair, whatever its own start) and the block records
    are solve_lowest's.  keep cuts the merged pairs to the lowest keep, and
    only those are embedded in the full space; None keeps all of them.
    """
    if len(starts) != len(blocks):
        raise ValueError(f"{len(starts)} start vectors for {len(blocks)} blocks")
    return _block_loop(h, blocks, 1, keep, tol, seed, dense_threshold, starts)
