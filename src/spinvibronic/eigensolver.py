"""Lowest eigenpairs of sparse Hermitian matrices, solved block by block.

A sector Hamiltonian that commutes with a diagonal symmetry splits into
blocks with no matrix elements between them: the m_s = 0 sectors are two
real blocks, one per C2' parity, and the m_s = +/-1 sectors are one block.
solve_lowest finds the blocks as the connected components of the sparsity
pattern, solves each, and merges the block spectra, so every eigenvector it
returns lies in one block and exact degeneracies across blocks cannot mix.

Blocks with dim <= dense_threshold go to LAPACK (scipy.linalg.eigh), which
also serves as the independent oracle for the iterative path in the test
suite.  Larger ones go to ARPACK (scipy.sparse.linalg.eigsh, which="SA"), an
implicitly restarted Lanczos method (Lehoucq, Sorensen & Yang, ARPACK Users'
Guide, SIAM 1998), started from a seeded random vector so results are
reproducible.  Residuals ||H v - theta v|| are recomputed from the returned
pairs, and the iterative path fails loudly rather than return a pair above
tol * max(1, max |theta|).

The default threshold of 400 is the measured crossover (k = 10, whole SnV0
and PbV0 sectors before the split into blocks, two OpenBLAS threads on a
2-core x86-64 host): complex sectors break even near dim 312 and real ones
between 544 and 612, so one real plus one complex solve, the unit of a
spin-orbit run, ties at dim 364 and favours ARPACK from dim 420 up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse as sp

DENSE_THRESHOLD_DEFAULT = 400


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
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual_norms: np.ndarray

    @property
    def k(self) -> int:
        return self.eigenvalues.size


def _residuals(h: sp.csr_matrix, vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    return np.linalg.norm(h @ vecs - vecs * vals, axis=0)


def _dense_lowest(h: sp.csr_matrix, k: int) -> EigResult:
    vals, vecs = scipy.linalg.eigh(h.toarray(), subset_by_index=[0, k - 1])
    return EigResult(eigenvalues=vals, eigenvectors=vecs, residual_norms=_residuals(h, vals, vecs))


def _arpack_lowest(h: sp.csr_matrix, k: int, tol: float, seed: int) -> EigResult:
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    v0 = np.random.default_rng(seed).standard_normal(h.shape[0]).astype(h.dtype)
    try:
        vals, vecs = eigsh(h, k, which="SA", v0=v0, tol=tol)
    except ArpackNoConvergence as exc:
        raise SolverError(
            f"ARPACK did not reach tol={tol:g}: {len(exc.eigenvalues)} of {k} pairs converged",
            residuals=_residuals(h, exc.eigenvalues.real, exc.eigenvectors),
        ) from exc
    order = np.argsort(vals)
    vals, vecs = vals[order].real, vecs[:, order]
    res = _residuals(h, vals, vecs)
    bound = tol * max(1.0, float(np.abs(vals).max()))
    if np.any(res > bound):
        raise SolverError(
            f"ARPACK residuals exceed tol * max(1, max|theta|) = {bound:.2e} "
            f"(residuals {np.array2string(res, precision=2)})",
            residuals=res,
        )
    return EigResult(eigenvalues=vals, eigenvectors=vecs, residual_norms=res)


def _blocks(h: sp.csr_matrix) -> list[np.ndarray]:
    """Ascending index sets of the decoupled blocks, from the sparsity pattern alone."""
    from scipy.sparse.csgraph import connected_components

    pattern = sp.csr_matrix((np.ones(h.nnz), h.indices, h.indptr), shape=h.shape)
    _, labels = connected_components(pattern, directed=False)
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels))[:-1])


def solve_lowest(
    h: sp.csr_matrix,
    k: int,
    tol: float = 1e-10,
    seed: int = 0,
    dense_threshold: int = DENSE_THRESHOLD_DEFAULT,
    method: str = "auto",
) -> EigResult:
    """Algebraically smallest k eigenpairs of a Hermitian matrix, ascending.

    Each decoupled block gives its lowest min(k, dim_b) pairs; the block
    spectra are merged by a stable sort and the lowest k kept, with the
    eigenvectors embedded in the full space.  method: "auto" uses LAPACK for
    blocks with dim_b <= dense_threshold and ARPACK (implicitly restarted
    Lanczos) otherwise; "dense" / "lanczos" force a path, except that
    k_b >= dim_b - 1 always goes to LAPACK, which ARPACK cannot serve.  tol is
    ARPACK's relative tolerance.  Results are deterministic for a fixed seed.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = h.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds matrix dimension {n}")
    if method not in ("auto", "dense", "lanczos"):
        raise ValueError(f"unknown method {method!r}")
    blocks = _blocks(h)
    parts = []
    for idx in blocks:
        hb = h if len(blocks) == 1 else h[idx][:, idx]
        nb, kb = idx.size, min(k, idx.size)
        if method == "dense" or (method == "auto" and nb <= dense_threshold) or kb >= nb - 1:
            parts.append(_dense_lowest(hb, kb))
        else:
            parts.append(_arpack_lowest(hb, kb, tol, seed))
    vals = np.concatenate([r.eigenvalues for r in parts])
    vecs = np.zeros((n, vals.size), dtype=h.dtype)
    col = 0
    for idx, r in zip(blocks, parts):
        vecs[idx, col : col + r.k] = r.eigenvectors
        col += r.k
    keep = np.argsort(vals, kind="stable")[:k]
    res = np.concatenate([r.residual_norms for r in parts])
    return EigResult(eigenvalues=vals[keep], eigenvectors=vecs[:, keep], residual_norms=res[keep])


@dataclass
class ConvergenceResult:
    value: float
    cutoff: int
    history: list[tuple[int, float]] = field(default_factory=list)
    solution: object = None  # what the caller solved at the reported cutoff, if it keeps it


def converge_cutoff(
    observable: Callable[[int], float],
    rel_tol: float = 0.01,
    n_start: int = 16,
    n_step: int = 8,
    n_max: int = 56,
) -> ConvergenceResult:
    """Increase the basis cutoff until the observable stops drifting.

    Returns the first cutoff whose value agrees with the next one to rel_tol
    (so the reported value is already converged at the reported cutoff).
    """
    if n_step < 1:
        raise ValueError("n_step must be >= 1")
    history: list[tuple[int, float]] = []
    prev_n, prev_v = None, None
    n = n_start
    while n <= n_max:
        v = float(observable(n))
        history.append((n, v))
        if prev_v is not None:
            drift = abs(v - prev_v)
            if drift <= rel_tol * max(abs(v), abs(prev_v), 1e-300):
                return ConvergenceResult(value=prev_v, cutoff=prev_n, history=history)
        prev_n, prev_v = n, v
        n += n_step
    raise ConvergenceError(
        f"observable did not converge to rel_tol={rel_tol:g} by cutoff {n_max}; "
        f"history: {history}",
        history=history,
    )
