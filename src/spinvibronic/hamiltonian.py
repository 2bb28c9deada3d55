"""Assembly of the spin-vibronic Hamiltonian in a C3 x C2' symmetry-adapted basis.

Electronic basis: each hole doublet in circular components
e_+/- = (x +/- i y)/sqrt(2), angular momentum m = +/-1.  The four
configurations are ordered with the u index fast, e = 2*i_g + i_u (i = 0 for
e_+, 1 for e_-), i.e. [ |e+ e+>, |e- e+>, |e+ e->, |e- e-> ] (first label u,
second g).  Operators written A (x) B act as <u'g'| A (x) B |ug> = A_{u'u} B_{g'g}.

Symmetry content, with the Cartesian names of the defect:

    |e+ e+>, |e- e->           span Eu
    (|e+ e-> + |e- e+>)/sqrt(2) = (|xx> + |yy>)/sqrt(2)        A2u
    (|e+ e-> - |e- e+>)/sqrt(2) = -i (|xy> - |yx>)/sqrt(2)     A1u

The u orbitals reflect under C2' like in-plane (x, y) functions, diag(1, -1),
and the g orbitals like (xz, yz) functions, diag(-1, 1); so (|xx> + |yy>)/sqrt(2)
is odd under C2' and therefore A2u.  It is also the combination driven by the
strong constructive coupling f_u + f_g, which is what puts the dark A2u
vibronic level below the bright Eu doublet.

With the circular oscillator basis of oscillator.py every term is a real
matrix (T is the transpose of the term before it):

    H0 = hbar_omega_e (n_+ + n_- + 1)
       + sum over d = u, g of  f_d (Q_+ (x) |e+><e-|_d + T) + g_d (Q_+^2 (x) |e-><e+|_d + T)
       + W(lambda_corr, preset)

which is f_d (X sz(d) - Y sx(d)) + g_d ((X^2 - Y^2) sz(d) + 2 X Y sx(d)) in
Cartesian components.  The longitudinal spin-orbit term conserves m_s and is
one added term per spin projection, m_s (lambda_u0 S_u + lambda_g0 S_g) with
S = sigma_y / 2 = diag(1/2, -1/2) on (e+, e-).

Every term conserves j = (ell + m_u + m_g) mod 3, the total C3 quantum
number (ell = n_+ - n_-); the linear terms and W also conserve
J = ell - (m_u + m_g)/2.  C2' sends |n_+, n_-, s, t> to -|n_-, n_+, -s, -t>: it
commutes with H0 and flips the sign of S.  AdaptedBasis orders the states as
j = 1 (by J, then product index), j = 2 as the C2' partners of the j = 1
states in the same order, then the j = 0 states b paired with their C2' images
as (b + C2'b)/sqrt(2) (A1u) and (b - C2'b)/sqrt(2) (A2u).  So the m_s = 0
sector splits exactly into four blocks, Eu (j = 1), Eu (j = 2), A1u and A2u,
and each m_s = +/-1 sector into three, j = 1, j = 2 and j = 0, all of them
contiguous ranges that AdaptedBasis.sector_blocks hands to the solver
(with the J ranges inside them for the linear model).  The physical m_s = -1
sector is C2' H(+1) C2', which swaps j = 1 with j = 2 and flips the sign of
the A2u states: it is the m_s = +1 matrix in the C2'-image basis, so one
matrix serves both, and Kramers degeneracy is stated exactly.

Everything but the six coupling weights depends on the cutoff alone, so each
AdaptedBasis builds its operators once, on first use: the unit terms of H0
(hbar_omega_e = 1, lambda_corr = 1 for each preset, and one unit coupling
each for f_u, f_g, g_u and g_g), S_u and S_g, and R2 = X^2 + Y^2 for the
state analysis.  Each is a real kron product of exact factors in the
circular product basis, folded into the adapted basis.  An entry and its C2'
image are the same float, so every cross-block entry of the fold is an exact
zero (x - x); eliminate_zeros drops those, and no entry is dropped by size.
The unit terms share one sparsity pattern, the union of theirs, and assemble
is the elementwise weighted sum of their data on it followed by
eliminate_zeros.  Elementwise, equal unit entries give equal sums: the j = 1
and j = 2 blocks stay equal entry for entry, and a zero weight leaves exact
zeros, so the linear model (g = 0) keeps its J blocks.  adapted_basis keeps
the last ADAPTED_BASIS_CACHE bases, and every cached array is read-only.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp

from .oscillator import OscBasis, build_basis, build_operators
from .params import Couplings

ELEC_DIM = 4

# bases, each with its operators, that adapted_basis keeps (least recently used out)
ADAPTED_BASIS_CACHE = 4

log = logging.getLogger("spinvibronic")

PRESET_E_RAISED = "e-raised"
PRESET_A_SPLIT = "a-split"
PRESETS = (PRESET_E_RAISED, PRESET_A_SPLIT)

SIGMA_0 = np.eye(2)
E_RAISE = np.array([[0.0, 1.0], [0.0, 0.0]])  # |e+><e-| on one doublet

# angular momentum of the u and g hole in each electronic state
M_U = np.array([1, -1, 1, -1])
M_G = np.array([1, 1, -1, -1])

LABEL_A1U = "A1u"
LABEL_A2U = "A2u"
LABEL_EU = "Eu"


def op_on_u(a: np.ndarray) -> np.ndarray:
    """Embed a 2x2 operator acting on the u doublet (fast index)."""
    return np.kron(SIGMA_0, a)


def op_on_g(b: np.ndarray) -> np.ndarray:
    """Embed a 2x2 operator acting on the g doublet (slow index)."""
    return np.kron(b, SIGMA_0)


@dataclass(frozen=True)
class BasisOperators:
    """The coupling-independent operators of one AdaptedBasis; every array is read-only.

    units holds the data of each unit term of H0 over the shared CSR pattern
    (indptr, indices), by name: "N" is n_+ + n_- + 1, each preset name is W
    at lambda_corr = 1, and "f_u", "f_g", "g_u", "g_g" are the coupling
    terms at unit coupling.  s_u and s_g are sigma_y / 2 on the u and g
    doublets, and r2 is the oscillator operator X^2 + Y^2.
    """

    indptr: np.ndarray
    indices: np.ndarray
    units: dict[str, np.ndarray]
    s_u: sp.csr_matrix
    s_g: sp.csr_matrix
    r2: sp.csr_matrix


@dataclass(frozen=True)
class AdaptedBasis:
    """The C3 x C2' symmetry-adapted spin-vibronic basis of one cutoff.

    fold has one row per adapted state over the product states
    |n_+, n_-> (x) |e> (electronic index fast): a single 1 for a j = 1 or
    j = 2 state, and +1 on b with -1 (A1u) or +1 (A2u) on b' for the pair
    (b, b'), C2'b = -b', of a j = 0 state; the pair rows carry the
    normalisation 1/sqrt(2) implicitly.  blocks holds (label, start, stop) of
    the j = 1, j = 2, A1u and A2u ranges, in that order, and linear_blocks the
    (start, stop) of the J ranges inside them.
    """

    osc: OscBasis
    fold: sp.csr_matrix
    blocks: tuple[tuple[str, int, int], ...]
    linear_blocks: tuple[tuple[int, int], ...]

    @property
    def dim(self) -> int:
        return self.fold.shape[0]

    def adapt(self, op: sp.spmatrix) -> sp.csr_matrix:
        """A j-conserving product-basis operator in the adapted basis."""
        m = (self.fold @ op @ self.fold.T).tocsr()
        # pair rows hold only pair columns, and both sides carry 1/sqrt(2)
        m.data[m.indptr[self.blocks[2][1]] :] *= 0.5
        m.eliminate_zeros()
        m.sort_indices()
        return m

    @cached_property
    def operators(self) -> BasisOperators:
        """The unit terms of H0, S_u, S_g and R2, built and folded on first use."""
        t0 = time.perf_counter()
        osc = self.osc
        ladder = build_operators(osc)
        eye = sp.identity(osc.dim, format="csr")
        raise_u, raise_g = sp.csr_matrix(op_on_u(E_RAISE)), sp.csr_matrix(op_on_g(E_RAISE))

        def coupling(q: sp.csr_matrix, e: sp.csr_matrix) -> sp.csr_matrix:
            t = sp.kron(q, e, format="csr")
            return t + t.T

        product = {
            "N": sp.kron(sp.diags(osc.n_plus + osc.n_minus + 1.0), sp.identity(ELEC_DIM)),
            **{p: sp.kron(eye, sp.csr_matrix(circular_correlation(1.0, p))) for p in PRESETS},
            "f_u": coupling(ladder["Q+"], raise_u),
            "f_g": coupling(ladder["Q+"], raise_g),
            "g_u": coupling(ladder["Q+2"], raise_u.T),
            "g_g": coupling(ladder["Q+2"], raise_g.T),
        }
        indptr, indices, units = _shared_pattern(
            {name: self.adapt(op) for name, op in product.items()}, self.dim
        )
        s_u, s_g = (self.adapt(sp.kron(eye, sp.diags(0.5 * m))) for m in (M_U, M_G))
        r2 = ladder["R2"]
        _read_only(indptr, indices, *units.values())
        for m in (s_u, s_g, r2):
            _read_only(m.data, m.indices, m.indptr)
        if log.isEnabledFor(logging.DEBUG):
            log.debug(
                "adapted_basis build: cutoff=%d dim=%d nnz=%d seconds=%.6f",
                osc.cutoff, self.dim, indices.size, time.perf_counter() - t0,
            )
        return BasisOperators(indptr, indices, units, s_u, s_g, r2)

    def to_product(self, vectors: np.ndarray) -> np.ndarray:
        """Adapted-basis vectors (columns) in the product basis."""
        scale = np.where(np.arange(self.dim) < self.blocks[2][1], 1.0, math.sqrt(0.5))
        return self.fold.T @ (scale * vectors.T).T

    def sector_blocks(self, m_s: int, linear: bool = False) -> tuple[tuple[int, int], ...]:
        """Ordered (start, stop) ranges of the decoupled blocks of an m_s sector.

        m_s = 0: the j = 1, j = 2, A1u and A2u ranges, or the J ranges inside
        them for the linear model (g = 0), which also conserves J.  m_s = +/-1:
        the j = 1, j = 2 and j = 0 ranges, since spin-orbit couples A1u to A2u.
        """
        (_, lo1, hi1), (_, lo2, hi2), (_, lo0, _), (_, _, hi0) = self.blocks
        if m_s:
            return (lo1, hi1), (lo2, hi2), (lo0, hi0)
        return self.linear_blocks if linear else tuple((lo, hi) for _, lo, hi in self.blocks)

    def block_at(self, index) -> np.ndarray:
        """Index into blocks of the block that holds each adapted-basis index."""
        return np.searchsorted([lo for _, lo, _ in self.blocks[1:]], index, side="right")

    def index_in(self, larger: AdaptedBasis) -> np.ndarray:
        """Index in larger, a basis of higher cutoff, of each state of this basis.

        The shells nest, so the product states of this cutoff are the first
        ones of larger's, and each adapted state, named by its block and the
        first product state it holds (the j = 0 pair is chosen within one
        shell), is a state of larger.  The map is exact: a vector v of this
        basis is the vector w of larger with w[index_in(larger)] = v and zeros
        elsewhere.  ValueError if a state is missing from larger.
        """

        def names(basis: AdaptedBasis) -> np.ndarray:
            first = np.minimum.reduceat(basis.fold.indices, basis.fold.indptr[:-1])
            return basis.block_at(np.arange(basis.dim)) * larger.fold.shape[1] + first

        mine, theirs = names(self), names(larger)
        order = np.argsort(theirs)
        at = order[np.searchsorted(theirs, mine, sorter=order).clip(max=larger.dim - 1)]
        if not np.array_equal(theirs[at], mine):
            raise ValueError(
                f"the basis of cutoff {self.osc.cutoff} does not nest in cutoff {larger.osc.cutoff}"
            )
        return at


def _shared_pattern(
    terms: dict[str, sp.csr_matrix], n: int
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """(indptr, indices, data of each term) over the union of the canonical terms' patterns."""
    keys = {
        name: np.repeat(np.arange(n, dtype=np.int64), np.diff(t.indptr)) * n + t.indices
        for name, t in terms.items()
    }
    union = np.unique(np.concatenate(list(keys.values())))
    index_dtype = next(iter(terms.values())).indices.dtype
    indptr = np.searchsorted(union // n, np.arange(n + 1)).astype(index_dtype)
    units = {}
    for name, t in terms.items():
        units[name] = np.zeros(union.size)
        units[name][np.searchsorted(union, keys[name])] = t.data
    return indptr, (union % n).astype(index_dtype), units


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@lru_cache(maxsize=ADAPTED_BASIS_CACHE)
def adapted_basis(cutoff: int) -> AdaptedBasis:
    """The symmetry-adapted basis over the oscillator shells n_+ + n_- <= cutoff.

    The last ADAPTED_BASIS_CACHE bases are kept, so every caller at a cutoff
    shares one basis and the operators it builds.
    """
    osc = build_basis(cutoff)
    k = np.repeat(np.arange(osc.dim), ELEC_DIM)
    e = np.tile(np.arange(ELEC_DIM), osc.dim)
    product = np.arange(k.size)
    big_j = osc.ell[k] - (M_U[e] + M_G[e]) // 2  # J, and j = J mod 3
    n = osc.n_plus[k] + osc.n_minus[k]
    mirror = ELEC_DIM * (n * (n + 1) // 2 + osc.n_minus[k]) + (ELEC_DIM - 1 - e)  # C2' b = -b[mirror]
    # ascending J keeps each J block of the linear model one contiguous range
    order = np.argsort(big_j, kind="stable")
    j1 = order[big_j[order] % 3 == 1]
    lead = (big_j > 0) | ((big_j == 0) & (product < mirror))  # one state of each j = 0 pair
    rep = order[(big_j[order] % 3 == 0) & lead[order]]
    pairs = np.column_stack([rep, mirror[rep]]).ravel()
    m1, m0 = j1.size, rep.size
    rows = np.concatenate([np.arange(2 * m1), np.repeat(2 * m1 + np.arange(2 * m0), 2)])
    cols = np.concatenate([j1, mirror[j1], pairs, pairs])
    vals = np.concatenate([np.ones(2 * m1), np.tile([1.0, -1.0], m0), np.ones(2 * m0)])
    fold = sp.csr_matrix((vals, (rows, cols)), shape=(k.size, k.size))
    _read_only(osc.n_plus, osc.n_minus, fold.data, fold.indices, fold.indptr)
    blocks = (
        (LABEL_EU, 0, m1),
        (LABEL_EU, m1, 2 * m1),
        (LABEL_A1U, 2 * m1, 2 * m1 + m0),
        (LABEL_A2U, 2 * m1 + m0, k.size),
    )
    # each block holds its states by J (the j = 2 states mirror the j = 1 ones,
    # J -> -J, and an A1u or A2u state has the J >= 0 of its lead state)
    lead_j = np.concatenate([big_j[j1], big_j[j1], big_j[rep], big_j[rep]])
    edges = np.union1d([lo for _, lo, _ in blocks] + [k.size], np.flatnonzero(np.diff(lead_j)) + 1)
    linear_blocks = tuple(zip(edges[:-1].tolist(), edges[1:].tolist()))
    return AdaptedBasis(osc=osc, fold=fold, blocks=blocks, linear_blocks=linear_blocks)


@dataclass(frozen=True)
class SectorSpec:
    """Everything needed to assemble the spin-orbit-free sector."""

    couplings: Couplings
    lambda_corr: float
    cutoff: int = 20
    preset: str = PRESET_E_RAISED

    def __post_init__(self):
        if self.cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        if self.preset not in PRESETS:
            raise ValueError(f"unknown correlation preset {self.preset!r}")


def circular_correlation(lambda_corr: float, preset: str = PRESET_E_RAISED) -> np.ndarray:
    """Static correlation term W over the circular electronic states, real 4x4.

    e-raised: the Eu pair |e+e+>, |e-e-> sits lambda_corr above the
    degenerate A1u/A2u pair, W = lambda_corr (|e+e+><e+e+| + |e-e-><e-e-|).
    a-split: the symmetric combination (|e+e-> + |e-e+>)/sqrt(2) (= A2u,
    strongly coupled) is raised by lambda_corr and the antisymmetric A1u one
    lowered, with the Eu pair at zero, W = lambda_corr (|e+e-><e-e+| + T).

    e-raised is the shipped default: it reproduces the reported SiV0 lowest
    splitting and matches the surface structure at Q = 0, where the four
    adiabatic levels form two degenerate pairs separated by lambda_corr.
    """
    if preset == PRESET_E_RAISED:
        return lambda_corr * np.diag([1.0, 0.0, 0.0, 1.0])
    if preset == PRESET_A_SPLIT:
        w = np.zeros((ELEC_DIM, ELEC_DIM))
        w[1, 2] = w[2, 1] = lambda_corr
        return w
    raise ValueError(f"unknown correlation preset {preset!r}")


def soc_operators(basis: AdaptedBasis) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """S_u and S_g, sigma_y / 2 on the u and g doublets, in the adapted basis as real CSR.

    The m_s = +/-1 sectors are H0 + lambda_u0 S_u + lambda_g0 S_g (see the
    module docstring).  Doublet matrix elements of the same operators give the
    Ham reduction factors and the Hellmann-Feynman slope of a spin-orbit
    sector.  Both are the basis's own read-only operators, built once per
    basis.
    """
    ops = basis.operators
    return ops.s_u, ops.s_g


def assemble(spec: SectorSpec) -> sp.csr_matrix:
    """Spin-orbit-free sector H_osc + W + pJT as one real CSR matrix in the adapted basis.

    The elementwise sum of the unit terms of adapted_basis(spec.cutoff)
    weighted by the couplings, with exact zeros dropped; the matrix owns its
    arrays.
    """
    basis = adapted_basis(spec.cutoff)
    ops = basis.operators
    c = spec.couplings
    u = ops.units
    data = (
        c.hbar_omega_e * u["N"]
        + spec.lambda_corr * u[spec.preset]
        + c.f_u * u["f_u"]
        + c.f_g * u["f_g"]
        + c.g_u * u["g_u"]
        + c.g_g * u["g_g"]
    )
    h = sp.csr_matrix((data, ops.indices.copy(), ops.indptr.copy()), shape=(basis.dim, basis.dim))
    h.eliminate_zeros()
    return h
