import math

import numpy as np
import pytest
import scipy.sparse as sp

from spinvibronic.oscillator import BasisSizeError, build_basis, build_operators

from conftest import (
    c2prime_reflection,
    c3_rotation,
    cartesian_basis,
    cartesian_operators,
    circular_states,
)


def swap_permutation(basis):
    """|n_+, n_-> -> |n_-, n_+>, the mode reflection Q_y -> -Q_y in the circular basis."""
    target = [basis.index(int(m), int(p)) for p, m in zip(basis.n_plus, basis.n_minus)]
    return sp.csr_matrix((np.ones(basis.dim), (target, np.arange(basis.dim))))


@pytest.mark.parametrize("cutoff,dim", [(0, 1), (40, 861), (60, 1891)])
def test_basis_dimensions(cutoff, dim):
    basis = build_basis(cutoff)
    assert basis.dim == dim


def test_basis_enumeration_is_bijective_and_ordered():
    basis = build_basis(7)
    seen = set()
    prev = (-1, -1)
    for k in range(basis.dim):
        n_plus, n_minus = int(basis.n_plus[k]), int(basis.n_minus[k])
        assert basis.index(n_plus, n_minus) == k
        assert basis.ell[k] == n_plus - n_minus
        seen.add((n_plus, n_minus))
        key = (n_plus + n_minus, n_plus)
        assert key > prev
        prev = key
    assert len(seen) == basis.dim


def test_budget_rejected():
    # cutoff 400 gives 4 * 80601 states, over the budget; the check comes before any allocation
    with pytest.raises(BasisSizeError):
        build_basis(400)


def test_position_matrix_elements():
    # Q_+ = a_- + a_+^dag: raises n_+ or lowers n_-, by exact ladder elements
    basis = build_basis(2)
    q = build_operators(basis)["Q+"].toarray()
    assert q[basis.index(1, 0), basis.index(0, 0)] == 1.0
    assert q[basis.index(0, 0), basis.index(0, 1)] == 1.0
    assert q[basis.index(2, 0), basis.index(1, 0)] == pytest.approx(math.sqrt(2))
    assert q[basis.index(0, 0), basis.index(0, 0)] == 0.0
    # X = (Q_+ + Q_-)/2 has <1,0|X|0,0> = 1/2 in the circular basis
    x = 0.5 * (q + q.T)
    assert x[basis.index(1, 0), basis.index(0, 0)] == 0.5


def test_position_spectrum_matches_gauss_hermite_nodes():
    # X = (Q_+ + Q_-)/2 over the same shells is the truncated Cartesian
    # coordinate, whose n_y = 0 chain is the Jacobi matrix of Gauss-Hermite
    # quadrature: its extreme eigenvalue IS the largest node of H_{N+1}; that
    # node sits about 6 percent below the sqrt(2N) scale
    from scipy.special import roots_hermite

    basis = build_basis(60)
    q = build_operators(basis)["Q+"]
    evals = np.linalg.eigvalsh(0.5 * (q + q.T).toarray())
    nodes, _ = roots_hermite(61)
    assert abs(evals).max() == pytest.approx(abs(nodes).max(), abs=1e-8)
    assert abs(evals).max() == pytest.approx(math.sqrt(2 * 60), rel=0.07)


def test_quadratic_matrix_elements():
    basis = build_basis(4)
    ops = build_operators(basis)
    q2, r2 = ops["Q+2"].toarray(), ops["R2"].toarray()
    i00 = basis.index(0, 0)
    assert q2[basis.index(2, 0), i00] == pytest.approx(math.sqrt(2))
    assert q2[basis.index(1, 0), basis.index(0, 1)] == 2.0
    assert q2[i00, basis.index(0, 2)] == pytest.approx(math.sqrt(2))
    assert q2[i00, i00] == 0.0
    assert r2[i00, i00] == 1.0
    assert r2[basis.index(1, 1), i00] == 1.0


def loop_reference(basis):
    """Q+, Q+2 and R2 entry by entry, with the ladder arithmetic of the operators."""
    dim = basis.dim
    m = {label: np.zeros((dim, dim)) for label in ("Q+", "Q+2", "R2")}

    def inside(p, q):
        return p >= 0 and q >= 0 and p + q <= basis.cutoff

    for k in range(dim):
        p, q = int(basis.n_plus[k]), int(basis.n_minus[k])
        m["R2"][k, k] = p + q + 1.0
        if inside(p + 1, q):
            m["Q+"][basis.index(p + 1, q), k] = math.sqrt(p + 1)
        if inside(p, q - 1):
            m["Q+"][basis.index(p, q - 1), k] = math.sqrt(q)
        if inside(p + 2, q):
            m["Q+2"][basis.index(p + 2, q), k] = math.sqrt((p + 1) * (p + 2))
        if inside(p, q - 2):
            m["Q+2"][basis.index(p, q - 2), k] = math.sqrt(q * (q - 1))
        if inside(p + 1, q - 1):
            m["Q+2"][basis.index(p + 1, q - 1), k] = 2.0 * math.sqrt((p + 1) * q)
        if inside(p + 1, q + 1):
            i = basis.index(p + 1, q + 1)
            m["R2"][i, k] = m["R2"][k, i] = math.sqrt((p + 1) * (q + 1))
    return m


@pytest.mark.parametrize("cutoff", [0, 1, 2, 5, 12])
def test_ladder_operators_equal_the_entry_loop(cutoff):
    basis = build_basis(cutoff)
    ops = build_operators(basis)
    for label, ref in loop_reference(basis).items():
        assert ops[label].has_canonical_format
        assert ops[label].dtype == np.float64
        assert np.array_equal(ops[label].toarray(), ref), label


def test_x2_plus_y2_diagonal_counts_quanta():
    basis = build_basis(6)
    diag = build_operators(basis)["R2"].diagonal()
    n = basis.n_plus + basis.n_minus
    assert np.array_equal(diag, n + 1.0)


@pytest.mark.parametrize("cutoff", [2, 5, 10, 40])
def test_operator_identities_across_cutoffs(cutoff):
    basis = build_basis(cutoff)
    ops = build_operators(basis)
    assert (ops["R2"] - ops["R2"].T).nnz == 0
    # the reflection maps Q_+ to Q_- = Q_+^T, entry for entry, which is what
    # makes the C2' blocks of the Hamiltonian exact
    p = swap_permutation(basis)
    for label in ("Q+", "Q+2", "R2"):
        mirrored = (p @ ops[label] @ p.T).tocsr()
        assert (mirrored != ops[label].T).nnz == 0, label
    # Q_+ raises ell by exactly 1 and Q_+^2 by 2, and Q_+ changes the quanta by 1
    for label, charge in (("Q+", 1), ("Q+2", 2)):
        rows, cols = ops[label].nonzero()
        assert np.all(basis.ell[rows] - basis.ell[cols] == charge)
    n = basis.n_plus + basis.n_minus
    rows, cols = ops["Q+"].nonzero()
    assert set(np.abs(n[rows] - n[cols])) == ({1} if cutoff else set())
    # Q_+^2 is the square of Q_+ wherever the product does not leave the top shells
    q, q2 = ops["Q+"].toarray(), ops["Q+2"].toarray()
    low = n <= cutoff - 2
    assert np.abs((q @ q)[np.ix_(low, low)] - q2[np.ix_(low, low)]).max() < 1e-12


def test_c3_on_ground_state():
    # the circular states are the C3 eigenstates: the Cartesian rotation
    # exp(-i 2 pi/3 L) is diagonal in them, with phase exp(-i 2 pi ell / 3)
    for cutoff in (0, 3, 8):
        u = circular_states(cutoff)
        basis = build_basis(cutoff)
        assert np.abs(u.conj().T @ u - np.eye(basis.dim)).max() < 1e-12
        c3 = u.conj().T @ c3_rotation(cartesian_basis(cutoff)).toarray() @ u
        expected = np.exp(-2j * np.pi * basis.ell / 3)
        assert np.abs(c3 - np.diag(expected)).max() < 1e-12
        # the ground state is invariant
        assert abs(c3[0, 0] - 1.0) < 1e-15


def test_c2prime_flips_odd_ny():
    # the Cartesian reflection diag((-1)**n_y) is the swap |n_+, n_-> -> |n_-, n_+>,
    # and the circular operators are the Cartesian ones in the circular states
    for cutoff in (2, 6):
        u = circular_states(cutoff)
        basis = build_basis(cutoff)
        cart = cartesian_basis(cutoff)
        c2 = u.conj().T @ c2prime_reflection(cart).toarray() @ u
        assert np.abs(c2 - swap_permutation(basis).toarray()).max() < 1e-12
        ops, ref = build_operators(basis), cartesian_operators(cart)
        q_plus = ref["X"] + 1j * ref["Y"]
        q2_plus = ref["X2"] - ref["Y2"] + 2j * ref["XY"]
        for label, m in (("Q+", q_plus), ("Q+2", q2_plus), ("R2", ref["X2"] + ref["Y2"])):
            diff = np.abs(u.conj().T @ m.toarray() @ u - ops[label].toarray()).max()
            assert diff < 1e-12, label


def test_zero_point_invariant_under_truncation():
    # lowest eigenvalue of N + 1 is the same for every cutoff
    values = []
    for cutoff in (2, 5, 10, 40):
        basis = build_basis(cutoff)
        n = sp.diags((basis.n_plus + basis.n_minus).astype(float))
        values.append(min(n.diagonal()) + 1.0)
    assert values == [1.0] * 4
