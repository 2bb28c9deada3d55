import math

import numpy as np
import pytest
import scipy.sparse as sp

from spinvibronic.oscillator import (
    BasisSizeError,
    build_basis,
    build_operators,
    c2prime_reflection,
    c3_rotation,
    position_operator,
    quadratic_operators,
)


@pytest.mark.parametrize("cutoff,dim", [(0, 1), (40, 861), (60, 1891)])
def test_basis_dimensions(cutoff, dim):
    basis = build_basis(cutoff)
    assert basis.dim == dim


def test_basis_enumeration_is_bijective_and_ordered():
    basis = build_basis(7)
    seen = set()
    prev = (-1, -1)
    for k in range(basis.dim):
        nx, ny = int(basis.n_x[k]), int(basis.n_y[k])
        assert basis.index(nx, ny) == k
        seen.add((nx, ny))
        key = (nx + ny, nx)
        assert key > prev
        prev = key
    assert len(seen) == basis.dim


def test_budget_rejected():
    with pytest.raises(BasisSizeError):
        build_basis(100, dim_budget=1000)


def test_position_matrix_elements():
    basis = build_basis(1)
    x = position_operator(basis, "x").toarray()
    assert x[basis.index(1, 0), basis.index(0, 0)] == pytest.approx(1 / math.sqrt(2))
    assert x[basis.index(0, 0), basis.index(0, 0)] == 0.0


def test_position_spectrum_matches_gauss_hermite_nodes():
    # the n_y = 0 chain of the truncated coordinate is the Jacobi matrix of
    # Gauss-Hermite quadrature, so its extreme eigenvalue IS the largest node
    # of H_{N+1}; that node sits about 6 percent below the sqrt(2N) scale
    from scipy.special import roots_hermite

    basis = build_basis(60)
    x = position_operator(basis, "x").toarray()
    evals = np.linalg.eigvalsh(x)
    nodes, _ = roots_hermite(61)
    assert abs(evals).max() == pytest.approx(abs(nodes).max(), abs=1e-8)
    assert abs(evals).max() == pytest.approx(math.sqrt(2 * 60), rel=0.07)


def test_quadratic_matrix_elements():
    basis = build_basis(4)
    ops = quadratic_operators(basis)
    i00 = basis.index(0, 0)
    assert ops["X2"].toarray()[i00, i00] == pytest.approx(0.5)
    assert ops["X2"].toarray()[basis.index(2, 0), i00] == pytest.approx(math.sqrt(2) / 2)
    assert ops["XY"].toarray()[basis.index(1, 1), i00] == pytest.approx(0.5)


def loop_reference(basis):
    """X, Y, X2, Y2 and XY entry by entry, with the ladder arithmetic of the operators."""
    dim = basis.dim
    m = {label: np.zeros((dim, dim)) for label in ("X", "Y", "X2", "Y2", "XY")}

    def put(label, to, frm, v):
        m[label][to, frm] = m[label][frm, to] = v

    for k in range(dim):
        nx, ny = int(basis.n_x[k]), int(basis.n_y[k])
        m["X2"][k, k], m["Y2"][k, k] = nx + 0.5, ny + 0.5
        if nx + ny < basis.cutoff:
            put("X", basis.index(nx + 1, ny), k, math.sqrt(nx + 1) / math.sqrt(2.0))
            put("Y", basis.index(nx, ny + 1), k, math.sqrt(ny + 1) / math.sqrt(2.0))
        if nx + ny <= basis.cutoff - 2:
            put("X2", basis.index(nx + 2, ny), k, math.sqrt((nx + 1) * (nx + 2)) / 2.0)
            put("Y2", basis.index(nx, ny + 2), k, math.sqrt((ny + 1) * (ny + 2)) / 2.0)
            put("XY", basis.index(nx + 1, ny + 1), k, math.sqrt((nx + 1) * (ny + 1)) / 2.0)
        if ny >= 1:
            put("XY", basis.index(nx + 1, ny - 1), k, math.sqrt((nx + 1) * ny) / 2.0)
    return m


@pytest.mark.parametrize("cutoff", [0, 1, 2, 5, 12])
def test_ladder_operators_equal_the_entry_loop(cutoff):
    basis = build_basis(cutoff)
    ops = {"X": position_operator(basis, "x"), "Y": position_operator(basis, "y")}
    ops.update(quadratic_operators(basis))
    for label, ref in loop_reference(basis).items():
        assert ops[label].has_canonical_format
        assert np.array_equal(ops[label].toarray(), ref), label


def test_x2_plus_y2_diagonal_counts_quanta():
    basis = build_basis(6)
    ops = quadratic_operators(basis)
    diag = (ops["X2"] + ops["Y2"]).diagonal()
    n = basis.n_x + basis.n_y
    assert np.allclose(diag, n + 1.0)


@pytest.mark.parametrize("cutoff", [2, 5, 10, 40])
def test_operator_identities_across_cutoffs(cutoff):
    basis = build_basis(cutoff)
    ops = build_operators(basis)
    # ladder-built operators are exactly symmetric
    for label in ("X", "Y", "X2", "Y2", "XY"):
        m = ops[label]
        assert (m - m.T).nnz == 0
    c3, c2 = ops["C3"], ops["C2prime"]
    eye = sp.identity(basis.dim)
    assert abs(c3 @ c3.T - eye).max() < 1e-12
    assert abs(c3 @ c3 @ c3 - eye).max() < 1e-12
    assert abs(c2 @ c2 - eye).max() < 1e-12
    # dihedral relation and quanta conservation
    assert abs(c2 @ c3 @ c2 - c3.T).max() < 1e-12
    n = sp.diags((basis.n_x + basis.n_y).astype(float))
    assert abs(c3 @ n - n @ c3).max() == 0.0
    # (X, Y) transforms as a vector rotated by +2*pi/3, which pins the sense
    c, s = math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)
    x, y = ops["X"], ops["Y"]
    assert abs(c3 @ x @ c3.T - (c * x + s * y)).max() < 1e-12
    assert abs(c3 @ y @ c3.T - (-s * x + c * y)).max() < 1e-12


def test_c3_on_ground_state():
    basis = build_basis(3)
    c3 = c3_rotation(basis)
    e0 = np.zeros(basis.dim)
    e0[basis.index(0, 0)] = 1.0
    assert np.allclose(c3 @ e0, e0)


def test_c2prime_flips_odd_ny():
    basis = build_basis(2)
    c2 = c2prime_reflection(basis)
    v = np.zeros(basis.dim)
    v[basis.index(0, 1)] = 1.0
    assert np.allclose(c2 @ v, -v)


def test_zero_point_invariant_under_truncation():
    # lowest eigenvalue of N + 1 is the same for every cutoff
    values = []
    for cutoff in (2, 5, 10, 40):
        basis = build_basis(cutoff)
        n = sp.diags((basis.n_x + basis.n_y).astype(float))
        values.append(min(n.diagonal()) + 1.0)
    assert values == [1.0] * 4
