import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from spinvibronic import (
    Couplings,
    adapted_basis,
    assemble,
    solve_lowest,
    op_on_g,
    op_on_u,
    pes_to_couplings,
    soc_operators,
)
from spinvibronic.defaults import DEFECTS
from spinvibronic.hamiltonian import (
    M_G,
    M_U,
    SectorSpec,
    circular_correlation,
)
from spinvibronic.oscillator import build_basis

from conftest import (
    ELECTRONIC_CIRCULAR,
    build_correlation,
    build_pjt,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    adapted_unitary,
    c2prime_adapted,
    c2prime_reflection,
    c3_rotation,
    cartesian_basis,
    cartesian_sector,
    connected_blocks,
    electronic_reflection,
    folded_sector,
    product_sector,
    electronic_rotation,
    symmetry_adapted_states,
    total_reflection,
    total_rotation,
)


def snv0_spec(cutoff):
    p = DEFECTS["SnV0"]
    return SectorSpec(couplings=pes_to_couplings(p), lambda_corr=p.lambda_corr, cutoff=cutoff)


def soc_sector(spec, m_s, lam_u, lam_g):
    """The package's real m_s = +/-1 sector H0 + lam_u S_u + lam_g S_g of a spec."""
    assert m_s in (1, -1)
    basis = adapted_basis(spec.cutoff)
    s_u, s_g = soc_operators(basis)
    return assemble(spec) + (lam_u * s_u + lam_g * s_g)


def in_adapted(h_cartesian, basis):
    """A Cartesian-basis matrix in the adapted basis, U^dag h U."""
    u = adapted_unitary(basis)
    return u.conj().T @ (h_cartesian @ u)


def test_operator_embeddings():
    assert np.allclose(np.diag(op_on_u(SIGMA_Z)), [1, -1, 1, -1])
    assert np.allclose(np.diag(op_on_g(SIGMA_Z)), [1, 1, -1, -1])
    # sigma_x on both doublets swaps |u_x g_x> with |u_y g_y>
    v = np.zeros(4)
    v[0] = 1.0
    out = op_on_u(SIGMA_X) @ op_on_g(SIGMA_X) @ v
    assert np.allclose(out, [0, 0, 0, 1])


def test_symmetry_states_orthogonal():
    s = symmetry_adapted_states()
    assert np.allclose(s.T @ s, np.eye(4), atol=1e-15)
    e = ELECTRONIC_CIRCULAR
    assert np.allclose(e.conj().T @ e, np.eye(4), atol=1e-15)


def test_electronic_point_group_relations():
    r = electronic_rotation()
    c2 = electronic_reflection()
    assert np.allclose(r @ r @ r, np.eye(4), atol=1e-14)
    assert np.allclose(c2 @ c2, np.eye(4), atol=1e-15)
    assert np.allclose(c2 @ r @ c2, r.T, atol=1e-14)
    # the circular states are rotation eigenstates with phase exp(-i 2 pi (m_u + m_g) / 3),
    # and C2' sends |s, t> to -|-s, -t>
    e = ELECTRONIC_CIRCULAR
    phases = np.exp(-2j * np.pi * (M_U + M_G) / 3)
    assert np.allclose(e.conj().T @ r @ e, np.diag(phases), atol=1e-15)
    assert np.allclose(e.conj().T @ c2 @ e, -np.fliplr(np.eye(4)), atol=1e-15)


def test_correlation_presets():
    assert np.allclose(build_correlation(0.0, "e-raised"), 0.0)
    w = build_correlation(98.2, "e-raised")
    assert np.allclose(np.sort(np.linalg.eigvalsh(w)), [0.0, 0.0, 98.2, 98.2])
    w2 = build_correlation(98.2, "a-split")
    assert np.allclose(np.sort(np.linalg.eigvalsh(w2)), [-98.2, 0.0, 0.0, 98.2])
    # the circular form is the same operator over the circular states
    e = ELECTRONIC_CIRCULAR
    for preset in ("e-raised", "a-split"):
        w = build_correlation(98.2, preset)
        assert np.abs(e.conj().T @ w @ e - circular_correlation(98.2, preset)).max() < 1e-13


def test_soc_matrix():
    s_u, s_g = (s.toarray() for s in soc_operators(adapted_basis(0)))
    assert s_u.dtype == s_g.dtype == np.float64
    assert np.allclose(np.sort(np.linalg.eigvalsh(5.0 * s_u)), [-2.5, -2.5, 2.5, 2.5])
    m = 4.0 * (s_u + s_g)
    assert np.allclose(np.sort(np.linalg.eigvalsh(m)), [-4.0, 0.0, 0.0, 4.0])
    # they are sigma_y / 2 on each doublet, carried through every oscillator
    # state; every entry is exactly +/- 1/2
    for cutoff in (0, 3):
        basis = adapted_basis(cutoff)
        eye = sp.identity(basis.osc.dim)
        for s, op in zip(soc_operators(basis), (op_on_u(SIGMA_Y), op_on_g(SIGMA_Y))):
            cart = sp.kron(eye, 0.5 * op)
            assert np.abs(in_adapted(cart, basis) - s.toarray()).max() < 1e-15
            assert set(np.abs(s.data)) == {0.5}


def test_pjt_zero_couplings_is_zero():
    basis = build_basis(3)
    spec = SectorSpec(
        couplings=Couplings(0.0, 0.0, 0.0, 0.0, 87.7), lambda_corr=0.0, cutoff=3
    )
    assert build_pjt(spec, basis).nnz == 0


def test_pjt_u_only_block_decouples():
    # with coupling on the u doublet only, the two g blocks (g = e+ and g = e-)
    # of the product basis have equal spectra
    basis = build_basis(4)
    spec = SectorSpec(
        couplings=Couplings(f_u=120.0, f_g=0.0, g_u=0.0, g_g=0.0, hbar_omega_e=87.7),
        lambda_corr=0.0,
        cutoff=4,
    )
    osc = np.kron(np.diag(87.7 * (basis.n_plus + basis.n_minus + 1.0)), np.eye(4))
    h = build_pjt(spec, basis).toarray() + osc
    idx = np.arange(basis.dim * 4).reshape(basis.dim, 4)
    block_gp = np.ix_(idx[:, [0, 1]].ravel(), idx[:, [0, 1]].ravel())
    block_gm = np.ix_(idx[:, [2, 3]].ravel(), idx[:, [2, 3]].ravel())
    e_gp = np.linalg.eigvalsh(h[block_gp])
    e_gm = np.linalg.eigvalsh(h[block_gm])
    assert np.allclose(e_gp, e_gm, atol=1e-12)
    # and nothing couples the two blocks
    off = h[np.ix_(idx[:, [0, 1]].ravel(), idx[:, [2, 3]].ravel())]
    assert np.abs(off).max() == 0.0


def brute_force_dense(spec: SectorSpec, m_s=0, lam_u=0.0, lam_g=0.0):
    """Independent dense Cartesian construction by explicit matrix elements."""
    basis = cartesian_basis(spec.cutoff)
    dim = 4 * basis.dim
    h = np.zeros((dim, dim), dtype=complex)
    c = spec.couplings
    k = c.hbar_omega_e
    w = build_correlation(spec.lambda_corr, spec.preset) + m_s * (
        0.5 * lam_u * op_on_u(SIGMA_Y) + 0.5 * lam_g * op_on_g(SIGMA_Y)
    )
    su_z, su_x = op_on_u(SIGMA_Z), op_on_u(SIGMA_X)
    sg_z, sg_x = op_on_g(SIGMA_Z), op_on_g(SIGMA_X)

    def a_elem(n_to, n_from):
        # <n_to| (a + a^dag)/sqrt(2) |n_from>
        if n_to == n_from + 1:
            return math.sqrt(n_from + 1) / math.sqrt(2)
        if n_to == n_from - 1:
            return math.sqrt(n_from) / math.sqrt(2)
        return 0.0

    def x2_elem(n_to, n_from):
        if n_to == n_from:
            return n_from + 0.5
        if n_to == n_from + 2:
            return math.sqrt((n_from + 1) * (n_from + 2)) / 2
        if n_to == n_from - 2:
            return math.sqrt(n_from * (n_from - 1)) / 2
        return 0.0

    for i in range(basis.dim):
        nxi, nyi = int(basis.n_x[i]), int(basis.n_y[i])
        for j in range(basis.dim):
            nxj, nyj = int(basis.n_x[j]), int(basis.n_y[j])
            x = a_elem(nxi, nxj) if nyi == nyj else 0.0
            y = a_elem(nyi, nyj) if nxi == nxj else 0.0
            x2 = x2_elem(nxi, nxj) if nyi == nyj else 0.0
            y2 = x2_elem(nyi, nyj) if nxi == nxj else 0.0
            xy = a_elem(nxi, nxj) * a_elem(nyi, nyj)
            osc = k * (nxj + nyj + 1) if i == j else 0.0
            elec = (
                osc * np.eye(4)
                + (w if i == j else 0.0)
                + (c.f_u * x) * su_z - (c.f_u * y) * su_x
                + (c.f_g * x) * sg_z - (c.f_g * y) * sg_x
                + c.g_u * ((x2 - y2) * su_z + 2 * xy * su_x)
                + c.g_g * ((x2 - y2) * sg_z + 2 * xy * sg_x)
            )
            h[i * 4 : i * 4 + 4, j * 4 : j * 4 + 4] = elec
    return h


@pytest.mark.parametrize("cutoff", [0, 1, 2, 5])
def test_assembly_matches_brute_force(cutoff):
    spec = snv0_spec(cutoff)
    basis = adapted_basis(cutoff)
    h = assemble(spec)
    ref = brute_force_dense(spec)
    dim = 2 * (cutoff + 1) * (cutoff + 2)
    assert h.shape == (dim, dim)
    assert np.abs(h.toarray() - in_adapted(ref, basis)).max() < 1e-12
    e = np.linalg.eigvalsh(h.toarray())
    e_ref = np.linalg.eigvalsh(ref)
    assert abs(e[0] - e_ref[0]) < 1e-10


@pytest.mark.parametrize("cutoff", [0, 1, 2, 5])
def test_assembly_matches_brute_force_with_soc(cutoff):
    # m_s = +1 is the complex brute-force sector in the adapted basis; m_s = -1
    # is the same matrix, which is the brute-force -1 sector in the C2'-image basis
    spec = snv0_spec(cutoff)
    basis = adapted_basis(cutoff)
    c2 = c2prime_adapted(basis).toarray()
    for m_s in (1, -1):
        h = soc_sector(spec, m_s, 7.0, 3.0)
        assert h.dtype == np.float64
        ref = in_adapted(brute_force_dense(spec, m_s, 7.0, 3.0), basis)
        if m_s == -1:
            ref = c2 @ ref @ c2.T
        assert np.abs(h.toarray() - ref).max() < 1e-12


def test_uncoupled_spectrum_degeneracies():
    spec = SectorSpec(
        couplings=Couplings(0.0, 0.0, 0.0, 0.0, 87.7), lambda_corr=0.0, cutoff=3
    )
    e = np.linalg.eigvalsh(assemble(spec).toarray())
    expected = sorted(87.7 * (n + 1) for n in range(4) for _ in range(4 * (n + 1)))
    assert np.allclose(e, expected, atol=1e-10)


def test_hermiticity_exact():
    physical = cartesian_sector(snv0_spec(2), 1, 5.0, 2.0)
    for h in (assemble(snv0_spec(2)), soc_sector(snv0_spec(2), 1, 5.0, 2.0), physical):
        assert abs(h - h.conj().T).max() == 0.0


def test_assemble_is_real_and_soc_entries_are_disjoint():
    basis = adapted_basis(3)
    h0 = assemble(snv0_spec(3))
    assert h0.dtype == np.float64
    assert soc_sector(snv0_spec(3), -1, 5.0, 5.0).dtype == np.float64
    # S_u and S_g are +/- 1/2 on the diagonal of the j = 1 and j = 2 blocks and
    # between the A1u and A2u partners of each j = 0 pair, where H0 has no
    # entry: there the spin-orbit term leaves every entry of H0 as it is
    (_, _, m1), _, (_, a1, a2), (_, _, end) = basis.blocks
    h0_pattern = set(zip(*h0.nonzero()))
    for s in soc_operators(basis):
        assert set(np.abs(s.data)) == {0.5}
        rows, cols = s.nonzero()
        single = rows < a1
        assert np.array_equal(rows[single], cols[single])
        pairs = set(zip(rows[~single], cols[~single]))
        assert pairs <= {(i, i + a2 - a1) for i in range(a1, a2)} | {
            (i + a2 - a1, i) for i in range(a1, a2)
        }
        assert h0_pattern.isdisjoint(pairs)
    assert 2 * m1 == a1 and end == h0.shape[0]


def test_symmetry_commutators():
    basis = adapted_basis(10)
    cart = cartesian_basis(10)
    h = assemble(snv0_spec(10)).toarray()
    scale = np.abs(h).max()
    r3 = in_adapted(total_rotation(c3_rotation(cart)), basis)
    r2 = in_adapted(total_reflection(c2prime_reflection(cart)), basis)
    assert np.abs((h @ r3 - r3 @ h)).max() < 1e-10 * scale
    assert np.abs((h @ r2 - r2 @ h)).max() < 1e-10 * scale


def test_kramers_conjugation_identity():
    plus = cartesian_sector(snv0_spec(4), 1, 6.0, 2.5)
    minus = cartesian_sector(snv0_spec(4), -1, 6.0, 2.5)
    assert np.abs(np.conj(plus.toarray()) - minus.toarray()).max() == 0.0
    e_plus = np.linalg.eigvalsh(plus.toarray())
    e_minus = np.linalg.eigvalsh(minus.toarray())
    assert np.abs(e_plus - e_minus).max() < 1e-10
    # explicit complex solves of both sectors agree on either path with the
    # one real sector, which is what lets the analysis take m_s = -1 from the
    # m_s = +1 solve
    real = soc_sector(snv0_spec(4), 1, 6.0, 2.5)
    for threshold in (real.shape[0], 0):
        solved = [solve_lowest(h, k=8, dense_threshold=threshold) for h in (plus, minus, real)]
        assert np.abs(solved[0].eigenvalues - solved[1].eigenvalues).max() < 1e-10
        assert np.abs(solved[0].eigenvalues - solved[2].eigenvalues).max() < 1e-10
        assert np.abs(solved[0].eigenvalues - e_plus[:8]).max() < 1e-10


@settings(max_examples=40, deadline=None)
@given(
    f=st.tuples(*[st.floats(-200.0, 200.0)] * 2),
    g=st.tuples(*[st.floats(-0.24, 0.24)] * 2),
    lambda_corr=st.floats(0.0, 150.0),
    lam=st.tuples(*[st.floats(0.0, 100.0)] * 2),
    preset=st.sampled_from(["e-raised", "a-split"]),
    cutoff=st.integers(1, 5),
)
def test_kramers_pairs_have_equal_spectra(f, g, lambda_corr, lam, preset, cutoff):
    # g is drawn in units of hbar_omega_e, inside |2(g_u +/- g_g)| < hbar_omega_e
    c = Couplings(f[0], f[1], 80.0 * g[0], 80.0 * g[1], 80.0)
    spec = SectorSpec(couplings=c, lambda_corr=lambda_corr, cutoff=cutoff, preset=preset)
    physical = {m_s: cartesian_sector(spec, m_s, *lam) for m_s in (+1, -1)}
    spectra = [solve_lowest(h, k=8).eigenvalues for h in physical.values()]
    assert np.abs(spectra[0] - spectra[1]).max() < 1e-9 * max(1.0, np.abs(spectra[0]).max())
    # both physical sectors are the package's matrices in the adapted basis
    basis = adapted_basis(cutoff)
    h0 = assemble(spec)
    s_u, s_g = soc_operators(basis)
    real = {m_s: h0 + m_s * (lam[0] * s_u + lam[1] * s_g) for m_s in (+1, -1)}
    scale = max(1.0, np.abs(h0).max())
    for m_s, h in physical.items():
        assert np.abs(in_adapted(h, basis) - real[m_s].toarray()).max() < 1e-12 * scale
    # exactly: C2' maps the one real matrix onto the -1 sector, entry for entry
    c2 = c2prime_adapted(basis)
    assert np.array_equal((c2 @ real[1] @ c2.T).toarray(), real[-1].toarray())
    assert (soc_sector(spec, -1, *lam) != real[1]).nnz == 0


@settings(max_examples=40, deadline=None)
@given(
    f=st.tuples(*[st.floats(-200.0, 200.0)] * 2),
    g=st.tuples(*[st.floats(-0.24, 0.24)] * 2),
    lambda_corr=st.floats(0.0, 150.0),
    lam=st.tuples(*[st.floats(0.0, 100.0)] * 2),
    preset=st.sampled_from(["e-raised", "a-split"]),
    m_s=st.sampled_from([0, 1]),
    cutoff=st.integers(0, 5),
)
def test_eigenvalues_do_not_increase_with_cutoff(f, g, lambda_corr, lam, preset, m_s, cutoff):
    # the adapted states of cutoff N are adapted states of N+1 (each one a
    # shell-N-or-lower product state or C2' pair, with exact ladder elements),
    # so H_N is a principal submatrix of H_{N+1} up to ordering, and by Cauchy
    # interlacing the i-th eigenvalue at N+1 lies at or below the i-th at N
    c = Couplings(f[0], f[1], 80.0 * g[0], 80.0 * g[1], 80.0)
    lows = []
    for n in (cutoff, cutoff + 1):
        spec = SectorSpec(couplings=c, lambda_corr=lambda_corr, cutoff=n, preset=preset)
        h = assemble(spec) if m_s == 0 else soc_sector(spec, m_s, *lam)
        lows.append(np.linalg.eigvalsh(h.toarray())[:8])
    e_n, e_next = lows[0], lows[1][: lows[0].size]
    assert np.all(e_next <= e_n + 1e-9 * np.maximum(1.0, np.abs(e_n)))


@pytest.mark.parametrize("cutoffs", [(10, 20)])
def test_row_occupancy_constant_in_cutoff(cutoffs):
    # interior rows carry a bounded number of nonzeros independent of cutoff
    counts = []
    for n in cutoffs:
        h = soc_sector(snv0_spec(n), 1, 5.0, 5.0)
        counts.append(int(np.diff(h.indptr).max()))
    assert counts[0] == counts[1]
    assert counts[0] <= 22


# --- the symmetry-adapted basis against the Cartesian oracle --------------------


@pytest.mark.parametrize("cutoff", [4, 8, 12])
def test_adapted_basis_vectors_are_symmetry_eigenvectors(cutoff):
    # every adapted vector is a total-C3 eigenvector with eigenvalue omega^j,
    # omega = exp(-2 pi i / 3) for the rotation sense of c3_rotation; C2' maps
    # the j = 1 block onto the j = 2 block and acts as +1 on A1u, -1 on A2u
    basis = adapted_basis(cutoff)
    cart = cartesian_basis(cutoff)
    u = adapted_unitary(basis)
    assert np.abs(u.conj().T @ u - np.eye(basis.dim)).max() < 1e-12
    omega = np.exp(-2j * np.pi / 3)
    (_, _, m1), _, (_, a1, a2), (_, _, end) = basis.blocks
    j = np.concatenate([np.ones(m1), 2 * np.ones(m1), np.zeros(end - a1)])
    r3 = total_rotation(c3_rotation(cart))
    assert np.abs(r3 @ u - u * omega**j).max() < 1e-12
    r2 = u.conj().T @ (total_reflection(c2prime_reflection(cart)) @ u)
    expected = np.zeros((end, end))
    expected[m1:a1, :m1] = expected[:m1, m1:a1] = -np.eye(m1)
    expected[a1:a2, a1:a2] = np.eye(a2 - a1)
    expected[a2:, a2:] = -np.eye(end - a2)
    assert np.abs(r2 - expected).max() < 1e-12
    assert np.array_equal(c2prime_adapted(basis).toarray(), expected)


@pytest.mark.parametrize("name", sorted(DEFECTS))
def test_spectra_match_the_cartesian_oracle(name):
    # the package's lowest-10 spectra against the Cartesian reference sector
    # (complex for m_s = +/-1), for both orders and m_s = 0, +1, -1
    from scipy.sparse.linalg import eigsh

    from spinvibronic import SolverOptions, couplings_for_order, solve_sector

    p = DEFECTS[name]
    opts = SolverOptions(k=10)
    for order in (1, 2):
        for cutoff in (8, 16, 28):
            sol = solve_sector(couplings_for_order(p, order), p.lambda_corr, cutoff, opts=opts)
            for m_s in (0, 1, -1):
                h = cartesian_sector(sol.spec, m_s, 40.0, 15.0)
                if cutoff < 28:
                    ref = np.linalg.eigvalsh(h.toarray())[:10]
                else:
                    v0 = np.ones(h.shape[0])
                    ref = np.sort(eigsh(h, 10, which="SA", tol=1e-14, v0=v0)[0])
                got = sol.energies if m_s == 0 else opts.solve(sol.soc_sector(40.0, 15.0)).eigenvalues
                assert np.abs(got - ref).max() < 1e-9, (order, cutoff, m_s)


def product_c2prime(osc):
    """C2' over the product basis: |n_+, n_-, s, t> -> -|n_-, n_+, -s, -t>."""
    e = np.tile(np.arange(4), osc.dim)
    swap = np.array([osc.index(int(b), int(a)) for a, b in zip(osc.n_plus, osc.n_minus)])
    target = 4 * np.repeat(swap, 4) + 3 - e
    return sp.csr_matrix((-np.ones(e.size), (target, np.arange(e.size))))


def ranges(blocks: list[np.ndarray]) -> tuple[tuple[int, int], ...]:
    """(start, stop) of each index set, which must be one contiguous range."""
    assert all(np.array_equal(b, np.arange(b[0], b[-1] + 1)) for b in blocks)
    return tuple((int(b[0]), int(b[-1]) + 1) for b in blocks)


@pytest.mark.parametrize("name", sorted(DEFECTS))
@pytest.mark.parametrize("cutoff", [0, 4, 12, 20, 28])
def test_declared_blocks_match_the_connected_components(name, cutoff):
    # the ranges the basis declares hold every stored entry, and are the
    # connected components of the sector; only the spin-orbit sector of the
    # linear model splits further (an A1u J range couples to its A2u twin, so
    # those components are not contiguous), and there each range is a union
    # of whole components
    from spinvibronic import couplings_for_order

    p = DEFECTS[name]
    basis = adapted_basis(cutoff)
    s_u, s_g = soc_operators(basis)
    for order in (1, 2):
        h0 = assemble(SectorSpec(couplings_for_order(p, order), p.lambda_corr, cutoff))
        for m_s, h in ((0, h0), (1, h0 + (40.0 * s_u + 15.0 * s_g))):
            declared = basis.sector_blocks(m_s, linear=order == 1)
            owner = np.repeat(np.arange(len(declared)), [hi - lo for lo, hi in declared])
            rows = np.repeat(np.arange(h.shape[0]), np.diff(h.indptr))
            assert np.array_equal(owner[rows], owner[h.indices])
            components = connected_blocks(h)
            if m_s == 1 and order == 1:
                assert all(np.unique(owner[c]).size == 1 for c in components)
                assert len(components) > len(declared) or cutoff == 0
            else:
                assert ranges(components) == declared


@pytest.mark.parametrize("name", sorted(DEFECTS))
def test_sectors_split_into_exact_blocks(name):
    p = DEFECTS[name]
    for cutoff in (12, 28):
        spec = SectorSpec(couplings=pes_to_couplings(p), lambda_corr=p.lambda_corr, cutoff=cutoff)
        basis = adapted_basis(cutoff)
        h0 = assemble(spec)
        s_u, s_g = soc_operators(basis)
        plus = h0 + (40.0 * s_u + 15.0 * s_g)
        assert h0.dtype == plus.dtype == np.float64
        # nothing is dropped but exact zeros: the product-basis H0 is
        # C2'-symmetric entry for entry, so every cross-block entry of the
        # fold is an exact zero, and no stored entry of H0 is zero
        assert np.all(h0.data != 0.0)
        osc = basis.osc
        product = product_sector(spec, osc)
        c2 = product_c2prime(osc)
        assert (c2 @ product @ c2.T != product).nnz == 0
        folded = (basis.fold @ product @ basis.fold.T).toarray()
        for i, (_, lo, hi) in enumerate(basis.blocks):
            for j, (_, lo2, hi2) in enumerate(basis.blocks):
                if i != j:
                    assert np.all(folded[lo:hi, lo2:hi2] == 0.0)
    # and against the oracle, no entry of the Cartesian sector lies outside the pattern
    spec = SectorSpec(couplings=pes_to_couplings(p), lambda_corr=p.lambda_corr, cutoff=12)
    basis = adapted_basis(12)
    ref = np.abs(in_adapted(cartesian_sector(spec), basis))
    outside = assemble(spec).toarray() == 0.0
    assert ref[outside].max() < 1e-12 * ref.max()


# --- the cached unit terms against the kron-and-fold oracle ---------------------


@pytest.mark.parametrize("name", sorted(DEFECTS))
def test_assemble_matches_the_kron_and_fold_oracle(name):
    # the weighted sum of cached unit terms has the oracle's pattern and
    # entries, the two Eu blocks stay equal array for array, and the linear
    # model splits into the oracle's blocks
    from spinvibronic import couplings_for_order

    p = DEFECTS[name]
    for order in (1, 2):
        for preset in ("e-raised", "a-split"):
            for cutoff in (0, 1, 4, 12, 20):
                spec = SectorSpec(couplings_for_order(p, order), p.lambda_corr, cutoff, preset)
                h, ref = assemble(spec), folded_sector(spec)
                assert np.array_equal(h.indptr, ref.indptr)
                assert np.array_equal(h.indices, ref.indices)
                assert np.abs(h.data - ref.data).max() <= 1e-12 * np.abs(ref.data).max()
                m1 = adapted_basis(cutoff).blocks[0][2]
                j1, j2 = h[:m1, :m1], h[m1 : 2 * m1, m1 : 2 * m1]
                for attr in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(j1, attr), getattr(j2, attr))
                if order == 1:
                    want = adapted_basis(cutoff).sector_blocks(0, linear=True)
                    assert ranges(connected_blocks(h)) == ranges(connected_blocks(ref)) == want


@settings(max_examples=30, deadline=None)
@given(
    cutoff=st.integers(0, 16),
    step=st.integers(1, 12),
    block=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_embedded_states_are_the_same_product_vectors(cutoff, step, block, seed):
    # a j = 1, j = 2, A1u or A2u state of one cutoff, placed by index_in in a
    # higher cutoff, is the same product-basis vector padded with zeros
    small, large = adapted_basis(cutoff), adapted_basis(cutoff + step)
    at = small.index_in(large)
    _, lo, hi = small.blocks[block]
    v = np.zeros(small.dim)
    v[lo:hi] = np.random.default_rng(seed).standard_normal(hi - lo)
    w = np.zeros(large.dim)
    w[at] = v
    product, padded = small.to_product(v), large.to_product(w)
    np.testing.assert_array_equal(padded[: product.size], product)
    assert not padded[product.size :].any()
    # every declared block, the J ranges included, lands inside one block of the higher cutoff
    for linear in (False, True):
        starts = [start for start, _ in large.sector_blocks(0, linear)]
        for start, stop in small.sector_blocks(0, linear):
            assert np.unique(np.searchsorted(starts, at[start:stop], side="right")).size == 1
    with pytest.raises(ValueError, match="does not nest"):
        large.index_in(small)


def test_solves_at_one_cutoff_share_the_basis_and_its_operators():
    from spinvibronic import SolverOptions, couplings_for_order, solve_sector

    p = DEFECTS["SnV0"]
    opts = SolverOptions(k=4)
    first, second = (
        solve_sector(couplings_for_order(p, order), p.lambda_corr, 7, opts=opts) for order in (1, 2)
    )
    assert first.basis is second.basis
    assert all(a is b for a, b in zip(soc_operators(first.basis), soc_operators(second.basis)))
    # each sector owns its matrix
    assert first.h0 is not second.h0
    assert not np.shares_memory(first.h0.data, second.h0.data)
    assert not np.shares_memory(first.h0.indices, second.h0.indices)
    first.h0.data[0] += 0.0


def test_cached_operators_are_read_only():
    basis = adapted_basis(3)
    ops = basis.operators
    arrays = [ops.indptr, ops.indices, *ops.units.values(), basis.osc.n_plus, basis.osc.n_minus]
    for m in (ops.s_u, ops.s_g, ops.r2, basis.fold):
        arrays += [m.data, m.indices, m.indptr]
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = 1
    # arithmetic on the cached operators makes new, writable matrices
    h = assemble(snv0_spec(3)) + 2.0 * ops.s_u
    h.data[0] += 0.0


def test_adapted_basis_cache_is_bounded():
    from spinvibronic.hamiltonian import ADAPTED_BASIS_CACHE

    adapted_basis.cache_clear()
    first = adapted_basis(0)
    assert adapted_basis(0) is first
    for cutoff in range(1, ADAPTED_BASIS_CACHE + 2):
        adapted_basis(cutoff)
    assert adapted_basis.cache_info().currsize == ADAPTED_BASIS_CACHE
    assert adapted_basis(0) is not first


def test_each_basis_build_logs_one_record(caplog):
    adapted_basis.cache_clear()
    with caplog.at_level("DEBUG", logger="spinvibronic"):
        for _ in range(2):
            assemble(snv0_spec(5))
        soc_operators(adapted_basis(5))
    records = [r.getMessage() for r in caplog.records if "adapted_basis build:" in r.getMessage()]
    assert len(records) == 1
    ops = adapted_basis(5).operators
    assert records[0].startswith(f"adapted_basis build: cutoff=5 dim=84 nnz={ops.indices.size} ")
    assert " seconds=" in records[0]
