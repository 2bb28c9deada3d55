import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinvibronic import (
    Couplings,
    assemble,
    solve_lowest,
    build_correlation,
    build_pjt,
    op_on_g,
    op_on_u,
    pes_to_couplings,
    soc_operators,
)
from spinvibronic.defaults import DEFECTS
from spinvibronic.hamiltonian import (
    SIGMA_X,
    SIGMA_Z,
    SectorSpec,
    electronic_reflection,
    electronic_rotation,
    symmetry_adapted_states,
    total_reflection,
    total_rotation,
)
from spinvibronic.oscillator import build_basis, build_operators, c2prime_reflection

from conftest import SIGMA_Y, c2prime_gauge, gauged, physical_soc_sector


def snv0_spec(cutoff):
    p = DEFECTS["SnV0"]
    return SectorSpec(couplings=pes_to_couplings(p), lambda_corr=p.lambda_corr, cutoff=cutoff)


def soc_sector(spec, m_s, lam_u, lam_g):
    """The package's real m_s = +/-1 sector H0 + lam_u S_u + lam_g S_g of a spec."""
    assert m_s in (1, -1)
    basis = build_basis(spec.cutoff)
    s_u, s_g = soc_operators(basis)
    return assemble(spec, basis) + (lam_u * s_u + lam_g * s_g)


def physical_sector(spec, m_s, lam_u, lam_g):
    """The complex m_s sector H0 + m_s (lam_u sy(u) + lam_g sy(g)) / 2 of a spec."""
    return physical_soc_sector(assemble(spec), m_s, lam_u, lam_g)


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


def test_electronic_point_group_relations():
    r = electronic_rotation()
    c2 = electronic_reflection()
    assert np.allclose(r @ r @ r, np.eye(4), atol=1e-14)
    assert np.allclose(c2 @ c2, np.eye(4), atol=1e-15)
    assert np.allclose(c2 @ r @ c2, r.T, atol=1e-14)


def test_correlation_presets():
    assert np.allclose(build_correlation(0.0, "e-raised"), 0.0)
    w = build_correlation(98.2, "e-raised")
    assert np.allclose(np.sort(np.linalg.eigvalsh(w)), [0.0, 0.0, 98.2, 98.2])
    w2 = build_correlation(98.2, "a-split")
    assert np.allclose(np.sort(np.linalg.eigvalsh(w2)), [-98.2, 0.0, 0.0, 98.2])


def test_soc_matrix():
    s_u, s_g = (s.toarray() for s in soc_operators(build_basis(0)))
    assert s_u.dtype == s_g.dtype == np.float64
    assert np.allclose(np.sort(np.linalg.eigvalsh(5.0 * s_u)), [-2.5, -2.5, 2.5, 2.5])
    m = 4.0 * (s_u + s_g)
    assert np.allclose(np.sort(np.linalg.eigvalsh(m)), [-4.0, 0.0, 0.0, 4.0])
    # in the ground oscillator state they are sigma_y / 2 in the phase gauge
    d = np.diag(c2prime_gauge(build_basis(0), 1))
    assert np.array_equal(s_u, d.conj() @ (0.5 * op_on_u(SIGMA_Y)) @ d)
    assert np.array_equal(s_g, d.conj() @ (0.5 * op_on_g(SIGMA_Y)) @ d)
    # and the mode reflection carries them through the oscillator states
    basis3 = build_basis(3)
    s_u3, s_g3 = soc_operators(basis3)
    c2 = c2prime_reflection(basis3).toarray()
    assert np.array_equal(s_u3.toarray(), np.kron(c2, s_u))
    assert np.array_equal(s_g3.toarray(), np.kron(c2, s_g))


def test_pjt_zero_couplings_is_zero():
    basis = build_basis(3)
    spec = SectorSpec(
        couplings=Couplings(0.0, 0.0, 0.0, 0.0, 87.7), lambda_corr=0.0, cutoff=3
    )
    assert build_pjt(spec, basis).nnz == 0


def test_pjt_u_only_block_decouples():
    # with coupling on the u doublet only, the two g blocks have equal spectra
    basis = build_basis(4)
    spec = SectorSpec(
        couplings=Couplings(f_u=120.0, f_g=0.0, g_u=0.0, g_g=0.0, hbar_omega_e=87.7),
        lambda_corr=0.0,
        cutoff=4,
    )
    h = (build_pjt(spec, basis).toarray()
         + assemble(SectorSpec(couplings=Couplings(0, 0, 0, 0, 87.7), lambda_corr=0.0, cutoff=4),
                    basis).toarray())
    idx = np.arange(basis.dim * 4).reshape(basis.dim, 4)
    block_gx = np.ix_(idx[:, [0, 1]].ravel(), idx[:, [0, 1]].ravel())
    block_gy = np.ix_(idx[:, [2, 3]].ravel(), idx[:, [2, 3]].ravel())
    e_gx = np.linalg.eigvalsh(h[block_gx])
    e_gy = np.linalg.eigvalsh(h[block_gy])
    assert np.allclose(e_gx, e_gy, atol=1e-12)
    # and nothing couples the two blocks
    off = h[np.ix_(idx[:, [0, 1]].ravel(), idx[:, [2, 3]].ravel())]
    assert np.abs(off).max() == 0.0


def brute_force_dense(spec: SectorSpec, m_s=0, lam_u=0.0, lam_g=0.0):
    """Independent dense construction by explicit matrix elements."""
    basis = build_basis(spec.cutoff)
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
    h = assemble(spec)
    ref = brute_force_dense(spec)
    dim = 2 * (cutoff + 1) * (cutoff + 2)
    assert h.shape == (dim, dim)
    assert np.abs(h.toarray() - ref.real).max() < 1e-12
    e = np.linalg.eigvalsh(h.toarray())
    e_ref = np.linalg.eigvalsh(ref)
    assert abs(e[0] - e_ref[0]) < 1e-10


@pytest.mark.parametrize("cutoff", [0, 1, 2, 5])
def test_assembly_matches_brute_force_with_soc(cutoff):
    # the complex brute-force sector in the phase gauge D (D^* for m_s = -1)
    spec = snv0_spec(cutoff)
    for m_s in (1, -1):
        h = soc_sector(spec, m_s, 7.0, 3.0)
        assert h.dtype == np.float64
        d = c2prime_gauge(build_basis(cutoff), m_s)
        ref = d.conj()[:, None] * brute_force_dense(spec, m_s, 7.0, 3.0) * d
        assert np.abs(h.toarray() - ref).max() < 1e-12


def test_uncoupled_spectrum_degeneracies():
    spec = SectorSpec(
        couplings=Couplings(0.0, 0.0, 0.0, 0.0, 87.7), lambda_corr=0.0, cutoff=3
    )
    e = np.linalg.eigvalsh(assemble(spec).toarray())
    expected = sorted(87.7 * (n + 1) for n in range(4) for _ in range(4 * (n + 1)))
    assert np.allclose(e, expected, atol=1e-10)


def test_hermiticity_exact():
    for h in (soc_sector(snv0_spec(2), 1, 5.0, 2.0), physical_sector(snv0_spec(2), 1, 5.0, 2.0)):
        assert abs(h - h.conj().T).max() == 0.0


def test_assemble_is_real_and_soc_entries_are_disjoint():
    h0 = assemble(snv0_spec(3))
    assert h0.dtype == np.float64
    assert soc_sector(snv0_spec(3), -1, 5.0, 5.0).dtype == np.float64
    # no spin-orbit entry shares a position with H0, so adding the term
    # leaves every entry of H0 as it is
    s_u, s_g = soc_operators(build_basis(3))
    h0_pattern = set(zip(*h0.nonzero()))
    for s in (s_u, s_g):
        assert h0_pattern.isdisjoint(zip(*s.nonzero()))


def test_symmetry_commutators():
    basis = build_basis(10)
    ops = build_operators(basis)
    h = assemble(snv0_spec(10), basis)
    scale = np.abs(h).max()
    r3 = total_rotation(ops["C3"])
    r2 = total_reflection(ops["C2prime"])
    assert np.abs((h @ r3 - r3 @ h)).max() < 1e-10 * scale
    assert np.abs((h @ r2 - r2 @ h)).max() < 1e-10 * scale


def test_kramers_conjugation_identity():
    plus = physical_sector(snv0_spec(4), 1, 6.0, 2.5)
    minus = physical_sector(snv0_spec(4), -1, 6.0, 2.5)
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
    physical = {m_s: physical_sector(spec, m_s, *lam) for m_s in (+1, -1)}
    spectra = [solve_lowest(h, k=8).eigenvalues for h in physical.values()]
    assert np.abs(spectra[0] - spectra[1]).max() < 1e-9 * max(1.0, np.abs(spectra[0]).max())
    # exactly: both sectors are the one real matrix in the phase gauges D and D^*
    real = soc_sector(spec, 1, *lam).toarray()
    basis = build_basis(cutoff)
    for m_s, h in physical.items():
        assert np.array_equal(gauged(h, c2prime_gauge(basis, m_s)).toarray(), real)


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
    # H_N is the leading principal block of H_{N+1} (shell-major basis, exact
    # ladder elements), so by Cauchy interlacing the i-th eigenvalue at N+1
    # lies at or below the i-th at N
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
