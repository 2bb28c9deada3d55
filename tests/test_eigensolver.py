import logging

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from spinvibronic import (
    ConvergenceError,
    SolverError,
    adapted_basis,
    analysis,
    assemble,
    converge_observable,
    pes_to_couplings,
    soc_operators,
    solve_lowest,
)
import spinvibronic.eigensolver as eig
from spinvibronic.defaults import DEFECTS
from spinvibronic.analysis import SolverOptions, solve_sector
from spinvibronic.eigensolver import (
    DENSE_THRESHOLD_DEFAULT,
    WARM_START_MIN_DIM,
    lowest_per_block,
)
from spinvibronic.hamiltonian import SectorSpec
from spinvibronic.params import Couplings, couplings_for_order

from conftest import (
    adapted_unitary,
    c2prime_adapted,
    cached_sector,
    cartesian_sector,
    connected_blocks,
    lowest_per_block_lapack,
)

# a dense_threshold no block reaches: every solve goes to LAPACK
LAPACK_ONLY = 10**6


def sector_h(name, cutoff, m_s=0, lam=0.0):
    """The real m_s = +/-1 sector H0 + lam (S_u + S_g); m_s = 0 is H0."""
    p = DEFECTS[name]
    spec = SectorSpec(couplings=pes_to_couplings(p), lambda_corr=p.lambda_corr, cutoff=cutoff)
    basis = adapted_basis(cutoff)
    h0 = assemble(spec)
    if m_s == 0:
        return h0
    s_u, s_g = soc_operators(basis)
    return h0 + (lam * s_u + lam * s_g)


def snv0_h(cutoff, m_s=0, lam=0.0):
    return sector_h("SnV0", cutoff, m_s, lam)


def _dense(a):
    """The matrix of the operator that eigsh is handed, as a dense array."""
    return a @ np.eye(a.shape[1])


def test_diagonal_matrix():
    h = sp.csr_matrix(np.diag(np.arange(1.0, 101.0)))
    res = solve_lowest(h, k=3, dense_threshold=0)
    assert np.allclose(res.eigenvalues, [1.0, 2.0, 3.0], atol=1e-9)
    assert res.residual_norms.max() < 1e-8


def test_uncoupled_ground_state_fourfold():
    p = DEFECTS["SnV0"]
    spec = SectorSpec(
        couplings=Couplings(0.0, 0.0, 0.0, 0.0, p.hbar_omega_e), lambda_corr=0.0, cutoff=6
    )
    res = solve_lowest(assemble(spec), k=4)
    assert np.allclose(res.eigenvalues, p.hbar_omega_e, atol=1e-10)


def test_iterative_matches_dense_oracle():
    h = snv0_h(12)
    dense = solve_lowest(h, k=8, dense_threshold=LAPACK_ONLY)
    lanczos = solve_lowest(h, k=8, dense_threshold=0)
    assert np.abs(dense.eigenvalues - lanczos.eigenvalues).max() < 1e-8


def test_deterministic_given_seed():
    h = snv0_h(8)
    a = solve_lowest(h, k=5, dense_threshold=0, seed=3)
    b = solve_lowest(h, k=5, dense_threshold=0, seed=3)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_eigenvector_orthonormality_and_residuals():
    h = snv0_h(10)
    res = solve_lowest(h, k=6, dense_threshold=0)
    gram = res.eigenvectors.conj().T @ res.eigenvectors
    assert np.abs(gram - np.eye(6)).max() < 1e-10
    assert res.residual_norms.max() < 1e-10 * max(1.0, np.abs(res.eigenvalues).max())


def test_nonconvergence_raises(monkeypatch):
    import scipy.sparse.linalg

    h = snv0_h(10, m_s=1, lam=40.0)  # the first of three blocks fails

    def no_convergence(a, k, **kwargs):
        # partial pairs of the operator eigsh receives
        vals, vecs = scipy.linalg.eigh(_dense(a))
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", vals[:2], vecs[:, :2])

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    with pytest.raises(SolverError) as err:
        solve_lowest(h, k=6, dense_threshold=0, blocks=adapted_basis(10).sector_blocks(1))
    assert err.value.residuals is not None
    assert err.value.residuals.shape == (2,)
    assert err.value.residuals.max() < 1e-9


def test_residual_above_tol_raises(monkeypatch):
    import scipy.sparse.linalg

    # the first of three blocks fails; the pairs rule asks it for
    # ceil(6 / 3) + 1 = 3 pairs, so its last column is column 2
    h = snv0_h(10, m_s=1, lam=40.0)

    def perturbed(a, k, **kwargs):
        assert k == 3
        vals, vecs = scipy.linalg.eigh(_dense(a), subset_by_index=[0, k - 1])
        vecs[:, 0] = vecs[:, 0] + 1e-3 * vecs[:, k - 1]
        return vals, vecs

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", perturbed)
    with pytest.raises(SolverError) as err:
        solve_lowest(h, k=6, dense_threshold=0, blocks=adapted_basis(10).sector_blocks(1))
    res = err.value.residuals
    exact = solve_lowest(h, k=6).eigenvalues
    assert res[0] > 1e-3
    assert res[1:].max() < 1e-10 * max(1.0, np.abs(exact).max())


def test_k_near_dim_goes_dense():
    # ARPACK cannot return dim - 1 or dim pairs; LAPACK serves them
    h = snv0_h(1)
    res = solve_lowest(h, k=h.shape[0] - 1, dense_threshold=0)
    assert np.allclose(res.eigenvalues, np.linalg.eigvalsh(h.toarray())[:-1], atol=1e-10)


def test_k_larger_than_dim_rejected():
    h = sp.csr_matrix(np.eye(4))
    with pytest.raises(ValueError):
        solve_lowest(h, k=5)


def test_complex_hermitian_path(monkeypatch):
    # a complex input is solved as it is on both paths, block by block: D* h D
    # with generic phases D has the spectrum and the three blocks of h
    h = snv0_h(8, m_s=1, lam=40.0)
    d = sp.diags(np.exp(1j * np.random.default_rng(7).uniform(0.0, 2.0 * np.pi, h.shape[0])))
    a = (d.conj() @ h @ d).tocsr()
    expected = scipy.linalg.eigvalsh(h.toarray())[:6]
    blocks = adapted_basis(8).sector_blocks(1)
    seen = _spy(monkeypatch)
    dense = solve_lowest(a, k=6, dense_threshold=LAPACK_ONLY, blocks=blocks)
    lanczos = solve_lowest(a, k=6, dense_threshold=0, blocks=blocks)
    assert seen == [("dense", np.dtype(np.complex128))] * 3 + [("lanczos", np.dtype(np.complex128))] * 3
    assert np.abs(dense.eigenvalues - expected).max() < 1e-9
    assert np.abs(lanczos.eigenvalues - expected).max() < 1e-9


def test_variational_monotonicity_in_cutoff():
    lowest = [solve_lowest(snv0_h(n), k=1).eigenvalues[0] for n in (8, 12, 16, 20)]
    assert all(b <= a + 1e-12 for a, b in zip(lowest, lowest[1:]))


def test_snv0_cluster_structure():
    # a singlet, then a doublet whose partners come from the j = 1 and j = 2 blocks
    e = solve_lowest(snv0_h(16), k=6).eigenvalues
    assert e[1] - e[0] >= 1e-3
    assert e[2] - e[1] < 1e-3
    assert e[3] - e[2] >= 1e-3


@pytest.mark.parametrize("name", sorted(DEFECTS))
@pytest.mark.parametrize("cutoff", [8, 16, 28])
@pytest.mark.parametrize("m_s", [0, 1])
def test_blocks_reproduce_the_full_spectrum(name, cutoff, m_s):
    # m_s = 0 splits into the Eu (j = 1), Eu (j = 2), A1u and A2u blocks,
    # m_s = +1 into j = 1, j = 2 and j = 0: exactly the ranges the adapted
    # basis declares, and the block spectra together are the spectrum of the
    # whole matrix
    h = sector_h(name, cutoff, m_s=m_s, lam=40.0)
    ranges = adapted_basis(cutoff).sector_blocks(m_s)
    blocks = connected_blocks(h)
    assert [(b[0], b[-1] + 1) for b in blocks] == list(ranges)
    assert np.array_equal(np.concatenate(blocks), np.arange(h.shape[0]))

    blocked = np.concatenate([scipy.linalg.eigvalsh(h[lo:hi, lo:hi].toarray()) for lo, hi in ranges])
    full = scipy.linalg.eigvalsh(h.toarray())
    assert np.abs(np.sort(blocked) - full).max() < 1e-9
    # solved on the declared ranges, each pair lies in the block it names
    res = solve_lowest(h, k=10, dense_threshold=LAPACK_ONLY, blocks=ranges)
    assert np.abs(res.eigenvalues - full[:10]).max() < 1e-9
    assert res.ranges == ranges
    for v, b in zip(res.eigenvectors.T, res.block):
        lo, hi = ranges[b]
        assert not v[:lo].any() and not v[hi:].any()


SWEEP_OPTS = SolverOptions(k=8)


def _sweep(monkeypatch, readings, **sweep):
    """converge_observable with readings as the only registered observables.

    readings maps each name to a function of the solve's cutoff alone; the
    first leads each trace record.  The order-2 SiV0 solves at cutoffs 2-12
    take milliseconds.
    """
    table = {name: lambda sol, f=f: f(sol.spec.cutoff) for name, f in readings.items()}
    monkeypatch.setattr(analysis, "OBSERVABLES", table)
    return converge_observable(DEFECTS["SiV0"], 2, opts=SWEEP_OPTS, **sweep)


def test_converge_cutoff_trivial_case(monkeypatch):
    # cutoff-independent observable converges at the starting cutoff, whose
    # full solve is the one handed back
    res = _sweep(monkeypatch, {"e": lambda n: 87.7}, rel_tol=0.01, n_start=4, n_step=2, n_max=12)
    assert res.cutoff == 4
    assert res.history == [(4, {"e": 87.7}), (6, {"e": 87.7})]
    assert res.solution.spec.cutoff == 4 and res.solution.result.k == SWEEP_OPTS.k


def test_converge_cutoff_failure_carries_history(monkeypatch):
    with pytest.raises(ConvergenceError) as err:
        _sweep(monkeypatch, {"n": float}, rel_tol=1e-6, n_start=2, n_step=2, n_max=8)
    assert len(err.value.history) == 4


@pytest.mark.parametrize("n_max", [10, 23])
def test_converge_cutoff_needs_two_cutoffs(monkeypatch, n_max):
    # below n_start + n_step the sweep could try at most one cutoff and
    # never compare two; that is rejected before any solve
    def solve_sector(*args, **kwargs):
        raise AssertionError("the sweep solved a sector")

    monkeypatch.setattr(analysis, "solve_sector", solve_sector)
    with pytest.raises(ValueError, match=rf"n_max={n_max}.*n_start=16.*n_step=8"):
        _sweep(monkeypatch, {"e": float}, n_start=16, n_step=8, n_max=n_max)


@pytest.mark.parametrize("rel_tol", [0.0, -0.01, float("nan")])
def test_converge_cutoff_rejects_a_tolerance_it_cannot_meet(monkeypatch, rel_tol):
    # no drift settles against a tolerance that is not positive, so the sweep
    # could only solve every cutoff to n_max and fail; that is rejected
    # before any solve, as SolverConfig rejects such a converge_rel_tol
    def no_solve(*args, **kwargs):
        raise AssertionError("the sweep solved a sector")

    monkeypatch.setattr(analysis, "solve_sector", no_solve)
    monkeypatch.setattr(analysis, "block_minima", no_solve)
    with pytest.raises(ValueError, match=f"rel_tol must be positive \\(got {rel_tol}\\)"):
        converge_observable(DEFECTS["SnV0"], 2, rel_tol=rel_tol)


def test_converge_cutoff_holds_every_named_value(monkeypatch):
    # every value must settle; a sweep that settles past n_start solves the
    # reported cutoff in full
    both = {4: {"a": 10.0, "b": 1.0}, 6: {"a": 10.0, "b": 2.0}, 8: {"a": 10.0, "b": 2.001}}
    readings = {name: lambda n, name=name: both[n][name] for name in ("a", "b")}
    res = _sweep(monkeypatch, readings, rel_tol=0.01, n_start=4, n_step=2, n_max=8)
    assert (res.cutoff, res.history) == (6, list(both.items()))
    assert res.solution.spec.cutoff == 6 and res.solution.result.k == SWEEP_OPTS.k
    with pytest.raises(ConvergenceError, match=r"unsettled: \['b'\]"):
        _sweep(monkeypatch, readings, rel_tol=1e-6, n_start=4, n_step=2, n_max=8)


@pytest.mark.parametrize("offset", [0.0, 1e3])
def test_converge_cutoff_holds_e0_in_mev(monkeypatch, offset):
    # an energy has no zero of its own: e0's drift is held to gamma's
    # tolerance at the same two cutoffs (0.1 meV here), so moving every e0 by
    # 1e3 meV, which would loosen a tolerance relative to e0 a hundredfold,
    # moves no verdict
    e0 = {4: 0.0, 6: 0.5, 8: 0.55, 10: 1.0}
    readings = {"gamma": lambda n: 10.0, "e0": lambda n: e0[n] + offset}
    res = _sweep(monkeypatch, readings, rel_tol=0.01, n_start=4, n_step=2, n_max=10)
    assert res.cutoff == 6
    e0.update({8: 1.0, 10: 1.5})
    with pytest.raises(ConvergenceError, match=r"unsettled: \['e0'\]"):
        _sweep(monkeypatch, readings, rel_tol=0.01, n_start=4, n_step=2, n_max=10)


def test_converge_cutoff_logs_one_record_per_cutoff(monkeypatch, caplog):
    values = {4: 100.0, 6: 90.0, 8: 89.5}
    with caplog.at_level(logging.DEBUG, logger="spinvibronic"):
        res = _sweep(
            monkeypatch, {"e": values.__getitem__}, rel_tol=0.01, n_start=4, n_step=2, n_max=12
        )
    assert res.cutoff == 6
    messages = [r.getMessage() for r in caplog.records if r.name == "spinvibronic"]
    assert [m for m in messages if m.startswith("converge_cutoff:")] == [
        "converge_cutoff: n=4 value=100 drift=nan tol=nan",
        "converge_cutoff: n=6 value=90 drift=1.000e+01 tol=1.000e+00",
        "converge_cutoff: n=8 value=89.5 drift=5.000e-01 tol=9.000e-01",
    ]


def test_comparative_convergence_histories():
    # stronger dimensionless coupling needs more basis: the truncation error
    # at a small cutoff is larger for SiV0 (branch-1 coupling 2.96) than for
    # PbV0 (2.20), and both settle within the sweep
    from spinvibronic import SolverOptions
    from spinvibronic.analysis import converge_observable
    from spinvibronic.defaults import DEFECTS

    opts = SolverOptions(k=4)
    errors = {}
    for name in ("SiV0", "PbV0"):
        res = converge_observable(
            DEFECTS[name], 2, rel_tol=1e-7, n_start=8, n_step=4, n_max=44, opts=opts
        )
        e0 = {n: values["e0"] for n, values in res.history}
        errors[name] = abs(e0[8] - e0[res.cutoff])
        print(f"{name}: converged at N={res.cutoff}; history {res.history}")
    assert DEFECTS["SiV0"].coupling_strength > DEFECTS["PbV0"].coupling_strength
    assert errors["SiV0"] > errors["PbV0"]


@pytest.mark.parametrize("name", ["PbV0", "SnV0"])
@pytest.mark.parametrize("cutoff", [20, 28])
def test_arpack_matches_lapack_oracle_ms0_labels(name, cutoff):
    p = DEFECTS[name]
    c = pes_to_couplings(p)
    opts = SolverOptions(k=10, dense_threshold=LAPACK_ONLY)
    dense = solve_sector(c, p.lambda_corr, cutoff, opts=opts)
    dense_labels = [s.irrep for s in dense.states]
    assert set(dense_labels) <= {"A1u", "A2u", "Eu"}
    for seed in range(5):
        opts = SolverOptions(k=10, dense_threshold=0, seed=seed)
        sol = solve_sector(c, p.lambda_corr, cutoff, opts=opts)
        assert np.abs(sol.energies - dense.energies).max() < 1e-9
        assert [s.irrep for s in sol.states] == dense_labels
        # the lowest Eu doublet comes back with both partners
        sol.eu_doublet()  # raises unless the first two Eu states are C2' partners
        energies = [s.energy for s in sol.states if s.irrep == "Eu"][:2]
        assert abs(energies[1] - energies[0]) < 1e-9


@pytest.mark.parametrize("name", ["PbV0", "SnV0"])
@pytest.mark.parametrize("cutoff", [20, 28])
def test_arpack_matches_lapack_oracle_ms_plus_one(name, cutoff):
    # the sector is real; test_complex_hermitian_path covers complex input
    h = sector_h(name, cutoff, m_s=1, lam=40.0)
    assert h.dtype == np.float64
    dense = solve_lowest(h, k=10, dense_threshold=LAPACK_ONLY)
    for seed in range(5):
        res = solve_lowest(h, k=10, dense_threshold=0, seed=seed)
        assert np.abs(res.eigenvalues - dense.eigenvalues).max() < 1e-9
        # same eigenspaces: each ARPACK vector lies in the span of its LAPACK partner
        overlap = np.abs(dense.eigenvectors.conj().T @ res.eigenvectors) ** 2
        assert np.allclose(overlap.sum(axis=0), 1.0, atol=1e-8)


@pytest.mark.parametrize("name", ["SnV0", "PbV0", "SiV0"])
def test_arpack_records_count_the_products_and_keep_plain_eigsh_bits(monkeypatch, caplog, name):
    # the cutoff-36 j = 1 block of the m_s = 0 sector (dim 937): cold ARPACK at
    # k = 4 from the seeded start, then warm at k = 1 from its own lowest vector
    # perturbed; each record's matvecs is the count of a wrapper round the
    # operator eigsh is handed, the vectors are a plain eigsh's on the matrix
    # and the eigenvalues their Rayleigh quotients
    import scipy.sparse.linalg

    _, lo, hi = adapted_basis(36).blocks[0]
    hb = sector_h(name, 36)[lo:hi, lo:hi]
    eigsh, counts = scipy.sparse.linalg.eigsh, []

    def counting(a, *args, **kwargs):
        calls = []

        def matvec(x):
            calls.append(1)
            return a.matvec(x)

        op = scipy.sparse.linalg.LinearOperator(a.shape, matvec=matvec, dtype=a.dtype)
        out = eigsh(op, *args, **kwargs)
        counts.append(len(calls))
        return out

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counting)
    with caplog.at_level(logging.DEBUG, logger="spinvibronic"):
        cold = solve_lowest(hb, k=4, dense_threshold=0)
        start = cold.eigenvectors[:, 0] + 1e-3 * cold.eigenvectors[:, 1]
        warm = lowest_per_block(hb, [(0, hb.shape[0])], [start])
    messages = [r.getMessage() for r in caplog.records if r.name == "spinvibronic"]
    assert "dim=937 dtype=float64 path=lanczos k=4 " in messages[0]
    assert "dim=937 dtype=float64 path=lanczos k=1 " in messages[1]
    assert [int(m.rsplit(" matvecs=", 1)[1]) for m in messages] == counts
    assert min(counts) > 1
    monkeypatch.undo()
    v0 = np.random.default_rng(0).standard_normal(hb.shape[0])
    for res, k, v in ((cold, 4, v0), (warm, 1, start)):
        vals, vecs = eigsh(hb, k, which="SA", v0=v, tol=eig.RESIDUAL_TOL)
        vecs = vecs[:, np.argsort(vals)]
        np.testing.assert_array_equal(res.eigenvectors, vecs)
        np.testing.assert_array_equal(res.eigenvalues, eig._rayleigh(hb, vecs))


@pytest.mark.parametrize("cutoff", [20, 36])
@pytest.mark.parametrize("name", sorted(DEFECTS))
def test_lapack_and_arpack_give_the_same_eigenvalue_bits(name, cutoff):
    # every block of the m_s = 0 and m_s = +1 sectors by LAPACK, and then by
    # cold ARPACK: each eigenvalue is the Rayleigh quotient of its vector,
    # rounded once, so the two routes agree bit for bit
    blocks = adapted_basis(cutoff).sector_blocks
    for m_s in (0, 1):
        h = sector_h(name, cutoff, m_s, lam=40.0)
        dense = solve_lowest(h, 10, dense_threshold=LAPACK_ONLY, blocks=blocks(m_s))
        arpack = solve_lowest(h, 10, dense_threshold=0, blocks=blocks(m_s))
        np.testing.assert_array_equal(arpack.block, dense.block)
        np.testing.assert_array_equal(arpack.eigenvalues, dense.eigenvalues)


def test_a_long_double_no_wider_than_a_double_raises(monkeypatch):
    # the Rayleigh quotient would round twice and keep route-dependent bits
    monkeypatch.setattr(eig, "LONGDOUBLE_NMANT", 52)
    with pytest.raises(SolverError, match="long double has 52"):
        solve_lowest(snv0_h(4), k=2)


def _spy(monkeypatch):
    """Record (path, dtype) of every matrix handed to LAPACK eigh or ARPACK eigsh."""
    import scipy.sparse.linalg

    seen = []
    eigh, eigsh = scipy.linalg.eigh, scipy.sparse.linalg.eigsh

    def spy_eigh(a, *args, **kwargs):
        seen.append(("dense", a.dtype))
        return eigh(a, *args, **kwargs)

    def spy_eigsh(a, *args, **kwargs):
        seen.append(("lanczos", a.dtype))
        return eigsh(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", spy_eigh)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy_eigsh)
    return seen


@pytest.mark.parametrize("name", sorted(DEFECTS))
@pytest.mark.parametrize("cutoff", [4, 12, 20])
@pytest.mark.parametrize("m_s", [1, -1])
def test_real_gauge_keeps_the_complex_spectrum(name, cutoff, m_s):
    # the package's real m_s sector is the physical complex one in the adapted
    # basis U (in its C2' image for m_s = -1); so LAPACK on the complex matrix
    # is the spectral oracle, and U r is an eigenvector of it
    sol = cached_sector(name, cutoff)
    h = cartesian_sector(sol.spec, m_s, 40.0, 15.0)
    assert h.dtype == complex
    u = adapted_unitary(sol.basis)
    if m_s == -1:
        u = u @ c2prime_adapted(sol.basis).toarray().T
    real = sol.soc_sector(40.0, 15.0)
    assert real.dtype == np.float64
    scale = np.abs(real).max()
    assert np.abs(u.conj().T @ (h @ u) - real.toarray()).max() < 1e-12 * scale

    exact = scipy.linalg.eigvalsh(h.toarray())[:10]
    for threshold in (LAPACK_ONLY, 0):
        res = solve_lowest(real, k=10, dense_threshold=threshold)
        assert np.abs(res.eigenvalues - exact).max() < 1e-9
        vecs, vals = u @ res.eigenvectors, res.eigenvalues
        residuals = np.linalg.norm(h @ vecs - vecs * vals, axis=0)
        assert residuals.max() < 1e-10 * max(1.0, np.abs(vals).max())
        # U is unitary, so the reported residuals of the real solve are the
        # residuals of U r in the complex sector
        assert np.allclose(residuals, res.residual_norms, rtol=0, atol=1e-12)


@pytest.mark.parametrize("method", ["dense", "lanczos"])
def test_every_package_sector_reaches_the_solver_real(monkeypatch, method):
    opts = SolverOptions(k=10, dense_threshold=LAPACK_ONLY if method == "dense" else 0)
    sectors = []
    for name in sorted(DEFECTS):
        p = DEFECTS[name]
        sol = solve_sector(pes_to_couplings(p), p.lambda_corr, 12, opts=opts)
        sectors += [(sol.h0, sol.basis.sector_blocks(0)),
                    (sol.soc_sector(40.0, 15.0), sol.basis.sector_blocks(1))]
    assert all(h.dtype == np.float64 for h, _ in sectors)
    seen = _spy(monkeypatch)
    for h, blocks in sectors:
        opts.solve(h, blocks)
    # four blocks per m_s = 0 sector, of which the two equal Eu blocks are
    # solved once, and three in the one matrix of the m_s = +/-1 sectors
    assert seen == [(method, np.dtype(np.float64))] * (4 * (3 + 3))


def _tridiagonal(n=40, seed=0):
    rng = np.random.default_rng(seed)
    off = rng.standard_normal(n - 1)
    return np.diag(rng.standard_normal(n)) + np.diag(off, 1) + np.diag(off, -1)


@pytest.mark.parametrize(
    "entry",
    [
        (4, 5, 0.3 + 0.3j),  # neither real nor imaginary, the one link of two real chains
        (0, 2, 0.3j),  # imaginary, closing a cycle of real entries
    ],
)
@pytest.mark.parametrize("method", ["dense", "lanczos"])
def test_complex_block_without_real_gauge(monkeypatch, entry, method):
    # a complex block reaches LAPACK or ARPACK as it is
    i, j, v = entry
    a = _tridiagonal().astype(complex)
    a[i, j], a[j, i] = v, np.conj(v)
    h = sp.csr_matrix(a)
    seen = _spy(monkeypatch)
    res = solve_lowest(h, k=4, dense_threshold=LAPACK_ONLY if method == "dense" else 0)
    assert seen == [(method, np.dtype(np.complex128))]
    assert np.abs(res.eigenvalues - np.linalg.eigvalsh(a)[:4]).max() < 1e-9
    residuals = np.linalg.norm(h @ res.eigenvectors - res.eigenvectors * res.eigenvalues, axis=0)
    assert residuals.max() < 1e-10 * max(1.0, np.abs(res.eigenvalues).max())


@pytest.mark.parametrize("method, threshold", [("dense", LAPACK_ONLY), ("lanczos", 0)])
def test_equal_blocks_are_solved_once(monkeypatch, method, threshold):
    a = _tridiagonal(20)
    h = sp.block_diag([a, a], format="csr")
    seen = _spy(monkeypatch)
    res = solve_lowest(h, k=6, dense_threshold=threshold, blocks=[(0, 20), (20, 40)])
    assert seen == [(method, np.dtype(np.float64))]
    # equal eigenvalues merge stably: even columns from the first block, odd from the second
    assert list(res.block) == [0, 1] * 3
    first, second = res.eigenvectors[:, 0::2], res.eigenvectors[:, 1::2]
    assert np.array_equal(res.eigenvalues[0::2], res.eigenvalues[1::2])
    assert np.array_equal(res.residual_norms[0::2], res.residual_norms[1::2])
    assert np.array_equal(second[20:], first[:20])
    assert not first[20:].any() and not second[:20].any()
    assert np.abs(res.eigenvalues[0::2] - np.linalg.eigvalsh(a)[:3]).max() < 1e-9


def test_blocks_one_ulp_apart_are_both_solved(monkeypatch):
    a = _tridiagonal(20)
    b = a.copy()
    b[3, 3] = np.nextafter(b[3, 3], np.inf)
    h = sp.block_diag([a, b], format="csr")
    seen = _spy(monkeypatch)
    res = solve_lowest(h, k=6, blocks=[(0, 20), (20, 40)])
    assert seen == [("dense", np.dtype(np.float64))] * 2
    expected = np.sort(np.concatenate([np.linalg.eigvalsh(a), np.linalg.eigvalsh(b)]))[:6]
    assert np.abs(res.eigenvalues - expected).max() < 1e-9


def test_only_blocks_of_equal_dim_and_nnz_are_compared(monkeypatch, caplog):
    # the J ranges of the linear model: dozens of blocks, most of distinct dim or nnz
    p = DEFECTS["SnV0"]
    spec = SectorSpec(couplings=couplings_for_order(p, 1), lambda_corr=p.lambda_corr, cutoff=16)
    h, blocks = assemble(spec), adapted_basis(16).sector_blocks(0, linear=True)
    parts = [h[lo:hi, lo:hi] for lo, hi in blocks]
    # every block equal to an earlier one, by comparing it with all of them
    twins = [next((j for j in range(b) if eig._same_csr(parts[j], parts[b])), None)
             for b in range(len(parts))]
    compared = []
    same_csr = eig._same_csr

    def spy(a, b):
        compared.append(((a.shape[0], a.nnz), (b.shape[0], b.nnz)))
        return same_csr(a, b)

    monkeypatch.setattr(eig, "_same_csr", spy)
    with caplog.at_level(logging.DEBUG, logger="spinvibronic"):
        solve_lowest(h, k=10, blocks=blocks)
    assert compared and all(a == b for a, b in compared)
    assert len(compared) < len(blocks) * (len(blocks) - 1) // 4
    messages = [r.getMessage() for r in caplog.records if r.name == "spinvibronic"]
    # one record per block, then one per block solved again at k
    reused = [int(m.rsplit("reused_from=", 1)[1]) if "reused_from=" in m else None
              for m in messages[:len(blocks)]]
    assert reused == twins and sum(t is not None for t in twins) > 0
    assert all(" k=10 " in m for m in messages[len(blocks):])


def _merged_separately(ranges, parts, k):
    """(block, eigenvalues, eigenvectors, residuals) of separate block solves merged as solve_lowest merges."""
    vals = np.concatenate([p.eigenvalues for p in parts])
    keep = np.argsort(vals, kind="stable")[:k]
    starts = np.cumsum([0] + [p.k for p in parts])
    owner = np.searchsorted(starts, keep, side="right") - 1
    vecs = np.zeros((ranges[-1][1], k))
    res = np.zeros(k)
    for col, (i, b) in enumerate(zip(keep, owner)):
        lo, hi = ranges[b]
        vecs[lo:hi, col] = parts[b].eigenvectors[:, i - starts[b]]
        res[col] = parts[b].residual_norms[i - starts[b]]
    return owner, vals[keep], vecs, res


@pytest.mark.parametrize("name", sorted(DEFECTS))
@pytest.mark.parametrize("cutoff", [8, 16, 28])
@pytest.mark.parametrize("threshold", [DENSE_THRESHOLD_DEFAULT, 0])
def test_reused_blocks_equal_separate_block_solves(monkeypatch, name, cutoff, threshold):
    # each block of the m_s = 0 sector solved on its own, at the count the
    # block loop asks it for, and merged as solve_lowest merges: the reused Eu
    # twin must give the very pairs its own solve gives.  Every block, by
    # LAPACK or cold ARPACK, is asked for ceil(k / 4) + 1 pairs, and solved
    # again at k where all of them were kept
    h, k = sector_h(name, cutoff), 10
    ranges = adapted_basis(cutoff).sector_blocks(0)
    asked = [min(-(-k // len(ranges)) + 1, hi - lo) for lo, hi in ranges]
    parts = [solve_lowest(h[lo:hi, lo:hi], n, dense_threshold=threshold)
             for n, (lo, hi) in zip(asked, ranges)]
    owner, *_ = _merged_separately(ranges, parts, k)
    again = [b for b, p in enumerate(parts) if p.k < min(k, ranges[b][1] - ranges[b][0])
             and np.count_nonzero(owner == b) == p.k]
    for b in again:
        lo, hi = ranges[b]
        parts[b] = solve_lowest(h[lo:hi, lo:hi], k, dense_threshold=threshold)
    owner, vals, vecs, res = _merged_separately(ranges, parts, k)

    seen = _spy(monkeypatch)
    whole = solve_lowest(h, k, dense_threshold=threshold, blocks=ranges)
    # blocks 0 and 1, the Eu twins, are solved again together, once
    assert len(seen) == len(ranges) - 1 + len({min(b, 1) for b in again})
    assert np.array_equal(whole.block, owner)
    assert np.array_equal(whole.eigenvalues, vals)
    assert np.array_equal(whole.eigenvectors, vecs)
    assert np.array_equal(whole.residual_norms, res)


def test_cold_arpack_block_whose_pairs_are_all_kept_is_solved_again_at_k(caplog):
    # SnV0 m_s = 0 at cutoff 20, every block by cold ARPACK at k = 20: each is
    # first asked for ceil(20 / 4) + 1 = 6 pairs, and all six of the first Eu
    # block's (and of its twin's) are kept, so it is solved again at k; the
    # lowest 20 hold seven of its pairs
    h, k = snv0_h(20), 20
    blocks = adapted_basis(20).sector_blocks(0)
    oracle = solve_lowest(h, k, dense_threshold=LAPACK_ONLY, blocks=blocks)
    with caplog.at_level(logging.DEBUG, logger="spinvibronic"):
        res = solve_lowest(h, k, dense_threshold=0, blocks=blocks)
    messages = [r.getMessage() for r in caplog.records if r.name == "spinvibronic"]
    assert len(messages) == 4 + 1
    assert "dim=308 dtype=float64 path=lanczos k=6 " in messages[0]
    assert "dim=308 dtype=float64 path=reused k=6 " in messages[1]
    assert all("dim=154 dtype=float64 path=lanczos k=6 " in m for m in messages[2:4])
    assert "dim=308 dtype=float64 path=lanczos k=20 " in messages[4]
    assert np.count_nonzero(res.block == 0) == 7
    np.testing.assert_array_equal(res.block, oracle.block)
    bound = 1e-10 * np.abs(oracle.eigenvalues).max()
    np.testing.assert_allclose(res.eigenvalues, oracle.eigenvalues, rtol=0, atol=bound)
    assert np.all(np.abs(np.sum(res.eigenvectors * oracle.eigenvectors, axis=0)) > 1 - 1e-9)


def test_block_solves_are_logged(caplog):
    h = snv0_h(8, m_s=1, lam=40.0)
    basis = adapted_basis(8)
    with caplog.at_level(logging.DEBUG, logger="spinvibronic"):
        solve_lowest(h, k=4, blocks=basis.sector_blocks(1))
        solve_lowest(snv0_h(8), k=4, dense_threshold=0, blocks=basis.sector_blocks(0))
    messages = [r.getMessage() for r in caplog.records if r.name == "spinvibronic"]
    assert len(messages) == 3 + 4 + 1
    # each LAPACK block of the m_s = +1 sector is asked for ceil(4 / 3) + 1 = 3
    # pairs, and none keeps all three
    assert all("dim=60 dtype=float64 path=dense k=3" in m for m in messages[:3])
    # the m_s = 0 Eu blocks are the same matrix: the second reuses the first.
    # Each cold ARPACK block is asked for ceil(4 / 4) + 1 = 2 pairs; both of
    # the first Eu block's are kept, so it is solved again at k = 4
    assert "dim=60 dtype=float64 path=lanczos k=2" in messages[3]
    assert "dim=60 dtype=float64 path=reused k=2" in messages[4]
    assert all("dim=30 dtype=float64 path=lanczos k=2" in m for m in messages[5:7])
    assert "dim=60 dtype=float64 path=lanczos k=4" in messages[7]
    fields = [dict(item.split("=") for item in m.split(": ", 1)[1].split()) for m in messages]
    for f in fields:
        assert {"seconds", "cpu_seconds", "nnz", "residual_max", "bound"} <= set(f)
        assert float(f["cpu_seconds"]) >= 0.0 and int(f["nnz"]) > 0
        assert float(f["residual_max"]) <= float(f["bound"])
    # a reused block names the block it copied and reports that block's residuals
    assert fields[4]["reused_from"] == "0"
    for key in ("nnz", "residual_max", "bound"):
        assert fields[4][key] == fields[3][key]


def test_lowest_per_block_matches_lapack_on_a_started_eu_block(monkeypatch, caplog):
    # the j = 1 block of an m_s = +1 sector, started from its m_s = 0 partner
    basis = adapted_basis(20)
    _, lo, hi = basis.blocks[0]
    hb = sector_h("SnV0", 20, m_s=1, lam=20.0)[lo:hi, lo:hi]
    assert hi - lo == 308 > WARM_START_MIN_DIM
    v0 = scipy.linalg.eigh(snv0_h(20)[lo:hi, lo:hi].toarray(), subset_by_index=[0, 0])[1][:, 0]
    vals, vecs = scipy.linalg.eigh(hb.toarray(), subset_by_index=[0, 0])
    seen = _spy(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="spinvibronic"):
        pair = lowest_per_block(hb, [(0, hi - lo)], [v0])
    assert seen == [("lanczos", np.dtype(np.float64))]
    assert pair.k == 1 and abs(pair.eigenvalues[0] - vals[0]) < 1e-10
    assert abs(vecs[:, 0] @ pair.eigenvectors[:, 0]) ** 2 == pytest.approx(1.0, abs=1e-10)
    assert pair.residual_norms[0] <= 1e-10 * max(1.0, abs(pair.eigenvalues[0]))
    (message,) = [r.getMessage() for r in caplog.records if r.name == "spinvibronic"]
    assert "dim=308 dtype=float64 path=lanczos k=1 " in message


def test_lowest_per_block_routes_records_and_reuses_each_block(caplog):
    # SnV0 m_s = 0 at cutoff 20: j blocks of 308, A1u and A2u blocks of 154
    h = snv0_h(20)
    blocks = adapted_basis(20).sector_blocks(0)
    oracle = lowest_per_block_lapack(h, blocks)
    column = np.argsort(oracle.block)  # the oracle pair of each block
    lowest = [oracle.eigenvectors[lo:hi, i] for (lo, hi), i in zip(blocks, column)]
    assert blocks[0][1] - blocks[0][0] > WARM_START_MIN_DIM >= blocks[2][1] - blocks[2][0]
    with caplog.at_level(logging.DEBUG, logger="spinvibronic"):
        res = lowest_per_block(h, blocks, [lowest[0], lowest[1], lowest[2], None])
    messages = [r.getMessage() for r in caplog.records if r.name == "spinvibronic"]
    # a started j block goes to ARPACK, its twin reuses it whatever its own
    # start, and the small A blocks go to LAPACK with or without a start
    assert len(messages) == 4
    assert "dim=308 dtype=float64 path=lanczos k=1 " in messages[0]
    assert "dim=308 dtype=float64 path=reused k=1 " in messages[1]
    assert all("dim=154 dtype=float64 path=dense k=1 " in m for m in messages[2:])
    assert res.ranges == blocks and res.k == 4
    np.testing.assert_array_equal(res.block, oracle.block)
    np.testing.assert_allclose(res.eigenvalues, oracle.eigenvalues, rtol=0, atol=1e-9)
    for i, b in enumerate(res.block):
        lo, hi = blocks[b]
        assert abs(res.eigenvectors[lo:hi, i] @ lowest[b]) == pytest.approx(1.0, abs=1e-9)
        assert not np.delete(res.eigenvectors[:, i], np.arange(lo, hi)).any()
    with pytest.raises(ValueError, match="3 start vectors for 4 blocks"):
        lowest_per_block(h, blocks, [None] * 3)
    with pytest.raises(ValueError, match="tile h"):
        lowest_per_block(h, [(0, 10), (11, h.shape[0])], [None, None])


def test_lowest_per_block_sends_a_started_dim_2_block_to_lapack(monkeypatch, caplog):
    # ARPACK cannot serve k = 1 at dim 2, whatever the start and the dim bounds
    monkeypatch.setattr(eig, "WARM_START_MIN_DIM", 0)
    h = sp.csr_matrix(np.array([[1.0, 0.5], [0.5, 2.0]]))
    seen = _spy(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="spinvibronic"):
        pair = lowest_per_block(h, [(0, 2)], [np.ones(2)], dense_threshold=0)
    assert seen == [("dense", np.dtype(np.float64))]
    assert pair.eigenvalues[0] == pytest.approx(np.linalg.eigvalsh(h.toarray())[0], abs=1e-12)
    (message,) = [r.getMessage() for r in caplog.records if r.name == "spinvibronic"]
    assert "dim=2 dtype=float64 path=dense k=1 " in message


def test_lowest_per_block_residual_above_tol_raises(monkeypatch):
    import scipy.sparse.linalg

    # a started j block above WARM_START_MIN_DIM goes to ARPACK, whose pair is checked
    _, lo, hi = adapted_basis(20).blocks[0]
    h = snv0_h(20, m_s=1, lam=40.0)[lo:hi, lo:hi]
    assert h.shape[0] > WARM_START_MIN_DIM

    def perturbed(a, k, **kwargs):
        vals, vecs = scipy.linalg.eigh(_dense(a), subset_by_index=[0, 1])
        return vals[:1], vecs[:, :1] + 1e-3 * vecs[:, 1:]

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", perturbed)
    with pytest.raises(SolverError) as err:
        lowest_per_block(h, [(0, h.shape[0])], [np.ones(h.shape[0])])
    assert err.value.residuals[0] > 1e-4


def test_ranges_that_cut_a_coupled_matrix_are_rejected():
    # the chain couples rows 9 and 10: its entries are never dropped silently
    h = sp.csr_matrix(_tridiagonal(20))
    with pytest.raises(ValueError, match=r"stored entry \(9, 10\) lies outside the block \(0, 10\)"):
        solve_lowest(h, k=2, blocks=[(0, 10), (10, 20)])


@pytest.mark.parametrize("blocks", [[(0, 10), (11, 20)], [(0, 20), (20, 30)], [(0, 0), (0, 20)]])
def test_ranges_that_do_not_tile_the_matrix_are_rejected(blocks):
    h = sp.csr_matrix(np.diag(np.arange(20.0)))
    with pytest.raises(ValueError, match="tile"):
        solve_lowest(h, k=2, blocks=blocks)


def test_block_records_cost_nothing_when_debug_is_off(monkeypatch, caplog):
    # the record's arguments are not even formatted unless DEBUG is enabled
    calls = []
    monkeypatch.setattr(eig.log, "debug", lambda *a, **k: calls.append(a))
    with caplog.at_level(logging.INFO, logger="spinvibronic"):
        solve_lowest(snv0_h(4), k=2)
    assert calls == []

