import math

import numpy as np
import pytest

from dataclasses import replace

from spinvibronic import (
    AnalysisError,
    Couplings,
    SolverOptions,
    adapted_basis,
    assemble,
    solve_lowest,
    solve_sector,
)
from spinvibronic.defaults import DEFECTS
from spinvibronic.hamiltonian import SectorSpec
from spinvibronic.oscillator import build_operators
from spinvibronic.symmetry import (
    analyze_states,
    composition_table_rows,
    electronic_composition,
    mean_displacement,
)

from conftest import (
    adapted_unitary,
    c2prime_reflection,
    c3_rotation,
    cached_sector,
    cartesian_basis,
    total_reflection,
    total_rotation,
)

S = 1.0 / math.sqrt(2.0)
# electronic channels over the circular states |e+e+>, |e-e+>, |e+e->, |e-e->
CHANNELS = {
    "A1u": np.array([0.0, -S, S, 0.0]),
    "A2u": np.array([0.0, S, S, 0.0]),
    "Eu1": np.array([1.0, 0.0, 0.0, 0.0]),
    "Eu2": np.array([0.0, 0.0, 0.0, 1.0]),
}


def product_vector(channel: str, basis, n_plus=0, n_minus=0):
    """|electronic channel> x |n_plus, n_minus> over the product basis."""
    vec = np.zeros(4 * basis.osc.dim)
    k = basis.osc.index(n_plus, n_minus)
    vec[4 * k : 4 * k + 4] = CHANNELS[channel]
    return vec


def channel_vector(channel: str, basis, n_plus=0, n_minus=0):
    """The same state over the adapted basis; the +/-1 fold keeps exact zeros exact."""
    scale = np.where(np.arange(basis.dim) < basis.blocks[2][1], 1.0, S)
    return scale * (basis.fold @ product_vector(channel, basis, n_plus, n_minus))


def character(vectors: np.ndarray, op: np.ndarray) -> float:
    """Real part of the trace of op projected onto the columns of vectors."""
    return float(np.real(np.einsum("ij,ij->", vectors.conj(), op @ vectors)))


def point_group(basis):
    """(C3, C2') over the adapted basis, from the Cartesian operators."""
    cart = cartesian_basis(basis.osc.cutoff)
    u = adapted_unitary(basis)
    r3 = total_rotation(c3_rotation(cart))
    r2 = total_reflection(c2prime_reflection(cart))
    return u.conj().T @ (r3 @ u), u.conj().T @ (r2 @ u)


@pytest.fixture(scope="module")
def basis6():
    return adapted_basis(6)


def test_pure_channel_vectors_labeled(basis6):
    # |e+e+> has J = -1 (j = 2) and |e-e-> J = +1 (j = 1); each channel lies
    # wholly in the one block whose label it carries
    for channel, block, label in (("A1u", 2, "A1u"), ("A2u", 3, "A2u"), ("Eu1", 1, "Eu"),
                                  ("Eu2", 0, "Eu")):
        held = basis6.block_at(np.flatnonzero(channel_vector(channel, basis6)))
        assert set(held.tolist()) == {block}
        assert basis6.blocks[block][0] == label


def test_uncoupled_ground_cluster_characters(basis6):
    r3, r2 = point_group(basis6)
    ground = np.column_stack([channel_vector(c, basis6) for c in CHANNELS])
    chi3 = character(ground, r3)
    chi2 = character(ground, r2)
    # A1 + A2 + E decomposition: 1 + 1 + 2 cos(2 pi / 3) = 1 and 1 - 1 + 0 = 0
    assert chi3 == pytest.approx(1.0, abs=1e-10)
    assert chi2 == pytest.approx(0.0, abs=1e-10)


def test_accidental_a_pair_resolved(basis6):
    # uncoupled model: A1u and A2u are exactly degenerate, but they lie in
    # different blocks, so each comes back pure and labelled from its block
    spec = SectorSpec(couplings=Couplings(0.0, 0.0, 0.0, 0.0, 70.0), lambda_corr=50.0, cutoff=6)
    h = assemble(spec)
    states = analyze_states(solve_lowest(h, k=2, blocks=basis6.sector_blocks(0)), basis6)
    assert sorted((s.block, s.irrep) for s in states) == [(2, "A1u"), (3, "A2u")]
    for row in composition_table_rows(states, basis6, 1.0):
        assert row["p_" + row["irrep"].lower()] == pytest.approx(1.0, abs=1e-12)
    # a solve of the whole matrix, whose block spans all four, is not labelled
    with pytest.raises(ValueError, match="do not nest"):
        analyze_states(solve_lowest(h, k=2), basis6)


@pytest.mark.parametrize("seed", range(6))
def test_composite_cluster_states_are_c2_eigenvectors(seed):
    # uncoupled model: A1u and A2u are exactly degenerate; on every ARPACK
    # start vector each labelled state must be a C2' eigenvector with the
    # character its label claims
    opts = SolverOptions(k=10, dense_threshold=0, seed=seed)
    sol = solve_sector(Couplings(0.0, 0.0, 0.0, 0.0, 70.0), 50.0, cutoff=4, opts=opts)
    labelled = [s for s in sol.states if s.irrep in ("A1u", "A2u")]
    assert sorted(s.irrep for s in labelled) == ["A1u", "A2u"]
    _, r2 = point_group(sol.basis)
    for s in labelled:
        c2 = character(s.coefficients[:, None], r2)
        expected = 1.0 if s.irrep == "A1u" else -1.0
        assert abs(c2 - expected) < 1e-12


def test_character_trace_invariance(basis6):
    r3, _ = point_group(basis6)
    pair = np.column_stack(
        [channel_vector("Eu1", basis6), channel_vector("Eu2", basis6)]
    )
    rng = np.random.default_rng(11)
    chi_ref = character(pair, r3)
    for _ in range(5):
        theta = rng.uniform(0, 2 * np.pi)
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        chi = character(pair @ rot, r3)
        assert chi == pytest.approx(chi_ref, abs=1e-10)
    assert chi_ref == pytest.approx(-1.0, abs=1e-10)


def test_snv0_level_labels():
    sol = cached_sector("SnV0", 20)
    assert sol.states[0].irrep == "A2u"
    assert sol.states[1].irrep == "Eu"
    assert sol.states[2].irrep == "Eu"
    # the second level is a doublet: degenerate, and well above the first
    assert abs(sol.states[2].energy - sol.states[1].energy) < 1e-6
    assert sol.states[1].energy - sol.states[0].energy > 1.0


def test_eu_partner_cut_by_k_is_labelled():
    # the partner of the last doublet lies beyond k = 8; labelled from its own
    # vector it is still Eu
    sol = cached_sector("SnV0", 20)
    assert len(sol.states) == 8
    assert sol.states[7].irrep == "Eu"


def test_eu_doublet_requires_opposite_c2_parities():
    # the two partners of a doublet come from the j = 1 and j = 2 blocks,
    # which C2' maps onto each other
    sol = cached_sector("SnV0", 20)
    doublet, energy = sol.eu_doublet()
    assert [s.block for s in sol.states[1:3]] == [0, 1]
    assert np.array_equal(doublet, np.column_stack([s.coefficients for s in sol.states[1:3]]))
    assert energy == sol.states[1].energy
    _, r2 = point_group(sol.basis)
    assert abs(doublet[:, 1] @ (r2 @ doublet[:, 0])) == pytest.approx(1.0, abs=1e-12)
    # keep one partner of each of the two lowest doublets, both from one block
    eu = [s for s in sol.states if s.irrep == "Eu"]
    same = [s for s in eu if s.block == eu[0].block][:2]
    assert len(same) == 2
    with pytest.raises(AnalysisError):
        replace(sol, states=[sol.states[0]] + same).eu_doublet()


@pytest.mark.parametrize("name", sorted(DEFECTS))
def test_low_clusters_cleanly_labeled(name):
    sol = cached_sector(name, 16)
    for s in sol.states[:6]:
        assert s.irrep in ("A1u", "A2u", "Eu")


def test_composition_pure_state(basis6):
    v = basis6.to_product(channel_vector("A2u", basis6))
    comp = electronic_composition(v)
    assert comp["A2u"] == pytest.approx(1.0, abs=1e-12)
    assert comp["A1u"] == pytest.approx(0.0, abs=1e-12)
    assert comp["Eu"] == pytest.approx(0.0, abs=1e-12)


def test_snv0_lowest_states_mix_a2u_and_eu():
    sol = cached_sector("SnV0", 20)
    for row in composition_table_rows(sol.states[:3], sol.basis, 1.0):
        assert abs(row["p_a2u"] - 0.5) < 0.15
        assert abs(row["p_eu"] - 0.5) < 0.15
        assert row["p_a1u"] < 0.1


def test_composition_sums_to_one_and_rotation_invariant():
    sol = cached_sector("SnV0", 16)
    rng = np.random.default_rng(5)
    doublet = sol.basis.to_product(sol.eu_doublet()[0])
    base = [electronic_composition(doublet[:, i]) for i in range(2)]
    total = {k: base[0][k] + base[1][k] for k in base[0]}
    for _ in range(5):
        theta = rng.uniform(0, 2 * np.pi)
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        mixed = doublet @ rot
        comp = [electronic_composition(mixed[:, i]) for i in range(2)]
        for k in total:
            assert comp[0][k] + comp[1][k] == pytest.approx(total[k], abs=1e-10)
    for row in composition_table_rows(sol.states, sol.basis, 1.0):
        assert row["p_a1u"] + row["p_a2u"] + row["p_eu"] == pytest.approx(1.0, abs=1e-10)


def test_mean_displacement_reference_states(basis6):
    r2 = build_operators(basis6.osc)["R2"]
    sub, raw = mean_displacement(product_vector("A1u", basis6), r2)
    assert raw == pytest.approx(1.0, abs=1e-12)
    assert sub == pytest.approx(0.0, abs=1e-6)
    sub, raw = mean_displacement(product_vector("A2u", basis6, n_plus=1), r2)
    assert raw == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_snv0_displacement_between_branch_minima():
    p = DEFECTS["SnV0"]
    sol = cached_sector("SnV0", 24)
    row = composition_table_rows(sol.states, sol.basis, p.length_scale_angstrom())[0]
    d_ang = row["displacement_angstrom"]
    assert 0.038 < d_ang < 0.154


def test_order_one_degenerate_a_pair_is_labelled_from_its_blocks():
    # the linear model has an exactly degenerate A1u/A2u pair (SnV0, cutoff 20);
    # each partner comes back in its own J block, inside the A1u and the A2u
    # block, and is labelled from it, A1u first
    from spinvibronic import couplings_for_order

    p = DEFECTS["SnV0"]
    sol = solve_sector(couplings_for_order(p, 1), p.lambda_corr, 20, opts=SolverOptions(k=10))
    assert sol.result.ranges == sol.basis.sector_blocks(0, linear=True)
    assert len(sol.result.ranges) == 44
    pair = [i for i, s in enumerate(sol.states) if s.irrep in ("A1u", "A2u")][1:3]
    a1u, a2u = (sol.states[i] for i in pair)
    assert (a1u.irrep, a2u.irrep) == ("A1u", "A2u") and pair[1] == pair[0] + 1
    assert abs(a1u.energy - a2u.energy) < 1e-9
    assert [s.block for s in (a1u, a2u)] == [2, 3]
