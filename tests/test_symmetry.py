import numpy as np
import pytest

from dataclasses import replace

from spinvibronic import (
    AnalysisError,
    Couplings,
    SolverOptions,
    assemble,
    solve_lowest,
    solve_sector,
)
from spinvibronic.defaults import DEFECTS
from spinvibronic.hamiltonian import CHANNELS, SectorSpec, symmetry_adapted_states
from spinvibronic.oscillator import build_basis
from spinvibronic.symmetry import (
    CHARACTER_TOL,
    SymmetryOperators,
    analyze_states,
    character,
    electronic_composition,
    irrep_label,
    mean_displacement,
)

from conftest import cached_sector


def channel_vector(channel: str, basis, nx=0, ny=0):
    """|electronic channel> x |nx, ny> as a coefficient vector."""
    states = symmetry_adapted_states()
    vec = np.zeros(4 * basis.dim)
    k = basis.index(nx, ny)
    vec[4 * k : 4 * k + 4] = states[:, CHANNELS.index(channel)]
    return vec


@pytest.fixture(scope="module")
def ops6():
    return SymmetryOperators(build_basis(6))


def test_pure_channel_vectors_labeled(ops6):
    basis = ops6.basis
    for channel, expected in (("A1u", "A1u"), ("A2u", "A2u"), ("Eu1", "Eu"), ("Eu2", "Eu")):
        assert irrep_label(channel_vector(channel, basis), ops6) == expected


def test_uncoupled_ground_cluster_characters(ops6):
    basis = ops6.basis
    ground = np.column_stack([channel_vector(c, basis) for c in CHANNELS])
    chi3 = character(ground, ops6.r_c3)
    chi2 = character(ground, ops6.r_c2)
    # A1 + A2 + E decomposition: 1 + 1 + 2 cos(2 pi / 3) = 1 and 1 - 1 + 0 = 0
    assert chi3 == pytest.approx(1.0, abs=1e-10)
    assert chi2 == pytest.approx(0.0, abs=1e-10)


def test_accidental_a_pair_resolved(ops6):
    # uncoupled model: A1u and A2u are exactly degenerate, but they lie in
    # different C2' blocks, so each comes back pure and labelled from itself
    spec = SectorSpec(couplings=Couplings(0.0, 0.0, 0.0, 0.0, 70.0), lambda_corr=50.0, cutoff=6)
    states = analyze_states(solve_lowest(assemble(spec), k=2), ops6)
    assert sorted(s.irrep for s in states) == ["A1u", "A2u"]
    for s in states:
        assert s.composition[s.irrep] == pytest.approx(1.0, abs=1e-12)
    # a mix of the two, which no block can return, is not given either label
    theta = 0.7
    mixed = np.cos(theta) * channel_vector("A1u", ops6.basis) + np.sin(theta) * channel_vector(
        "A2u", ops6.basis
    )
    assert irrep_label(mixed, ops6) == "mixed"


@pytest.mark.parametrize("seed", range(6))
def test_composite_cluster_states_are_c2_eigenvectors(seed):
    # uncoupled model: A1u and A2u are exactly degenerate; on every ARPACK
    # start vector each labelled state must be a C2' eigenvector with the
    # character its label claims
    opts = SolverOptions(k=10, dense_threshold=0, seed=seed)
    sol = solve_sector(Couplings(0.0, 0.0, 0.0, 0.0, 70.0), 50.0, cutoff=4, opts=opts)
    labelled = [s for s in sol.states if s.irrep in ("A1u", "A2u")]
    assert sorted(s.irrep for s in labelled) == ["A1u", "A2u"]
    for s in labelled:
        c2 = character(s.coefficients[:, None], sol.ops.r_c2)
        expected = 1.0 if s.irrep == "A1u" else -1.0
        assert abs(c2 - expected) < CHARACTER_TOL


def test_character_trace_invariance(ops6):
    basis = ops6.basis
    pair = np.column_stack(
        [channel_vector("Eu1", basis), channel_vector("Eu2", basis)]
    )
    rng = np.random.default_rng(11)
    chi_ref = character(pair, ops6.r_c3)
    for _ in range(5):
        theta = rng.uniform(0, 2 * np.pi)
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        chi = character(pair @ rot, ops6.r_c3)
        assert chi == pytest.approx(chi_ref, abs=1e-10)


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
    sol = cached_sector("SnV0", 20)

    def parity(state):
        return round(character(state.coefficients[:, None], sol.ops.r_c2))

    doublet, energy = sol.eu_doublet()
    assert sorted(parity(s) for s in sol.states[1:3]) == [-1, 1]
    assert np.array_equal(doublet, np.column_stack([s.coefficients for s in sol.states[1:3]]))
    assert energy == sol.states[1].energy
    # keep one partner of each of the two lowest doublets, both of one parity
    eu = [s for s in sol.states if s.irrep == "Eu"]
    same = [s for s in eu if parity(s) == parity(eu[0])][:2]
    with pytest.raises(AnalysisError):
        replace(sol, states=[sol.states[0]] + same).eu_doublet()


@pytest.mark.parametrize("name", sorted(DEFECTS))
def test_low_clusters_cleanly_labeled(name):
    sol = cached_sector(name, 16)
    for s in sol.states[:6]:
        assert s.irrep in ("A1u", "A2u", "Eu")


def test_composition_pure_state(ops6):
    v = channel_vector("A2u", ops6.basis)
    comp = electronic_composition(v)
    assert comp["A2u"] == pytest.approx(1.0, abs=1e-12)
    assert comp["A1u"] == pytest.approx(0.0, abs=1e-12)
    assert comp["Eu"] == pytest.approx(0.0, abs=1e-12)


def test_snv0_lowest_states_mix_a2u_and_eu():
    sol = cached_sector("SnV0", 20)
    for s in sol.states[:3]:
        assert abs(s.composition["A2u"] - 0.5) < 0.15
        assert abs(s.composition["Eu"] - 0.5) < 0.15
        assert s.composition["A1u"] < 0.1


def test_composition_sums_to_one_and_rotation_invariant():
    sol = cached_sector("SnV0", 16)
    rng = np.random.default_rng(5)
    doublet, _ = sol.eu_doublet()
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
    for s in sol.states:
        assert sum(s.composition.values()) == pytest.approx(1.0, abs=1e-10)


def test_mean_displacement_reference_states(ops6):
    basis = ops6.basis
    sub, raw = mean_displacement(channel_vector("A1u", basis), ops6)
    assert raw == pytest.approx(1.0, abs=1e-12)
    assert sub == pytest.approx(0.0, abs=1e-6)
    sub, raw = mean_displacement(channel_vector("A2u", basis, nx=1, ny=0), ops6)
    assert raw == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_snv0_displacement_between_branch_minima():
    p = DEFECTS["SnV0"]
    sol = cached_sector("SnV0", 24)
    length = p.length_scale_angstrom()
    d_ang = sol.states[0].displacement * length
    assert 0.038 < d_ang < 0.154
