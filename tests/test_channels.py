"""Channel models and entropic quantities against classical oracles."""

import math

import numpy as np
import pytest

from cqlab.channels import (
    CcqMac,
    CoupledMac,
    CqChannel,
    InterferenceChannel,
    LabeledCqState,
    fix_public_layer,
    holevo_information,
    partial_trace,
    verify_conditional_entropy_identities,
    von_neumann_entropy,
)
from cqlab.typicality import ClassicalDistribution

KET = [np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [0.0, 1.0]])]
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]])


def h2(p: float) -> float:
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def shannon(ps) -> float:
    return -sum(p * math.log2(p) for p in ps if p > 1e-14)


def bb84_channel() -> CqChannel:
    """Uniform pair of nonorthogonal conjugate-basis states."""
    dist = ClassicalDistribution(("0", "+"), (0.5, 0.5))
    return CqChannel(dist, {"0": KET[0], "+": PLUS})


def xor_mac() -> CcqMac:
    u = ClassicalDistribution((0, 1), (0.5, 0.5))
    states = {(x, y): KET[x ^ y] for x in (0, 1) for y in (0, 1)}
    return CcqMac(u, u, states)


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.real(np.trace(m))


def test_pure_state_entropy_is_zero():
    assert von_neumann_entropy(PLUS) == pytest.approx(0.0, abs=1e-12)


def test_maximally_mixed_qubit_entropy_is_one():
    assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)


def test_bb84_average_state_entropy_frozen():
    avg = bb84_channel().ensemble().average_state()
    # binary entropy of (2 + sqrt(2))/4, computed from the closed form
    assert von_neumann_entropy(avg) == pytest.approx(0.6008760366928562, abs=1e-12)
    assert von_neumann_entropy(avg) == pytest.approx(h2((2 + math.sqrt(2)) / 4), abs=1e-12)


def test_entropy_takes_one_eigendecomposition(monkeypatch):
    # the entropy reads the spectrum that the state check has taken, which
    # for an exactly Hermitian state is the raw matrix's spectrum bit for bit
    rng = np.random.default_rng(2)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / (2.0 * np.trace(rho).real)
    assert np.array_equal(rho, rho.conj().T)
    expected = -sum(p * math.log2(p) for p in np.linalg.eigvalsh(rho) if p > 1e-14)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    assert von_neumann_entropy(rho) == expected
    assert calls == [(4, 4)]


def test_entropy_rejects_significantly_negative_eigenvalues():
    with pytest.raises(ValueError, match="not positive semidefinite"):
        von_neumann_entropy(np.diag([1.2, -0.2]))


def test_entropy_rejects_an_operator_that_is_not_unit_trace():
    # entropy is defined on density operators; a trace-2 PSD operator is refused
    with pytest.raises(ValueError, match="trace is 2.0, expected 1"):
        von_neumann_entropy(np.eye(2))


def test_holevo_orthogonal_pure_uniform_is_one_bit():
    dist = ClassicalDistribution((0, 1), (0.5, 0.5))
    ch = CqChannel(dist, {0: KET[0], 1: KET[1]})
    assert holevo_information(ch.ensemble()) == pytest.approx(1.0, abs=1e-12)


def test_holevo_identical_states_is_zero():
    dist = ClassicalDistribution((0, 1), (0.5, 0.5))
    ch = CqChannel(dist, {0: PLUS, 1: PLUS})
    assert holevo_information(ch.ensemble()) == pytest.approx(0.0, abs=1e-12)


def test_holevo_bb84_frozen():
    # pure signal states, so the conditional entropy term vanishes
    assert holevo_information(bb84_channel().ensemble()) == pytest.approx(0.6008760366928562, abs=1e-12)
    assert bb84_channel().mutual_information() == pytest.approx(0.6008760366928562, abs=1e-12)


def test_conditional_mi_vanishes_when_output_reads_only_y():
    u = ClassicalDistribution((0, 1), (0.5, 0.5))
    mac = CcqMac(u, u, {(x, y): KET[y] for x in (0, 1) for y in (0, 1)})
    st = mac.labeled_state()
    assert st.mutual_information("I(X:B|Y)") == pytest.approx(0.0, abs=1e-12)


def test_conditional_mi_copy_channel_gives_input_entropy():
    px = ClassicalDistribution((0, 1), (0.3, 0.7))
    py = ClassicalDistribution((0, 1), (0.5, 0.5))
    mac = CcqMac(px, py, {(x, y): KET[x] for x in (0, 1) for y in (0, 1)})
    st = mac.labeled_state()
    assert st.mutual_information("X:B|Y") == pytest.approx(0.8812908992306927, abs=1e-12)
    assert st.mutual_information("X:B|Y") == pytest.approx(h2(0.3), abs=1e-12)


def test_conditional_mi_xor_channel():
    st = xor_mac().labeled_state()
    assert st.mutual_information("I(Y:B|X)") == pytest.approx(1.0, abs=1e-12)
    assert st.mutual_information("I(X:B|Y)") == pytest.approx(1.0, abs=1e-12)
    assert st.mutual_information("I(XY:B)") == pytest.approx(1.0, abs=1e-12)
    assert st.mutual_information("I(X:B)") == pytest.approx(0.0, abs=1e-12)


def oracle_mi(p_xyb: dict, a: tuple, c: tuple, e: tuple) -> float:
    """Shannon I(A:C|E) over index groups of the (x, y, b) key tuple."""

    def h(idx: tuple) -> float:
        marg: dict = {}
        for k, p in p_xyb.items():
            kk = tuple(k[i] for i in idx)
            marg[kk] = marg.get(kk, 0.0) + p
        return shannon(marg.values())

    return h(a + e) + h(c + e) - h(a + c + e) - (h(e) if e else 0.0)


def test_mi_matches_classical_oracle_on_diagonal_channels():
    rng = np.random.default_rng(7)
    for _ in range(20):
        px = rng.dirichlet((2.0, 2.0))
        py = rng.dirichlet((2.0, 2.0))
        diags = {(x, y): rng.dirichlet((1.5, 1.5, 1.5)) for x in (0, 1) for y in (0, 1)}
        mac = CcqMac(
            ClassicalDistribution((0, 1), tuple(px)),
            ClassicalDistribution((0, 1), tuple(py)),
            {k: np.diag(v) for k, v in diags.items()},
        )
        st = mac.labeled_state()
        joint = {
            (x, y, b): px[x] * py[y] * diags[(x, y)][b]
            for x in (0, 1)
            for y in (0, 1)
            for b in range(3)
        }
        assert st.mutual_information("X:B|Y") == pytest.approx(oracle_mi(joint, (0,), (2,), (1,)), abs=1e-9)
        assert st.mutual_information("Y:B|X") == pytest.approx(oracle_mi(joint, (1,), (2,), (0,)), abs=1e-9)
        assert st.mutual_information("XY:B") == pytest.approx(oracle_mi(joint, (0, 1), (2,), ()), abs=1e-9)
        assert st.mutual_information("X:B") == pytest.approx(oracle_mi(joint, (0,), (2,), ()), abs=1e-9)


def test_chain_rule_and_range_on_random_states():
    rng = np.random.default_rng(11)
    for _ in range(10):
        px = ClassicalDistribution((0, 1), tuple(rng.dirichlet((3.0, 3.0))))
        py = ClassicalDistribution((0, 1), tuple(rng.dirichlet((3.0, 3.0))))
        states = {(x, y): random_density(rng, 3) for x in (0, 1) for y in (0, 1)}
        st = CcqMac(px, py, states).labeled_state()
        i_xy = st.mutual_information("XY:B")
        i_y = st.mutual_information("Y:B")
        i_x_given_y = st.mutual_information("X:B|Y")
        assert i_xy == pytest.approx(i_y + i_x_given_y, abs=1e-9)
        for v in (i_xy, i_y, i_x_given_y):
            assert -1e-9 <= v <= math.log2(3) + 1e-9


def test_expression_parsing_multicharacter_names():
    dist = ClassicalDistribution((("q", "u", 0, "v"), ("q", "u", 1, "v")), (0.5, 0.5))
    st = LabeledCqState(("Q", "U", "X", "V"), dist, {s: KET[s[2]] for s in dist.support}, quantum_name="B1")
    assert st.mutual_information("XV:B1|UQ") == pytest.approx(1.0, abs=1e-12)
    assert st.mutual_information("X V:B1|U Q") == pytest.approx(1.0, abs=1e-12)
    assert st.mutual_information("X:B1") == pytest.approx(st.mutual_information("B1:X"), abs=1e-12)


def test_expression_errors():
    st = xor_mac().labeled_state()
    with pytest.raises(ValueError):
        st.mutual_information("X:B|W")
    with pytest.raises(ValueError):
        st.mutual_information("X:XB")
    with pytest.raises(ValueError):
        st.mutual_information("X:Y|B")
    with pytest.raises(ValueError):
        st.entropy(("W",))
    assert st.mutual_information("X:Y") == pytest.approx(0.0, abs=1e-12)


def test_partial_trace_of_product():
    rng = np.random.default_rng(3)
    a = random_density(rng, 2)
    b = random_density(rng, 3)
    full = np.kron(a, b)
    assert np.allclose(partial_trace(full, (2, 3), keep=0), a, atol=1e-12)
    assert np.allclose(partial_trace(full, (2, 3), keep=1), b, atol=1e-12)


def copy_cmg() -> CoupledMac:
    """Second sender copies the first; output reads only z."""
    u = ClassicalDistribution((0, 1), (0.5, 0.5))
    rows = {x: ClassicalDistribution((0, 1), (1.0, 0.0) if x == 0 else (0.0, 1.0)) for x in (0, 1)}
    states = {(z, y): KET[z] for z in (0, 1) for y in (0, 1)}
    return CoupledMac(u, rows, u, states)


def test_coupled_mac_marginals_and_identities():
    cmg = copy_cmg()
    assert cmg.z_prior().probs == pytest.approx((0.5, 0.5))
    xz = cmg.xz_dist()
    assert xz.prob((0, 0)) == pytest.approx(0.5)
    assert xz.prob((0, 1)) == pytest.approx(0.0)
    assert np.allclose(cmg.state_xy(0, 0), KET[0], atol=1e-12)
    cmg.verify_identities()
    st = cmg.labeled_state()
    h_b_z = st.entropy(("Z", "B")) - st.entropy(("Z",))
    h_b_xz = st.entropy(("X", "Z", "B")) - st.entropy(("X", "Z"))
    assert h_b_z == pytest.approx(h_b_xz, abs=1e-12)


def test_coupled_mac_random_identities_hold():
    rng = np.random.default_rng(21)
    x = ClassicalDistribution((0, 1), tuple(rng.dirichlet((2.0, 2.0))))
    y = ClassicalDistribution((0, 1), tuple(rng.dirichlet((2.0, 2.0))))
    rows = {xx: ClassicalDistribution((0, 1), tuple(rng.dirichlet((2.0, 2.0)))) for xx in (0, 1)}
    states = {(z, yy): random_density(rng, 2) for z in (0, 1) for yy in (0, 1)}
    cmg = CoupledMac(x, rows, y, states)
    cmg.verify_identities()
    verify_conditional_entropy_identities(cmg.labeled_state(), ("X", "Z", "Y"))


def non_interfering_ic() -> InterferenceChannel:
    q = ClassicalDistribution(("q0",), (1.0,))
    ux = {"q0": ClassicalDistribution((("u0", 0), ("u0", 1)), (0.5, 0.5))}
    vy = {"q0": ClassicalDistribution((("v0", 0), ("v0", 1)), (0.5, 0.5))}
    states = {(x, y): np.kron(KET[x], KET[y]) for x in (0, 1) for y in (0, 1)}
    return InterferenceChannel(q, ux, vy, (2, 2), states)


def test_ic_receiver_state_non_interfering():
    ic = non_interfering_ic()
    st1 = ic.receiver_state(1)
    assert st1.quantum_name == "B1"
    assert st1.names == ("Q", "U", "X", "V")
    for sym in st1.dist.support:
        assert np.allclose(st1.states[sym], KET[sym[2]], atol=1e-12)
    assert sum(st1.dist.probs) == pytest.approx(1.0, abs=1e-12)
    st2 = ic.receiver_state(2)
    for sym in st2.dist.support:
        assert np.allclose(st2.states[sym], KET[sym[2]], atol=1e-12)
    assert st1.mutual_information("X:B1|Q") == pytest.approx(1.0, abs=1e-12)
    assert st1.mutual_information("V:B1|X Q") == pytest.approx(0.0, abs=1e-12)


def test_fix_public_layer_marginalizes():
    q = ClassicalDistribution(("q0",), (1.0,))
    ux = {"q0": ClassicalDistribution((("u0", 0), ("u0", 1)), (0.5, 0.5))}
    vy = {"q0": ClassicalDistribution((("v0", 0), ("v1", 0), ("v1", 1)), (0.25, 0.25, 0.5))}
    states = {(x, y): np.kron(KET[x], KET[y]) for x in (0, 1) for y in (0, 1)}
    ic = InterferenceChannel(q, ux, vy, (2, 2), states)
    fixed = fix_public_layer(ic, "v")
    row = fixed.vy_given_q["q0"]
    assert row.symbols == (("*", 0), ("*", 1))
    assert row.probs == pytest.approx((0.5, 0.5))
    assert fixed.ux_given_q["q0"].symbols == ux["q0"].symbols
    with pytest.raises(ValueError):
        fix_public_layer(ic, "x")


def test_labeled_state_requires_states_on_support():
    dist = ClassicalDistribution(((0,), (1,)), (0.5, 0.5))
    with pytest.raises(ValueError):
        LabeledCqState(("X",), dist, {(0,): KET[0]})
