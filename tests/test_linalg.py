"""Operator-core tests.

Expected numbers are frozen from hand derivations (noted inline) before the
implementation was trusted, so these act as oracles for the linear algebra
layer.
"""

import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cqlab.linalg
from cqlab.linalg import (
    DIM_CAP,
    HERMITIAN_RTOL,
    DensityOperator,
    DimensionCapError,
    Projector,
    _fix_phases,
    _kron,
    _product_columns,
    hermitian_eig,
    operator_norm,
    orthonormal_basis,
    psd_leq,
    require_hermitian,
    require_projector,
    require_state,
    tensor_product,
    trace_distance,
)

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
KETP = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def proj(v):
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2.0


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return m / np.trace(m).real


def random_projector(rng, d, r):
    a = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    q, _ = np.linalg.qr(a)
    return q @ q.conj().T


def test_hermitian_eig_matches_quadratic_formula():
    # Average of |0><0| and |+><+| with equal weights:
    # [[0.75, 0.25], [0.25, 0.25]], eigenvalues (2 +- sqrt(2)) / 4 from the
    # characteristic polynomial l^2 - l + 1/8 = 0.
    avg = 0.5 * proj(KET0) + 0.5 * proj(KETP)
    w, v = hermitian_eig(avg)
    expect = np.array([(2 + np.sqrt(2)) / 4, (2 - np.sqrt(2)) / 4])
    assert np.allclose(w, expect, atol=1e-12)
    assert np.allclose(w, [0.853553, 0.146447], atol=1e-6)
    # unitarity and reconstruction
    assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-12)
    assert np.allclose(v @ np.diag(w) @ v.conj().T, avg, atol=1e-12)


def test_hermitian_eig_descending_and_phase_convention():
    rng = np.random.default_rng(7)
    for d in (2, 3, 5, 9):
        m = random_hermitian(rng, d)
        w, v = hermitian_eig(m)
        assert np.all(np.diff(w) <= 1e-12)
        for k in range(d):
            idx = int(np.argmax(np.abs(v[:, k])))
            pivot = v[idx, k]
            assert abs(pivot.imag) < 1e-12 and pivot.real > 0
        assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - m)) < 1e-9 * max(
            1.0, np.max(np.abs(w))
        )


def test_hermitian_eig_is_deterministic():
    rng = np.random.default_rng(11)
    m = random_hermitian(rng, 6)
    w1, v1 = hermitian_eig(m)
    w2, v2 = hermitian_eig(m.copy())
    assert np.array_equal(w1, w2)
    assert np.array_equal(v1, v2)


def test_hermitian_eig_rejects_bad_input():
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        hermitian_eig(np.ones((2, 3)))
    # the Hermitian tolerance is 1e-9 relative to max(1, max |entry|)
    hermitian_eig(np.array([[1.0, 5e-10], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="within tolerance 1e-09"):
        hermitian_eig(np.array([[1.0, 2e-9], [0.0, 1.0]]))


def test_trace_distance_known_value():
    # ||  |0><0| - |+><+|  ||_1 = sqrt(2): the difference has eigenvalues
    # +- 1/sqrt(2) (trace 0, det -1/2).
    assert abs(trace_distance(proj(KET0), proj(KETP)) - np.sqrt(2.0)) < 1e-12


def test_trace_distance_axioms():
    rng = np.random.default_rng(3)
    for d in (2, 4, 7):
        a, b, c = (random_density(rng, d) for _ in range(3))
        assert trace_distance(a, a) < 1e-12
        assert abs(trace_distance(a, b) - trace_distance(b, a)) < 1e-12
        assert trace_distance(a, b) <= trace_distance(a, c) + trace_distance(c, b) + 1e-12
        assert trace_distance(a, b) <= 2.0 + 1e-12


def test_psd_leq_pinching():
    rng = np.random.default_rng(5)
    for d in (2, 5, 8):
        rho = random_density(rng, d)
        p = random_projector(rng, d, d // 2 + 1)
        lam = float(np.max(np.linalg.eigvalsh(rho)))
        assert psd_leq(p @ rho @ p, lam * p, tol=1e-9)
        assert not psd_leq(np.eye(d), 0.5 * np.eye(d), tol=1e-9)


def test_psd_leq_respects_tolerance():
    a = np.eye(2)
    assert psd_leq(a, a - 1e-12 * np.eye(2), tol=1e-9)
    assert not psd_leq(a, a - 1e-3 * np.eye(2), tol=1e-9)


def psd_leq_through_operator_norm(a, b, tol: float) -> bool:
    """The Loewner comparison with ||b|| taken by ``operator_norm``."""
    x, y = require_hermitian(a), require_hermitian(b)
    gap = (y - x + (y - x).conj().T) / 2.0
    lo = float(np.min(np.linalg.eigvalsh(gap))) if gap.size else 0.0
    return lo >= -tol * max(1.0, operator_norm(y))


def psd_leq_pairs():
    """Random Hermitian pairs at several scales, and pairs whose gap sits on
    the tolerance edge -tol * max(1, ||b||) or one relative step either side."""
    rng = np.random.default_rng(29)
    for d in (1, 2, 3, 5, 8):
        for scale in (1e-3, 1.0, 40.0):
            a, b = scale * random_hermitian(rng, d), scale * random_hermitian(rng, d)
            yield a, b
            yield b, a
            yield a, a
    yield np.zeros((0, 0)), np.zeros((0, 0))
    for top in (0.5, 1.0, 3.0):  # ||b|| below, at and above 1
        edge = 1e-9 * max(1.0, top)
        for step in (1.0 - 1e-6, 1.0, 1.0 + 1e-6):
            b = np.diag([top, -edge * step]).astype(complex)
            yield np.zeros((2, 2)), b
            u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
            yield np.zeros((2, 2)), u @ b @ u.conj().T


def test_psd_leq_verdicts_equal_the_operator_norm_expression():
    verdicts = [(psd_leq(a, b, tol=1e-9), psd_leq_through_operator_norm(a, b, 1e-9)) for a, b in psd_leq_pairs()]
    assert all(got == want for got, want in verdicts)
    assert {want for _, want in verdicts} == {True, False}


def test_psd_leq_reads_the_norm_only_below_minus_tol(monkeypatch):
    """A gap at least -tol passes on one eigvalsh; a gap in
    (-tol * ||b||, -tol) with ||b|| > 1 passes through the norm path, and one
    just below -tol * max(1, ||b||) fails."""
    eigvalsh = np.linalg.eigvalsh
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))
    zero = np.zeros((2, 2))
    cases = (
        (np.diag([4.0, -0.5e-9]), True, 1),  # gap above -tol: ||b|| is not read
        (np.diag([4.0, -2e-9]), True, 2),  # in (-4e-9, -1e-9): passes by ||b|| = 4
        (np.diag([4.0, -4e-9 * (1.0 - 1e-6)]), True, 2),
        (np.diag([4.0, -4e-9 * (1.0 + 1e-6)]), False, 2),  # just below -tol * ||b||
        (np.diag([0.5, -1e-9 * (1.0 + 1e-6)]), False, 2),  # ||b|| < 1: the bound is -tol
    )
    for b, verdict, eigs in cases:
        calls.clear()
        assert psd_leq(zero, b, tol=1e-9) is verdict
        assert len(calls) == eigs
        assert psd_leq_through_operator_norm(zero, b, 1e-9) is verdict


def test_tensor_product_values_and_cap():
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    xz = tensor_product([x, z])
    assert xz.shape == (4, 4)
    assert np.allclose(xz, np.kron(x, z))
    assert tensor_product([]).shape == (1, 1)
    with pytest.raises(DimensionCapError) as err:
        tensor_product([np.eye(2)] * 13)  # 2^13 = 8192 > 4096
    assert err.value.required == 8192
    assert err.value.cap == DIM_CAP


@pytest.mark.parametrize(
    "shapes",
    [
        [(2, 3), (3, 1), (1, 4), (2, 2)],  # complex rectangular
        [(3, 1), (2, 1), (4, 1)],  # single columns
        [(2, 2), (3, 0), (2, 3)],  # a zero-column factor
        [(0, 2), (2, 2)],  # a zero-row factor
        [(3, 2)],  # one factor
    ],
)
def test_kron_kernel_is_bit_identical_to_np_kron(shapes):
    rng = np.random.default_rng(len(shapes))
    for _ in range(20):
        factors = [rng.normal(size=s) + 1j * rng.normal(size=s) for s in shapes]
        expected = functools.reduce(np.kron, factors)
        got = functools.reduce(_kron, factors)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)
    square = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d in (2, 3, 2)]
    assert np.array_equal(tensor_product(square), functools.reduce(np.kron, square))


def test_orthonormal_basis_drops_dependent_vectors():
    basis = orthonormal_basis([np.array([1.0, 0.0]), np.array([2.0, 0.0])])
    assert len(basis) == 1
    assert np.allclose(basis[0], [1.0, 0.0])
    assert orthonormal_basis([]) == []
    rng = np.random.default_rng(13)
    vecs = [rng.normal(size=5) + 1j * rng.normal(size=5) for _ in range(3)]
    vecs.append(vecs[0] + vecs[1])
    basis = orthonormal_basis(vecs)
    assert len(basis) == 3
    g = np.array([[np.vdot(a, b) for b in basis] for a in basis])
    assert np.allclose(g, np.eye(3), atol=1e-10)
    # same span: every input vector reconstructs from the basis
    u = np.column_stack(basis)
    for v in vecs:
        assert np.linalg.norm(u @ (u.conj().T @ v) - v) < 1e-9


def test_density_operator_validation():
    rho = DensityOperator(0.5 * np.eye(2))
    assert rho.dim == 2
    with pytest.raises(ValueError):
        DensityOperator(np.diag([0.6, 0.6]))
    with pytest.raises(ValueError):
        DensityOperator(np.array([[0.5, 0.5], [0.4, 0.5]]))
    with pytest.raises(ValueError):
        DensityOperator(np.diag([1.2, -0.2]))
    sub = DensityOperator(np.diag([0.3, 0.3]), subnormalized=True)
    assert sub.subnormalized


def test_projector_from_matrix_validation():
    p = Projector.from_matrix(proj(KET0))
    assert p.rank == 1 and p.dim == 2
    with pytest.raises(ValueError):
        Projector.from_matrix(np.diag([0.5, 0.0]))


def test_projector_structured_round_trip():
    # Two qubit positions, basis = computational at each, keep |01> and |10>.
    eye = np.eye(2, dtype=complex)
    p = Projector(_product_columns([eye, eye], np.array([1, 2])))  # |01> and |10>
    assert p.rank == 2 and p.dim == 4
    d = p.dense()
    assert np.allclose(d, np.diag([0.0, 1.0, 1.0, 0.0]))
    assert np.allclose(d @ d, d)
    # trace against a diagonal product state equals the analytic kept mass
    probs = [np.array([0.75, 0.25]), np.array([0.5, 0.5])]
    rho = np.kron(np.diag(probs[0]), np.diag(probs[1])).astype(complex)
    assert abs(p.trace_with(rho) - (0.75 * 0.5 + 0.25 * 0.5)) < 1e-15
    # no kept index gives the zero projector
    empty = Projector(_product_columns([eye, eye], np.array([], dtype=np.intp)))
    assert empty.rank == 0 and empty.support_columns().shape == (4, 0)
    assert not np.any(empty.dense())


def test_projector_structured_nontrivial_basis():
    avg = 0.5 * proj(KET0) + 0.5 * proj(KETP)
    _, v = hermitian_eig(avg)
    p = Projector(_product_columns([v, v], np.array([0, 3])))  # (0, 0) and (1, 1)
    d = p.dense()
    assert np.allclose(d @ d, d, atol=1e-12)
    assert abs(np.trace(d).real - 2.0) < 1e-12
    cols = p.support_columns()
    assert np.allclose(cols.conj().T @ cols, np.eye(2), atol=1e-12)
    rho2 = np.kron(avg, avg)
    w, _ = hermitian_eig(avg)
    assert abs(p.trace_with(rho2) - (w[0] ** 2 + w[1] ** 2)) < 1e-12


def test_support_columns_are_built_once_and_read_only():
    # the cached columns and the dense form equal those of a fresh projector
    # on the same factors and indices, and the kron-per-index oracle
    rng = np.random.default_rng(3)
    factors = [np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0] for _ in range(3)]
    indices = [(0, 0, 0), (0, 1, 1), (1, 0, 1)]
    flat = np.ravel_multi_index(tuple(np.array(indices).T), (2, 2, 2))
    p = Projector(_product_columns(factors, flat))
    cols = p.support_columns()
    assert p.support_columns() is cols
    assert not cols.flags.writeable
    # row-major like the per-index kron build, so later BLAS products read the same bits
    assert cols.flags.c_contiguous
    with pytest.raises(ValueError):
        cols[0, 0] = 1.0
    fresh = Projector(_product_columns(factors, flat))
    assert np.array_equal(p.dense(), fresh.dense())
    assert np.array_equal(cols, fresh.support_columns())
    oracle = np.column_stack(
        [np.kron(np.kron(factors[0][:, a], factors[1][:, b]), factors[2][:, c]) for a, b, c in indices]
    )
    assert np.array_equal(cols, oracle)
    # a projector made from a matrix holds its eigenvectors with eigenvalue above 1/2
    q = Projector.from_matrix(p.dense())
    qcols = q.support_columns()
    assert q.support_columns() is qcols and not qcols.flags.writeable
    w, v = hermitian_eig(p.dense())
    assert np.array_equal(qcols, v[:, w > 0.5])


def test_projector_zero_and_identity():
    z = Projector.zero(3)
    assert z.rank == 0 and z.dim == 3
    assert np.array_equal(z.dense(), np.zeros((3, 3)))
    i = Projector(np.eye(3, dtype=complex))
    assert i.rank == 3 and i.dim == 3
    assert np.array_equal(i.dense(), np.eye(3))


def test_projector_is_its_columns_alone():
    # one form: no cached dense matrix, no metadata, and every dense read
    # is the same product V V^dag
    assert Projector.__slots__ == ("_cols",)
    for gone in ("meta", "complement_dense", "trace", "_dense"):
        assert not hasattr(Projector, gone)
    p = Projector.from_vectors([np.array([1.0, 0.0, 1.0]), np.array([0.0, 1.0, 1.0])])
    cols = p.support_columns()
    first = p.dense()
    assert p.dense() is not first
    assert np.array_equal(p.dense(), cols @ cols.conj().T) and np.array_equal(p.dense(), first)
    assert (p.dim, p.rank) == cols.shape == (3, 2)


def test_require_projector_checks_and_returns_the_matrix():
    m = proj(KETP)
    assert np.array_equal(require_projector(m), m)
    with pytest.raises(ValueError, match="not idempotent"):
        require_projector(np.diag([0.5, 0.0]))
    with pytest.raises(ValueError, match="not Hermitian"):
        require_projector(np.array([[1.0, 1e-3], [0.0, 0.0]]))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=8))
def test_trace_distance_unitary_invariance(seed, d):
    rng = np.random.default_rng(seed)
    a = random_density(rng, d)
    b = random_density(rng, d)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    t1 = trace_distance(a, b)
    t2 = trace_distance(q @ a @ q.conj().T, q @ b @ q.conj().T)
    assert abs(t1 - t2) < 1e-10


def test_projector_checks_share_the_hermitian_tolerance():
    # a projector matrix is Hermitian by the same HERMITIAN_RTOL rule as a
    # state, and Projector.from_matrix takes exactly the matrices that
    # require_projector accepts
    for skew, valid in ((5e-10, True), (3e-9, False)):
        m = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        m[0, 1] = skew
        if valid:
            assert np.array_equal(require_projector(m), m)
            assert Projector.from_matrix(m).rank == 1
        else:
            with pytest.raises(ValueError, match="projector matrix is not Hermitian"):
                require_projector(m)
            with pytest.raises(ValueError, match="projector matrix is not Hermitian"):
                Projector.from_matrix(m)


def test_density_operator_and_channel_share_the_hermitian_tolerance():
    # one matrix is a valid channel state exactly when it is a valid
    # DensityOperator: both run require_state, so they share HERMITIAN_RTOL
    # and the 1e-9 slack on the smallest eigenvalue and on the trace
    from cqlab.channels import CqChannel
    from cqlab.typicality import ClassicalDistribution

    prior = ClassicalDistribution((0,), (1.0,))
    cases = []
    for skew, valid in ((5e-10, True), (2e-9, False)):
        cases.append((np.array([[0.5, skew], [0.0, 0.5]]), valid, "not Hermitian"))
    for low, valid in ((-5e-10, True), (-2e-9, False)):
        cases.append((np.diag([1.0 - low, low]), valid, "positive semidefinite"))
    for shift, valid in ((5e-10, True), (-5e-10, True), (2e-9, False), (-2e-9, False)):
        cases.append((np.diag([0.5 + shift / 2, 0.5 + shift / 2]), valid, "expected 1"))
    for m, valid, message in cases:
        a = m.astype(complex)
        if valid:
            assert DensityOperator(a).dim == 2
            assert CqChannel(prior, {0: a}).dim == 2
        else:
            with pytest.raises(ValueError, match=message):
                DensityOperator(a)
            with pytest.raises(ValueError, match=message):
                CqChannel(prior, {0: a})


def fix_phases_loop(vecs: np.ndarray) -> np.ndarray:
    """The per-column phase convention, one column at a time: the oracle for
    the vectorised ``_fix_phases``."""
    out = vecs.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        idx = int(np.argmax(np.abs(col)))  # first maximum on ties
        pivot = col[idx]
        mag = abs(pivot)
        if mag > 0:
            out[:, k] = col * (pivot.conjugate() / mag)
    return out


def phase_cases():
    rng = np.random.default_rng(37)
    for d in (1, 2, 3, 5, 8, 16, 33):
        yield np.linalg.eigh(random_hermitian(rng, d))[1]
        yield np.linalg.eigh(random_projector(rng, d, max(1, d // 2)))[1]
        # degenerate spectrum: three eigenvalues, each repeated, in a random basis
        u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
        yield np.linalg.eigh(u @ np.diag(np.arange(d) % 3).astype(complex) @ u.conj().T)[1]
        yield rng.normal(size=(d, 3)) * 10.0 ** rng.integers(-200, 200) + 1j * rng.normal(size=(d, 3))
    # ties in |entry|: the first maximum is the pivot
    yield np.array([[3 + 4j, 1.0, 1j], [5.0, -1.0, -1j], [-4 + 3j, 1j, 1.0]])
    yield np.eye(4, dtype=complex)[:, ::-1] * np.array([1.0, -1.0, 1j, -1j])
    yield np.full((3, 2), -1.0 + 0j)
    # an all-zero column (kept, signs of zero included), exact +-0.0 parts
    yield np.array([[0.0, complex(-0.0, 2.0)], [complex(-0.0, -0.0), complex(0.5, -0.0)], [complex(0.0, -0.0), -0.0]])
    yield np.array([[complex(-0.0, 0.0)], [complex(-1.0, -0.0)]])
    yield np.zeros((4, 0), dtype=complex)
    yield np.zeros((0, 0), dtype=complex)


def test_fix_phases_is_bit_identical_to_the_per_column_loop():
    cases = list(phase_cases())
    for vecs in cases:
        got, want = _fix_phases(vecs), fix_phases_loop(vecs)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert sum(v.size == 0 for v in cases) == 2


def test_validators_reject_with_unchanged_types_and_messages():
    bad = []
    for value in (np.nan, np.inf, -np.inf):
        for entry in (complex(value, 0.0), complex(0.0, value)):
            m = np.eye(3, dtype=complex) / 3
            m[1, 2] = entry
            bad.append((m, "matrix contains non-finite entries"))
    bad.append((np.ones((2, 3)), "expected a square matrix, got shape (2, 3)"))
    bad.append((np.ones((2, 2, 2)), "expected a square matrix, got shape (2, 2, 2)"))
    one_operand = (require_hermitian, require_projector, require_state, hermitian_eig, Projector.from_matrix, operator_norm)
    for m, message in bad:
        for check in one_operand:
            with pytest.raises(ValueError, match=re.escape(message)):
                check(m)
        for pair_check in (trace_distance, psd_leq):
            for a, b in ((m, np.eye(2)), (np.eye(2), m)):
                with pytest.raises(ValueError, match=re.escape(message)):
                    pair_check(a, b)

    # the Hermitian rule: a defect within HERMITIAN_RTOL * max(1, max |a|),
    # just inside and just outside it, at scale 1 and at scale 4
    for scale in (1.0, 4.0):
        for step, ok in ((1.0 - 1e-6, True), (1.0 + 1e-6, False)):
            m = np.diag([scale, 0.0]).astype(complex)
            m[0, 1] = HERMITIAN_RTOL * scale * step
            checks = [
                (require_hermitian, "matrix"),
                (hermitian_eig, "matrix"),
                (lambda a: trace_distance(a, a), "first operand"),
                (lambda a: psd_leq(np.eye(2), a), "second operand"),
            ]
            if scale == 1.0:  # diag(1, 0) plus the defect stays idempotent
                checks += [(require_projector, "projector matrix"), (Projector.from_matrix, "projector matrix")]
            for check, what in checks:
                if ok:
                    check(m)
                else:
                    with pytest.raises(ValueError, match=re.escape(f"{what} is not Hermitian within tolerance 1e-09")):
                        check(m)
            assert operator_norm(m) == pytest.approx(scale)

    with pytest.raises(ValueError, match=re.escape("projector matrix is not idempotent within tolerance")):
        require_projector(np.diag([1.0, 0.5]))
    with pytest.raises(ValueError, match=re.escape("state is not positive semidefinite (min eig -0.01)")):
        require_state(np.diag([1.01, -0.01]))
    with pytest.raises(ValueError, match=re.escape("state trace is 0.9, expected 1")):
        require_state(np.diag([0.5, 0.4]))
    with pytest.raises(ValueError, match=re.escape("density operator trace is 1.1, expected at most 1")):
        DensityOperator(np.diag([0.6, 0.5]), subnormalized=True)


def test_each_public_check_coerces_each_operand_once(monkeypatch):
    coerced, cores = [], []
    as_matrix, is_hermitian = cqlab.linalg.as_matrix, cqlab.linalg._is_hermitian
    monkeypatch.setattr(cqlab.linalg, "as_matrix", lambda m: coerced.append(1) or as_matrix(m))
    monkeypatch.setattr(cqlab.linalg, "_is_hermitian", lambda a: cores.append(1) or is_hermitian(a))
    p = proj(KETP)
    rho = np.diag([0.75, 0.25]).astype(complex)
    calls = (
        (lambda: require_hermitian(p), 1),
        (lambda: require_projector(p), 1),
        (lambda: require_state(rho), 1),
        (lambda: hermitian_eig(rho), 1),
        (lambda: Projector.from_matrix(p), 1),
        (lambda: operator_norm(rho), 1),
        (lambda: trace_distance(rho, p), 2),
        (lambda: psd_leq(rho, p), 2),
        (lambda: DensityOperator(rho), 1),
    )
    for call, operands in calls:
        coerced.clear()
        cores.clear()
        call()
        assert len(coerced) == operands
        assert len(cores) == operands


def test_a_transposed_matrix_is_coerced_like_its_copy():
    # the finiteness check reads the complex entries, so a view whose last
    # axis is strided (a transpose, a reversed slice) is accepted as it is
    m = np.array([[0.5, 0.25j], [-0.25j, 0.5]])
    for view in (m.T, m[::-1, ::-1]):
        assert np.array_equal(require_hermitian(view), view.copy())
        assert operator_norm(view) == operator_norm(view.copy())
