"""Subspace geometry and chained measurement tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqlab.geometry import (
    BLOCK_FIRST_ONLY,
    BLOCK_IN_BOTH,
    BLOCK_OUTSIDE_BOTH,
    BLOCK_SECOND_ONLY,
    BLOCK_TILTED_PLANE,
    SIGMA_ONE_TOL,
    SIGMA_ZERO_TOL,
    _check_pairing,
    _pair,
    gentle_measurement_check,
    intersection_projector,
    jordan_decompose,
    key_inequality_check,
    seq_success_lower_bound,
    sequential_collapse,
)
from cqlab.linalg import Projector, psd_leq, psd_leq_factors

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
KETP = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def proj(*vectors):
    d = len(np.asarray(vectors[0]))
    out = np.zeros((d, d), dtype=complex)
    for v in vectors:
        v = np.asarray(v, dtype=complex)
        out += np.outer(v, v.conj())
    return out


def random_projector(rng, d, r):
    a = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    q, _ = np.linalg.qr(a)
    return q @ q.conj().T


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return m / np.trace(m).real


def planes_with_angles(d, angles, rng=None):
    """Subspace pair in C^d whose principal angles are as requested."""
    k = len(angles)
    assert 2 * k <= d
    a_cols, b_cols = [], []
    e = np.eye(d, dtype=complex)
    for i, th in enumerate(angles):
        a_cols.append(e[:, 2 * i])
        b_cols.append(math.cos(th) * e[:, 2 * i] + math.sin(th) * e[:, 2 * i + 1])
    a = np.column_stack(a_cols)
    b = np.column_stack(b_cols)
    if rng is not None:
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        a, b = q @ a, q @ b
    return a @ a.conj().T, b @ b.conj().T


def test_jordan_identical_projectors():
    p = proj(KET0)
    decomp = jordan_decompose(p, p)
    kinds = sorted(b.kind for b in decomp.blocks)
    assert kinds == [BLOCK_OUTSIDE_BOTH, BLOCK_IN_BOTH]


def test_jordan_orthogonal_lines():
    decomp = jordan_decompose(proj(KET0), proj(KET1))
    kinds = sorted(b.kind for b in decomp.blocks)
    assert kinds == [BLOCK_FIRST_ONLY, BLOCK_SECOND_ONLY]


def test_jordan_tilted_plane_angle():
    pa, pb = planes_with_angles(4, [0.0, math.pi / 3])
    decomp = jordan_decompose(pa, pb)
    planes = [b for b in decomp.blocks if b.kind == BLOCK_TILTED_PLANE]
    assert len(planes) == 1
    assert planes[0].angle == pytest.approx(math.pi / 3, abs=1e-10)
    assert [b.kind for b in decomp.blocks].count(BLOCK_IN_BOTH) == 1


def test_jordan_random_reconstruction():
    rng = np.random.default_rng(17)
    for d in (3, 5, 8, 12):
        pa = random_projector(rng, d, int(rng.integers(1, d)))
        pb = random_projector(rng, d, int(rng.integers(1, d)))
        decomp = jordan_decompose(pa, pb)
        assert np.max(np.abs(decomp.reconstruct_first() - pa)) < 1e-8
        assert np.max(np.abs(decomp.reconstruct_second() - pb)) < 1e-8
        assert all(b.dim <= 2 for b in decomp.blocks)
        full = decomp.basis
        assert full.shape[1] == d
        assert np.max(np.abs(full.conj().T @ full - np.eye(d))) < 1e-8
        # the first subspace's lines are an orthonormal basis of it
        assert decomp.first_lines.shape[1] == int(round(np.trace(pa).real))


def test_intersection_projector_worked_example():
    pa, pb = planes_with_angles(4, [0.0, math.pi / 3])
    r = intersection_projector(pa, pb, tau=0.5)
    assert r.rank == 1
    # cos^2(60 deg) = 0.25 < 0.5 drops the tilted plane, keeping the shared line
    assert np.allclose(r.dense(), proj(KET0.tolist() + [0.0, 0.0]), atol=1e-10)


def test_intersection_projector_orthogonal_supports():
    r = intersection_projector(proj(KET0), proj(KET1), tau=0.5)
    assert r.rank == 0


def test_intersection_projector_boundary_kept():
    # overlap exactly tau stays in
    th = math.acos(math.sqrt(0.5))
    pa, pb = planes_with_angles(4, [th])
    r = intersection_projector(pa, pb, tau=0.5)
    assert r.rank == 1


def test_intersection_projector_operator_bound_random():
    rng = np.random.default_rng(23)
    for _ in range(20):
        d = int(rng.integers(3, 9))
        pa = random_projector(rng, d, int(rng.integers(1, d)))
        pb = random_projector(rng, d, int(rng.integers(1, d)))
        tau = float(rng.uniform(0.2, 0.95))
        r = intersection_projector(pa, pb, tau)
        assert psd_leq(r.dense(), pb @ pa @ pb / tau, tol=1e-8)


def test_intersection_projector_guarantee():
    # supp(rho) inside the first subspace and Tr[rho PB] >= 1 - eps give
    # Tr[rho R] >= 1 - 2 sqrt(eps) at tau = 1 - sqrt(eps)
    rng = np.random.default_rng(29)
    eps = 0.04
    tau = 1.0 - math.sqrt(eps)
    angles = [0.0, math.acos(math.sqrt(1 - eps / 2)), math.acos(math.sqrt(0.3))]
    pa, pb = planes_with_angles(8, angles, rng)
    decomp = jordan_decompose(pa, pb)
    lines = decomp.first_lines.T
    weights = [1 - eps / 2 - eps / 2, eps / 2, eps / 2]
    rho = sum(w * proj(v) for w, v in zip(weights, lines))
    overlap = float(np.real(np.trace(rho @ pb)))
    assert overlap >= 1 - eps - 1e-9
    r = intersection_projector(pa, pb, tau)
    assert float(np.real(np.trace(rho @ r.dense()))) >= 1 - 2 * math.sqrt(eps) - 1e-9


@pytest.mark.parametrize("theta", [1e-6, 1e-7, 2e-8])
def test_near_coincident_lines_reconstruct_both_projectors(theta):
    # cos(theta) >= 1 - SIGMA_ONE_TOL classifies the pair as shared; the
    # second projector must still rebuild from its own line
    e = np.eye(3, dtype=complex)
    a = e[:, 0]
    b = math.cos(theta) * e[:, 0] + math.sin(theta) * e[:, 1]
    decomp = jordan_decompose(proj(a), proj(b))
    assert [blk.kind for blk in decomp.blocks].count(BLOCK_IN_BOTH) == 1
    assert np.max(np.abs(decomp.reconstruct_first() - proj(a))) < 1e-8
    assert np.max(np.abs(decomp.reconstruct_second() - proj(b))) < 1e-8
    r = intersection_projector(proj(a, e[:, 2]), proj(b), 0.9)
    assert r.rank == 1


def test_zero_overlap_lines_are_never_kept():
    # at tau <= 1e-12 the boundary slack reached overlap 0, a line with no image
    e = np.eye(3, dtype=complex)
    r = intersection_projector(proj(e[:, 0], e[:, 1]), proj(e[:, 1]), 1e-13)
    assert r.rank == 1
    assert np.allclose(r.dense(), proj(e[:, 1]), atol=1e-12)
    orthogonal = intersection_projector(proj(e[:, 0]), proj(e[:, 1]), 1e-13)
    assert orthogonal.rank == 0


def parent_intersection(pa, pb, tau):
    """Reference intersection: a full SVD, blocks read one at a time, and
    both guarantees checked on D x D matrices.

    Returns (R dense, kept count, whether both checks hold).  Lines of zero
    overlap are never kept, as in the module.
    """
    pa, pb = Projector.from_matrix(pa), Projector.from_matrix(pb)
    a, b = pa.support_columns(), pb.support_columns()
    left, sigma, right_h = np.linalg.svd(a.conj().T @ b)
    a_rot, b_rot = a @ left, b @ right_h.conj().T
    images, lines = [], []
    for i, s in enumerate(np.minimum(sigma, 1.0)):
        if s >= 1.0 - SIGMA_ONE_TOL:
            overlap, image = 1.0, a_rot[:, i]
        elif s <= SIGMA_ZERO_TOL:
            continue
        else:
            overlap, image = math.cos(math.acos(s)) ** 2, b_rot[:, i]
        if overlap >= tau - 1e-12:
            images.append(image)
            lines.append(a_rot[:, i])
    d = pa.dim
    r = Projector.from_vectors(images).dense() if images else np.zeros((d, d), dtype=complex)
    pbd = pb.dense()
    sandwich = pbd @ pa.dense() @ pbd
    # Hermitian part: at tau near 1e-13 the product's rounding asymmetry, over tau, fails the Hermitian test
    holds = psd_leq(r, (sandwich + sandwich.conj().T) / (2 * tau), tol=1e-8)
    if lines:
        c = np.column_stack(lines)
        overlap = c.conj().T @ pbd @ c
        holds = holds and float(np.min(np.linalg.eigvalsh((overlap + overlap.conj().T) / 2))) >= tau - 1e-8
    return r, len(images), holds


# cos at 1 - SIGMA_ONE_TOL is near 1.414e-5 rad; sin at SIGMA_ZERO_TOL is 1e-10 rad off pi/2
EDGE_ANGLES = (0.0, math.pi / 2, 1.3e-5, 1.5e-5, math.pi / 2 - 0.5e-10, math.pi / 2 - 2e-10)


@st.composite
def subspace_pairs(draw):
    """(PA, PB, tau) in C^D, D <= 16.

    Paired lines sit at the drawn principal angles, the exact edges of the
    classification included; extra lines of either subspace are orthogonal
    to the other, so r_A < r_B and r_A > r_B both occur, and with ``whole``
    the second subspace is all of C^D.  tau is uniform, 1, or a drawn
    overlap cos^2 shifted by +-1e-12.
    """
    angles = draw(st.lists(st.one_of(st.sampled_from(EDGE_ANGLES), st.floats(0.0, math.pi / 2)), max_size=5))
    extra_a = draw(st.integers(0 if angles else 1, 3))
    extra_b = draw(st.integers(0 if angles else 1, 3))
    needed = sum(1 if t == 0.0 else 2 for t in angles) + extra_a + extra_b
    d = draw(st.integers(needed, 16))
    e = np.eye(d, dtype=complex)
    a_cols, b_cols, j = [], [], 0
    for t in angles:
        a_cols.append(e[:, j])
        b_cols.append(e[:, j] if t == 0.0 else math.cos(t) * e[:, j] + math.sin(t) * e[:, j + 1])
        j += 1 if t == 0.0 else 2
    a_cols += [e[:, j + i] for i in range(extra_a)]
    b_cols += [e[:, j + extra_a + i] for i in range(extra_b)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    a = q @ np.column_stack(a_cols)
    pb = np.eye(d, dtype=complex) if draw(st.booleans()) else proj(*(q @ np.column_stack(b_cols)).T)
    overlaps = [math.cos(t) ** 2 for t in angles if 0.0 < t < math.pi / 2]
    kind = draw(st.sampled_from(("uniform", "one", "edge-", "edge+") if overlaps else ("uniform", "one")))
    if kind == "uniform":
        tau = draw(st.floats(0.01, 1.0))
    elif kind == "one":
        tau = 1.0
    else:
        tau = draw(st.sampled_from(overlaps)) + (1e-12 if kind == "edge+" else -1e-12)
        tau = min(1.0, max(tau, 1e-13))
    return a @ a.conj().T, pb, tau


def dense_leq(x, y):
    return psd_leq(x @ x.conj().T, y @ y.conj().T, tol=1e-8)


@settings(max_examples=200)
@given(subspace_pairs())
def test_intersection_matches_the_dense_reference(case):
    pa, pb, tau = case
    r_ref, kept_ref, holds = parent_intersection(pa, pb, tau)
    try:
        r = intersection_projector(pa, pb, tau)
    except RuntimeError:
        assert not holds
        return
    assert holds
    assert r.rank == kept_ref
    assert np.max(np.abs(r.dense() - r_ref)) <= 1e-12
    decomp = jordan_decompose(pa, pb)
    assert np.max(np.abs(decomp.reconstruct_first() - pa)) < 1e-8
    assert np.max(np.abs(decomp.reconstruct_second() - pb)) < 1e-8


@settings(max_examples=200)
@given(subspace_pairs(), st.integers(0, 2**32 - 1))
def test_coordinate_checks_give_the_dense_verdicts(case, seed):
    pa, pb, tau = case
    a = Projector.from_matrix(pa).support_columns()
    b = Projector.from_matrix(pb).support_columns()
    bound = b @ (b.conj().T @ a) / math.sqrt(tau)
    try:
        x = intersection_projector(pa, pb, tau).support_columns()
    except RuntimeError:
        x = np.zeros((len(pa), 0), dtype=complex)
    rng = np.random.default_rng(seed)
    # the sandwich as built, with the check's tau scaled by 1.01, and with R
    # given a line outside range(PB): each verdict must be the dense one
    assert psd_leq_factors(x, bound) == dense_leq(x, bound)
    assert psd_leq_factors(x, bound / math.sqrt(1.01)) == dense_leq(x, bound / math.sqrt(1.01))
    if b.shape[1] < len(pb):
        v = rng.normal(size=len(pb)) + 1j * rng.normal(size=len(pb))
        v = v - b @ (b.conj().T @ v)
        outside = np.column_stack([x, v / np.linalg.norm(v)])
        assert not psd_leq_factors(outside, bound)
        assert not dense_leq(outside, bound)
    # a rotation of A that is not unitary fails the r_A x r_A check and the
    # D x D reconstruction alike
    pairs = _pair(a, b)
    u = np.linalg.lstsq(a, pairs.a_lines, rcond=None)[0]
    w = np.linalg.lstsq(b, pairs.b_lines, rcond=None)[0]
    sigma = np.diag(u.conj().T @ (a.conj().T @ b) @ w).real
    _check_pairing(a.conj().T @ b, u, sigma, w)
    bent = u.copy()
    bent[:, 0] *= 1.0 + 1e-4
    with pytest.raises(RuntimeError):
        _check_pairing(a.conj().T @ b, bent, sigma, w)
    lines = a @ bent
    assert np.max(np.abs(lines @ lines.conj().T - pa)) > 1e-8


@settings(max_examples=100)
@given(st.integers(3, 12), st.integers(0, 2**32 - 1), st.floats(0.05, 1.0), st.floats(0.05, 1.0))
def test_envelope_check_gives_the_dense_verdict(d, seed, tau1, tau2):
    rng = np.random.default_rng(seed)
    p_zy, p_xy, p_y = (random_projector(rng, d, int(rng.integers(1, d + 1))) for _ in range(3))
    inner = intersection_projector(p_zy, p_xy, tau1)
    if inner.rank == 0:
        return
    tilde = intersection_projector(inner, p_y, tau2).support_columns()
    vy, vxy, vzy = (Projector.from_matrix(p).support_columns() for p in (p_y, p_xy, p_zy))
    envelope = vy @ ((vy.conj().T @ vxy) @ (vxy.conj().T @ vzy)) / math.sqrt(tau1 * tau2)
    assert psd_leq_factors(tilde, envelope) and dense_leq(tilde, envelope)
    if vy.shape[1] < d:
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        v = v - vy @ (vy.conj().T @ v)
        escaped = np.column_stack([tilde, v / np.linalg.norm(v)])
        assert not psd_leq_factors(escaped, envelope)
        assert not dense_leq(escaped, envelope)


def test_sequential_collapse_identity_step():
    rho = random_density(np.random.default_rng(1), 3) * 0.7
    out = sequential_collapse(rho, [(Projector(np.eye(3, dtype=complex)), "success")])
    assert out.success_probability == pytest.approx(0.7)


def test_sequential_collapse_failure_branch():
    # state supported inside the failure branch of the step
    rho = proj(KET1)
    out = sequential_collapse(rho, [(Projector.from_matrix(proj(KET0)), "failure")])
    assert out.success_probability == pytest.approx(1.0)


def test_sequential_collapse_two_step_chain():
    # fail on |0><0| collapses |+> to |1>/sqrt(2); succeeding on |1><1| then
    # keeps all of it, so the chain passes with probability 1/2.
    rho = proj(KETP)
    out = sequential_collapse(
        rho,
        [
            (Projector.from_matrix(proj(KET0)), "failure"),
            (Projector.from_matrix(proj(KET1)), "success"),
        ],
    )
    assert out.step_traces == pytest.approx([0.5, 0.5])
    assert out.success_probability == pytest.approx(0.5)
    # targeting |+><+| instead costs another overlap factor of 1/2
    out2 = sequential_collapse(
        rho,
        [
            (Projector.from_matrix(proj(KET0)), "failure"),
            (Projector.from_matrix(proj(KETP)), "success"),
        ],
    )
    assert out2.success_probability == pytest.approx(0.25)


def test_seq_success_lower_bound_edge_cases():
    rho = 0.8 * proj(KET0)
    # no hostile steps, target covering the support
    assert seq_success_lower_bound(rho, [], Projector(np.eye(2, dtype=complex))) == pytest.approx(0.8)
    # orthogonal target makes the bound vacuous
    b = seq_success_lower_bound(rho, [], Projector.from_matrix(proj(KET1)))
    assert b <= 0.8 - 2.0 * math.sqrt(0.8) + 1e-12


def test_seq_bound_below_exact_random():
    rng = np.random.default_rng(31)
    for _ in range(50):
        d = 8
        rho = random_density(rng, d) * float(rng.uniform(0.5, 1.0))
        k = int(rng.integers(1, 5))
        hostiles = [random_projector(rng, d, int(rng.integers(1, 3))) for _ in range(k)]
        target = random_projector(rng, d, int(rng.integers(d // 2, d)))
        steps = [(Projector.from_matrix(h), "failure") for h in hostiles]
        steps.append((Projector.from_matrix(target), "success"))
        exact = sequential_collapse(rho, steps).success_probability
        bound = seq_success_lower_bound(
            rho, [Projector.from_matrix(h) for h in hostiles], Projector.from_matrix(target)
        )
        assert exact >= bound - 1e-9


def test_key_inequality_random():
    rng = np.random.default_rng(37)
    for _ in range(50):
        d = int(rng.integers(2, 16))
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        k = int(rng.integers(1, 6))
        ps = [Projector.from_matrix(random_projector(rng, d, int(rng.integers(1, d)))) for _ in range(k)]
        res = key_inequality_check(v, ps)
        assert res["holds"]
        assert res["lhs"] <= res["rhs"] + 1e-9


def test_key_inequality_tight_when_nested():
    # a single projector: ||v - Pv||^2 = ||(I-P)v||^2 exactly
    v = np.array([1.0, 2.0, 2.0]) / 3.0
    p = Projector.from_matrix(proj([1.0, 0.0, 0.0]))
    res = key_inequality_check(v, [p])
    assert res["lhs"] == pytest.approx(res["rhs"])


def test_gentle_measurement_check():
    rng = np.random.default_rng(41)
    for _ in range(30):
        d = int(rng.integers(2, 10))
        rho = random_density(rng, d) * float(rng.uniform(0.6, 1.0))
        # random contraction 0 <= M <= I
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = h @ h.conj().T
        m = h / (np.linalg.eigvalsh(h)[-1] + 1e-9)
        res = gentle_measurement_check(rho, m)
        assert res["holds"]
    with pytest.raises(ValueError):
        gentle_measurement_check(0.5 * np.eye(2), 2.0 * np.eye(2))


def test_gentle_measurement_check_refuses_an_invalid_state():
    m = np.diag([1.0, 0.5])
    with pytest.raises(ValueError, match="not positive semidefinite"):
        gentle_measurement_check(np.diag([1.2, -0.2]), m)
    with pytest.raises(ValueError, match="at most 1"):
        gentle_measurement_check(np.diag([0.7, 0.4]), m)
    # a subnormalized state is accepted
    assert gentle_measurement_check(np.diag([0.5, 0.25]), m)["holds"]


def test_sequential_collapse_rejects_mismatched_dims():
    with pytest.raises(ValueError):
        sequential_collapse(np.eye(2) / 2, [(Projector(np.eye(3, dtype=complex)), "success")])


def test_sequential_collapse_refuses_an_unknown_branch():
    with pytest.raises(ValueError, match="pass_on must be 'success' or 'failure', got 'pass'"):
        sequential_collapse(np.eye(2) / 2, [(Projector.from_matrix(proj(KET0)), "pass")])


def suite_columns(rng, d, r):
    """The QR columns of a complex Gaussian d x r draw, as the verify suites draw a projector."""
    return np.linalg.qr(rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r)))[0]


def leak_of(total, floor):
    """The leak behind a floor total - 2 sqrt(leak)."""
    return ((total - floor) / 2.0) ** 2


@pytest.mark.parametrize("d", [2, 3, 4, 7, 16, 32])
def test_column_and_raw_forms_give_the_same_checks(d):
    # a Projector is read through its columns and a raw matrix q q^dag as
    # given; on the suites' draws, at every rank 1..d of the first
    # projector, both forms agree to 1e-12.  The floor is compared on its
    # leak scale: its slope in the leak is unbounded near 0.
    rng = np.random.default_rng(d)
    for rank in range(1, d + 1):
        qs = [suite_columns(rng, d, r) for r in (rank, *rng.integers(1, d + 1, size=3).tolist())]
        cols = [Projector(q) for q in qs]
        raws = [q @ q.conj().T for q in qs]
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        v /= np.linalg.norm(v)
        rho = random_density(rng, d)

        key_cols, key_raw = key_inequality_check(v, cols), key_inequality_check(v, raws)
        assert abs(key_cols["lhs"] - key_raw["lhs"]) <= 1e-12
        assert abs(key_cols["rhs"] - key_raw["rhs"]) <= 1e-12

        traces = [
            sequential_collapse(rho, [(h, "failure") for h in ps[1:]] + [(ps[0], "success")]).step_traces
            for ps in (cols, raws)
        ]
        assert np.abs(np.subtract(*traces)).max() <= 1e-12
        total = np.trace(rho).real
        floors = [seq_success_lower_bound(rho, ps[1:], ps[0]) for ps in (cols, raws)]
        assert abs(leak_of(total, floors[0]) - leak_of(total, floors[1])) <= 1e-12

        by_cols, by_raw = jordan_decompose(cols[0], cols[1]), jordan_decompose(raws[0], raws[1])
        assert [b.kind for b in by_cols.blocks] == [b.kind for b in by_raw.blocks]
        angles = [np.array([b.angle or 0.0 for b in dec.blocks]) for dec in (by_cols, by_raw)]
        assert np.abs(np.subtract(*angles)).max() <= 1e-12
        assert np.abs(by_cols.reconstruct_first() - by_raw.reconstruct_first()).max() <= 1e-12
        assert np.abs(by_cols.reconstruct_second() - by_raw.reconstruct_second()).max() <= 1e-12
