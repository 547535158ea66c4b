"""Rate-region builders, membership semantics, and the layer-fixing transform."""

import itertools
import math

import numpy as np
import pytest

from cqlab.channels import CcqMac, CoupledMac, InterferenceChannel
from cqlab.regions import (
    ZERO_RATE_TOL,
    Constraint,
    RateRegion,
    RegionPart,
    ccq_mac_region,
    ccqq_ic_region,
    chebyshev_center,
    classical_cmg_region,
    cmg_mac_region,
    disinterested_region,
    fawzi_first_part_witness,
    rate_correction,
    receiver_region,
    region_mask,
    sample_boundary,
    sample_points_inside,
)
from cqlab.typicality import ClassicalDistribution

KET = [np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [0.0, 1.0]])]
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]])

UNIFORM = ClassicalDistribution((0, 1), (0.5, 0.5))


def xor_mac() -> CcqMac:
    return CcqMac(UNIFORM, UNIFORM, {(x, y): KET[x ^ y] for x in (0, 1) for y in (0, 1)})


def product_mac() -> CcqMac:
    states = {(x, y): np.kron(KET[x], KET[y]) for x in (0, 1) for y in (0, 1)}
    return CcqMac(UNIFORM, UNIFORM, states)


def identical_mac() -> CcqMac:
    return CcqMac(UNIFORM, UNIFORM, {(x, y): PLUS for x in (0, 1) for y in (0, 1)})


def copy_cmg() -> CoupledMac:
    rows = {x: ClassicalDistribution((0, 1), (1.0, 0.0) if x == 0 else (0.0, 1.0)) for x in (0, 1)}
    states = {(z, y): KET[z] for z in (0, 1) for y in (0, 1)}
    return CoupledMac(UNIFORM, rows, UNIFORM, states)


def random_cmg(rng: np.random.Generator) -> CoupledMac:
    def rdist() -> ClassicalDistribution:
        return ClassicalDistribution((0, 1), tuple(rng.dirichlet((2.0, 2.0))))

    def rstate() -> np.ndarray:
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = g @ g.conj().T
        return m / np.real(np.trace(m))

    rows = {x: rdist() for x in (0, 1)}
    states = {(z, y): rstate() for z in (0, 1) for y in (0, 1)}
    return CoupledMac(rdist(), rows, rdist(), states)


def test_constraint_margin_semantics():
    c = Constraint((1.0,), 1.0, strict=True)
    assert c.satisfied((1.0 - 1e-6,))
    assert not c.satisfied((1.0,))
    assert not c.satisfied((1.0 - 1e-12,))
    weak = Constraint((1.0,), 1.0, strict=False)
    assert weak.satisfied((1.0,))
    assert not weak.satisfied((1.0 + 1e-6,))
    lower = Constraint((-1.0,), -0.5, strict=False)  # encodes R >= 0.5
    assert lower.satisfied((0.5,))
    assert not lower.satisfied((0.4,))


def test_zero_rate_convention_applies_to_nonnegative_strict_bounds_only():
    c = Constraint((1.0, 0.0), 0.0, strict=True)
    assert not c.satisfied((0.0, 0.3))
    assert c.satisfied((0.0, 0.3), zero_vacuous=True)
    assert not c.satisfied((0.1, 0.3), zero_vacuous=True)
    lower = Constraint((-1.0, 0.0), 0.0, strict=True)
    assert not lower.satisfied((0.0, 0.0), zero_vacuous=True)
    weak = Constraint((1.0, 0.0), -0.5, strict=False)
    assert not weak.satisfied((0.0, 0.0), zero_vacuous=True)


def test_xor_pentagon_bounds_and_membership():
    region = ccq_mac_region(xor_mac())
    assert region.meta["bounds"]["I(X:B|Y)"] == pytest.approx(1.0, abs=1e-12)
    assert region.meta["bounds"]["I(Y:B|X)"] == pytest.approx(1.0, abs=1e-12)
    assert region.meta["bounds"]["I(XY:B)"] == pytest.approx(1.0, abs=1e-12)
    assert region.contains((0.4, 0.4))
    assert not region.contains((0.6, 0.6))
    assert not region.contains((1.2, 0.0))
    assert region.max_bound() == pytest.approx(1.0)


def test_product_channel_pentagon():
    region = ccq_mac_region(product_mac())
    assert region.meta["bounds"]["I(XY:B)"] == pytest.approx(2.0, abs=1e-12)
    assert region.contains((0.9, 0.9))
    assert not region.contains((0.9, 1.2))


def test_identical_outputs_keep_only_the_origin():
    region = ccq_mac_region(identical_mac())
    assert not region.contains((0.0, 0.0))
    assert region.contains((0.0, 0.0), zero_vacuous=True)
    assert not region.contains((0.01, 0.0), zero_vacuous=True)


def test_finite_length_variant_is_weak_and_shifted():
    delta = 0.001
    region = ccq_mac_region(xor_mac(), delta=delta)
    corr = rate_correction(delta, (2, 2, 2))
    d = 6 * delta
    assert corr == pytest.approx(4 * (d * math.log2(8) - d * math.log2(d)), abs=1e-12)
    for row in region.rows():
        assert row["relation"] == "<="
        assert row["bound"] == pytest.approx(1.0 - corr, abs=1e-12)
    inner = (1.0 - corr) / 2
    assert region.contains((inner, inner))
    # weak bound admits the boundary point itself
    assert region.contains((1.0 - corr, 0.0))
    assert not region.contains((1.0 - corr + 1e-6, 0.0))


def test_rate_correction_frozen_value():
    assert rate_correction(0.05, (2, 2, 2)) == pytest.approx(5.6843587129994475, abs=1e-12)
    with pytest.raises(ValueError):
        rate_correction(0.0, (2, 2))


def test_disinterested_xor_parts():
    region = disinterested_region(xor_mac())
    assert len(region.parts) > 1
    # I(X:B) = 0 makes part 2 empty on nonnegative rates
    assert region.contains((0.0, 0.0))
    assert region.contains((0.3, 0.5))
    assert region.parts_containing((0.3, 0.5)) == ("part-1",)
    assert not region.contains((0.3, 0.8))
    assert not region.contains((1.1, 0.0))


def test_disinterested_collapses_when_output_ignores_y():
    px = ClassicalDistribution((0, 1), (0.5, 0.5))
    mac = CcqMac(px, px, {(x, y): KET[x] for x in (0, 1) for y in (0, 1)})
    region = disinterested_region(mac)
    # part 1 needs I(X:B) <= R1 < I(X:B|Y) with both sides equal: empty
    assert region.parts_containing((0.5, 100.0)) == ("part-2",)
    assert region.contains((0.5, 100.0))
    assert not region.contains((1.0, 0.0))


def test_cmg_copy_channel_degenerates_to_single_sender_segment():
    region = cmg_mac_region(copy_cmg())
    b = region.meta["bounds"]
    assert b["Y:B|Z"] == pytest.approx(0.0, abs=1e-9)
    assert b["Z:B|X Y"] == pytest.approx(0.0, abs=1e-9)
    assert b["Z:B|Y"] == pytest.approx(1.0, abs=1e-9)
    assert b["Z Y:B|X"] == pytest.approx(0.0, abs=1e-9)
    assert b["Z Y:B"] == pytest.approx(1.0, abs=1e-9)
    assert b["Z:B|X"] == pytest.approx(0.0, abs=1e-9)
    assert b["Z:B"] == pytest.approx(1.0, abs=1e-9)
    assert region.contains((0.7, 0.0, 0.0), zero_vacuous=True)
    assert "region-1" in region.parts_containing((0.7, 0.0, 0.0), zero_vacuous=True)
    assert not region.contains((0.7, 0.05, 0.0), zero_vacuous=True)
    assert not region.contains((1.05, 0.0, 0.0), zero_vacuous=True)


def test_cmg_identical_outputs_collapse():
    rows = {x: ClassicalDistribution((0, 1), (0.5, 0.5)) for x in (0, 1)}
    states = {(z, y): PLUS for z in (0, 1) for y in (0, 1)}
    cmg = CoupledMac(UNIFORM, rows, UNIFORM, states)
    region = cmg_mac_region(cmg)
    assert all(abs(v) < 1e-9 for v in region.meta["bounds"].values())
    assert region.contains((0.0, 0.0, 0.0), zero_vacuous=True)
    assert not region.contains((0.01, 0.0, 0.0), zero_vacuous=True)
    assert not region.contains((0.0, 0.01, 0.0), zero_vacuous=True)
    # the decoded senders are pinned to zero; part 2 never constrains R3
    assert region.parts_containing((0.0, 0.0, 0.7), zero_vacuous=True) == ("region-2",)


def test_classical_region_contained_in_ours():
    rng = np.random.default_rng(42)
    for _ in range(3):
        cmg = random_cmg(rng)
        ours = cmg_mac_region(cmg)
        classical = classical_cmg_region(cmg)
        if classical.max_bound() < 0.05:
            continue
        points = sample_points_inside(classical, rng, 100, margin=1e-6)
        for p in points:
            assert ours.contains(p, margin=1e-9)


def test_cmg_finite_length_shifts_upper_bounds_only():
    cmg = copy_cmg()
    delta = 0.002
    asym = cmg_mac_region(cmg)
    fin = cmg_mac_region(cmg, delta=delta)
    corr = rate_correction(delta, (2, 2, 2, 2))
    asym_rows = {(r["part"], r["label"].split(" <")[0], r["coeffs"]): r for r in asym.rows()}
    for row in fin.rows():
        key = (row["part"], row["label"].split(" <")[0], row["coeffs"])
        if any(c < 0 for c in row["coeffs"]):
            assert row["bound"] == pytest.approx(asym_rows[key]["bound"], abs=1e-12)
            assert row["relation"] == "<="
        else:
            assert row["relation"] == "<="
            base = next(
                v["bound"] for k, v in asym_rows.items() if k[0] == key[0] and k[2] == key[2]
            )
            assert row["bound"] == pytest.approx(base - corr, abs=1e-12)


def non_interfering_ic() -> InterferenceChannel:
    q = ClassicalDistribution(("q0",), (1.0,))
    ux = {"q0": ClassicalDistribution((("u0", 0), ("u0", 1)), (0.5, 0.5))}
    vy = {"q0": ClassicalDistribution((("v0", 0), ("v0", 1)), (0.5, 0.5))}
    states = {(x, y): np.kron(KET[x], KET[y]) for x in (0, 1) for y in (0, 1)}
    return InterferenceChannel(q, ux, vy, (2, 2), states)


def public_v_ic() -> InterferenceChannel:
    """Sender 2 is fully public (y = v); receiver 1 never sees it."""
    q = ClassicalDistribution(("q0",), (1.0,))
    ux = {"q0": ClassicalDistribution((("u0", 0), ("u0", 1)), (0.5, 0.5))}
    vy = {"q0": ClassicalDistribution((("v0", 0), ("v1", 1)), (0.5, 0.5))}
    states = {(x, y): np.kron(KET[x], KET[y]) for x in (0, 1) for y in (0, 1)}
    return InterferenceChannel(q, ux, vy, (2, 2), states)


def test_receiver_region_non_interfering():
    r1 = receiver_region(non_interfering_ic(), 1)
    assert r1.rate_names == ("R1c", "R1p", "R2c")
    b = r1.meta["bounds"]
    assert b["V:B1|X Q"] == pytest.approx(0.0, abs=1e-9)
    assert b["X:B1|Q"] == pytest.approx(1.0, abs=1e-9)
    assert r1.contains((0.0, 0.5, 0.3))
    assert r1.parts_containing((0.0, 0.5, 0.3)) == ("part-2",)
    with pytest.raises(ValueError):
        receiver_region(non_interfering_ic(), 3)


def test_ccqq_ic_non_interfering_pairs():
    result = ccqq_ic_region(non_interfering_ic(), step=0.25)
    assert (0.75, 0.75) in result.pairs
    witness = result.pairs[(0.75, 0.75)]
    assert result.quadruple_feasible(witness)
    assert result.pair(witness) == pytest.approx((0.75, 0.75))
    for (ra, rb) in result.pairs:
        assert ra <= 0.75 + 1e-9 and rb <= 0.75 + 1e-9


def test_ccqq_ic_identical_outputs_origin_pair():
    q = ClassicalDistribution(("q0",), (1.0,))
    ux = {"q0": ClassicalDistribution((("u0", 0), ("u0", 1)), (0.5, 0.5))}
    vy = {"q0": ClassicalDistribution((("v0", 0), ("v0", 1)), (0.5, 0.5))}
    states = {(x, y): np.kron(KET[0], KET[0]) for x in (0, 1) for y in (0, 1)}
    result = ccqq_ic_region(InterferenceChannel(q, ux, vy, (2, 2), states), step=0.25, grid_max=0.5)
    assert set(result.pairs) == {(0.0, 0.0)}
    assert result.pairs[(0.0, 0.0)] == (0.0, 0.0, 0.0, 0.0)


def test_fawzi_transform_fixes_undecodable_public_layer():
    ic = public_v_ic()
    quad = (0.0, 0.5, 0.5, 0.0)
    result = ccqq_ic_region(ic, step=0.25)
    assert result.quadruple_feasible(quad)
    assert not result.quadruple_feasible(quad, first_parts_only=True)
    witness = fawzi_first_part_witness(ic, quad)
    assert witness.fixed == ("v",)
    assert witness.quadruple == (0.0, 0.5, 0.0, 0.5)
    assert witness.receiver1_first_part and witness.receiver2_first_part
    assert sum(witness.quadruple[:2]) == pytest.approx(sum(quad[:2]))
    assert sum(witness.quadruple[2:]) == pytest.approx(sum(quad[2:]))


def test_fawzi_transform_keeps_first_part_quadruples():
    ic = public_v_ic()
    quad = (0.0, 0.5, 0.0, 0.0)
    witness = fawzi_first_part_witness(ic, quad)
    assert witness.fixed == ()
    assert witness.quadruple == quad


def test_fawzi_rejects_infeasible_quadruple():
    with pytest.raises(ValueError):
        fawzi_first_part_witness(public_v_ic(), (0.0, 2.0, 0.0, 0.0))


def test_boundary_sampler_lands_on_faces():
    region = ccq_mac_region(xor_mac())
    rng = np.random.default_rng(5)
    samples = sample_boundary(region, rng, per_part=16, box=2.0)
    pts = samples["pentagon"]
    assert len(pts) == 16
    part = region.parts[0]
    for p in pts:
        slacks = [c.bound - float(np.dot(c.coeffs, p)) for c in part.constraints]
        slacks += [p[0], p[1], 2.0 - p[0], 2.0 - p[1]]
        assert min(slacks) >= -1e-9
        assert min(slacks) <= 1e-7


def test_chebyshev_center_and_empty_part():
    region = ccq_mac_region(xor_mac())
    center = chebyshev_center(region.parts[0], 2, box=2.0)
    assert center is not None
    x0, radius = center
    assert radius > 0.1
    assert region.contains(tuple(x0))
    empty = RegionPart("empty", (Constraint((1.0, 0.0), -1.0, strict=True),))
    assert chebyshev_center(empty, 2, box=2.0) is None
    samples = sample_boundary(RateRegion(("R1", "R2"), (empty,)), np.random.default_rng(0))
    assert samples["empty"] == []


def test_sample_points_inside_and_failure():
    region = ccq_mac_region(xor_mac())
    rng = np.random.default_rng(9)
    pts = sample_points_inside(region, rng, 50, margin=1e-6)
    assert len(pts) == 50
    assert all(region.contains(p) for p in pts)
    empty = ccq_mac_region(identical_mac())
    with pytest.raises(RuntimeError):
        sample_points_inside(empty, rng, 5, max_tries=200)


def scalar_member(region: RateRegion, point, margin: float, zero_vacuous: bool) -> bool:
    """The membership convention transcribed one constraint at a time."""
    for part in region.parts:
        ok = True
        for c in part.constraints:
            lhs = sum(a * r for a, r in zip(c.coeffs, point))
            if not c.strict:
                ok = ok and lhs <= c.bound + margin
            else:
                vacuous = zero_vacuous and lhs <= ZERO_RATE_TOL and all(a >= 0 for a in c.coeffs)
                ok = ok and (vacuous or lhs <= c.bound - margin)
        if ok:
            return True
    return False


def edge_points(region: RateRegion, margin: float) -> list:
    """Per constraint: the point of its bound along its normal, and that
    point moved off the bound by margin, 2*margin and 1e-15 either way."""
    out = [(0.0,) * len(region.rate_names)]
    for part in region.parts:
        for c in part.constraints:
            a = np.asarray(c.coeffs)
            for shift in (0.0, margin, -margin, 2 * margin, -2 * margin, 1e-15, -1e-15):
                out.append(tuple(float(v) for v in (c.bound + shift) * a / (a @ a)))
    return out


def test_region_mask_matches_scalar_membership():
    rng = np.random.default_rng(13)
    regions = (
        disinterested_region(xor_mac()),
        ccq_mac_region(identical_mac()),  # every bound zero: only the zero-rate rule admits points
        ccq_mac_region(xor_mac(), delta=0.001),  # weak bounds
        cmg_mac_region(copy_cmg()),
    )
    for region, margin in itertools.product(regions, (1e-9, 1e-6)):
        k = len(region.rate_names)
        pts = np.vstack([rng.uniform(0.0, 1.5, size=(200, k)), edge_points(region, margin)])
        for zv in (False, True):
            mask = region_mask(region, pts, margin=margin, zero_vacuous=zv)
            scalar = [scalar_member(region, tuple(p), margin, zv) for p in pts]
            assert mask.tolist() == scalar
            assert mask.tolist() == [region.contains(tuple(p), margin, zv) for p in pts]
            assert 0 < mask.sum() < len(pts)


def test_region_validation():
    with pytest.raises(ValueError):
        RateRegion(("R1",), ())
    with pytest.raises(ValueError):
        RateRegion(("R1",), (RegionPart("p", (Constraint((1.0, 0.0), 1.0),)),))
    with pytest.raises(ValueError):
        Constraint((1.0,), math.inf)
