"""Achievable rate regions with entropic bounds.

A region is a union of parts; a part is a conjunction of linear
constraints over named rates.  Strict upper bounds come from asymptotic
coding arguments; blocklength-aware variants subtract an explicit
penalty and become weak.  Lower bounds and weak bounds are encoded in
the same coefficient form (a lower bound on a rate is an upper bound on
its negation).

Membership follows one convention throughout: a strict bound must hold
with a caller-visible margin, a weak bound is granted the same margin as
numerical grace, and optionally a strict bound whose left side is a
nonnegative combination evaluating to exactly zero counts as satisfied
(sending at zero rate needs no decoding, so such a constraint is
vacuous).  The zero-rate rule is what lets a region keep its origin when
every entropic bound collapses to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .channels import (
    CcqMac,
    CoupledMac,
    CqChannel,
    InterferenceChannel,
    LabeledCqState,
    _row_for,
    fix_public_layer,
    holevo_information,
    verify_conditional_entropy_identities,
)
from .typicality import exponent_correction

ZERO_RATE_TOL = 1e-12


@dataclass(frozen=True)
class Constraint:
    """One linear constraint sum_i coeffs[i] * R_i (< or <=) bound."""

    coeffs: tuple[float, ...]
    bound: float
    strict: bool = True
    label: str = ""

    def __post_init__(self):
        if not math.isfinite(self.bound) or not all(math.isfinite(c) for c in self.coeffs):
            raise ValueError("constraint coefficients and bound must be finite")

    def mask(self, pts: np.ndarray, margin: float = 1e-9, zero_vacuous: bool = False) -> np.ndarray:
        """Which rows of the (N, k) rate points satisfy the constraint."""
        lhs = pts @ np.asarray(self.coeffs)
        if not self.strict:
            return lhs <= self.bound + margin
        good = lhs <= self.bound - margin
        if zero_vacuous and all(x >= 0 for x in self.coeffs):
            good |= lhs <= ZERO_RATE_TOL
        return good

    def satisfied(self, point: Sequence[float], margin: float = 1e-9, zero_vacuous: bool = False) -> bool:
        return bool(self.mask(np.asarray([point], dtype=float), margin, zero_vacuous)[0])


@dataclass(frozen=True)
class RegionPart:
    name: str
    constraints: tuple[Constraint, ...]

    def mask(self, pts: np.ndarray, margin: float = 1e-9, zero_vacuous: bool = False) -> np.ndarray:
        ok = np.ones(len(pts), dtype=bool)
        for c in self.constraints:
            ok &= c.mask(pts, margin, zero_vacuous)
        return ok

    def contains(self, point: Sequence[float], margin: float = 1e-9, zero_vacuous: bool = False) -> bool:
        return bool(self.mask(np.asarray([point], dtype=float), margin, zero_vacuous)[0])


@dataclass
class RateRegion:
    """Union of constraint-conjunction parts over named rates."""

    rate_names: tuple[str, ...]
    parts: tuple[RegionPart, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.parts:
            raise ValueError("a region needs at least one part")
        for part in self.parts:
            for c in part.constraints:
                if len(c.coeffs) != len(self.rate_names):
                    raise ValueError("constraint arity does not match the rate names")

    def contains(self, point: Sequence[float], margin: float = 1e-9, zero_vacuous: bool = False) -> bool:
        return bool(region_mask(self, [point], margin, zero_vacuous)[0])

    def parts_containing(self, point: Sequence[float], margin: float = 1e-9, zero_vacuous: bool = False) -> tuple[str, ...]:
        return tuple(p.name for p in self.parts if p.contains(point, margin, zero_vacuous))

    def max_bound(self) -> float:
        vals = [
            c.bound
            for p in self.parts
            for c in p.constraints
            if all(x >= 0 for x in c.coeffs) and any(x > 0 for x in c.coeffs)
        ]
        return max(vals, default=0.0)

    def rows(self) -> list[dict]:
        out = []
        for p in self.parts:
            for c in p.constraints:
                out.append(
                    {
                        "part": p.name,
                        "label": c.label,
                        "coeffs": c.coeffs,
                        "relation": "<" if c.strict else "<=",
                        "bound": c.bound,
                    }
                )
        return out


def region_mask(region: RateRegion, pts, margin: float = 1e-9, zero_vacuous: bool = False) -> np.ndarray:
    """Which of the (N, k) rate points lie in some part of the region."""
    pts = np.asarray(pts, dtype=float)
    out = np.zeros(len(pts), dtype=bool)
    for part in region.parts:
        out |= part.mask(pts, margin, zero_vacuous)
    return out


# ---------------------------------------------------------------------------
# interior anchors and boundary sampling


def _half_planes(part: RegionPart, k: int, box: float) -> list[tuple[np.ndarray, float, bool]]:
    """Rows (a, b, strict) of a.R <= b: the part's constraints, then
    R_j >= 0 and R_j <= box for each axis j."""
    planes = [(np.asarray(c.coeffs, dtype=float), c.bound, c.strict) for c in part.constraints]
    for j in range(k):
        e = np.zeros(k)
        e[j] = -1.0
        planes += [(e, 0.0, False), (-e, box, False)]
    return planes


def chebyshev_center(part: RegionPart, k: int, box: float) -> tuple[np.ndarray, float] | None:
    """Largest-ball center of the part within [0, box]^k, or None if empty.

    The LP solver is imported here, its only use, so that the decoders and
    every command but ``cqlab regions`` run without loading scipy.
    """
    from scipy.optimize import linprog

    planes = _half_planes(part, k, box)
    a = np.vstack([row for row, _, _ in planes])
    rhs = np.asarray([b - (1e-9 if strict else 0.0) for _, b, strict in planes])
    norms = np.linalg.norm(a, axis=1)
    a_ub = np.hstack([a, norms[:, None]])
    c_obj = np.zeros(k + 1)
    c_obj[-1] = -1.0
    res = linprog(c_obj, A_ub=a_ub, b_ub=rhs, bounds=[(None, None)] * k + [(0, None)], method="highs")
    if not res.success or res.x[-1] <= 1e-12:
        return None
    return res.x[:k], float(res.x[-1])


def sample_boundary(region: RateRegion, rng: np.random.Generator, per_part: int = 8, box: float | None = None) -> dict:
    """Ray-cast boundary points per part, confined to [0, box]^k.

    Rays start at the part's largest-ball center and stop at the first
    binding hyperplane (a constraint, an axis, or the box).  Parts with
    empty interior yield an empty list.
    """
    k = len(region.rate_names)
    if box is None:
        box = max(region.max_bound(), 0.0) + 1.0
    out: dict = {}
    for part in region.parts:
        pts: list[tuple] = []
        anchor = chebyshev_center(part, k, box)
        if anchor is not None:
            x0, _ = anchor
            planes = _half_planes(part, k, box)
            for _ in range(per_part):
                u = rng.normal(size=k)
                u /= np.linalg.norm(u)
                t = math.inf
                for a, b, _ in planes:
                    au = float(a @ u)
                    if au > 1e-12:
                        t = min(t, (b - float(a @ x0)) / au)
                if math.isfinite(t):
                    pts.append(tuple(float(v) for v in x0 + t * u))
        out[part.name] = pts
    return out


def sample_points_inside(
    region: RateRegion,
    rng: np.random.Generator,
    count: int,
    box: float | None = None,
    margin: float = 1e-6,
    zero_vacuous: bool = False,
    max_tries: int = 500000,
) -> list[tuple]:
    """Rejection-sample rate points strictly inside the region."""
    k = len(region.rate_names)
    if box is None:
        box = max(region.max_bound(), 0.0) + 0.25
    out: list[tuple] = []
    for _ in range(max_tries):
        if len(out) >= count:
            break
        p = tuple(float(v) for v in rng.uniform(0.0, box, size=k))
        if region.contains(p, margin, zero_vacuous):
            out.append(p)
    if len(out) < count:
        raise RuntimeError(f"found only {len(out)}/{count} interior points in box [0, {box}]^{k}")
    return out


# ---------------------------------------------------------------------------
# region builders


def rate_correction(delta: float, context_dims: Sequence[int], scale: float = 6.0) -> float:
    """Blocklength rate penalty 4*c(scale*delta), c(d) = d*log2(D) - d*log2(d).

    D is the product of the dimensions/alphabet sizes the typicality
    analysis runs over; the penalty is what sequential decoding gives up
    against the asymptotic bound at window width scale*delta.
    """
    d = scale * float(delta)
    if d <= 0:
        raise ValueError("delta must be positive")
    return 4.0 * exponent_correction(d, context_dims)


def _upper(names: tuple[str, ...], terms: tuple[str, ...], expr: str, info: float, corr: float | None = None) -> Constraint:
    """The terms' rate sum < I(expr) = info; with a blocklength penalty, <= info - corr."""
    coeffs = tuple(1.0 if nm in terms else 0.0 for nm in names)
    lhs = "+".join(terms)
    if corr is None:
        return Constraint(coeffs, info, True, f"{lhs} < I({expr})")
    return Constraint(coeffs, info - corr, False, f"{lhs} <= I({expr}) - 4c(6 delta)")


def _lower(names: tuple[str, ...], term: str, expr: str, info: float) -> Constraint:
    """The rate ``term`` >= I(expr) = info, kept weak and unpenalised."""
    coeffs = tuple(-1.0 if nm == term else 0.0 for nm in names)
    return Constraint(coeffs, -info, False, f"{term} >= I({expr})")


def cq_region(channel: CqChannel) -> RateRegion:
    """Single-sender region R1 < I(X:B)."""
    info = holevo_information(channel.ensemble())
    part = RegionPart("theorem", (_upper(("R1",), ("R1",), "X:B", info),))
    return RateRegion(("R1",), (part,), {"bounds": {"I(X:B)": info}})


def ccq_mac_region(mac: CcqMac, delta: float | None = None) -> RateRegion:
    """Two-sender pentagon; with delta, the blocklength-aware weak variant.

    The finite variant subtracts rate_correction(delta, (dim, |X|, |Y|))
    from every bound and turns the constraints weak.
    """
    st = mac.labeled_state()
    i_x = st.mutual_information("X:B|Y")
    i_y = st.mutual_information("Y:B|X")
    i_xy = st.mutual_information("XY:B")
    corr = None if delta is None else rate_correction(delta, (mac.dim, mac.x_prior.size, mac.y_prior.size))
    names = ("R1", "R2")
    part = RegionPart(
        "pentagon",
        (
            _upper(names, ("R1",), "X:B|Y", i_x, corr),
            _upper(names, ("R2",), "Y:B|X", i_y, corr),
            _upper(names, ("R1", "R2"), "XY:B", i_xy, corr),
        ),
    )
    meta = {
        "bounds": {"I(X:B|Y)": i_x, "I(Y:B|X)": i_y, "I(XY:B)": i_xy},
        "delta": delta,
        "correction": corr or 0.0,
    }
    return RateRegion(names, (part,), meta)


def disinterested_region(mac: CcqMac) -> RateRegion:
    """Single-decoded-sender region: the receiver wants only message 1.

    Part 1 decodes sender 2's codeword as a stepping stone and needs R1 at
    least I(X:B); part 2 ignores sender 2 entirely and leaves R2 free.  The
    union is non-convex in general.
    """
    st = mac.labeled_state()
    i_x = st.mutual_information("X:B")
    i_x_cond = st.mutual_information("X:B|Y")
    i_sum = st.mutual_information("XY:B")
    names = ("R1", "R2")
    part1 = RegionPart(
        "part-1",
        (
            _lower(names, "R1", "X:B", i_x),
            _upper(names, ("R1",), "X:B|Y", i_x_cond),
            _upper(names, ("R1", "R2"), "XY:B", i_sum),
        ),
    )
    part2 = RegionPart("part-2", (_upper(names, ("R1",), "X:B", i_x),))
    meta = {"bounds": {"I(X:B)": i_x, "I(X:B|Y)": i_x_cond, "I(XY:B)": i_sum}}
    return RateRegion(names, (part1, part2), meta)


def _expr(left: str, quantum: str, cond: str) -> str:
    return f"{left}:{quantum}|{cond}" if cond else f"{left}:{quantum}"


def _join(*names: str) -> str:
    return " ".join(n for n in names if n)


def _cmg_pattern_parts(
    state: LabeledCqState,
    rates: tuple[str, str, str],
    systems: tuple[str, str, str],
    cond: str,
    part_names: tuple[str, str],
    corr: float | None = None,
) -> tuple[RegionPart, RegionPart, tuple[Constraint, ...], dict]:
    """Both parts of the three-rate coupled-senders region.

    ``systems`` orders the classical systems as (first sender, coupled
    second sender, disinterested third sender); ``rates`` aligns with them.
    Returns part 1, part 2, the four-constraint classical conjunction
    (part 1 without the third-rate bound), and the evaluated bounds.
    A ``corr`` subtracts the blocklength penalty from every upper bound
    and makes them weak.
    """
    r1, r2, r3 = rates
    xs, zs, ys = systems
    q = state.quantum_name
    mi = state.mutual_information

    e_y_given_z = _expr(ys, q, _join(zs, cond))
    e_z_given_xy = _expr(zs, q, _join(xs, ys, cond))
    e_z_given_y = _expr(zs, q, _join(ys, cond))
    e_zy_given_x = _expr(_join(zs, ys), q, _join(xs, cond))
    e_zy = _expr(_join(zs, ys), q, cond)
    e_z_given_x = _expr(zs, q, _join(xs, cond))
    e_z = _expr(zs, q, cond)

    bounds = {e: mi(e) for e in (e_y_given_z, e_z_given_xy, e_z_given_y, e_zy_given_x, e_zy, e_z_given_x, e_z)}

    def upper(terms: tuple, e: str) -> Constraint:
        return _upper(rates, terms, e, bounds[e], corr)

    classical = (
        upper((r2,), e_z_given_xy),
        upper((r1, r2), e_z_given_y),
        upper((r2, r3), e_zy_given_x),
        upper((r1, r2, r3), e_zy),
    )
    part1 = RegionPart(part_names[0], (upper((r3,), e_y_given_z),) + classical)
    part2 = RegionPart(
        part_names[1],
        (
            _lower(rates, r3, e_y_given_z, bounds[e_y_given_z]),
            upper((r2,), e_z_given_x),
            upper((r1, r2), e_z),
        ),
    )
    return part1, part2, classical, bounds


def cmg_mac_region(cmg: CoupledMac, delta: float | None = None) -> RateRegion:
    """Coupled three-sender region, both decoding strategies, as a union.

    Region 1 decodes all three codewords jointly; region 2 skips the third
    sender and applies when R3 is at least I(Y:B|Z).  The classical
    four-constraint comparison region is attached under meta["classical"].
    With delta, every upper bound drops by rate_correction(delta, dims) and
    turns weak; the part-2 lower bound is untouched.
    """
    cmg.verify_identities()
    st = cmg.labeled_state()
    names = ("R1", "R2", "R3")
    dims = (cmg.dim, cmg.x_prior.size, len(cmg.z_alphabet), cmg.y_prior.size)
    corr = None if delta is None else rate_correction(delta, dims)
    part1, part2, classical_cons, bounds = _cmg_pattern_parts(
        st, names, ("X", "Z", "Y"), "", ("region-1", "region-2"), corr
    )
    classical = RateRegion(names, (RegionPart("classical", classical_cons),), {"bounds": bounds})
    meta = {"bounds": bounds, "delta": delta, "correction": corr or 0.0, "classical": classical}
    return RateRegion(names, (part1, part2), meta)


def classical_cmg_region(cmg: CoupledMac) -> RateRegion:
    """Four-constraint comparison region (no bound on R3 alone)."""
    return cmg_mac_region(cmg).meta["classical"]


def receiver_region(ic: InterferenceChannel, receiver: int) -> RateRegion:
    """One receiver's three-rate region for the two-pair configuration.

    Receiver 1 plays the coupled-senders game with systems (U, X, V) and
    rates (R1c, R1p, R2c) on B1; receiver 2 with (V, Y, U) and rates
    (R2c, R2p, R1c) on B2.  All bounds carry the public time-share Q in the
    conditioning.
    """
    if receiver not in (1, 2):
        raise ValueError("receiver must be 1 or 2")
    st = ic.receiver_state(receiver)
    if receiver == 1:
        rates = ("R1c", "R1p", "R2c")
        systems = ("U", "X", "V")
    else:
        rates = ("R2c", "R2p", "R1c")
        systems = ("V", "Y", "U")
    verify_conditional_entropy_identities(st, systems, "Q")
    part1, part2, _, bounds = _cmg_pattern_parts(st, rates, systems, "Q", ("part-1", "part-2"))
    return RateRegion(rates, (part1, part2), {"receiver": receiver, "bounds": bounds})


# per channel class: (channel, delta) -> its regions by name, and whether delta shapes them
_NAMED_REGIONS = {
    CqChannel: (lambda ch, delta: {"cq": cq_region(ch)}, False),
    CcqMac: (lambda ch, delta: {"ccq-mac": ccq_mac_region(ch, delta)}, True),
    CoupledMac: (lambda ch, delta: {"cmg-mac": cmg_mac_region(ch, delta)}, True),
    InterferenceChannel: (lambda ch, delta: {f"receiver-{r}": receiver_region(ch, r) for r in (1, 2)}, False),
}


def named_regions(channel, delta: float | None = None) -> dict[str, RateRegion]:
    """A channel's rate regions by name; an interference channel gives one per receiver.

    A ``delta`` is refused for the kinds whose regions have no
    blocklength-aware variant.
    """
    row = _row_for(_NAMED_REGIONS, channel)
    if row is None:
        raise TypeError(f"no rate region for channel type {type(channel).__name__}")
    build, takes_delta = row
    if delta is not None and not takes_delta:
        raise ValueError(f"no blocklength-aware region for channel type {type(channel).__name__}; omit delta")
    return build(channel, delta)


# ---------------------------------------------------------------------------
# interference-channel achievability


@dataclass
class IcAchievability:
    """Grid-sampled achievable pairs with witness rate quadruples.

    ``pairs`` maps (R1, R2) to one feasible witness quadruple
    (R1c, R1p, R2c, R2p) with R1 = R1c + R1p and R2 = R2c + R2p.
    """

    channel: InterferenceChannel
    receiver1: RateRegion
    receiver2: RateRegion
    step: float
    pairs: dict
    rate_names: tuple[str, str, str, str] = ("R1c", "R1p", "R2c", "R2p")

    @staticmethod
    def triples(quadruple: Sequence[float]) -> tuple[tuple, tuple]:
        q0, q1, q2, q3 = (float(v) for v in quadruple)
        return (q0, q1, q2), (q2, q3, q0)

    @staticmethod
    def pair(quadruple: Sequence[float]) -> tuple[float, float]:
        q0, q1, q2, q3 = (float(v) for v in quadruple)
        return (q0 + q1, q2 + q3)

    def quadruple_feasible(self, quadruple: Sequence[float], first_parts_only: bool = False) -> bool:
        """Both receivers' triples inside their regions, under the zero-rate convention."""
        t1, t2 = self.triples(quadruple)
        r1, r2 = self.receiver1, self.receiver2
        if first_parts_only:
            r1, r2 = r1.parts[0], r2.parts[0]
        return r1.contains(t1, zero_vacuous=True) and r2.contains(t2, zero_vacuous=True)


def ccqq_ic_region(
    ic: InterferenceChannel,
    step: float = 0.05,
    grid_max: float | None = None,
) -> IcAchievability:
    """Achievable (R1, R2) pairs of the two-pair configuration by grid search.

    Quadruples (R1c, R1p, R2c, R2p) on a step-spaced grid are tested
    against both receivers' disjunctive regions; each feasible quadruple
    witnesses the pair it projects to.  The regions are non-convex unions,
    so sampling with witnesses substitutes for polytope arithmetic.
    """
    r1 = receiver_region(ic, 1)
    r2 = receiver_region(ic, 2)
    gmax = grid_max if grid_max is not None else max(r1.max_bound(), r2.max_bound())
    k = int(math.floor(max(gmax, 0.0) / step + 1e-9)) + 1
    if k > 128:
        raise ValueError(f"grid would need {k} values per axis; raise step or lower grid_max")
    vals = np.arange(k) * step

    def triple_table(region: RateRegion) -> np.ndarray:
        pts = np.stack(np.meshgrid(vals, vals, vals, indexing="ij"), axis=-1).reshape(-1, 3)
        return region_mask(region, pts, zero_vacuous=True).reshape(k, k, k)

    t1 = triple_table(r1)
    t2 = triple_table(r2)
    # feasible[a, b, c, d] requires receiver-1 triple (a, b, c) and
    # receiver-2 triple (c, d, a)
    feasible = t1[:, :, :, None] & np.transpose(t2, (2, 0, 1))[:, None, :, :]
    pairs: dict = {}
    for a, b, c, d in np.argwhere(feasible):
        key = (round(float((a + b) * step), 9), round(float((c + d) * step), 9))
        if key not in pairs:
            pairs[key] = (
                float(a * step),
                float(b * step),
                float(c * step),
                float(d * step),
            )
    return IcAchievability(ic, r1, r2, step, pairs)


@dataclass(frozen=True)
class FawziWitness:
    """Outcome of trading undecodable public layers for private rate."""

    channel: InterferenceChannel
    quadruple: tuple
    fixed: tuple
    receiver1_first_part: bool
    receiver2_first_part: bool


def fawzi_first_part_witness(ic: InterferenceChannel, quadruple: Sequence[float]) -> FawziWitness:
    """Rewrite a feasible quadruple so both receivers use their first parts.

    If receiver 1 needs its second part (it cannot decode the other pair's
    public layer V), V is fixed to a constant and sender 2's whole rate
    moves to the private layer; symmetrically for receiver 2 and U.  The
    projected pair (R1, R2) is unchanged.  The returned flags report
    first-part membership of the transformed triples on the transformed
    channel, tested with the zero-rate convention.
    """
    q0, q1, q2, q3 = (float(v) for v in quadruple)
    r1 = receiver_region(ic, 1)
    r2 = receiver_region(ic, 2)
    t1, t2 = IcAchievability.triples((q0, q1, q2, q3))
    in1 = [p.contains(t1, zero_vacuous=True) for p in r1.parts]
    in2 = [p.contains(t2, zero_vacuous=True) for p in r2.parts]
    if not any(in1) or not any(in2):
        raise ValueError("quadruple is not feasible for both receivers")
    chan = ic
    quad = (q0, q1, q2, q3)
    fixed: list[str] = []
    if not in1[0]:
        chan = fix_public_layer(chan, "v")
        fixed.append("v")
        quad = (quad[0], quad[1], 0.0, quad[2] + quad[3])
    if not in2[0]:
        chan = fix_public_layer(chan, "u")
        fixed.append("u")
        quad = (0.0, quad[0] + quad[1], quad[2], quad[3])
    n1 = receiver_region(chan, 1)
    n2 = receiver_region(chan, 2)
    nt1, nt2 = IcAchievability.triples(quad)
    ok1 = n1.parts[0].contains(nt1, zero_vacuous=True)
    ok2 = n2.parts[0].contains(nt2, zero_vacuous=True)
    return FawziWitness(chan, quad, tuple(fixed), ok1, ok2)
