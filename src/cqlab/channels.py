"""Channel models and entropic quantities.

Four channel shapes are modelled, all with classical inputs and quantum
outputs:

* ``CqChannel``       one sender, states rho_x;
* ``CcqMac``          two independent senders, states rho_{x,y};
* ``CoupledMac``      three senders where the first two are coupled through
                      a conditional distribution p(z|x), the channel reads
                      (z, y), and the receiver wants the first two messages;
* ``InterferenceChannel``  two sender/receiver pairs with superposition
                      coding variables (u, x) and (v, y) sharing a public
                      time-sharing variable q, output on a bipartite space.

Entropies are von Neumann entropies in bits.  Mutual informations are
evaluated on classical-quantum states where every conditioning system is
classical, via I(A:C|E) = H(AE) + H(CE) - H(ACE) - H(E).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .linalg import _state_spectrum, as_matrix, require_state
from .typicality import ClassicalDistribution, CqEnsemble, entropy_bits


def von_neumann_entropy(rho) -> float:
    """Entropy in bits of a density operator, ignoring eigenvalues <= 1e-14,
    read off the spectrum that the state check takes."""
    return entropy_bits(_state_spectrum(rho)[1])


def holevo_information(ensemble: CqEnsemble) -> float:
    """I(X:B) of the ensemble: H(avg) - sum_x p(x) H(rho_x)."""
    return von_neumann_entropy(ensemble.average_state()) - ensemble.conditional_entropy()


def partial_trace(rho, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one tensor factor of a bipartite operator."""
    d1, d2 = dims
    a = as_matrix(rho)
    if a.shape[0] != d1 * d2:
        raise ValueError(f"operator dimension {a.shape[0]} is not {d1}*{d2}")
    t = a.reshape(d1, d2, d1, d2)
    if keep == 0:
        return np.trace(t, axis1=1, axis2=3)
    if keep == 1:
        return np.trace(t, axis1=0, axis2=2)
    raise ValueError("keep must be 0 or 1")


# ---------------------------------------------------------------------------
# labeled classical-quantum states


class LabeledCqState:
    """Joint state of named classical systems and one quantum system.

    ``dist`` ranges over tuples aligned with ``names``; ``states`` maps each
    support tuple to a density operator of the quantum system.  Entropies of
    subsystem groups and conditional mutual informations between groups are
    evaluated directly from this table.
    """

    def __init__(self, names: Sequence[str], dist: ClassicalDistribution, states: Mapping, quantum_name: str = "B"):
        self.names = tuple(names)
        self.dist = dist
        self.quantum_name = quantum_name
        self.states = {k: as_matrix(v) for k, v in states.items()}
        for sym in dist.support:
            if len(sym) != len(self.names):
                raise ValueError("classical symbols do not match the system names")
            if sym not in self.states:
                raise ValueError(f"missing state for classical value {sym!r}")
        dims = {m.shape[0] for m in self.states.values()}
        if len(dims) != 1:
            raise ValueError("states have inconsistent dimensions")
        self.dim = dims.pop()

    def _marginal(self, keep: tuple[str, ...], with_quantum: bool):
        pos = [self.names.index(n) for n in keep]
        table: dict = {}
        for sym in self.dist.support:
            key = tuple(sym[i] for i in pos)
            p = self.dist.prob(sym)
            if key not in table:
                table[key] = [0.0, np.zeros((self.dim, self.dim), dtype=complex) if with_quantum else None]
            table[key][0] += p
            if with_quantum:
                table[key][1] = table[key][1] + p * self.states[sym]
        return table

    def entropy(self, systems: Sequence[str]) -> float:
        """Joint entropy of the named systems, in bits.

        Include the quantum name to add the quantum system.
        """
        systems = tuple(systems)
        with_quantum = self.quantum_name in systems
        classical = tuple(n for n in systems if n != self.quantum_name)
        for n in classical:
            if n not in self.names:
                raise ValueError(f"unknown system {n!r}")
        table = self._marginal(classical, with_quantum)
        h = entropy_bits(p for p, _ in table.values())
        if with_quantum:
            for p, acc in table.values():
                if p > 1e-14:
                    h += p * von_neumann_entropy(acc / p)
        return h

    def parse_systems(self, token: str) -> tuple[str, ...]:
        """Split a system group like "XV" or "U V" into known names."""
        token = token.strip()
        if not token:
            return ()
        if any(sep in token for sep in (" ", ",")):
            parts = token.replace(",", " ").split()
            for p in parts:
                if p != self.quantum_name and p not in self.names:
                    raise ValueError(f"unknown system {p!r}")
            return tuple(parts)
        known = sorted([*self.names, self.quantum_name], key=len, reverse=True)
        out = []
        rest = token
        while rest:
            for name in known:
                if rest.startswith(name):
                    out.append(name)
                    rest = rest[len(name):]
                    break
            else:
                raise ValueError(f"cannot parse system group {token!r}")
        return tuple(out)

    def mutual_information(self, expression: str) -> float:
        """Evaluate an expression like "I(X:B|Y)" or "XV:B" in bits.

        Conditioning systems must be classical; the quantum system may
        appear on either side of the colon.
        """
        expr = expression.strip()
        if expr.startswith("I(") and expr.endswith(")"):
            expr = expr[2:-1]
        if "|" in expr:
            main, cond = expr.split("|", 1)
        else:
            main, cond = expr, ""
        if ":" not in main:
            raise ValueError(f"expected a colon in {expression!r}")
        left, right = main.split(":", 1)
        a = self.parse_systems(left)
        c = self.parse_systems(right)
        e = self.parse_systems(cond)
        if self.quantum_name in e:
            raise ValueError("conditioning on the quantum system is not supported")
        if set(a) & set(c):
            raise ValueError("the two sides of the colon overlap")
        h_ae = self.entropy(a + e)
        h_ce = self.entropy(c + e)
        h_ace = self.entropy(a + c + e)
        h_e = self.entropy(e) if e else 0.0
        return h_ae + h_ce - h_ace - h_e


def verify_conditional_entropy_identities(
    state: LabeledCqState, systems: tuple[str, str, str], cond: str = ""
) -> None:
    """Check H(B|ZY) = H(B|ZXY) and H(B|Z) = H(B|XZ) for (X, Z, Y) = systems.

    Both identities hold whenever the third system is independent of the
    first two and the quantum output reads only (Z, Y); a violation means
    the model was wired inconsistently.  ``cond`` names an extra classical
    system appearing in every conditioning group.
    """
    xs, zs, ys = systems
    q = state.quantum_name

    def h(*names: str) -> float:
        return state.entropy(tuple(n for n in names if n))

    lhs1 = h(zs, ys, cond, q) - h(zs, ys, cond)
    rhs1 = h(xs, zs, ys, cond, q) - h(xs, zs, ys, cond)
    lhs2 = h(zs, cond, q) - h(zs, cond)
    rhs2 = h(xs, zs, cond, q) - h(xs, zs, cond)
    if abs(lhs1 - rhs1) > 1e-9 or abs(lhs2 - rhs2) > 1e-9:
        raise ValueError("conditional-entropy identities violated; channel wiring is inconsistent")


# ---------------------------------------------------------------------------
# channel models


def _validate_states(states: Mapping, what: str) -> dict:
    out = {}
    dims = set()
    for k, v in states.items():
        a = out[k] = require_state(v, f"{what} state {k!r}")
        dims.add(a.shape[0])
    if len(dims) > 1:
        raise ValueError(f"{what} states have inconsistent dimensions")
    return out


@dataclass
class CqChannel:
    """Single-sender channel x -> rho_x with an input prior."""

    prior: ClassicalDistribution
    states: Mapping

    def __post_init__(self):
        self.states = _validate_states(self.states, "channel")
        for x in self.prior.support:
            if x not in self.states:
                raise ValueError(f"missing channel state for input {x!r}")

    @property
    def dim(self) -> int:
        return next(iter(self.states.values())).shape[0]

    def ensemble(self) -> CqEnsemble:
        return CqEnsemble(self.prior, self.states)

    def labeled_state(self) -> LabeledCqState:
        dist = ClassicalDistribution(
            tuple((x,) for x in self.prior.symbols), self.prior.probs
        )
        return LabeledCqState(("X",), dist, {(x,): self.states[x] for x in self.prior.support})

    def mutual_information(self) -> float:
        return holevo_information(self.ensemble())


@dataclass
class CcqMac:
    """Two-sender multiple access channel (x, y) -> rho_{x,y}.

    The senders are independent by construction: each has its own prior.
    """

    x_prior: ClassicalDistribution
    y_prior: ClassicalDistribution
    states: Mapping

    def __post_init__(self):
        self.states = _validate_states(self.states, "channel")
        for x in self.x_prior.support:
            for y in self.y_prior.support:
                if (x, y) not in self.states:
                    raise ValueError(f"missing channel state for input {(x, y)!r}")

    @property
    def dim(self) -> int:
        return next(iter(self.states.values())).shape[0]

    def pair_ensemble(self) -> CqEnsemble:
        return CqEnsemble(self.x_prior.product(self.y_prior), self.states)

    def x_ensemble(self) -> CqEnsemble:
        states = {
            x: sum(self.y_prior.prob(y) * self.states[(x, y)] for y in self.y_prior.support)
            for x in self.x_prior.support
        }
        return CqEnsemble(self.x_prior, states)

    def y_ensemble(self) -> CqEnsemble:
        states = {
            y: sum(self.x_prior.prob(x) * self.states[(x, y)] for x in self.x_prior.support)
            for y in self.y_prior.support
        }
        return CqEnsemble(self.y_prior, states)

    def labeled_state(self) -> LabeledCqState:
        dist = self.x_prior.product(self.y_prior)
        return LabeledCqState(
            ("X", "Y"),
            dist,
            {pair: self.states[pair] for pair in dist.support},
        )


@dataclass
class CoupledMac:
    """Three-sender channel where only (z, y) reach the medium.

    Sender 1 picks x, sender 2 picks z correlated with x through p(z|x),
    sender 3 picks y independently.  The receiver decodes the first two
    messages; the third sender's traffic is disinterested load.
    """

    x_prior: ClassicalDistribution
    z_given_x: Mapping
    y_prior: ClassicalDistribution
    states: Mapping  # keyed by (z, y)

    def __post_init__(self):
        self.states = _validate_states(self.states, "channel")
        z_alphabet = None
        rows = {}
        for x in self.x_prior.support:
            if x not in self.z_given_x:
                raise ValueError(f"missing conditional row p(z|x) for x={x!r}")
            row = self.z_given_x[x]
            if not isinstance(row, ClassicalDistribution):
                raise ValueError("z_given_x rows must be ClassicalDistribution")
            if z_alphabet is None:
                z_alphabet = row.symbols
            elif row.symbols != z_alphabet:
                raise ValueError("conditional rows use inconsistent z alphabets")
            rows[x] = row
        self.z_given_x = rows
        for z in z_alphabet:
            for y in self.y_prior.support:
                if (z, y) not in self.states:
                    raise ValueError(f"missing channel state for input {(z, y)!r}")
        self.verify_identities()

    @property
    def z_alphabet(self) -> tuple:
        return next(iter(self.z_given_x.values())).symbols

    @property
    def dim(self) -> int:
        return next(iter(self.states.values())).shape[0]

    def z_prior(self) -> ClassicalDistribution:
        probs = []
        for z in self.z_alphabet:
            probs.append(
                sum(self.x_prior.prob(x) * self.z_given_x[x].prob(z) for x in self.x_prior.support)
            )
        return ClassicalDistribution(self.z_alphabet, tuple(probs))

    def xz_dist(self) -> ClassicalDistribution:
        syms, probs = [], []
        for x in self.x_prior.symbols:
            for z in self.z_alphabet:
                syms.append((x, z))
                probs.append(self.x_prior.prob(x) * (self.z_given_x[x].prob(z) if self.x_prior.prob(x) > 0 else 0.0))
        return ClassicalDistribution(tuple(syms), tuple(probs))

    def state_z(self, z) -> np.ndarray:
        return sum(self.y_prior.prob(y) * self.states[(z, y)] for y in self.y_prior.support)

    def state_xy(self, x, y) -> np.ndarray:
        return sum(self.z_given_x[x].prob(z) * self.states[(z, y)] for z in self.z_alphabet)

    def zy_ensemble(self) -> CqEnsemble:
        return CqEnsemble(self.z_prior().product(self.y_prior), self.states)

    def xy_ensemble(self) -> CqEnsemble:
        dist = self.x_prior.product(self.y_prior)
        states = {(x, y): self.state_xy(x, y) for x in self.x_prior.support for y in self.y_prior.support}
        return CqEnsemble(dist, states)

    def y_ensemble(self) -> CqEnsemble:
        zp = self.z_prior()
        states = {
            y: sum(zp.prob(z) * self.states[(z, y)] for z in zp.support)
            for y in self.y_prior.support
        }
        return CqEnsemble(self.y_prior, states)

    def z_ensemble(self) -> CqEnsemble:
        zp = self.z_prior()
        return CqEnsemble(zp, {z: self.state_z(z) for z in zp.support})

    def labeled_state(self) -> LabeledCqState:
        syms, probs, states = [], [], {}
        for x in self.x_prior.symbols:
            px = self.x_prior.prob(x)
            for z in self.z_alphabet:
                pz = self.z_given_x[x].prob(z) if px > 0 else 0.0
                for y in self.y_prior.symbols:
                    py = self.y_prior.prob(y)
                    syms.append((x, z, y))
                    probs.append(px * pz * py)
                    if px * pz * py > 0:
                        states[(x, z, y)] = self.states[(z, y)]
        dist = ClassicalDistribution(tuple(syms), tuple(probs))
        return LabeledCqState(("X", "Z", "Y"), dist, states)

    def verify_identities(self) -> None:
        verify_conditional_entropy_identities(self.labeled_state(), ("X", "Z", "Y"))


@dataclass
class InterferenceChannel:
    """Two-by-two interference configuration with superposition coding.

    Classical systems: public q, sender-1 pair (u, x), sender-2 pair (v, y);
    the channel maps (x, y) to a state on B1 (x) B2.  Receiver 1 sees B1 and
    wants sender 1's messages; receiver 2 sees B2.
    """

    q_prior: ClassicalDistribution
    ux_given_q: Mapping  # q -> ClassicalDistribution over (u, x)
    vy_given_q: Mapping  # q -> ClassicalDistribution over (v, y)
    output_dims: tuple[int, int]
    states: Mapping  # keyed by (x, y), on B1 (x) B2

    def __post_init__(self):
        self.states = _validate_states(self.states, "channel")
        d1, d2 = self.output_dims
        for m in self.states.values():
            if m.shape[0] != d1 * d2:
                raise ValueError("state dimension does not match output_dims")
        self.ux_given_q = dict(self.ux_given_q)
        self.vy_given_q = dict(self.vy_given_q)
        for q in self.q_prior.support:
            if q not in self.ux_given_q or q not in self.vy_given_q:
                raise ValueError(f"missing conditional inputs for q={q!r}")

    def alphabet(self, which: str) -> tuple:
        idx = {"u": 0, "x": 1, "v": 0, "y": 1}[which]
        table = self.ux_given_q if which in ("u", "x") else self.vy_given_q
        seen: list = []
        for row in table.values():
            for sym in row.symbols:
                if sym[idx] not in seen:
                    seen.append(sym[idx])
        return tuple(seen)

    def joint_dist(self) -> ClassicalDistribution:
        """Joint over (q, u, x, v, y)."""
        syms, probs = [], []
        for q in self.q_prior.symbols:
            pq = self.q_prior.prob(q)
            if pq <= 0:
                continue
            for (u, x) in self.ux_given_q[q].symbols:
                pux = self.ux_given_q[q].prob((u, x))
                for (v, y) in self.vy_given_q[q].symbols:
                    pvy = self.vy_given_q[q].prob((v, y))
                    syms.append((q, u, x, v, y))
                    probs.append(pq * pux * pvy)
        return ClassicalDistribution(tuple(syms), tuple(probs))

    def receiver_state(self, receiver: int) -> LabeledCqState:
        """Labeled state seen by one receiver.

        Receiver 1 gets systems (Q, U, X, V) with the B1 marginal averaged
        over y given (v, q); receiver 2 symmetrically gets (Q, V, Y, U).
        """
        joint = self.joint_dist()
        table: dict = {}
        dist_table: dict = {}
        d = self.output_dims[0] * self.output_dims[1]
        for (q, u, x, v, y) in joint.support:
            p = joint.prob((q, u, x, v, y))
            key = (q, u, x, v) if receiver == 1 else (q, v, y, u)
            dist_table[key] = dist_table.get(key, 0.0) + p
            acc = table.setdefault(key, np.zeros((d, d), dtype=complex))
            table[key] = acc + p * self.states[(x, y)]
        states = {}
        for key, acc in table.items():
            if dist_table[key] > 0:
                full = acc / dist_table[key]
                states[key] = partial_trace(full, self.output_dims, keep=0 if receiver == 1 else 1)
        names = ("Q", "U", "X", "V") if receiver == 1 else ("Q", "V", "Y", "U")
        keys = sorted(dist_table.keys(), key=repr)
        dist = ClassicalDistribution(tuple(keys), tuple(dist_table[k] for k in keys))
        return LabeledCqState(names, dist, states, quantum_name="B1" if receiver == 1 else "B2")


def fix_public_layer(ic: InterferenceChannel, which: str) -> InterferenceChannel:
    """Replace one public layer (u or v) by a constant symbol.

    The partner marginal p(x|q) or p(y|q) is preserved and channel states
    are untouched.  Used by the rate-region transformation that trades a
    public layer the opposite receiver cannot decode for private rate.
    """
    if which not in ("u", "v"):
        raise ValueError("which must be 'u' or 'v'")
    table = ic.ux_given_q if which == "u" else ic.vy_given_q
    new_rows = {}
    for q, row in table.items():
        marg: dict = {}
        for (pub, priv), p in zip(row.symbols, row.probs):
            marg[priv] = marg.get(priv, 0.0) + p
        new_rows[q] = ClassicalDistribution(
            tuple(("*", b) for b in marg), tuple(marg.values())
        )
    if which == "u":
        return InterferenceChannel(ic.q_prior, new_rows, dict(ic.vy_given_q), ic.output_dims, ic.states)
    return InterferenceChannel(ic.q_prior, dict(ic.ux_given_q), new_rows, ic.output_dims, ic.states)


def _row_for(table: Mapping, channel):
    """The row ``table`` keys by the channel's class or its nearest listed base class; None if neither."""
    return next((table[cls] for cls in type(channel).__mro__ if cls in table), None)
