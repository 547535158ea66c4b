"""Channel-spec interchange: JSON documents to channel models and back.

The document format is plain JSON with complex numbers spelled as
``[re, im]`` pairs.  Parsing is strict and every failure names the exact
field that caused it; a parsed model serializes back to an equivalent
document, which is the bit-exact interchange contract for the CLI.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Mapping, Sequence
from typing import NamedTuple

import numpy as np

from .channels import CcqMac, CoupledMac, CqChannel, InterferenceChannel, _row_for
from .linalg import require_state
from .typicality import ClassicalDistribution

SCHEMA = "cqlab-channel/1"

ROW_TOL = 1e-9


class SpecError(ValueError):
    """Parse or validation failure, carrying the offending location."""

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")


def _need(doc: Mapping, key: str, where: str):
    if not isinstance(doc, Mapping):
        raise SpecError(where, "expected an object")
    if key not in doc:
        raise SpecError(where, f"missing field {key!r}")
    return doc[key]


def _string_list(obj, where: str) -> tuple[str, ...]:
    if not isinstance(obj, Sequence) or isinstance(obj, str):
        raise SpecError(where, "expected a list of symbol names")
    out = []
    for i, s in enumerate(obj):
        if not isinstance(s, str):
            raise SpecError(f"{where}[{i}]", "symbol names must be strings")
        out.append(s)
    if not out:
        raise SpecError(where, "alphabet is empty")
    if len(set(out)) != len(out):
        raise SpecError(where, "duplicate symbol")
    return tuple(out)


def _prob_list(obj, where: str, count: int) -> tuple[float, ...]:
    if not isinstance(obj, Sequence) or isinstance(obj, str):
        raise SpecError(where, "expected a list of probabilities")
    if len(obj) != count:
        raise SpecError(where, f"expected {count} probabilities, got {len(obj)}")
    out = []
    for i, v in enumerate(obj):
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise SpecError(f"{where}[{i}]", "probabilities must be numbers")
        if v < -1e-12:
            raise SpecError(f"{where}[{i}]", f"negative probability {v}")
        out.append(max(0.0, float(v)))
    total = sum(out)
    if abs(total - 1.0) > ROW_TOL:
        raise SpecError(where, f"probabilities sum to {total!r}, expected 1")
    return tuple(out)


def _parse_dist(obj, where: str) -> ClassicalDistribution:
    symbols = _string_list(_need(obj, "symbols", where), f"{where}.symbols")
    probs = _prob_list(_need(obj, "probs", where), f"{where}.probs", len(symbols))
    return ClassicalDistribution(symbols, probs)


def _dump_dist(dist: ClassicalDistribution) -> dict:
    return {"symbols": list(dist.symbols), "probs": [float(p) for p in dist.probs]}


def _parse_matrix(obj, where: str, dim: int | None = None) -> np.ndarray:
    if not isinstance(obj, Sequence) or isinstance(obj, str):
        raise SpecError(where, "expected a matrix (list of rows)")
    d = len(obj)
    if d == 0:
        raise SpecError(where, "matrix is empty")
    if dim is not None and d != dim:
        raise SpecError(where, f"expected a {dim}x{dim} matrix, got {d} rows")
    out = np.zeros((d, d), dtype=complex)
    for i, row in enumerate(obj):
        if not isinstance(row, Sequence) or isinstance(row, str) or len(row) != d:
            raise SpecError(f"{where}[{i}]", f"expected a row of {d} entries")
        for j, entry in enumerate(row):
            ok = (
                isinstance(entry, Sequence)
                and not isinstance(entry, str)
                and len(entry) == 2
                and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)
            )
            if not ok:
                raise SpecError(f"{where}[{i}][{j}]", "entries must be [re, im] pairs")
            out[i, j] = complex(entry[0], entry[1])
    try:
        return require_state(out, "matrix")
    except ValueError as exc:
        raise SpecError(where, str(exc)) from exc


def _dump_matrix(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


def _state_table(obj, rows: Sequence[str], cols: Sequence[str], where: str) -> dict:
    """Nested mapping row-symbol -> col-symbol -> density matrix."""
    if not isinstance(obj, Mapping):
        raise SpecError(where, "expected an object keyed by symbol")
    states: dict = {}
    dim: int | None = None
    for r in rows:
        inner = _need(obj, r, where)
        for c in cols:
            m = _parse_matrix(_need(inner, c, f"{where}.{r}"), f"{where}.{r}.{c}", dim)
            dim = m.shape[0]
            states[(r, c)] = m
    return states


def _parse_cq(doc: Mapping) -> CqChannel:
    prior = _parse_dist(_need(doc, "input", "spec"), "spec.input")
    raw = _need(doc, "states", "spec")
    if not isinstance(raw, Mapping):
        raise SpecError("spec.states", "expected an object keyed by symbol")
    states: dict = {}
    dim: int | None = None
    for s in prior.symbols:
        m = _parse_matrix(_need(raw, s, "spec.states"), f"spec.states.{s}", dim)
        dim = m.shape[0]
        states[s] = m
    return CqChannel(prior, states)


def _dump_cq(model: CqChannel) -> dict:
    return {
        "input": _dump_dist(model.prior),
        "states": {s: _dump_matrix(model.states[s]) for s in model.prior.symbols},
    }


def _parse_ccq_mac(doc: Mapping) -> CcqMac:
    x = _parse_dist(_need(doc, "x", "spec"), "spec.x")
    y = _parse_dist(_need(doc, "y", "spec"), "spec.y")
    states = _state_table(_need(doc, "states", "spec"), x.symbols, y.symbols, "spec.states")
    return CcqMac(x, y, states)


def _dump_ccq_mac(model: CcqMac) -> dict:
    return {
        "x": _dump_dist(model.x_prior),
        "y": _dump_dist(model.y_prior),
        "states": {
            x: {y: _dump_matrix(model.states[(x, y)]) for y in model.y_prior.symbols}
            for x in model.x_prior.symbols
        },
    }


def _parse_cmg_mac(doc: Mapping) -> CoupledMac:
    x = _parse_dist(_need(doc, "x", "spec"), "spec.x")
    z_symbols = _string_list(_need(doc, "z_symbols", "spec"), "spec.z_symbols")
    table = _need(doc, "z_given_x", "spec")
    if not isinstance(table, Mapping):
        raise SpecError("spec.z_given_x", "expected an object keyed by x symbol")
    rows: dict = {}
    for s in x.symbols:
        row = _prob_list(
            _need(table, s, "spec.z_given_x"), f"spec.z_given_x.{s}", len(z_symbols)
        )
        rows[s] = ClassicalDistribution(z_symbols, row)
    y = _parse_dist(_need(doc, "y", "spec"), "spec.y")
    states = _state_table(_need(doc, "states", "spec"), z_symbols, y.symbols, "spec.states")
    return CoupledMac(x, rows, y, states)


def _dump_cmg_mac(model: CoupledMac) -> dict:
    z_symbols = next(iter(model.z_given_x.values())).symbols
    return {
        "x": _dump_dist(model.x_prior),
        "z_symbols": list(z_symbols),
        "z_given_x": {
            x: [float(model.z_given_x[x].prob(z)) for z in z_symbols]
            for x in model.x_prior.symbols
        },
        "y": _dump_dist(model.y_prior),
        "states": {
            z: {y: _dump_matrix(model.states[(z, y)]) for y in model.y_prior.symbols}
            for z in z_symbols
        },
    }


def _parse_pair_dist(obj, where: str) -> ClassicalDistribution:
    raw = _need(obj, "symbols", where)
    if not isinstance(raw, Sequence) or isinstance(raw, str):
        raise SpecError(f"{where}.symbols", "expected a list of [first, second] pairs")
    pairs = []
    for i, entry in enumerate(raw):
        ok = (
            isinstance(entry, Sequence)
            and not isinstance(entry, str)
            and len(entry) == 2
            and all(isinstance(v, str) for v in entry)
        )
        if not ok:
            raise SpecError(f"{where}.symbols[{i}]", "expected a [first, second] pair of strings")
        pairs.append((entry[0], entry[1]))
    if len(set(pairs)) != len(pairs):
        raise SpecError(f"{where}.symbols", "duplicate symbol pair")
    probs = _prob_list(_need(obj, "probs", where), f"{where}.probs", len(pairs))
    return ClassicalDistribution(tuple(pairs), probs)


def _dump_pair_dist(dist: ClassicalDistribution) -> dict:
    return {**_dump_dist(dist), "symbols": [list(pair) for pair in dist.symbols]}


def _parse_ccqq_ic(doc: Mapping) -> InterferenceChannel:
    q = _parse_dist(_need(doc, "q", "spec"), "spec.q")
    dims_raw = _need(doc, "output_dims", "spec")
    ok = (
        isinstance(dims_raw, Sequence)
        and not isinstance(dims_raw, str)
        and len(dims_raw) == 2
        and all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in dims_raw)
    )
    if not ok:
        raise SpecError("spec.output_dims", "expected a pair of positive integers")
    dims = (int(dims_raw[0]), int(dims_raw[1]))

    def rows(field: str) -> dict:
        table = _need(doc, field, "spec")
        if not isinstance(table, Mapping):
            raise SpecError(f"spec.{field}", "expected an object keyed by q symbol")
        return {
            s: _parse_pair_dist(_need(table, s, f"spec.{field}"), f"spec.{field}.{s}")
            for s in q.symbols
        }

    ux = rows("ux_given_q")
    vy = rows("vy_given_q")
    xs = sorted({pair[1] for row in ux.values() for pair in row.symbols})
    ys = sorted({pair[1] for row in vy.values() for pair in row.symbols})
    raw_states = _need(doc, "states", "spec")
    states: dict = {}
    for x in xs:
        inner = _need(raw_states, x, "spec.states")
        for y in ys:
            states[(x, y)] = _parse_matrix(
                _need(inner, y, f"spec.states.{x}"), f"spec.states.{x}.{y}", dims[0] * dims[1]
            )
    return InterferenceChannel(q, ux, vy, dims, states)


def _dump_ccqq_ic(model: InterferenceChannel) -> dict:
    xs = sorted(model.alphabet("x"))
    ys = sorted(model.alphabet("y"))
    return {
        "q": _dump_dist(model.q_prior),
        "ux_given_q": {q: _dump_pair_dist(model.ux_given_q[q]) for q in model.q_prior.symbols},
        "vy_given_q": {q: _dump_pair_dist(model.vy_given_q[q]) for q in model.q_prior.symbols},
        "output_dims": list(model.output_dims),
        "states": {x: {y: _dump_matrix(model.states[(x, y)]) for y in ys} for x in xs},
    }


class _Codec(NamedTuple):
    kind: str
    parse: Callable  # spec document -> channel model
    dump: Callable  # channel model -> the document's fields past schema and kind


# one row per channel kind, in spec-kind order
_CODECS = {
    CqChannel: _Codec("cq", _parse_cq, _dump_cq),
    CcqMac: _Codec("ccq-mac", _parse_ccq_mac, _dump_ccq_mac),
    CoupledMac: _Codec("cmg-mac", _parse_cmg_mac, _dump_cmg_mac),
    InterferenceChannel: _Codec("ccqq-ic", _parse_ccqq_ic, _dump_ccqq_ic),
}
KINDS = tuple(codec.kind for codec in _CODECS.values())


def parse_channel(doc):
    """Parse a spec document (parsed JSON) into a channel model."""
    kind = _need(doc, "kind", "spec")
    codec = next((c for c in _CODECS.values() if c.kind == kind), None)
    if codec is None:
        raise SpecError("spec.kind", f"unknown kind {kind!r}; expected one of {KINDS}")
    schema = doc.get("schema", SCHEMA)
    if schema != SCHEMA:
        raise SpecError("spec.schema", f"unsupported schema {schema!r}; expected {SCHEMA!r}")
    try:
        return codec.parse(doc)
    except SpecError:
        raise
    except ValueError as exc:
        raise SpecError("spec", str(exc)) from exc


def load_channel(path):
    """Read and parse a channel-spec JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from exc
    return parse_channel(doc)


def _codec(model) -> _Codec:
    codec = _row_for(_CODECS, model)
    if codec is None:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    return codec


def _kind(model) -> str:
    """The spec kind of a channel model, read off its class or a base class."""
    return _codec(model).kind


def serialize_channel(model) -> dict:
    """Render a channel model back into a spec document."""
    codec = _codec(model)
    return {"schema": SCHEMA, "kind": codec.kind, **codec.dump(model)}


def dump_channel(model, path) -> None:
    """Write a channel model as a spec JSON file (stable key order)."""
    doc = serialize_channel(model)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
