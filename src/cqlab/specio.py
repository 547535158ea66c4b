"""Channel-spec interchange: JSON documents to channel models and back.

The document format is plain JSON with complex numbers spelled as
``[re, im]`` pairs.  Parsing is strict and every failure names the exact
field that caused it; a parsed model serializes back to an equivalent
document, which is the bit-exact interchange contract for the CLI.
"""

from __future__ import annotations

import json
import math
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


def _is_array(obj) -> bool:
    """A JSON array: any sequence but a string."""
    return isinstance(obj, Sequence) and not isinstance(obj, str)


def _is_number(v, kind=(int, float)) -> bool:
    """A JSON number of the given kind that fits a float (booleans are not
    numbers, and an integer beyond the float range is refused)."""
    if not isinstance(v, kind) or isinstance(v, bool):
        return False
    try:
        float(v)
    except OverflowError:
        return False
    return True


def _keyed(obj, keys, where: str, what: str, parse: Callable) -> dict:
    """``{k: parse(obj[k], "<where>.<k>")}`` over ``keys``, in order."""
    if not isinstance(obj, Mapping):
        raise SpecError(where, f"expected an object keyed by {what}")
    return {k: parse(_need(obj, k, where), f"{where}.{k}") for k in keys}


def _string_list(obj, where: str) -> tuple[str, ...]:
    if not _is_array(obj):
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


def _pair_list(obj, where: str) -> tuple[tuple[str, str], ...]:
    if not _is_array(obj):
        raise SpecError(where, "expected a list of [first, second] pairs")
    pairs = []
    for i, entry in enumerate(obj):
        if not (_is_array(entry) and len(entry) == 2 and all(isinstance(v, str) for v in entry)):
            raise SpecError(f"{where}[{i}]", "expected a [first, second] pair of strings")
        pairs.append((entry[0], entry[1]))
    if len(set(pairs)) != len(pairs):
        raise SpecError(where, "duplicate symbol pair")
    return tuple(pairs)


def _prob_list(obj, where: str, count: int) -> tuple[float, ...]:
    if not _is_array(obj):
        raise SpecError(where, "expected a list of probabilities")
    if len(obj) != count:
        raise SpecError(where, f"expected {count} probabilities, got {len(obj)}")
    out = []
    for i, v in enumerate(obj):
        if not _is_number(v):
            raise SpecError(f"{where}[{i}]", "probabilities must be numbers")
        if v < -1e-12:
            raise SpecError(f"{where}[{i}]", f"negative probability {v}")
        if not math.isfinite(v):
            raise SpecError(f"{where}[{i}]", f"non-finite probability {v}")
        out.append(max(0.0, float(v)))
    total = sum(out)
    if abs(total - 1.0) > ROW_TOL:
        raise SpecError(where, f"probabilities sum to {total!r}, expected 1")
    return tuple(out)


def _parse_dist(obj, where: str, symbols: Callable = _string_list) -> ClassicalDistribution:
    names = symbols(_need(obj, "symbols", where), f"{where}.symbols")
    probs = _prob_list(_need(obj, "probs", where), f"{where}.probs", len(names))
    return ClassicalDistribution(names, probs)


def _dump_dist(dist: ClassicalDistribution) -> dict:
    return {"symbols": list(dist.symbols), "probs": [float(p) for p in dist.probs]}


def _dump_pair_dist(dist: ClassicalDistribution) -> dict:
    return {**_dump_dist(dist), "symbols": [list(pair) for pair in dist.symbols]}


def _parse_matrix(obj, where: str, dim: int | None = None) -> np.ndarray:
    if not _is_array(obj):
        raise SpecError(where, "expected a matrix (list of rows)")
    d = len(obj)
    if d == 0:
        raise SpecError(where, "matrix is empty")
    if dim is not None and d != dim:
        raise SpecError(where, f"expected a {dim}x{dim} matrix, got {d} rows")
    out = np.zeros((d, d), dtype=complex)
    for i, row in enumerate(obj):
        if not _is_array(row) or len(row) != d:
            raise SpecError(f"{where}[{i}]", f"expected a row of {d} entries")
        for j, entry in enumerate(row):
            if not (_is_array(entry) and len(entry) == 2 and all(_is_number(v) for v in entry)):
                raise SpecError(f"{where}[{i}][{j}]", "entries must be [re, im] pairs")
            out[i, j] = complex(entry[0], entry[1])
    try:
        return require_state(out, "matrix")
    except ValueError as exc:
        raise SpecError(where, str(exc)) from exc


def _dump_matrix(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


def _state_table(obj, rows: Sequence[str], where: str, cols: Sequence[str] | None = None,
                 dim: int | None = None) -> dict:
    """Density matrices keyed by row symbol, or by (row, col) when ``cols``
    is given; all of the first one's dimension, or of ``dim`` when given."""

    def matrix(raw, at: str) -> np.ndarray:
        nonlocal dim
        m = _parse_matrix(raw, at, dim)
        dim = m.shape[0]
        return m

    if cols is None:
        return _keyed(obj, rows, where, "symbol", matrix)
    table = _keyed(
        obj, rows, where, "symbol", lambda row, at: {c: matrix(_need(row, c, at), f"{at}.{c}") for c in cols}
    )
    return {(r, c): m for r, row in table.items() for c, m in row.items()}


def _dump_table(states: Mapping, rows: Sequence, cols: Sequence) -> dict:
    return {r: {c: _dump_matrix(states[(r, c)]) for c in cols} for r in rows}


def _parse_cq(doc: Mapping) -> CqChannel:
    prior = _parse_dist(_need(doc, "input", "spec"), "spec.input")
    return CqChannel(prior, _state_table(_need(doc, "states", "spec"), prior.symbols, "spec.states"))


def _dump_cq(model: CqChannel) -> dict:
    return {
        "input": _dump_dist(model.prior),
        "states": {s: _dump_matrix(model.states[s]) for s in model.prior.symbols},
    }


def _parse_ccq_mac(doc: Mapping) -> CcqMac:
    x = _parse_dist(_need(doc, "x", "spec"), "spec.x")
    y = _parse_dist(_need(doc, "y", "spec"), "spec.y")
    states = _state_table(_need(doc, "states", "spec"), x.symbols, "spec.states", y.symbols)
    return CcqMac(x, y, states)


def _dump_ccq_mac(model: CcqMac) -> dict:
    return {
        "x": _dump_dist(model.x_prior),
        "y": _dump_dist(model.y_prior),
        "states": _dump_table(model.states, model.x_prior.symbols, model.y_prior.symbols),
    }


def _parse_cmg_mac(doc: Mapping) -> CoupledMac:
    x = _parse_dist(_need(doc, "x", "spec"), "spec.x")
    z_symbols = _string_list(_need(doc, "z_symbols", "spec"), "spec.z_symbols")

    def z_row(raw, at: str) -> ClassicalDistribution:
        return ClassicalDistribution(z_symbols, _prob_list(raw, at, len(z_symbols)))

    rows = _keyed(_need(doc, "z_given_x", "spec"), x.symbols, "spec.z_given_x", "x symbol", z_row)
    y = _parse_dist(_need(doc, "y", "spec"), "spec.y")
    states = _state_table(_need(doc, "states", "spec"), z_symbols, "spec.states", y.symbols)
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
        "states": _dump_table(model.states, z_symbols, model.y_prior.symbols),
    }


def _parse_ccqq_ic(doc: Mapping) -> InterferenceChannel:
    q = _parse_dist(_need(doc, "q", "spec"), "spec.q")
    dims = _need(doc, "output_dims", "spec")
    if not (_is_array(dims) and len(dims) == 2 and all(_is_number(v, int) and v >= 1 for v in dims)):
        raise SpecError("spec.output_dims", "expected a pair of positive integers")
    dims = (int(dims[0]), int(dims[1]))

    def pair_dist(raw, at: str) -> ClassicalDistribution:
        return _parse_dist(raw, at, _pair_list)

    ux = _keyed(_need(doc, "ux_given_q", "spec"), q.symbols, "spec.ux_given_q", "q symbol", pair_dist)
    vy = _keyed(_need(doc, "vy_given_q", "spec"), q.symbols, "spec.vy_given_q", "q symbol", pair_dist)
    xs = sorted({pair[1] for row in ux.values() for pair in row.symbols})
    ys = sorted({pair[1] for row in vy.values() for pair in row.symbols})
    states = _state_table(_need(doc, "states", "spec"), xs, "spec.states", ys, dims[0] * dims[1])
    return InterferenceChannel(q, ux, vy, dims, states)


def _dump_ccqq_ic(model: InterferenceChannel) -> dict:
    return {
        "q": _dump_dist(model.q_prior),
        "ux_given_q": {q: _dump_pair_dist(model.ux_given_q[q]) for q in model.q_prior.symbols},
        "vy_given_q": {q: _dump_pair_dist(model.vy_given_q[q]) for q in model.q_prior.symbols},
        "output_dims": list(model.output_dims),
        "states": _dump_table(model.states, sorted(model.alphabet("x")), sorted(model.alphabet("y"))),
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
