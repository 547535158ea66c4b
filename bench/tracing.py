"""Span tracing of cqlab from outside the package.

``Tracer.install`` replaces every public function of the traced cqlab
modules, and the public methods of ``Projector`` and ``CqEnsemble``, with a
wrapper that records one span per call: name, start, end, parent span and
op id.  A function is replaced in every ``cqlab`` module namespace that
holds it, because ``from .geometry import sequential_collapse`` binds a
separate name in ``cqlab.decoders``.  References held inside containers
(``cqlab.verify.SUITES``) are not rewritten; their time counts as self time
of the caller.

Spans stay in memory until ``write``; ``uninstall`` restores the originals.
A few exact counts are taken at the wrapped calls (``COUNT_*`` keys).  They
read their arguments and never change them, so traced and untraced runs
compute bit-identical results; a call whose arguments they cannot read is
counted under ``COUNT_HOOK_FAILURES`` and runs unchanged.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from collections.abc import Sequence

import numpy as np

MODULES = ("linalg", "typicality", "geometry", "decoders", "smoothing", "verify", "specio", "cli")
CLASSES = (("linalg", "Projector"), ("typicality", "CqEnsemble"))

# Spans under which a sequential chain tests a decoder's candidate projector.
SEQUENTIAL_DECODERS = frozenset(
    f"decoders.{name}"
    for name in ("cq_sequential_decode", "ccq_mac_sequential_decode", "cmg_sequential_decode")
)

COUNT_STEPS = "geometry.sequential_collapse.steps"
COUNT_ZERO_RANK_STEPS = "geometry.sequential_collapse.zero_rank_steps"
COUNT_FLOP = "geometry.sequential_collapse.flop_computed"
COUNT_CTP_REPEATS = "typicality.cond_typical_projector.repeats"
COUNT_CANDIDATES = "decoders.candidates"
COUNT_EMPTY_CANDIDATES = "decoders.candidates_rank_zero"
COUNT_HOOK_FAILURES = "tracing.hook_failures"


def _is_empty(op) -> bool:
    """True for a rank-0 Projector or an all-zero matrix."""
    rank = getattr(op, "rank", None)
    if isinstance(rank, int):
        return rank == 0
    return not np.any(np.asarray(getattr(op, "matrix", op)))


def _step_projector(step):
    if isinstance(step, tuple):
        return step[0]
    return getattr(step, "projector", step)


def _ensemble_key(ensemble) -> tuple:
    dist = ensemble.dist
    states = tuple(np.asarray(ensemble.states[s]).tobytes() for s in dist.support)
    return (dist.support, dist.probs, states)


class Tracer:
    """Records spans and counts for the cqlab calls made while installed.

    ``spans[i]`` is ``(name_id, start, end, parent_index, op)`` with
    ``names[name_id]`` the dotted name; ``parent_index`` is -1 for a span
    opened outside any other.  ``counts`` maps ``(op, key)`` to a number.
    Set ``op`` before each op so spans and counts carry its id.
    """

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[tuple[int, int]] = []
        self._plan: list | None = None
        self._patched: list[tuple[object, str, object]] = []
        self._seen_projectors: set = set()
        self._seen_op = -1
        self._decoder_ids: set[int] = set()
        self._hooks = {
            "geometry.sequential_collapse": self._count_chain,
            "decoders.pgm_decode": self._count_pgm,
            "typicality.cond_typical_projector": self._count_cond_projector,
        }

    # -- installation -------------------------------------------------
    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        if self._plan is None:
            self._plan = self._build_plan()
        for owner, attr, replacement in self._plan:
            self._patched.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, replacement)

    def _build_plan(self) -> list[tuple[object, str, object]]:
        """Every (owner, attribute, wrapper) to patch, wrappers made once."""
        plan = []
        wrappers: dict[int, object] = {}
        for short in MODULES:
            mod = importlib.import_module(f"cqlab.{short}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__ and id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "cqlab" or name.startswith("cqlab.")):
                continue
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    plan.append((mod, attr, wrappers[id(obj)]))
        for short, cls_name in CLASSES:
            cls = getattr(importlib.import_module(f"cqlab.{short}"), cls_name)
            for attr, obj in vars(cls).items():
                if attr.startswith("_"):
                    continue
                label = f"{short}.{cls_name}.{attr}"
                if isinstance(obj, classmethod):
                    plan.append((cls, attr, classmethod(self._wrap(label, obj.__func__))))
                elif inspect.isfunction(obj):
                    plan.append((cls, attr, self._wrap(label, obj)))
        return plan

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        if name in SEQUENTIAL_DECODERS:
            self._decoder_ids.add(nid)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                try:
                    hook(*args, **kwargs)
                except (TypeError, AttributeError, IndexError, ValueError):
                    # a call shape the counters do not know; never fail the call
                    self.counts[(self.op, COUNT_HOOK_FAILURES)] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((idx, nid))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, self.op)

        return traced

    # -- counts taken at the wrapped calls ----------------------------
    def _count_chain(self, rho, steps, *_, **__) -> None:
        if not isinstance(steps, Sequence):
            raise TypeError("steps is not a sequence; counting would consume it")
        dim = np.shape(getattr(rho, "matrix", rho))[0]
        c, op = self.counts, self.op
        c[(op, COUNT_STEPS)] += len(steps)
        # two complex D x D products per conjugation, 8 D^3 real flops each
        c[(op, COUNT_FLOP)] += 16 * dim**3 * len(steps)
        c[(op, COUNT_ZERO_RANK_STEPS)] += sum(_is_empty(_step_projector(s)) for s in steps)
        if steps and any(nid in self._decoder_ids for _, nid in self._stack):
            # the last step of a decoder chain is the sent message's candidate
            c[(op, COUNT_CANDIDATES)] += 1
            c[(op, COUNT_EMPTY_CANDIDATES)] += _is_empty(_step_projector(steps[-1]))

    def _count_pgm(self, channel, codebook, elements, *_, **__) -> None:
        if not hasattr(elements, "values"):
            return
        ops = list(elements.values())
        self.counts[(self.op, COUNT_CANDIDATES)] += len(ops)
        self.counts[(self.op, COUNT_EMPTY_CANDIDATES)] += sum(_is_empty(e) for e in ops)

    def _count_cond_projector(self, ensemble, seq, delta, cap=None) -> None:
        if not isinstance(seq, Sequence):
            raise TypeError("seq is not a sequence; counting would consume it")
        if self._seen_op != self.op:
            self._seen_op = self.op
            self._seen_projectors.clear()
        key = (_ensemble_key(ensemble), tuple(seq), float(delta), cap)
        if key in self._seen_projectors:
            self.counts[(self.op, COUNT_CTP_REPEATS)] += 1
        self._seen_projectors.add(key)

    # -- results -------------------------------------------------------
    def arrays(self) -> dict:
        """Spans as column arrays plus each span's self time."""
        if any(s is None for s in self.spans):
            raise RuntimeError("spans are still open")
        table = np.array(self.spans, dtype=np.float64).reshape(-1, 5)
        name = table[:, 0].astype(np.int64)
        parent = table[:, 3].astype(np.int64)
        duration = table[:, 2] - table[:, 1]
        child = np.zeros(len(table))
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        return {
            "name": name,
            "start": table[:, 1],
            "end": table[:, 2],
            "parent": parent,
            "op": table[:, 4].astype(np.int64),
            "self": duration - child,
        }

    def write(self, path) -> None:
        cols = self.arrays()
        del cols["self"]
        np.savez_compressed(path, names=np.array(self.names), **cols)
