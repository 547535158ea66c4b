"""Package-wide checks: the source imports only what it uses, reads every
private name it defines and every public one outside ``cqlab.__all__`` (or the
benchmark reads it), reads every public method and property of its classes
and (with the tests) every public dataclass field,
forms Kronecker products through one kernel, reads
the typicality window slack and the state tolerance in one function each,
forms an index grid only in the per-group typical mask, smooths without the
dense trace_with, branches on type only where it checks outside input or
formats output, keeps one table row per channel kind,
the resource guards are fixed constants, every dense entry point enforces
DIM_CAP, and only the rate-region sampler loads scipy."""

import ast
import importlib
import inspect
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import cqlab
from cqlab import decoders, regions, specio
from cqlab.channels import CcqMac, CoupledMac, CqChannel, InterferenceChannel, _row_for
from cqlab.decoders import (
    pgm_decode,
    pgm_elements,
    sample_codebook,
    sequential_decode,
)
from cqlab.linalg import DIM_CAP, DimensionCapError
from cqlab.smoothing import smoothed_states
from cqlab.typicality import (
    ClassicalDistribution,
    CqEnsemble,
    TypicalityParams,
    verify_conditional_typicality,
)

SRC = pathlib.Path(cqlab.__file__).parent
BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({alias.asname or alias.name.split(".")[0]: node.lineno for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({alias.asname or alias.name: node.lineno for alias in node.names})
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_unused_import_check_sees_every_form():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from typing import Mapping, Sequence\n"
        "from .linalg import DIM_CAP as CAP, Projector\n"
        "def f(x: Sequence) -> Projector:\n"
        "    return os.path.sep\n"
    )
    assert unused_imports(source) == ["line 2: math", "line 4: Mapping", "line 5: CAP"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def defined_names(tree: ast.Module) -> list[str]:
    """Module-level function, class and constant names of a parsed module."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Names a parsed module reads, calls or imports.  An attribute counts by
    its own name only when its chain starts at a name the module imports
    (``mod.f``, ``pkg.mod.f``), so ``self.f`` reads no module-level ``f``."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(alias.asname or alias.name for alias in node.names)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in imported:
                used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Private (``_``-prefixed, not dunder) module-level functions, classes and
    constants that no module of ``sources`` reads, calls or imports."""
    trees = {fname: ast.parse(source) for fname, source in sources.items()}
    used = set().union(*map(read_names, trees.values()))
    defined = {
        name: fname
        for fname, tree in trees.items()
        for name in defined_names(tree)
        if name.startswith("_") and not name.startswith("__")
    }
    return sorted(f"{fname}: {name}" for name, fname in defined.items() if name not in used)


def unreferenced_public_names(sources: dict[str, str], readers: dict[str, str], exported) -> list[str]:
    """Public module-level names of ``sources`` outside ``exported`` that no
    module of ``sources`` or ``readers`` reads, calls or imports."""
    trees = {fname: ast.parse(source) for fname, source in sources.items()}
    used = set().union(*map(read_names, trees.values()), *(read_names(ast.parse(s)) for s in readers.values()))
    return sorted(
        f"{fname}: {name}"
        for fname, tree in trees.items()
        for name in defined_names(tree)
        if not name.startswith("_") and name not in exported and name not in used
    )


def test_unreferenced_private_check_sees_every_form():
    sources = {
        "a.py": (
            "__all__ = ['f']\n"
            "_CAP = 4\n"
            "_DEAD: int = 1\n"
            "def _helper():\n"
            "    return _CAP\n"
            "def _unused():\n"
            "    return 0\n"
            "class _Row:\n"
            "    pass\n"
            "def f():\n"
            "    _unused = 1\n"
            "    return _helper()\n"
        ),
        "b.py": "from .a import _Row\n",
    }
    assert unreferenced_private_names(sources) == ["a.py: _DEAD", "a.py: _unused"]


def test_source_has_no_unreferenced_private_names():
    # dead private helpers are deleted, not kept beside their replacement
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def test_unreferenced_public_check_sees_every_form():
    sources = {
        "a.py": (
            "LIMIT = 4\n"
            "TABLE: dict = {}\n"
            "Alias = int\n"
            "def exported():\n"
            "    return LIMIT\n"
            "def dead():\n"
            "    return 0\n"
            "class Row:\n"
            "    pass\n"
            "def by_attribute():\n"
            "    pass\n"
            "def by_chain():\n"
            "    pass\n"
            "def shadowed():\n"
            "    pass\n"
        ),
        # an attribute of the same name on an instance reads nothing of a.py
        "b.py": "from .a import Row\nclass _Other:\n    def f(self):\n        return self.shadowed\n",
    }
    readers = {"bench.py": "import a\nimport pkg.a\na.by_attribute()\npkg.a.by_chain()\n"}
    assert unreferenced_public_names(sources, readers, {"exported"}) == [
        "a.py: Alias", "a.py: TABLE", "a.py: dead", "a.py: shadowed",
    ]


# The ccqq-ic region API and its averaged-state overlap report: the paper's
# headline region, kept public though no module of the package reads it.
KEPT_PUBLIC = {
    "ccqq_ic_region",
    "fawzi_first_part_witness",
    "classical_cmg_region",
    "disinterested_region",
    "sample_points_inside",
    "verify_averaged_state_overlaps",
}


def test_source_has_no_unreferenced_public_names():
    # a public name outside cqlab.__all__ that neither the package nor the
    # benchmark reads is dead code, and is deleted
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    readers = {str(path): path.read_text() for path in sorted(BENCH.rglob("*.py"))}
    assert unreferenced_public_names(sources, readers, {*cqlab.__all__, *KEPT_PUBLIC}) == []


def public_methods(tree: ast.Module) -> list[str]:
    """``Class.name`` of every public method and property of the module-level
    classes.  Dunders are not public, and dataclass fields are not methods."""
    return [
        f"{node.name}.{item.name}"
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")
    ]


def read_attributes(tree: ast.Module) -> set[str]:
    """Attribute names a parsed module reads, on any object.  A module that
    reads an attribute by a computed name (``getattr(obj, name)``) is taken
    to read every string constant it holds, since its tables name them."""
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    computed = any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "getattr"
        and len(node.args) > 1
        and not isinstance(node.args[1], ast.Constant)
        for node in ast.walk(tree)
    )
    if computed:
        read.update(node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str))
    return read


def public_fields(tree: ast.Module) -> list[str]:
    """``Class.name`` of every public field of the module-level dataclasses."""
    def is_dataclass(node: ast.ClassDef) -> bool:
        return any(
            isinstance(d, ast.Name) and d.id == "dataclass"
            or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
            for d in node.decorator_list
        )

    return [
        f"{node.name}.{item.target.id}"
        for node in tree.body
        if isinstance(node, ast.ClassDef) and is_dataclass(node)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name) and not item.target.id.startswith("_")
    ]


def unreferenced_members(sources: dict[str, str], readers: dict[str, str], kept, members=public_methods) -> list[str]:
    """The ``members`` (public methods and properties, or dataclass fields)
    of the classes of ``sources``, outside ``kept``, whose name no module of
    ``sources`` or ``readers`` reads as an attribute."""
    trees = {fname: ast.parse(source) for fname, source in sources.items()}
    read = set().union(*map(read_attributes, trees.values()), *(read_attributes(ast.parse(s)) for s in readers.values()))
    return sorted(
        f"{fname}: {name}"
        for fname, tree in trees.items()
        for name in members(tree)
        if name not in kept and name.split(".")[1] not in read
    )


def test_unreferenced_method_check_sees_every_form():
    sources = {
        "a.py": (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Row:\n"
            "    field: int\n"
            "    def __post_init__(self):\n"
            "        self.stored = self.helper()\n"
            "    def helper(self):\n"
            "        return 1\n"
            "    def dead(self):\n"
            "        return 0\n"
            "    @property\n"
            "    def unread(self):\n"
            "        return 2\n"
            "    @classmethod\n"
            "    def made(cls):\n"
            "        return cls(0)\n"
            "    def _private(self):\n"
            "        return 3\n"
            "    def by_table(self):\n"
            "        return 4\n"
            "    def stored(self):\n"
            "        return 5\n"
            "    def kept(self):\n"
            "        return 6\n"
        ),
        # a table of names read through getattr counts as attribute reads
        "b.py": "NAMES = ('by_table',)\ndef pick(row, i):\n    return getattr(row, NAMES[i])()\n",
    }
    readers = {"bench.py": "from a import Row\nRow.made()\n"}
    assert unreferenced_members(sources, readers, {"Row.kept"}) == [
        "a.py: Row.dead", "a.py: Row.stored", "a.py: Row.unread",
    ]


# Deliberate API that only the tests read: the ccqq-ic region API (the
# interference channel's achievability witnesses and the x ensemble its
# averaged-state overlap report takes) and the decode report's per-message
# views.
KEPT_METHODS = {
    "Constraint.satisfied",
    "RateRegion.parts_containing",
    "IcAchievability.quadruple_feasible",
    "IcAchievability.pair",
    "CcqMac.x_ensemble",
    "DecodeReport.errors",
    "DecodeReport.bounds",
    "DecodeReport.vacuous_bounds",
}


def test_source_has_no_unreferenced_methods():
    # a public method or property that neither the package nor the benchmark
    # reads is a second way in that only the tests keep alive, and is deleted
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    readers = {str(path): path.read_text() for path in sorted(BENCH.rglob("*.py"))}
    assert unreferenced_members(sources, readers, KEPT_METHODS) == []


def test_unreferenced_field_check_sees_every_form():
    sources = {
        "a.py": (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Report:\n"
            "    read_here: int\n"
            "    read_by_bench: int\n"
            "    read_by_test: int\n"
            "    by_table: int\n"
            "    dead: float\n"
            "    stored: int = 0\n"
            "    _private: int = 0\n"
            "    kept: int = 0\n"
            "    def total(self):\n"
            "        return self.read_here\n"
            "@dataclass\n"
            "class Block:\n"
            "    line: object = None\n"
            "class Plain:\n"
            "    annotated: int\n"
            "def fill(block):\n"
            "    block.stored = 1\n"
        ),
        # a table of names read through getattr counts as attribute reads
        "b.py": "NAMES = ('by_table',)\ndef pick(row, i):\n    return getattr(row, NAMES[i])\n",
    }
    readers = {"bench.py": "def f(r):\n    return r.read_by_bench\n", "test_a.py": "def g(r):\n    return r.read_by_test\n"}
    assert unreferenced_members(sources, readers, {"Report.kept"}, public_fields) == [
        "a.py: Block.line", "a.py: Report.dead", "a.py: Report.stored",
    ]


# The ccqq-ic region API, kept whole though nothing reads it: the grid step
# that the achievability witnesses were sampled at.
KEPT_FIELDS = {"IcAchievability.step"}


def test_source_has_no_unreferenced_fields():
    # a public dataclass field that neither the package, the benchmark nor the
    # tests read is a result nobody looks at, and is deleted
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    tests = pathlib.Path(__file__).parent
    readers = {str(path): path.read_text() for path in sorted([*BENCH.rglob("*.py"), *tests.glob("*.py")])}
    assert unreferenced_members(sources, readers, KEPT_FIELDS, public_fields) == []


def kron_uses(source: str) -> list[str]:
    """Lines that reach ``numpy.kron`` as a callable rather than ``linalg._kron``."""
    tree = ast.parse(source)
    numpy_names = {"numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            numpy_names.update(a.asname or a.name for a in node.names if a.name == "numpy")
    hits = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "kron":
            if isinstance(node.value, ast.Name) and node.value.id in numpy_names:
                hits.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            if any(a.name == "kron" for a in node.names):
                hits.add(node.lineno)
    return [f"line {line}" for line in sorted(hits)]


def test_kron_check_sees_calls_and_references_but_not_docstrings():
    source = (
        'import numpy as np\n'
        'from numpy import kron\n'
        'def f(a, b):\n'
        '    """Bit-identical to ``np.kron``."""\n'
        '    return np.kron(a, b)\n'
        'g = functools.reduce(np.kron, [])\n'
        'h = _kron(a, b)\n'
    )
    assert kron_uses(source) == ["line 2", "line 5", "line 6"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_the_kron_kernel_only(path):
    assert kron_uses(path.read_text()) == []


def constant_readers(source: str, name: str) -> list[str]:
    """Functions that read ``name``, a module-level constant or an attribute,
    "<module>" for reads outside any function; importing it counts as a
    module-level read."""
    readers = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Name) and child.id == name and isinstance(child.ctx, ast.Load):
                readers.add(where)
            elif isinstance(child, ast.Attribute) and child.attr == name:
                readers.add(where)
            elif isinstance(child, ast.ImportFrom) and any(a.name == name for a in child.names):
                readers.add("<module>")
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sorted(readers)


def test_constant_reader_check_sees_every_form():
    source = (
        "from .typicality import WINDOW_SLACK\n"
        "WINDOW_SLACK = 1e-12\n"
        "def windows(n):\n"
        "    return n * WINDOW_SLACK\n"
        "def other(t):\n"
        "    def inner():\n"
        "        return t.WINDOW_SLACK\n"
        "    return inner\n"
        "SCALED = 2 * WINDOW_SLACK\n"
    )
    assert constant_readers(source, "WINDOW_SLACK") == ["<module>", "inner", "windows"]


@pytest.mark.parametrize(
    "name, owner",
    [
        ("WINDOW_SLACK", ("typicality.py", "_typical_count_windows")),
        ("STATE_TOL", ("linalg.py", "_state_spectrum")),
        ("PROJECTOR_TOL", ("linalg.py", "require_projector")),
        ("DENSE_FLOOR_LEAK", ("decoders.py", "_run_sequential")),
    ],
)
def test_each_tolerance_is_read_by_its_one_rule(name, owner):
    # the typicality window, the density-operator check and the floors'
    # dense re-read are each written once
    found = [(path.name, fn) for path in sorted(SRC.glob("*.py")) for fn in constant_readers(path.read_text(), name)]
    assert found == [owner]


def numpy_readers(source: str, attr: str) -> list[str]:
    """Functions that reach ``numpy.<attr>``, "<module>" for uses outside any
    function; importing it from numpy counts as a module-level use."""
    tree = ast.parse(source)
    numpy_names = {"numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            numpy_names.update(a.asname or a.name for a in node.names if a.name == "numpy")
    readers = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr == attr:
                if isinstance(child.value, ast.Name) and child.value.id in numpy_names:
                    readers.add(where)
            elif isinstance(child, ast.ImportFrom) and child.module == "numpy":
                if any(a.name == attr for a in child.names):
                    readers.add("<module>")
            visit(child, where)

    visit(tree, "<module>")
    return sorted(readers)


def test_numpy_reader_check_sees_every_form_but_other_names():
    source = (
        "import numpy as np\n"
        "from numpy import indices\n"
        "def grid(d, g):\n"
        "    return np.indices((d,) * g)\n"
        "def rows(indices, s):\n"
        "    return s.indices(3), indices\n"
        "GRID = np.indices((2,))\n"
    )
    assert numpy_readers(source, "indices") == ["<module>", "grid"]


def test_only_the_group_mask_forms_an_index_grid():
    # a layer's kept set is built from cached per-group masks; a d^n index
    # grid formed anywhere else would cost O(n d^n) per layer again
    found = [(path.name, fn) for path in sorted(SRC.glob("*.py")) for fn in numpy_readers(path.read_text(), "indices")]
    assert found == [("typicality.py", "_group_mask")]


def test_smoothing_reads_no_overlap_through_trace_with():
    # trace_with forms a dense D x D product; smoothing reads its overlaps
    # elementwise against the projectors' dense forms
    assert constant_readers((SRC / "smoothing.py").read_text(), "trace_with") == []


def isinstance_readers(source: str) -> list[str]:
    """Qualified names of the functions (``Class.method``, ``outer.inner``)
    that read ``isinstance``, "<module>" for reads outside any function."""
    readers = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}" if where else child.name)
                continue
            if isinstance(child, ast.Name) and child.id == "isinstance":
                readers.add(where or "<module>")
            visit(child, where)

    visit(ast.parse(source), "")
    return sorted(readers)


def test_isinstance_reader_check_sees_every_form():
    source = (
        "OK = isinstance(1, int)\n"
        "def plain(x):\n"
        "    return isinstance(x, str)\n"
        "class Row:\n"
        "    def __post_init__(self):\n"
        "        def inner(v):\n"
        "            return all(map(isinstance, v, [int]))\n"
        "        return inner\n"
        "def clean(x):\n"
        '    """Not ``isinstance``."""\n'
        "    return x\n"
    )
    assert isinstance_readers(source) == ["<module>", "Row.__post_init__.inner", "plain"]


# The functions that may branch on a type: each checks input from outside
# (spec documents, seeds, rate arguments, a coupled sender's rows, the
# smoothing triples) or formats output.  Inside the library each value has
# one form, and a second form is a second code path.
KEPT_ISINSTANCE = {
    "channels.CoupledMac.__post_init__",
    "cli._fmt",
    "cli._message_columns",
    "cli._simulate_result",
    "decoders._rate_tuple",
    "decoders._seed_key",
    "smoothing.triple_layers",
    "specio._is_array",
    "specio._is_number",
    "specio._keyed",
    "specio._need",
    "specio._pair_list",
    "specio._string_list",
}


def test_only_input_checks_and_formatters_branch_on_type():
    found = {f"{path.stem}.{fn}" for path in sorted(SRC.glob("*.py")) for fn in isinstance_readers(path.read_text())}
    assert sorted(found - KEPT_ISINSTANCE) == []


def test_row_lookup_takes_the_nearest_listed_class():
    class Base:
        pass

    class Child(Base):
        pass

    assert _row_for({Base: "base"}, Child()) == "base"
    assert _row_for({Base: "base", Child: "child"}, Child()) == "child"
    assert _row_for({Child: "child"}, Base()) is None


def test_every_channel_kind_has_its_rows():
    kinds = [CqChannel, CcqMac, CoupledMac, InterferenceChannel]
    assert list(specio._CODECS) == kinds
    assert specio.KINDS == ("cq", "ccq-mac", "cmg-mac", "ccqq-ic")
    with pytest.raises(TypeError, match="cannot serialize object"):
        specio.serialize_channel(object())
    assert list(regions._NAMED_REGIONS) == kinds
    with pytest.raises(TypeError, match="no rate region for channel type object"):
        regions.named_regions(object())
    decodable = {CqChannel, CcqMac, CoupledMac}
    assert set(decoders._FAMILIES) == decodable
    # the CLI keeps no per-kind knowledge: it binds none of the decodable classes
    tree = ast.parse((SRC / "cli.py").read_text())
    bound = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name for alias in node.names)
    assert bound.isdisjoint(cls.__name__ for cls in decodable)


REMOVED_OVERRIDES = {"cap", "max_triples", "rank_tol", "rtol"}


def _public_callables():
    for name in sorted(m.stem for m in MODULES):
        module = importlib.import_module(f"cqlab.{name}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{name}.{attr}", obj
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    fn = getattr(fn, "__func__", fn)
                    if inspect.isfunction(fn) and (not meth.startswith("_") or meth == "__init__"):
                        yield f"{name}.{attr}.{meth}", fn


def test_no_public_callable_takes_a_guard_override():
    """DIM_CAP, SEQUENCE_CAP, TRIPLE_CAP, RANK_TOL, PROJECTOR_TOL and
    HERMITIAN_RTOL are fixed values, not per-call arguments."""
    found = [
        f"{where}({param})"
        for where, fn in _public_callables()
        for param in inspect.signature(fn).parameters
        if param in REMOVED_OVERRIDES or (param == "tol" and where == "linalg.Projector.from_matrix")
    ]
    assert found == []


def _qubit(theta: float) -> np.ndarray:
    v = np.array([np.cos(theta), np.sin(theta)], dtype=complex)
    return np.outer(v, v.conj())


BITS = ClassicalDistribution((0, 1), (0.5, 0.5))
MAC = CcqMac(BITS, BITS, {(x, y): _qubit(0.4 * x + 0.7 * y) for x in (0, 1) for y in (0, 1)})
CMG = CoupledMac(BITS, {0: BITS, 1: BITS}, BITS, {(z, y): _qubit(0.5 * z + 0.7 * y) for z in (0, 1) for y in (0, 1)})
N_OVER_CAP = 13  # 2^13 = 8192 > DIM_CAP
TRIPLES = tuple((x, z, y) for x in (0, 1) for z in (0, 1) for y in (0, 1))
TRIPLE_SYSTEM = CqEnsemble(
    ClassicalDistribution(TRIPLES, (0.125,) * 8), {s: _qubit(0.3 * s[0] + 0.5 * s[1] + 0.7 * s[2]) for s in TRIPLES}
)


def _book(channel, senders: int):
    return sample_codebook(channel, (0.1,) * senders, N_OVER_CAP, 1)


DENSE_ENTRY_POINTS = {
    "pgm_elements-mac": lambda: pgm_elements(MAC, _book(MAC, 2), 0.5),
    "sequential_decode-cmg": lambda: sequential_decode(CMG, _book(CMG, 3), 0.5, region=1),
    "sequential_decode-mac": lambda: sequential_decode(MAC, _book(MAC, 2), 0.5),
    "pgm_decode": lambda: pgm_decode(MAC, _book(MAC, 2), {(1, 1): np.eye(2)}),
    "smoothed_states": lambda: smoothed_states(TRIPLE_SYSTEM, N_OVER_CAP, 0.5, triples=[]),
    "verify_conditional_typicality": lambda: verify_conditional_typicality(
        MAC.y_ensemble(),
        (0, 1) * 6 + (0,),
        TypicalityParams(delta=0.5, epsilon=0.1, context_dims=(2, 2)),
    ),
}


@pytest.mark.parametrize("entry", sorted(DENSE_ENTRY_POINTS))
def test_dense_entry_points_refuse_dimensions_over_the_cap(entry):
    with pytest.raises(DimensionCapError) as err:
        DENSE_ENTRY_POINTS[entry]()
    assert err.value.required == 2**N_OVER_CAP
    assert err.value.cap == DIM_CAP


# Runs in a fresh interpreter: other tests in the session import scipy through
# regions.chebyshev_center, so this process's sys.modules cannot show it.
NO_SCIPY_CHILD = """
import math, sys
import cqlab
from cqlab import cli, regions

pool = ("multiprocessing", "concurrent.futures")
assert not any(name in sys.modules for name in pool), "importing cqlab loaded the pool"
spec, out = sys.argv[1], sys.argv[2]
assert cli.main(["simulate", "--spec", spec, "--out", out + "/sim", "--n", "4",
                 "--delta", "0.99", "--rate", "0.5"]) == 0
assert not any(name in sys.modules for name in pool), "decoding loaded the pool"
assert cli.main(["verify", "--suite", "typicality", "--out", out + "/verify"]) == 0
assert not any(name in sys.modules for name in pool), "one verify suite loaded the pool"
assert "scipy" not in sys.modules, "decoding or verifying loaded scipy"

# the triangle R1 + R2 <= 1 in the first quadrant: its incentre, r = 1/(2 + sqrt 2)
part = regions.RegionPart("p", (regions.Constraint((1.0, 1.0), 1.0, strict=False),))
x, r = regions.chebyshev_center(part, 2, 2.0)
inradius = 1.0 / (2.0 + math.sqrt(2.0))
assert abs(r - inradius) <= 1e-12 and all(abs(c - inradius) <= 1e-12 for c in x), (x, r)
assert "scipy" in sys.modules
"""


def test_only_the_region_sampler_loads_scipy(tmp_path):
    spec = tmp_path / "cq.json"
    plus = [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]
    zero = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    spec.write_text(json.dumps({
        "kind": "cq",
        "input": {"symbols": ["0", "1"], "probs": [0.5, 0.5]},
        "states": {"0": zero, "1": plus},
    }))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    child = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_CHILD, str(spec), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
