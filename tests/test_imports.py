"""Every module-level import in ``src/vplandau`` is used by its module,
and none of them reaches scipy: numpy.fft is the one transform library.
The collision operator uses none: its kernel tables and convolutions are
real matrix products.  One function, ``grid.split_nodes``, holds the
thread pool and reads the thread count, and one,
``experiments.run_experiment``, makes the output directory and writes the
summary."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import vplandau

MODULES = sorted(p for p in Path(vplandau.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by module-level imports that nothing in the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_scan_finds_an_unused_import():
    source = ("import os\nimport sys\nfrom math import pi, tau\n"
              "print(sys.argv, tau)\n")
    assert unused_imports(source) == [(1, "os"), (3, "pi")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(source):
    """Top-level package names of every import anywhere in the source."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_scan_finds_a_nested_scipy_import():
    source = "def f():\n    from scipy.fft import fftn\n    return fftn\n"
    assert "scipy" in imported_modules(source)


@pytest.mark.parametrize("path", MODULES + [Path(vplandau.__file__)],
                         ids=lambda p: p.name)
def test_no_scipy_import(path):
    assert "scipy" not in imported_modules(path.read_text())


def test_import_loads_no_scipy():
    # the package's __init__ imports nothing, so every module is imported
    code = ("import importlib, sys\n"
            f"for m in {[p.stem for p in MODULES]}:\n"
            "    importlib.import_module('vplandau.' + m)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def fft_uses(source):
    """Lines that import from ``numpy.fft`` or read ``np.fft``/``numpy.fft``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(a.name.startswith("numpy.fft") for a in node.names):
                lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").startswith("numpy.fft") or (
                    node.module == "numpy"
                    and any(a.name == "fft" for a in node.names)):
                lines.add(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr == "fft"
              and isinstance(node.value, ast.Name)
              and node.value.id in ("np", "numpy")):
            lines.add(node.lineno)
    return sorted(lines)


def test_scan_finds_fft_uses():
    source = ("import numpy as np\nfrom numpy.fft import rfftn\n"
              "from numpy import fft\nimport numpy.fft\n"
              "def f(a):\n    return np.fft.fftn(a) + np.sum(a)\n")
    assert fft_uses(source) == [2, 3, 4, 6]


def test_collision_operator_uses_no_fft():
    path = Path(vplandau.__file__).parent / "landau.py"
    assert fft_uses(path.read_text()) == []


def readers(source, name):
    """Names of the functions that read ``name`` as a name or an attribute
    (the innermost one around each read), and ``<module>`` for a read
    outside them."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_scan_finds_pool_readers():
    source = ("from concurrent import futures\n"
              "from concurrent.futures import ThreadPoolExecutor\n"
              "POOL = ThreadPoolExecutor\n"
              "def split(n):\n"
              "    with ThreadPoolExecutor(n) as pool:\n"
              "        return pool\n"
              "class A:\n"
              "    def run(self):\n"
              "        return futures.ThreadPoolExecutor(2)\n"
              "def other():\n"
              "    return 'ThreadPoolExecutor'\n")
    assert readers(source, "ThreadPoolExecutor") == ["<module>", "run",
                                                     "split"]


def package_readers(name):
    """``(module, function)`` for every read of ``name`` in the package."""
    return [(path.stem, owner)
            for path in MODULES + [Path(vplandau.__file__)]
            for owner in readers(path.read_text(), name)]


def test_one_function_holds_the_thread_pool():
    assert package_readers("ThreadPoolExecutor") == [("grid", "split_nodes")]


def test_thread_count_read_where_the_nodes_split():
    # a run reads VPLANDAU_THREADS where it splits the nodes; the config
    # reads it to validate and echo it
    assert package_readers("threads_from_env") == [
        ("config", "parse_config"), ("grid", "split_nodes")]
    assert package_readers("environ") == [("grid", "threads_from_env")]


@pytest.mark.parametrize("name", ["summary_to_json", "makedirs"])
def test_one_function_writes_the_summary(name):
    assert package_readers(name) == [("experiments", "run_experiment")]


def definitions(source):
    """Public top-level functions and classes, and the public methods of
    public classes, as ``name`` or ``Class.method``."""
    out = []
    for node in ast.parse(source).body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))
                and not node.name.startswith("_")):
            out.append(node.name)
            if isinstance(node, ast.ClassDef):
                out += [f"{node.name}.{m.name}" for m in node.body
                        if isinstance(m, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                        and not m.name.startswith("_")]
    return out


def reads(source, strings=False):
    """Names read as an AST ``Name`` or ``Attribute`` (with ``strings``, also
    as a string constant), except inside a definition of the same name."""
    found = set()

    def visit(node, owners):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            owners = owners | {node.name}
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif strings and isinstance(node, ast.Constant):
            name = node.value if isinstance(node.value, str) else None
        else:
            name = None
        if name is not None and name not in owners:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    visit(ast.parse(source), frozenset())
    return found


def unread(defined, read):
    """The definitions whose (last) name is not in ``read``."""
    return sorted(q for q in defined if q.rpartition(".")[2] not in read)


# Definitions that no program path reads, each kept for its reason.
KEEP_UNREAD = {
    "grid.truncation_tolerance": "error budget of the tests' Gaussian "
                                 "moments",
    "grid.resolution_tolerance": "error budget of the tests' pointwise "
                                 "derivatives; ROADMAP item 7 gives it a "
                                 "caller",
    "landau.LandauKernelTables.sampled_kernels": "test reference: the "
                                                 "kernels sampled directly",
    "oracle.fd_derivative": "test reference: finite differences",
    "oracle.highres_norm": "test reference: norms on a refined grid",
}


def test_scan_finds_an_unread_definition():
    source = ("def used():\n    return 1\n"
              "def unused():\n    return unused()\n"
              "def _private():\n    return used()\n"
              "class Box:\n    def read(self):\n        return 1\n"
              "    def named(self):\n        return 2\n"
              "    def _hidden(self):\n        return 3\n")
    defined = definitions(source)
    assert defined == ["used", "unused", "Box", "Box.read", "Box.named"]
    read = reads(source) | reads("b.read()\nc = 'named'\nBox\n", strings=True)
    assert unread(defined, read) == ["unused"]
    assert unread(defined, reads(source)) == ["Box", "Box.named",
                                              "Box.read", "unused"]


def test_every_public_definition_is_read():
    # reads in src/vplandau count without its re-exports in __init__.py;
    # the benchmark, the acceptance criteria and the entry point also
    # name what they read as strings (bench/spans.py's WRAPPED)
    root = Path(__file__).resolve().parents[1]
    defined = [f"{path.stem}.{name}" for path in MODULES
               for name in definitions(path.read_text())]
    read = set().union(*(reads(path.read_text()) for path in MODULES))
    outside = [*sorted((root / "bench").glob("*.py")),
               root / "tests" / "test_acceptance.py",
               Path(vplandau.__file__).parent / "__main__.py"]
    for path in outside:
        read |= reads(path.read_text(), strings=True)
    assert unread(defined, read) == sorted(KEEP_UNREAD)
