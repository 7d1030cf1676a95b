"""Static checks on the sources: the oldest supported Python parses them,
every lru_cache in the package is bounded, every function in it is used
somewhere, no module rebinds its own state at run time, no module imports
another's private names, only `zeta` holds the table cap and builds
log/antilog tables, and `poly` draws no random numbers; and README's
library sketch runs as annotated."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import kleinfour

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "kleinfour").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))


def test_sources_are_found():
    names = {p.name for p in SOURCES}
    assert {"zeta.py", "conftest.py", "test_sources.py"} <= names


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_parses_as_python_3_10(path):
    # pyproject.toml says requires-python >= 3.10
    ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def lru_caches():
    """(qualified name, cache) for every lru_cache at module or class level
    in the kleinfour package."""
    for info in pkgutil.iter_modules(kleinfour.__path__):
        module = importlib.import_module(f"kleinfour.{info.name}")
        owners = [(info.name, module)] + [
            (f"{info.name}.{name}", cls)
            for name, cls in vars(module).items()
            if inspect.isclass(cls) and cls.__module__ == module.__name__]
        for prefix, owner in owners:
            for name, obj in vars(owner).items():
                if hasattr(obj, "cache_parameters"):
                    yield f"{prefix}.{name}", obj


def test_every_lru_cache_is_bounded():
    caches = dict(lru_caches())
    assert {"poly._factor_cached", "poly.field_embedding",
            "zeta._tallies", "zeta._planes", "zeta._dual",
            "zeta._tables", "zeta._element_planes",
            "field.default_modulus",
            "ascurve.reduce_standard",
            "poly._irreducibles_found"} <= set(caches)
    unbounded = [name for name, cache in caches.items()
                 if cache.cache_parameters()["maxsize"] is None]
    assert not unbounded, f"unbounded caches: {unbounded}"


def defined_functions():
    """{name: {(path, line)}} for every function and method defined in the
    kleinfour package, dunders excluded."""
    defs = {}
    for path in sorted((ROOT / "src" / "kleinfour").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__")
                             and node.name.endswith("__"))):
                defs.setdefault(node.name, set()).add((path, node.lineno))
    return defs


def test_every_function_is_used():
    # a name that appears only on its own def lines is dead code
    lines = [(path, number, line)
             for top in ("src", "tests", "bench")
             for path in sorted((ROOT / top).rglob("*.py"))
             for number, line in enumerate(path.read_text().splitlines(), 1)]
    dead = []
    for name, def_lines in sorted(defined_functions().items()):
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(line) for path, number, line in lines
                   if (path, number) not in def_lines):
            dead.append(name)
    assert not dead, f"functions never referenced: {dead}"


def test_no_global_statements():
    # module state is set once at import; a `global` rebinding would make
    # results depend on what ran before
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((ROOT / "src" / "kleinfour").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Global)]
    assert not found, f"global statements: {found}"


def test_no_private_imports_across_modules():
    # a name a module shares is public; an underscore name stays in its
    # module, so each primitive has one home and one spelling
    found = [f"{path.name}:{node.lineno} {alias.name}"
             for path in sorted((ROOT / "src" / "kleinfour").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.ImportFrom)
             and (node.level or (node.module or "").startswith("kleinfour"))
             for alias in node.names if alias.name.startswith("_")]
    assert not found, f"private names imported: {found}"


def table_writes(path):
    """What a module writes of the point counts' tables: "cap" where it
    assigns TABLE_MAX_DEGREE, and "log" or "exp" where it assigns a name
    log, or fills a log or exp table by item or by append."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            if node.id == "TABLE_MAX_DEGREE":
                found.add("cap")
            elif node.id == "log":
                found.add("log")
        elif (isinstance(node, ast.Subscript)
              and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name)
              and node.value.id in ("log", "exp")):
            found.add(node.value.id)
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("append", "extend")
              and isinstance(node.func.value, ast.Name)
              and node.func.value.id in ("log", "exp")):
            found.add(node.func.value.id)
    return found


def test_only_zeta_holds_the_table_cap_and_builds_tables():
    writes = {path.name: table_writes(path)
              for path in sorted((ROOT / "src" / "kleinfour").glob("*.py"))}
    assert writes.pop("zeta.py") == {"cap", "log", "exp"}
    assert not any(writes.values()), writes
    field_names = set(vars(importlib.import_module("kleinfour.field")))
    field_names |= set(vars(kleinfour.field.BinaryField))
    assert not field_names & {"TABLE_MAX_DEGREE", "log_tables", "_tables"}


def test_poly_imports_no_random():
    # factoring is deterministic: the equal-degree split tries a fixed
    # sequence of candidates
    tree = ast.parse((ROOT / "src" / "kleinfour" / "poly.py").read_text())
    modules = {alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module}
    assert not {m for m in modules if m.split(".")[0] == "random"}


def test_readme_library_sketch_runs_as_annotated():
    # each statement of the sketch runs in turn, and each annotated
    # expression's comment starts with the repr of its value
    readme = (ROOT / "README.md").read_text()
    sketch = re.search(r"## Library sketch\n\n```python\n(.*?)```", readme,
                       re.S).group(1)
    lines = sketch.splitlines()
    scope = {}
    annotated = 0
    for stmt in ast.parse(sketch).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), scope)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md",
                             "eval"), scope)
        note = lines[stmt.end_lineno - 1].split("# ", 1)[1]
        assert note == repr(value) or note.startswith(repr(value) + ","), (
            note, value)
        annotated += 1
    assert annotated == 4
