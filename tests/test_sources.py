"""Static checks on the sources: the oldest supported Python parses them,
and every lru_cache in the package is bounded."""

import ast
import importlib
import inspect
import pkgutil
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
            "zeta._orbit_reps", "field.default_modulus",
            "field.BinaryField.trace_one_element",
            "ascurve.reduce_standard"} <= set(caches)
    unbounded = [name for name, cache in caches.items()
                 if cache.cache_parameters()["maxsize"] is None]
    assert not unbounded, f"unbounded caches: {unbounded}"
