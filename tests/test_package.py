"""The package namespace: public names resolve from their submodule."""

import importlib.util
import json
import os
import pkgutil
import re
import subprocess
import sys
import types
from importlib import import_module
from pathlib import Path

import pytest

import cubewalk

SRC = Path(cubewalk.__file__).resolve().parents[1]
README = SRC.parent / "README.md"
SPANS = SRC.parent / "perfbench" / "spans.py"
# Public names that only tests ever called, removed from the library; the
# dense eigenvalues and the regular representation live on privately.
REMOVED = {"bitspace": ["dot_parity", "gf2_rank", "spans"],
           "dynamics": ["PI", "amplitude", "gaussian_unit"],
           "graphwalk": ["DisconnectedGraphError", "antipodal_pairs",
                         "neighbors"],
           "oracle": ["dense_eigenvalues", "regular_rep"]}


def _fresh(code):
    """Run code in a fresh interpreter on this source tree; its stdout."""
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return done.stdout


def test_every_public_name_is_its_submodules_object():
    assert sorted(cubewalk.__all__) == sorted(cubewalk._ORIGIN)
    for name, module_name in cubewalk._ORIGIN.items():
        module = import_module(f"cubewalk.{module_name}")
        value = getattr(cubewalk, name)
        assert value is getattr(module, name), name
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == module.__name__, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from cubewalk import *", namespace)
    for name in cubewalk.__all__:
        assert namespace[name] is getattr(cubewalk, name), name


def test_submodules_resolve_before_any_explicit_import():
    names = sorted(m.name for m in pkgutil.iter_modules(cubewalk.__path__))
    probe = ("import json, sys, types, cubewalk\n"
             f"names = {names!r}\n"
             "before = [f'cubewalk.{m}' in sys.modules for m in names]\n"
             "found = [isinstance(getattr(cubewalk, m), types.ModuleType)\n"
             "         for m in names]\n"
             "print(json.dumps([before, found]))")
    before, found = json.loads(_fresh(probe))
    assert not any(before) and all(found)


def test_unknown_names_raise_and_dir_lists_the_public_names():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        cubewalk.no_such_name
    assert not hasattr(cubewalk, "wht_rows")
    listed = dir(cubewalk)
    assert set(cubewalk.__all__) <= set(listed)
    assert "__version__" in listed


def test_readme_quick_start_runs_in_a_fresh_process():
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert _fresh(code).splitlines() == ["100 pi/2 i", "pi/2"]


def test_a_patched_submodule_name_shows_through_the_package(monkeypatch):
    from cubewalk import spectral

    original = spectral.spectrum

    def patched(omega):
        return original(omega)

    monkeypatch.setattr(spectral, "spectrum", patched)
    assert cubewalk.spectrum is patched
    monkeypatch.undo()
    assert cubewalk.spectrum is original
    assert "spectrum" not in vars(cubewalk)


def test_every_traced_name_resolves():
    # the benchmark's tracer wraps these by name, so a rename here would
    # fail every traced run; a dotted name is a method of a class
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans.FUNCTIONS + spans.GENERATORS
    assert any("." in attr for _, attr, _ in targets)
    for module_name, attr, _ in targets:
        owner = import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attr)


def test_removed_names_stay_out_of_the_library():
    for module_name, names in REMOVED.items():
        module = import_module(f"cubewalk.{module_name}")
        for name in names:
            assert name not in cubewalk.__all__, name
            assert not hasattr(module, name), name
    assert not hasattr(cubewalk.Spectrum, "size")
