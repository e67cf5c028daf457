"""The package surface: every name in modrsa.__all__, and the five submodules, served on first access."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import modrsa

SRC = str(Path(modrsa.__file__).resolve().parents[1])
SUBMODULES = ("errors", "keyfile", "modmath", "oracle", "rsa")


def _child(script):
    """Run script in a fresh `python -S` that imports modrsa from this checkout; returns its stdout lines."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("name", modrsa.__all__)
def test_each_public_name_is_the_object_its_home_module_defines(name):
    value = getattr(modrsa, name)
    if isinstance(value, type(modrsa)):
        assert value is importlib.import_module(f"modrsa.{name}")
    else:
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("modrsa.") and vars(home)[name] is value


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from modrsa import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(modrsa.__all__)
    assert len(set(modrsa.__all__)) == len(modrsa.__all__)


def test_importing_the_package_loads_no_submodule():
    assert _child("import sys, modrsa\nprint(*[m for m in sys.modules if m.startswith('modrsa.')])") == [""]


@pytest.mark.parametrize("name", SUBMODULES)
def test_each_submodule_is_served_on_first_access(name):
    script = f"import modrsa\nprint(modrsa.{name}.__name__, modrsa.{name} is __import__('sys').modules['modrsa.{name}'])"
    assert _child(script) == [f"modrsa.{name} True"]


def test_dir_lists_every_public_name_and_submodule():
    assert set(modrsa.__all__) | set(SUBMODULES) <= set(dir(modrsa))
