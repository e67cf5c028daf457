"""The names perfbench/tracing.py patches are where it looks them up.

A renamed or moved function would otherwise show only when the benchmark's
traced run fails. This reads perfbench/ and changes nothing there.
"""

import importlib
import sys
from pathlib import Path

import pytest

from modrsa import modmath

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")

sys.path.insert(0, PERFBENCH)
try:
    import tracing
finally:
    sys.path.remove(PERFBENCH)


@pytest.mark.parametrize("module, attr, name", tracing.SPANNED, ids=[name for *_, name in tracing.SPANNED])
def test_spanned_name_resolves(module, attr, name):
    # as tracing.Patches does: follow the dotted attribute, then read the owner's own namespace
    owner = importlib.import_module(f"modrsa.{module}")
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert last in vars(owner)


def test_residue_post_init_is_its_own():
    assert "__post_init__" in vars(modmath.Residue)
