"""The benchmark's span tracer can wrap every layer it times and put it back.

perfbench/spans.py reads ``owner.__dict__[attr]`` for each entry of its
LAYERS table, so a timed method must be defined (or aliased) in the
class body itself, not only inherited.
"""

import importlib
import sys
from pathlib import Path

import pytest

import ncu2  # noqa: F401  (loads every module the tracer patches)
from ncu2.u2 import AElement

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def _layer_attrs(spans):
    out = {}
    for _, modname, clsname, attrs in spans.LAYERS:
        mod = importlib.import_module(modname)
        owner = getattr(mod, clsname) if clsname else mod
        for attr in attrs:
            out[owner, attr] = owner.__dict__[attr]
    return out


def test_install_wraps_every_layer_and_uninstall_restores_it(spans):
    originals = _layer_attrs(spans)
    module_vars = {
        name: dict(vars(mod)) for name, mod in sys.modules.items() if name.startswith("ncu2")
    }
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (owner, attr), original in originals.items():
            wrapped = owner.__dict__[attr]
            assert wrapped is not original, (owner, attr)
            assert wrapped.__wrapped__ is original, (owner, attr)
        x = AElement.gen("x")
        assert x + x == x * 2
        assert tracer.agg["u2.AElement.add"][0] == 1
    finally:
        tracer.uninstall()
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original, (owner, attr)
    for name, snapshot in module_vars.items():
        current = vars(sys.modules[name])
        for attr, value in snapshot.items():
            assert current[attr] is value, (name, attr)
