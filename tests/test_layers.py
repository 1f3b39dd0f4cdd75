"""perfbench's layer trace still finds the functions it wraps.

`perfbench/layers.py` names each traced function by module and attribute.
A refactor that renames or removes one of them would break `--trace 1`
only when the benchmark is run; these tests make it fail here instead.
"""

from __future__ import annotations

import importlib.util

import pytest
from conftest import CORPUS, ROOT

from pvgr import runtime
from pvgr.cli import main


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", ROOT / "perfbench" / "layers.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


layers = _layers()


@pytest.mark.parametrize("module, attr", layers.SPANNED + layers.COUNTED)
def test_every_traced_layer_resolves_to_a_callable(module, attr):
    owner, name = layers._resolve(module, attr)
    assert callable(getattr(owner, name))


def test_traced_run_counts_steps_and_searches(capsys):
    search = runtime.find_candidates
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert main(["run", str(CORPUS / "client_server.pvgr")]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert runtime.find_candidates is search
    calls = dict(zip(layers.SPAN_NAMES, tracer.calls))
    assert calls["runtime.Machine.step"] > 0
    assert calls["runtime.find_candidates"] > 0
    assert calls["runtime.classify_config"] == 1
