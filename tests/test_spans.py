"""The benchmark tracer against the package: every name that `bench/spans.py`
wraps must exist, and uninstalling the tracer must restore every binding, so
that removing or renaming a wrapped function fails here rather than in a
traced benchmark run."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("mubcurves_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True   # read bench/, write nothing there
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def layer(name: str):
    return importlib.import_module(f"mubcurves.{name}")


def test_wrapped_names_resolve(spans):
    for mod, name in [*spans.WRAPPED, *spans.COUNTERS, ("bundles", "nonintersecting")]:
        assert mod in spans.LAYERS
        assert callable(getattr(layer(mod), name, None)), f"mubcurves.{mod}.{name}"


def test_install_then_uninstall_restores_every_binding(spans, capsys):
    mods = [importlib.import_module("mubcurves")] + [layer(m) for m in spans.LAYERS]
    before = [dict(vars(m)) for m in mods]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for mod, name in [*spans.WRAPPED, ("bundles", "nonintersecting")]:
            assert getattr(layer(mod), name) is not before[1 + spans.LAYERS.index(mod)][name]
        assert layer("cli").main(["verify", "--n", "2"]) == 0
        assert tracer.calls["cli.self"] == 1 and tracer.calls["verify.eigenbasis"] == 5
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for mod, old in zip(mods, before):
        now = vars(mod)
        assert now.keys() == old.keys()
        assert [k for k in old if now[k] is not old[k]] == [], mod.__name__
