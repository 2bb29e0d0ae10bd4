"""The benchmark's tracer wraps cyberlog functions by name: a renamed or
removed one must fail here, in the tier-1 suite, and not only when the
benchmark runs. Reads `perfbench/tracer.py` and changes nothing in it."""

import importlib.util
import os
import sys

import pytest

TRACER = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")


@pytest.fixture
def tracer_module(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of every loaded cyberlog module and class."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "cyberlog" or name.startswith("cyberlog.")):
            continue
        for attr, value in list(vars(module).items()):
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, inner in list(vars(value).items()):
                    out[(name, attr, member)] = inner
    return out


def test_every_target_resolves(tracer_module):
    assert tracer_module.TARGETS
    for span, owner, attr, _key, _stats in tracer_module.TARGETS:
        assert callable(getattr(owner, attr, None)), f"{span}: {owner!r} has no {attr!r}"


# module bindings that perfbench's own tests find wrapped after `install()`
PERFBENCH_BINDINGS = [("cyberlog.audit", "verify_bytes"), ("cyberlog.claimdb", "decode_payload")]


@pytest.mark.parametrize("module_name, attr", PERFBENCH_BINDINGS)
def test_bindings_perfbench_asserts_on_hold_the_traced_functions(tracer_module, module_name, attr):
    """A module that stops importing a traced function by name fails only
    perfbench's tests; this one fails here first."""
    import importlib

    binding = getattr(importlib.import_module(module_name), attr, None)
    traced = [getattr(owner, a) for _span, owner, a, _key, _stats in tracer_module.TARGETS if a == attr]
    assert binding is not None, f"{module_name} has no {attr!r}"
    assert traced and binding is traced[0], f"{module_name}.{attr} is not the function the tracer wraps"


def test_install_and_uninstall_restore_every_binding(tracer_module):
    before = _bindings()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        wrapped = {key for key, value in _bindings().items() if before.get(key) is not value}
        assert len(wrapped) >= len(tracer_module.TARGETS)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
