"""Every method the benchmark's layer trace wraps is still defined where
it says.

``perfbench/layers.py`` lists in ``WRAPPED`` the ``(owner, name)`` pairs
its traced pass patches, and ``LayerTrace.install`` reads each one from
``owner.__dict__[name]``. A method that moved to a base class, or an
override that was deleted (``SpeculativeView.has_account``, say), makes
every ``--trace 1`` sample fail with a ``KeyError``. This test fails
first.
"""

import importlib.util
import pathlib
import sys


def _benchmark_layers():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    module = importlib.util.module_from_spec(spec)
    # Dataclasses resolve their module through sys.modules.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_wrapped_method_is_defined_on_its_owner():
    layers = _benchmark_layers()
    missing = [
        f"{owner.__name__}.{name}"
        for owner, name, __, __ in layers.WRAPPED
        if name not in owner.__dict__
    ]
    assert not missing, (
        "perfbench/layers.py wraps methods their owners no longer define "
        "(LayerTrace.install reads owner.__dict__[name]): " + ", ".join(missing)
    )


def test_install_and_uninstall_restore_every_method():
    layers = _benchmark_layers()
    before = {
        (owner, name): owner.__dict__[name] for owner, name, *__ in layers.WRAPPED
    }
    trace = layers.LayerTrace()
    try:
        trace.install()
        assert all(
            owner.__dict__[name] is not original
            for (owner, name), original in before.items()
        )
    finally:
        trace.uninstall()
    assert all(
        owner.__dict__[name] is original for (owner, name), original in before.items()
    )
