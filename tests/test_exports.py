import importlib

import pytest

SUBMODULES = ["acb", "channel", "geometry", "netsim", "planner", "satwet", "scenario"]


@pytest.mark.parametrize("name", ["disastersim"] + [f"disastersim.{m}" for m in SUBMODULES])
def test_every_exported_name_exists(name):
    # A stale __all__ entry breaks `from module import *`.
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), f"{name}.__all__ lists a name twice"
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names undefined attributes: {missing}"
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
