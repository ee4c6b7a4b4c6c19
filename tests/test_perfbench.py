import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists():
    # the traced benchmark run fails on a name the package no longer has
    targets = _load_layers().TARGETS
    assert targets
    for module_name, attr, span, _ in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{module_name}.{attr}, traced as {span}, is missing"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr} is not callable"
