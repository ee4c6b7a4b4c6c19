import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ROOT / "perfbench" / "layers.py"


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


def test_replay_digest_replays_only_the_named_workload():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "replay_digest.py"), "--seed", "1", "--workload", "synth-search"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert re.fullmatch(r"synth-search seed 1: \d+ ops [0-9a-f]{64}\n", proc.stdout)
