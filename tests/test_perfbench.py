import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.fixture(scope="module")
def synth_search_replay():
    """The seed-1 synth-search replay's stdout (about 3 s)."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "replay_digest.py"), "--seed", "1", "--workload", "synth-search"],
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout


def test_replay_digest_replays_only_the_named_workload(synth_search_replay):
    assert re.fullmatch(r"synth-search seed 1: \d+ ops [0-9a-f]{64}\n", synth_search_replay)


def test_synth_search_replay_digest_is_pinned(synth_search_replay):
    # byte-identical synth, verify and search outputs on the benchmark's
    # seed-1 operations: any change to the search's rng stream (the order or
    # the arguments of its draws, or its class numbering) changes this
    # digest, and so would the audit corpus, whose searched schemes come from
    # random_scheme_search
    digest = "f304f8288cc2e7d3f79c05fcd702193cbec1214a95149f296f60b7a1a321912a"
    assert synth_search_replay == f"synth-search seed 1: 199 ops {digest}\n"
