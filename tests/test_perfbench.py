import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ROOT / "perfbench" / "layers.py"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists():
    # the traced benchmark run fails on a name the package no longer has
    targets = _load("perfbench_layers", LAYERS).TARGETS
    assert targets
    for module_name, attr, span, _ in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{module_name}.{attr}, traced as {span}, is missing"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr} is not callable"


def _replay(workload: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "replay_digest.py"), "--seed", "1", "--workload", workload],
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout


@pytest.fixture(scope="module")
def synth_search_replay():
    """The seed-1 synth-search replay's stdout (about 3 s)."""
    return _replay("synth-search")


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


def test_analyze_replay_digest_is_pinned():
    # byte-identical rho, bound and classify outputs (values, witnesses and
    # verdicts) on the benchmark's seed-1 analyze operations (about 1.6 s)
    digest = "c73958633523ef4814c53345eb0b89b4fb278fe508978961a547df669ce3dcdb"
    assert _replay("analyze") == f"analyze seed 1: 206 ops {digest}\n"


def test_audit_replay_digest_is_pinned():
    # byte-identical verify --entropic and simulate outputs on the
    # benchmark's seed-1 audit operations (about 1.4 s); the audit corpus is
    # built by synth and by the search, so this digest also moves with them
    digest = "22f20ce88a66a8c6b876dfc4a455e1544383be8d82d5cc658d454074fd875f75"
    assert _replay("audit") == f"audit seed 1: 105 ops {digest}\n"


def test_replay_digest_prints_one_line_per_workload_and_seed(monkeypatch, capsys):
    module = _load("replay_digest", ROOT / "scripts" / "replay_digest.py")
    monkeypatch.setattr(module, "digest", lambda workload, seed: (f"{workload}-{seed}", seed))
    assert module.main(["--seed", "1", "--workload", "audit", "--seed", "2", "--workload", "analyze"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "audit seed 1: 1 ops audit-1",
        "audit seed 2: 2 ops audit-2",
        "analyze seed 1: 1 ops analyze-1",
        "analyze seed 2: 2 ops analyze-2",
    ]
