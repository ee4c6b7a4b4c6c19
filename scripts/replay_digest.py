#!/usr/bin/env python3
"""Replay the benchmark workloads once and print a digest of their outputs.

Usage: ``python scripts/replay_digest.py --seed S [--seed S]... [--workload W]...``

For each workload (analyze, synth-search and audit by default; repeat
``--workload`` to replay only the named ones) and each seed (repeat
``--seed`` for several, e.g. ``--seed 1 --seed 2``) the script plans the
seeded inputs and operations by running ``perfbench/workloads.py`` in a
subprocess, writes the planned input files into a temporary directory, and
sends every operation through ``cdscover.cli.main`` once. It prints one
sha256 per (workload, seed) over each operation's exit code (or the name of an
exception that escaped), stdout, stderr and the files it wrote with
``-o``, with the temporary directory replaced by a placeholder. Two
checkouts whose digests agree on a seed gave byte-identical outputs on
that seed's operations.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cdscover import cli  # noqa: E402

WORKLOADS = ("analyze", "synth-search", "audit")
PLACEHOLDER = "<WORKDIR>"


def plan(workload: str, seed: int, workdir: Path) -> dict:
    argv = [sys.executable, str(ROOT / "perfbench" / "workloads.py"), workload, str(seed), str(workdir)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def digest(workload: str, seed: int) -> tuple[str, int]:
    """The workload's digest and its operation count."""
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        planned = plan(workload, seed, workdir)
        for f in planned["files"]:
            Path(f["path"]).write_text(f["text"], encoding="utf-8")
        h = hashlib.sha256()

        def add(text: str) -> None:
            h.update(text.replace(str(workdir), PLACEHOLDER).encode())
            h.update(b"\0")

        for op in planned["ops"]:
            argv = op["argv"]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    result = str(cli.main(argv))
                except Exception as e:  # recorded, so a traceback changes the digest too
                    result = type(e).__name__
            for text in (" ".join(argv), result, out.getvalue(), err.getvalue()):
                add(text)
            for flag, target in zip(argv, argv[1:]):
                if flag in ("-o", "--output"):
                    path = Path(target)
                    add(path.read_text(encoding="utf-8") if path.is_file() else "<not written>")
        return h.hexdigest(), len(planned["ops"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, action="append", required=True, help="replay this seed (repeatable)")
    parser.add_argument("--workload", action="append", choices=WORKLOADS, help="replay only this workload (repeatable)")
    args = parser.parse_args(argv)
    for workload in args.workload or WORKLOADS:
        for seed in args.seed:
            hexdigest, ops = digest(workload, seed)
            print(f"{workload} seed {seed}: {ops} ops {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
