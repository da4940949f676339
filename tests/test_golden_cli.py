"""Byte-for-byte replay of recorded command-line runs.

``golden_cli.json`` lists argv vectors over the zoo functors, each with
the exit code, standard output and standard error it produced: ``check``
text and ``--json`` at sizes 0, 2 and 3 and under each modification;
``eval``, ``supp``, ``degree`` and ``export``, plain and under each
modification; and ``modify`` in both modes.  A change that alters any of
them must say so and re-record the entries it changes.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from finfun.cli import main

CORPUS = Path(__file__).with_name("golden_cli.json")


def replay(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def test_golden_cli_corpus():
    entries = json.loads(CORPUS.read_text(encoding="utf-8"))
    assert len(entries) > 400
    changed = [e["argv"] for e in entries if replay(e["argv"]) != e]
    assert not changed, f"{len(changed)} runs differ, first: {changed[:5]}"
