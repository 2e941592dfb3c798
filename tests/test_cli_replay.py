"""Byte-identical CLI replays.

`data/cli_replay/corpus.json` lists command lines, each with the sha256 of
what `ietlab.cli.main` gives for it: the exit code, stdout and stderr.
Every call runs in that directory and names its input files relatively,
so no output holds the path of a checkout.  A deliberate change of output
rewrites the hashes with

    PYTHONPATH=src python tests/test_cli_replay.py

which prints each command line whose hash it changed, and how many, for
CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from ietlab.cli import main

DATA = Path(__file__).resolve().parent / "data" / "cli_replay"
CORPUS = DATA / "corpus.json"


def replay_digest(argv) -> str:
    """sha256 of [exit code, stdout, stderr] as JSON, for one call of main
    from the data directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    doc = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(doc.encode()).hexdigest()


def load_corpus() -> list:
    return json.loads(CORPUS.read_text())


def test_cli_replays_are_byte_identical(monkeypatch):
    monkeypatch.delenv("IETLAB_OUT_DIR", raising=False)
    monkeypatch.chdir(DATA)
    corpus = load_corpus()
    assert len(corpus) >= 150
    assert len({e["argv"][0] for e in corpus}) == 13 + 1   # and a bad one
    changed = [e["argv"] for e in corpus
               if replay_digest(e["argv"]) != e["sha256"]]
    assert not changed, changed


def _regenerate() -> None:
    os.environ.pop("IETLAB_OUT_DIR", None)
    os.chdir(DATA)
    corpus = load_corpus()
    changed = 0
    for e in corpus:
        digest = replay_digest(e["argv"])
        if digest != e["sha256"]:
            changed += 1
            print("changed: " + " ".join(e["argv"]))
        e["sha256"] = digest
    lines = ",\n".join(" " + json.dumps(e) for e in corpus)
    CORPUS.write_text(f"[\n{lines}\n]\n")
    print(f"{changed} of {len(corpus)} hashes changed in {CORPUS.name}")


if __name__ == "__main__":
    _regenerate()
