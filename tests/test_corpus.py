"""Replay the CLI output corpus in process.

Each line of ``golden/corpus.jsonl`` holds one argv, the files it reads
(written into a fresh working directory first), and the exit code, stdout
and stderr it gave when the corpus was recorded.  Every entry must give
the same three back, byte for byte.  An entry changes only together with
a CHANGES.md line that names it and says why.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from starquant.cli import main

CORPUS = Path(__file__).parent / "golden" / "corpus.jsonl"


def replay(argv: list[str], files: dict[str, str], cwd: Path) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call run in cwd."""
    for name, text in files.items():
        (cwd / name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_corpus_replays_byte_for_byte(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    entries = [json.loads(line) for line in CORPUS.read_text().splitlines()]
    changed = [entry["argv"] for entry in entries
               if replay(entry["argv"], entry.get("files", {}), tmp_path)
               != (entry["exit"], entry["stdout"], entry["stderr"])]
    assert not changed, f"{len(changed)} of {len(entries)} entries changed: {changed}"
