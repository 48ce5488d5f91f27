"""Replay the CLI output corpus in process.

Each line of ``golden/corpus.jsonl`` holds one argv, the files it reads
(written into a fresh working directory first), and the exit code, stdout
and stderr it gave when the corpus was recorded.  Every entry must give
the same three back, byte for byte, also when the pretty form goes to a
terminal and when the render functions of the unprinted form are out of
reach.  An entry changes only together with a CHANGES.md line that names
it and says why.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from starquant import render
from starquant.cli import main

CORPUS = Path(__file__).parent / "golden" / "corpus.jsonl"


class Terminal(io.StringIO):
    """A captured stdout that reports itself a terminal."""

    def isatty(self) -> bool:
        return True


def replay(argv: list[str], files: dict[str, str], cwd: Path,
           stdout=io.StringIO) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call run in cwd."""
    for name, text in files.items():
        (cwd / name).write_text(text)
    out, err = stdout(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def corpus() -> list[dict]:
    return [json.loads(line) for line in CORPUS.read_text().splitlines()]


def test_corpus_replays_byte_for_byte(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    entries = corpus()
    changed = [entry["argv"] for entry in entries
               if replay(entry["argv"], entry.get("files", {}), tmp_path)
               != (entry["exit"], entry["stdout"], entry["stderr"])]
    assert not changed, f"{len(changed)} of {len(entries)} entries changed: {changed}"


def test_pretty_output_is_the_same_on_a_terminal(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("STARQUANT_COLOR", raising=False)
    entries = [entry for entry in corpus()
               if entry["exit"] == 0 and "--json" not in entry["argv"]]
    changed = [entry["argv"] for entry in entries
               if replay(entry["argv"], entry.get("files", {}), tmp_path, Terminal)
               != (0, entry["stdout"], entry["stderr"])]
    assert not changed, f"{len(changed)} of {len(entries)} entries changed: {changed}"


def _refused(name: str):
    def refuse(*args, **kwargs):
        raise AssertionError(f"render.{name} called for the form that is not printed")
    return refuse


def test_each_call_renders_only_the_form_it_prints(tmp_path, monkeypatch):
    # the first exit-0 entry of each subcommand in each output form
    picked: dict = {}
    for entry in corpus():
        argv = entry["argv"]
        if entry["exit"] == 0:
            command = tuple(argv[:2]) if argv[0] == "wkb" else argv[0]
            picked.setdefault((command, "--json" in argv), entry)
    pretty_names = [name for name in vars(render) if name.startswith("pretty_")]
    json_names = [name for name in vars(render) if name.endswith("_json")]
    monkeypatch.chdir(tmp_path)
    for (_, as_json), entry in picked.items():
        with monkeypatch.context() as patch:
            for name in pretty_names if as_json else json_names + ["json_chunks", "dumps"]:
                patch.setattr(render, name, _refused(name))
            result = replay(entry["argv"], entry.get("files", {}), tmp_path)
        assert result == (0, entry["stdout"], entry["stderr"]), entry["argv"]
    assert len(picked) == 2 * 16  # every subcommand, in both forms
