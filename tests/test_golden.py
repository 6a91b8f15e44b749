"""Golden `result` documents: every file in tests/golden/ holds a command's
argv, its `result` and the sha256 of each file it writes, and the command
must reproduce them byte for byte.  A file may also hold the commands run
before it and the text of the input files it reads.  tests/golden/regen.py
rewrites them."""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from kvbell.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def record(
    argv: list[str], before: list[list[str]], directory: Path, inputs: dict | None = None
) -> dict:
    """Write inputs (file name -> text) into directory, run the commands of
    before, then argv with --format json, in-process with "{dir}" in their
    arguments naming directory.  Returns the golden document: the argv, the
    result and the sha256 of each file argv wrote."""

    def run(args):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([a.format(dir=directory) for a in args] + ["--format", "json"])
        assert code == 0, args
        return json.loads(out.getvalue())["result"]

    for name, text in (inputs or {}).items():
        (directory / name).write_text(text, encoding="utf-8")
    for args in before:
        run(args)
    existing = set(directory.iterdir())
    result = run(argv)
    files = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(set(directory.iterdir()) - existing)
    }
    doc = {"argv": argv, "result": result, "files": files}
    if before:
        doc["before"] = before
    if inputs:
        doc["inputs"] = inputs
    return doc


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem)
def test_result_matches_golden(path, tmp_path):
    golden = json.loads(path.read_text())
    got = record(golden["argv"], golden.get("before", []), tmp_path, golden.get("inputs"))
    text = json.dumps(got["result"], sort_keys=True)
    assert text == json.dumps(golden["result"], sort_keys=True)
    assert got["files"] == golden["files"]


def test_golden_corpus_is_present():
    assert len(list(GOLDEN.glob("*.json"))) >= 109
