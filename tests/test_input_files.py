"""Every input file is opened by one reader, ``corpus.read_input`` or, for
JSONL, ``corpus.iter_jsonl``: the corpus, the config, the focal files, the
vocabulary, the policy and the seed corpus.  Each case below runs a command
through ``main`` in an empty working directory, with the file under test at
the path ``input``."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from tqual.cli import main
from tqual.rlcore.policy import PolicyTable
from tqual.rlcore.trainer import DEFAULT_VOCAB

FOCAL_FILE = Path(__file__).parent / "fixtures" / "focal_files" / "UploadCommand.cs"
GOLDEN_TEST = ("[TestMethod]\npublic void TestStop()\n{\n"
               "    c.Stop();\n    Assert.IsTrue(c.IsStopped());\n}")
NOT_UTF8 = "input: line 3: bytes that are not UTF-8"


def focal_request(path: str) -> list[str]:
    Path("wanted.jsonl").write_text(
        json.dumps({"focal_path": path, "focal_method": "Stop"}) + "\n", encoding="utf-8")
    return ["prompt", "wanted.jsonl"]


def corpus_line(test: str) -> str:
    return json.dumps({"focal_method": "Stop", "test": test}, ensure_ascii=False) + "\n"


def spoil_line_3(text: str) -> bytes:
    """``text`` as UTF-8 with a 0xFF byte at the end of its third line."""
    lines = text.encode("utf-8").split(b"\n")
    lines[2] += b"\xff"
    return b"\n".join(lines)


class Reader(NamedTuple):
    argv: Callable[[str], list[str]]  # the command that reads the file at a path
    text: str  # a valid file of at least three lines
    per_line: bool  # a missing file is one error.v1 line, not a usage error
    bad_byte: tuple[int, str, bytes | None]  # exit code and message for a 0xFF on line 3,
    # and the file's bytes when they are not ``spoil_line_3(text)``


READERS = {
    "corpus": Reader(
        lambda path: ["analyze", path],
        corpus_line(GOLDEN_TEST) * 3, False,
        (1, "line 3: record field 'test' cannot be encoded as UTF-8",
         (corpus_line(GOLDEN_TEST) * 2).encode() + b'{"test": "\xff"}\n')),
    "config": Reader(
        lambda path: focal_request(str(FOCAL_FILE)) + ["--config", path],
        "# budgets\n\nbudget.prompt_token_budget = 1536\n", False, (2, NOT_UTF8, None)),
    "focal": Reader(focal_request, FOCAL_FILE.read_text(encoding="utf-8"), True,
                    (1, f"line 1: {NOT_UTF8}", None)),
    "vocabulary": Reader(
        lambda path: ["train-toy", "--episodes", "10", "--max-tokens", "6",
                      "--vocab-file", path],
        "</s>\nAssert\nx\n", False, (2, NOT_UTF8, None)),
    "policy": Reader(
        lambda path: ["sample", "--policy", path, "--count", "3"],
        json.dumps(PolicyTable.uniform(DEFAULT_VOCAB).to_dict(), indent=1), False,
        (2, NOT_UTF8, None)),
    "seed corpus": Reader(
        lambda path: ["train-toy", "--episodes", "10", "--max-tokens", "6",
                      "--seed-corpus", path],
        '{"tokens": ["Assert"]}\n' * 3, False,
        (2, "line 3: record field 'tokens[0]' cannot be encoded as UTF-8",
         b'{"tokens": ["Assert"]}\n' * 2 + b'{"tokens": ["\xff"]}\n')),
}


def outcome(argv: list[str], capsys) -> tuple[int, str]:
    """The exit code and the failure: stderr without its ``tqual: `` prefix
    on exit 2, and ``line N: error`` of the one ``error.v1`` record on exit 1.
    No output file is left behind on exit 2."""
    code = main(argv + ["--out", "out"])
    err = capsys.readouterr().err
    if code == 2:
        assert not Path("out").exists()
        assert err.startswith("tqual: ") and err.count("\n") == 1, err
        return code, err.removeprefix("tqual: ").rstrip("\n")
    errors = [row for row in map(json.loads, Path("out").read_text(encoding="utf-8").splitlines())
              if row["schema"] == "error.v1"]
    assert code == (1 if errors else 0), err
    assert len(errors) <= 1
    return code, "".join(f"line {row['line']}: {row['error']}" for row in errors)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("folder").mkdir()
    return tmp_path


@pytest.mark.parametrize("path, message", [
    ("", "empty input file path"),
    ("nope", "input file not found: nope"),
    ("folder", "input file not found: folder"),
], ids=["empty", "missing", "directory"])
@pytest.mark.parametrize("reader", list(READERS))
def test_a_path_that_is_not_a_file_is_refused_with_one_message(workdir, capsys, reader,
                                                               path, message):
    row = READERS[reader]
    if row.per_line:
        assert outcome(row.argv(path), capsys) == (1, f"line 1: {message}")
    else:
        assert outcome(row.argv(path), capsys) == (2, message)


@pytest.mark.parametrize("reader", list(READERS))
def test_a_byte_that_is_not_utf8_is_named_by_its_line(workdir, capsys, reader):
    row = READERS[reader]
    code, message, content = row.bad_byte
    Path("input").write_bytes(content if content is not None else spoil_line_3(row.text))
    assert outcome(row.argv("input"), capsys) == (code, message)


@pytest.mark.parametrize("reader", list(READERS))
def test_a_byte_order_mark_reads_like_none(workdir, capsys, reader):
    row = READERS[reader]
    outputs = []
    for bom in (b"", b"\xef\xbb\xbf"):
        Path("input").write_bytes(bom + row.text.encode("utf-8"))
        assert outcome(row.argv("input"), capsys) == (0, "")
        outputs.append(Path("out").read_bytes())
        Path("out").unlink()
    assert outputs[0] == outputs[1] != b""


# ── given but empty is not "not given" ──────────────────────────────


@pytest.mark.parametrize("extra, message", [
    (["--init-policy", ""], "empty input file path"),
    (["--init-policy", "policy.json", "--vocab-file", ""],
     "--init-policy and --vocab-file cannot be combined"),
    (["--init-policy", "policy.json", "--seed-corpus", ""],
     "--init-policy and --seed-corpus cannot be combined"),
], ids=["init-policy", "init-policy-vocab-file", "init-policy-seed-corpus"])
def test_an_empty_train_toy_path_counts_as_given(workdir, capsys, extra, message):
    Path("policy.json").write_text(json.dumps(PolicyTable.uniform(DEFAULT_VOCAB).to_dict()))
    code, err = outcome(["train-toy", "--episodes", "10", *extra], capsys)
    assert code == 2
    assert err.startswith(message)


@pytest.mark.parametrize("text, message", [
    ("{'schema': 'policy.v1'}",
     "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("[" * 100_000, "maximum recursion depth exceeded"),
], ids=["not-json", "nested-too-deep"])
def test_policy_json_that_does_not_parse_names_the_file(workdir, capsys, text, message):
    Path("policy.json").write_text(text)
    code, err = outcome(["sample", "--policy", "policy.json"], capsys)
    assert code == 2
    assert err.startswith(f"policy.json: {message}")


# ── content a reader refuses names its file ─────────────────────────


@pytest.mark.parametrize("reader, text, message", [
    ("config", "# budgets\ntrain.episode = 3\n", "config line 2: unknown key 'train.episode'"),
    ("vocabulary", "Assert\nx\n", "vocabulary file must include the stop token </s>"),
    ("policy", json.dumps({"schema": "policy.v1", "vocabulary": ["</s>", "x"],
                           "logits": [[0, 0], [0, 0]], "stop_token": "</s>"}),
     "record needs a list 'ref_logits' field"),
], ids=["config", "vocabulary", "policy"])
def test_content_a_reader_refuses_is_named_by_its_file(workdir, capsys, reader, text, message):
    Path("input").write_text(text, encoding="utf-8")
    assert outcome(READERS[reader].argv("input"), capsys) == (2, f"input: {message}")
