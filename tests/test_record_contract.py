"""The record contract of the JSONL commands.

Per-line commands (analyze, truncate, prompt, reward, golden) write exactly
one line per non-blank input line, an ``error.v1`` record for a bad one, and
exit 0 or 1; golden may drop a record that decodes but is not golden.
Whole-input commands stop with exit 2 at the first bad line, naming it.
``report`` skips a bad line with a note on stderr.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tqual.analyzer import analyze
from tqual.cli import main
from tqual.corpus import CorpusRecord
from tqual.curation import is_golden
from tqual.errors import DomainError

FOCAL_FILES = Path(__file__).parent / "fixtures" / "focal_files"

GOLDEN_TEST = (
    "[TestMethod]\npublic void TestStop()\n{\n"
    "    c.Stop();\n    Assert.IsTrue(c.IsStopped());\n}"
)
GOOD = {"focal_method": "Stop", "repo": "r", "test": GOLDEN_TEST}


def write_lines(path: Path, rows: list) -> Path:
    """One line per row: dicts and lists as JSON (surrogates escaped),
    strings as they are."""
    path.write_text("".join((row if isinstance(row, str) else json.dumps(row)) + "\n"
                            for row in rows), encoding="utf-8")
    return path


def run(command: str, path: Path, capsys, *extra: str) -> tuple[int, list[dict], str]:
    argv = [command, str(path), *extra]
    if command == "reward":
        argv += ["--properties", "assertion"]
    code = main(argv)
    captured = capsys.readouterr()
    return code, [json.loads(line) for line in captured.out.splitlines()], captured.err


# ── per-line commands: one contract for every field ─────────────────


@pytest.mark.parametrize("bad", [{"repo": ["a"]}, {"focal_method": 42},
                                 {"prompt": None}, {"source": True}],
                         ids=["repo-list", "focal-number", "prompt-null", "source-bool"])
@pytest.mark.parametrize("command", ["analyze", "reward", "golden"])
def test_wrongly_typed_field_is_an_error_record(tmp_path, capsys, command, bad):
    path = write_lines(tmp_path / "c.jsonl", [GOOD, {**GOOD, **bad}, GOOD])
    code, rows, _ = run(command, path, capsys)
    assert code == 1
    assert rows[1] == {"schema": "error.v1", "line": 2,
                       "error": f"record needs a string {next(iter(bad))!r} field"}
    assert rows[0]["schema"] == rows[2]["schema"] != "error.v1"


@pytest.mark.parametrize("field", ["test", "focal_method", "repo", "prompt"])
@pytest.mark.parametrize("command", ["analyze", "reward", "golden"])
def test_lone_surrogate_is_an_error_record_and_later_lines_still_run(
        tmp_path, capsys, command, field):
    path = write_lines(tmp_path / "c.jsonl", [GOOD, {**GOOD, field: "x\ud800"}, GOOD])
    code, rows, _ = run(command, path, capsys)
    assert code == 1
    assert rows[1] == {"schema": "error.v1", "line": 2,
                       "error": f"record field {field!r} cannot be encoded as UTF-8"}
    assert len(rows) == 3


@pytest.mark.parametrize("field", ["prompt_hint", "completion"])
def test_truncate_rejects_lone_surrogates(tmp_path, capsys, field):
    row = {"prompt_hint": "[TestMethod]\npublic void TestStop",
           "completion": "()\n{\n}\n", field: "\udfff"}
    code, rows, _ = run("truncate", write_lines(tmp_path / "raw.jsonl", [row]), capsys)
    assert code == 1
    assert rows == [{"schema": "error.v1", "line": 1,
                     "error": f"record field {field!r} cannot be encoded as UTF-8"}]


def test_analyze_reads_focal_method_like_reward(tmp_path, capsys):
    # A record without a focal method is analyzed, as reward and golden do.
    path = write_lines(tmp_path / "c.jsonl", [{"test": GOLDEN_TEST}])
    code, rows, _ = run("analyze", path, capsys)
    assert code == 0
    assert rows == [analyze(GOLDEN_TEST, "").to_dict()]


def test_analyze_has_no_focal_field_flag(tmp_path, capsys):
    path = write_lines(tmp_path / "c.jsonl", [GOOD])
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", str(path), "--focal-field", "name"])
    assert excinfo.value.code == 2


def test_prompt_path_with_nul_byte_is_an_error_record(tmp_path, capsys):
    good = {"focal_path": str(FOCAL_FILES / "InventoryService.cs"), "focal_method": "Reserve"}
    path = write_lines(tmp_path / "wanted.jsonl",
                       [good, {"focal_path": "Inventory\x00Service.cs", "focal_method": "Reserve"},
                        good])
    code, rows, _ = run("prompt", path, capsys)
    assert code == 1
    assert [r["schema"] for r in rows] == ["prompt.v1", "error.v1", "prompt.v1"]
    assert "null byte" in rows[1]["error"]


def test_deeply_nested_json_is_an_error_record(tmp_path, capsys):
    path = write_lines(tmp_path / "c.jsonl", [GOOD, "[" * 100_000, GOOD])
    code, rows, _ = run("analyze", path, capsys)
    assert code == 1
    assert rows[1] == {"schema": "error.v1", "line": 2,
                       "error": "invalid JSON (nested too deep)"}


def test_bytes_that_are_not_utf8_spoil_only_their_line(tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    path.write_bytes(b'{"test": "a"}\n{"test": "\xff"}\n\xfe\n{"test": "b"}\n')
    code, rows, _ = run("analyze", path, capsys)
    assert code == 1
    assert [r["schema"] for r in rows] == ["report.v1", "error.v1", "error.v1", "report.v1"]
    assert rows[1]["error"] == "record field 'test' cannot be encoded as UTF-8"
    assert rows[2]["error"].startswith("invalid JSON")


def test_error_records_do_not_repeat_the_line_number(tmp_path, capsys):
    path = write_lines(tmp_path / "c.jsonl", ["not json", "[1]"])
    code, rows, _ = run("golden", path, capsys)
    assert code == 1
    assert [r["line"] for r in rows] == [1, 2]
    assert rows[0]["error"].startswith("invalid JSON")
    assert rows[1]["error"] == "expected a JSON object"


# ── whole-input commands: exit 2, naming the line ───────────────────


@pytest.mark.parametrize("row, message", [
    ({"record": {"test": "x"}, "reward": 0}, "record needs an object 'report' field"),
    ({"record": "x", "report": {}, "reward": 0}, "record needs an object 'record' field"),
    ({"record": {"test": "x"}, "report": analyze("x", "").to_dict(), "reward": True},
     "record needs an integer 'reward' field"),
])
def test_resample_bad_labeled_line_is_usage_error(tmp_path, capsys, row, message):
    path = write_lines(tmp_path / "labeled.jsonl", [row])
    assert main(["resample", str(path)]) == 2
    assert f"line 1: {message}" in capsys.readouterr().err


def test_train_toy_seed_line_without_tokens_is_usage_error(tmp_path, capsys):
    seed = write_lines(tmp_path / "seed.jsonl", [{"tokens": ["x"]}, {"words": ["x"]}])
    assert main(["train-toy", "--seed-corpus", str(seed), "--episodes", "10"]) == 2
    assert "line 2: record needs a list 'tokens' field" in capsys.readouterr().err


def test_train_toy_seed_tokens_must_be_strings(tmp_path, capsys):
    seed = write_lines(tmp_path / "seed.jsonl", [{"tokens": ["x", 1]}])
    assert main(["train-toy", "--seed-corpus", str(seed), "--episodes", "10"]) == 2
    assert "line 1: record needs a string 'tokens[1]' field" in capsys.readouterr().err


def test_train_toy_seed_token_outside_the_vocabulary_names_its_line(tmp_path, capsys):
    seed = write_lines(tmp_path / "seed.jsonl", [{"tokens": ["x"]}, {"tokens": ["Bogus"]}])
    assert main(["train-toy", "--seed-corpus", str(seed), "--episodes", "10"]) == 2
    assert capsys.readouterr().err == f"tqual: {seed}: line 2: token 'Bogus' not in vocabulary\n"


@pytest.mark.parametrize("command", ["sample", "train-toy"])
def test_policy_file_missing_a_key_is_usage_error(tmp_path, capsys, command):
    path = tmp_path / "policy.json"
    path.write_text(json.dumps({"schema": "policy.v1", "vocabulary": ["</s>", "x"],
                                "logits": [[0, 0], [0, 0]], "stop_token": "</s>"}))
    argv = (["sample", "--policy", str(path)] if command == "sample"
            else ["train-toy", "--init-policy", str(path), "--episodes", "10"])
    assert main(argv) == 2
    assert "record needs a list 'ref_logits' field" in capsys.readouterr().err


# ── byte-order marks: every input file may start with one ───────────


def with_bom(path: Path) -> Path:
    """A copy of ``path``, under the same name in a ``bom`` folder beside
    it, that starts with a UTF-8 byte-order mark."""
    copy = path.parent / "bom" / path.name
    copy.parent.mkdir(exist_ok=True)
    copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return copy


def output_of(argv: list[str], capsys) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def test_corpus_with_a_bom_reads_like_one_without(tmp_path, capsys):
    path = write_lines(tmp_path / "c.jsonl", [GOOD, GOOD])
    plain = output_of(["analyze", str(path)], capsys)
    assert output_of(["analyze", str(with_bom(path))], capsys) == plain
    assert "error.v1" not in plain


def test_config_with_a_bom_reads_like_one_without(tmp_path, capsys):
    prompts = write_lines(tmp_path / "p.jsonl", [{
        "focal_path": str(FOCAL_FILES / "UploadCommand.cs"), "focal_method": "Stop"}])
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text("budget.prompt_token_budget = 150\n", encoding="utf-8")
    plain = output_of(["prompt", str(prompts), "--config", str(cfg)], capsys)
    assert json.loads(plain)["context_level"] > 1
    bom = output_of(["prompt", str(prompts), "--config", str(with_bom(cfg))], capsys)
    assert bom == plain


def test_focal_file_with_a_bom_renders_like_one_without(tmp_path, capsys):
    focal = tmp_path / "Upload.cs"
    focal.write_bytes((FOCAL_FILES / "UploadCommand.cs").read_bytes())
    rows = [{"focal_path": str(path), "focal_method": "Stop"} for path in (focal, with_bom(focal))]
    path = write_lines(tmp_path / "p.jsonl", rows)
    plain, bom = map(json.loads, output_of(["prompt", str(path)], capsys).splitlines())
    assert plain["context_level"] == bom["context_level"] == 1
    assert bom["prompt_text"] == plain["prompt_text"].replace(str(tmp_path), str(tmp_path / "bom"))
    assert "\ufeff" not in bom["prompt_text"]


def test_vocabulary_file_with_a_bom_reads_like_one_without(tmp_path):
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("</s>\nAssert\n(\n)\n;\nx\n", encoding="utf-8")
    plain, bom = tmp_path / "plain.json", tmp_path / "bom.json"
    for path, out in ((vocab, plain), (with_bom(vocab), bom)):
        assert main(["train-toy", "--vocab-file", str(path), "--episodes", "10",
                     "--out", str(out)]) == 0
    assert json.loads(bom.read_text())["vocabulary"][0] == "</s>"
    assert bom.read_bytes() == plain.read_bytes()


def test_policy_file_with_a_bom_reads_like_one_without(tmp_path, capsys):
    policy = tmp_path / "policy.json"
    assert main(["train-toy", "--episodes", "10", "--out", str(policy)]) == 0
    capsys.readouterr()
    plain = output_of(["sample", "--policy", str(policy), "--count", "3"], capsys)
    assert output_of(["sample", "--policy", str(with_bom(policy)), "--count", "3"],
                     capsys) == plain


# ── report: skip with a note ────────────────────────────────────────


def test_report_skips_undecodable_reports(tmp_path, capsys):
    good = analyze(GOLDEN_TEST, "Stop").to_dict()
    missing = {k: v for k, v in good.items() if k != "invokes_focal"}
    as_text = {**good, "has_assertion": "false"}
    path = write_lines(tmp_path / "reports.jsonl", [good, missing, as_text, "oops"])
    code = main(["report", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "Tests analyzed: 1" in captured.out
    assert "report: skipping line 2: record needs a boolean 'invokes_focal' field" \
        in captured.err
    assert "report: skipping line 3: record needs a boolean 'has_assertion' field" \
        in captured.err
    assert "report: skipping line 4: invalid JSON" in captured.err


# ── any line at all ─────────────────────────────────────────────────

FIELDS = ("test", "focal_method", "repo", "focal_class", "prompt", "source",
          "prompt_hint", "completion", "focal_path")
TEXT = (st.text(max_size=20)
        | st.sampled_from([GOLDEN_TEST, "Stop", "", "a\x00b",
                           str(FOCAL_FILES / "InventoryService.cs")])
        | st.builds(lambda a, s, b: a + s + b, st.text(max_size=3),
                    st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
                    st.text(max_size=3)))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=6)
# Each real field may be present, most often as a string; other keys may be too.
RECORDS = st.builds(lambda known, other: {**other, **known},
                    st.fixed_dictionaries({}, optional={f: TEXT | JSON_VALUES for f in FIELDS}),
                    st.dictionaries(TEXT, JSON_VALUES, max_size=2))
# Raw lines: no newline characters, and no lone surrogates (the file is UTF-8).
RAW_LINES = st.text(st.characters(blacklist_categories=("Cs",),
                                  blacklist_characters="\r\n"),
                    max_size=30)
LINES = st.lists((RECORDS | st.lists(JSON_VALUES, max_size=2) | JSON_VALUES).map(json.dumps)
                 | RAW_LINES, min_size=1, max_size=6)


@pytest.mark.parametrize("command", ["analyze", "truncate", "prompt", "reward", "golden"])
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=LINES)
def test_any_jsonl_gives_one_line_per_input_line(command, rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_lines(Path(tmp) / "in.jsonl", rows)
        out = Path(tmp) / "out.jsonl"
        argv = [command, str(path), "--out", str(out)]
        if command == "reward":
            argv += ["--properties", "assertion"]
        code = main(argv)
        # Split on newlines only: JSON strings may hold other line breaks.
        written = [json.loads(line) for line in
                   out.read_text(encoding="utf-8").split("\n")[:-1]]
        with open(path, encoding="utf-8") as handle:
            lines = [(n, line) for n, line in enumerate(handle, start=1) if line.strip()]
    assert code in (0, 1)
    if command == "golden":
        kept = [(n, line) for n, line in lines if not _decodes_to_non_golden(line)]
    else:
        kept = lines
    assert len(written) == len(kept)
    for (n, _), row in zip(kept, written):
        assert row["schema"] != "error.v1" or row["line"] == n
    assert code == int(any(row["schema"] == "error.v1" for row in written))


def _decodes_to_non_golden(line: str) -> bool:
    try:
        record = CorpusRecord.from_dict(json.loads(line.strip()))
    except (ValueError, DomainError):
        return False
    return not is_golden(analyze(record.test, record.focal_method))
