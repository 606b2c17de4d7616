"""Command-line interface tests: each subcommand plus exit-code contracts."""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tqual
import tqual.cli as cli
from test_prompting import TUPLE_CLASS
from tqual.cli import main
from tqual.corpus import CorpusRecord, dump_line
from tqual.rewards import RewardScheme

GOLDEN_TEST = (
    "[TestMethod]\npublic void TestStop()\n{\n"
    "    c.Stop();\n    Assert.IsTrue(c.IsStopped());\n}"
)
PLAIN_TEST = "[TestMethod]\npublic void TestStop()\n{\n    c.Stop();\n}"
BROKEN_TEST = "[TestMethod]\npublic void TestStop()\n{\n    c.Stop()\n}"


def write_corpus(path, tests, repo="repo1"):
    with open(path, "w", encoding="utf-8") as handle:
        for i, test in enumerate(tests):
            record = CorpusRecord(
                repo=repo if isinstance(repo, str) else repo[i],
                focal_class="C",
                focal_method="Stop",
                prompt=f"p{i}",
                test=test,
            )
            handle.write(dump_line(record.to_dict()) + "\n")
    return path


def read_lines(capsys) -> list[dict]:
    return [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]


# ── analyze and report ───────────────────────────────────────────────


def test_analyze_emits_one_report_per_line(tmp_path, capsys):
    path = write_corpus(tmp_path / "c.jsonl", [GOLDEN_TEST, PLAIN_TEST, BROKEN_TEST])
    assert main(["analyze", str(path)]) == 0
    reports = read_lines(capsys)
    assert [r["schema"] for r in reports] == ["report.v1"] * 3
    assert [r["correct_syntax"] for r in reports] == [True, True, False]
    assert [r["has_assertion"] for r in reports] == [True, False, False]


def test_analyze_malformed_line_yields_error_record_and_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        dump_line({"test": GOLDEN_TEST, "focal_method": "Stop"})
        + "\nnot json\n"
        + dump_line({"focal_method": "Stop"})
        + "\n"
    )
    assert main(["analyze", str(path)]) == 1
    lines = read_lines(capsys)
    assert lines[0]["schema"] == "report.v1"
    assert lines[1] == {
        "schema": "error.v1", "line": 2, "error": lines[1]["error"]
    }
    assert "invalid JSON" in lines[1]["error"]
    assert lines[2]["schema"] == "error.v1"


def test_analyze_missing_input_is_usage_error(capsys):
    assert main(["analyze", "/nonexistent/corpus.jsonl"]) == 2


def test_report_renders_percentage_table(tmp_path, capsys):
    corpus = write_corpus(tmp_path / "c.jsonl", [GOLDEN_TEST, PLAIN_TEST])
    reports_path = tmp_path / "reports.jsonl"
    assert main(["analyze", str(corpus), "--out", str(reports_path)]) == 0
    capsys.readouterr()

    assert main(["report", str(reports_path)]) == 0
    out = capsys.readouterr().out
    assert "Correct Syntax" in out
    assert "100.0%" in out
    assert "Has Assertion" in out
    assert " 50.0%" in out
    assert "Tests analyzed: 2" in out
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["schema"] == "stats.v1"
    assert payload["frequencies"]["invokes_focal"] == 1.0


def test_report_can_write_stats_to_file(tmp_path, capsys):
    corpus = write_corpus(tmp_path / "c.jsonl", [GOLDEN_TEST])
    reports_path = tmp_path / "reports.jsonl"
    main(["analyze", str(corpus), "--out", str(reports_path)])
    stats_path = tmp_path / "stats.json"
    assert main(["report", str(reports_path), "--out", str(stats_path)]) == 0
    assert json.loads(stats_path.read_text())["count"] == 1


# ── truncate ─────────────────────────────────────────────────────────


def test_truncate_cuts_overrun(tmp_path, capsys):
    path = tmp_path / "raw.jsonl"
    path.write_text(
        dump_line(
            {
                "focal_method": "Stop",
                "completion": "()\n{\n    c.Stop();\n}\nleftover",
            }
        )
        + "\n"
    )
    assert main(["truncate", str(path)]) == 0
    (row,) = read_lines(capsys)
    assert row["schema"] == "truncated.v1"
    assert row["test"].endswith("}")
    assert "leftover" not in row["test"]


def test_truncate_requires_hint_or_focal(tmp_path, capsys):
    path = tmp_path / "raw.jsonl"
    path.write_text(dump_line({"completion": "x"}) + "\n")
    assert main(["truncate", str(path)]) == 1
    (row,) = read_lines(capsys)
    assert row["schema"] == "error.v1"


# ── prompt ───────────────────────────────────────────────────────────


def test_prompt_builds_from_focal_file(tmp_path, capsys):
    focal_path = "tests/fixtures/focal_files/InventoryService.cs"
    path = tmp_path / "wanted.jsonl"
    path.write_text(
        dump_line({"focal_path": focal_path, "focal_method": "Reserve"}) + "\n"
    )
    assert main(["prompt", str(path)]) == 0
    (row,) = read_lines(capsys)
    assert row["schema"] == "prompt.v1"
    assert row["context_level"] == 1
    assert row["prompt_text"].endswith("public void TestReserve")


def test_prompt_unknown_method_becomes_error_record(tmp_path, capsys):
    focal_path = "tests/fixtures/focal_files/InventoryService.cs"
    path = tmp_path / "wanted.jsonl"
    path.write_text(
        dump_line({"focal_path": focal_path, "focal_method": "Imaginary"}) + "\n"
    )
    assert main(["prompt", str(path)]) == 1
    (row,) = read_lines(capsys)
    assert row["schema"] == "error.v1"


def test_prompt_finds_methods_typed_with_tuples(tmp_path, capsys):
    focal = tmp_path / "Cart.cs"
    focal.write_text(TUPLE_CLASS)
    methods = ["CheckoutAsync", "Split", "Count"]
    path = tmp_path / "wanted.jsonl"
    path.write_text("".join(
        dump_line({"focal_path": str(focal), "focal_method": m}) + "\n" for m in methods))
    assert main(["prompt", str(path)]) == 0
    rows = read_lines(capsys)
    assert [(r["schema"], r["focal_method"]) for r in rows] == [
        ("prompt.v1", m) for m in methods]


# ── reward and resample ──────────────────────────────────────────────


def test_reward_labels_records(tmp_path, capsys):
    path = write_corpus(tmp_path / "c.jsonl", [GOLDEN_TEST, PLAIN_TEST, BROKEN_TEST])
    assert main(["reward", str(path), "--properties", "assertion"]) == 0
    rows = read_lines(capsys)
    assert [r["reward"] for r in rows] == [1, 0, -1]
    assert all(r["schema"] == "labeled.v1" for r in rows)


def test_reward_without_properties_is_usage_error(tmp_path):
    path = write_corpus(tmp_path / "c.jsonl", [GOLDEN_TEST])
    assert main(["reward", str(path)]) == 2


# Every name a reward scheme accepts, spelled out, to the property it names.
REWARD_NAMES = {
    "has_assertion": "has_assertion", "assertion": "has_assertion", "assert": "has_assertion",
    "invokes_focal": "invokes_focal", "focal": "invokes_focal",
    "has_comment": "has_comment", "comment": "has_comment",
    "descriptive_name": "descriptive_name", "descriptive": "descriptive_name",
    "duplicate_assertion": "duplicate_assertion", "duplicate": "duplicate_assertion",
    "dup": "duplicate_assertion",
    "conditional_or_exception": "conditional_or_exception",
    "conditional": "conditional_or_exception", "cond": "conditional_or_exception",
}

# A corpus on which each rewardable property gives its own labels.
REWARD_CORPUS = [
    GOLDEN_TEST,
    PLAIN_TEST,
    BROKEN_TEST,
    "[TestMethod]\npublic void TestRunKeepsGoing()\n{\n    // runs\n    c.Run();\n"
    "    Assert.IsTrue(c.IsRunning());\n    Assert.IsTrue(c.IsRunning());\n}",
    "[TestMethod]\npublic void StopWorksTwice()\n{\n    c.Stop();\n    c.Stop();\n}",
    "[TestMethod]\npublic void TestStop()\n{\n    if (c.Ready) { c.Stop(); }\n"
    "    Assert.IsTrue(c.IsStopped());\n}",
    "[TestMethod]\npublic void TestStop()\n{\n    c.Run();\n}",
]


def reward_output(capsys, argv) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def test_reward_corpus_tells_the_properties_apart(tmp_path, capsys):
    corpus = str(write_corpus(tmp_path / "c.jsonl", REWARD_CORPUS))
    labels = {
        prop: tuple(json.loads(line)["reward"] for line in
                    reward_output(capsys, ["reward", corpus, "--properties", prop]).splitlines())
        for prop in set(REWARD_NAMES.values())
    }
    assert len(set(labels.values())) == len(labels) == 6


@pytest.mark.parametrize("name", sorted(REWARD_NAMES))
def test_every_reward_name_labels_as_its_canonical_name(tmp_path, capsys, name):
    corpus = str(write_corpus(tmp_path / "c.jsonl", REWARD_CORPUS))
    want = reward_output(capsys, ["reward", corpus, "--properties", REWARD_NAMES[name]])
    cfg = tmp_path / "reward.cfg"
    for spelling in (name, name.upper(), name.title(), name.capitalize()):
        got = reward_output(capsys, ["reward", corpus, "--properties", spelling])
        assert got == want, spelling
        cfg.write_text(f"reward.properties = {spelling}\n")
        assert reward_output(capsys, ["reward", corpus, "--config", str(cfg)]) == want, spelling


@pytest.mark.parametrize("name", ["correct_syntax", "Correct_Syntax", "syntax", "made_up"])
def test_a_name_no_scheme_accepts_is_usage_error(tmp_path, capsys, name):
    corpus = str(write_corpus(tmp_path / "c.jsonl", [GOLDEN_TEST]))
    assert main(["reward", corpus, "--properties", name]) == 2
    cfg = tmp_path / "reward.cfg"
    cfg.write_text(f"reward.properties = {name}\n")
    assert main(["reward", corpus, "--config", str(cfg)]) == 2
    assert capsys.readouterr().out == ""


def test_resample_balances_classes_deterministically(tmp_path, capsys):
    corpus = write_corpus(
        tmp_path / "c.jsonl",
        [GOLDEN_TEST] * 4 + [PLAIN_TEST] * 10 + [BROKEN_TEST] * 9,
    )
    labeled_path = tmp_path / "labeled.jsonl"
    main(["reward", str(corpus), "--properties", "assertion", "--out", str(labeled_path)])
    capsys.readouterr()

    assert main(["resample", str(labeled_path), "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["resample", str(labeled_path), "--seed", "3"]) == 0
    second = capsys.readouterr().out
    assert first == second

    rewards = [json.loads(line)["reward"] for line in first.strip().splitlines()]
    assert rewards.count(1) == 4
    assert rewards.count(0) == 4
    assert rewards.count(-1) == 8


# ── golden, split, subsample ─────────────────────────────────────────


def test_golden_keeps_only_clean_tests(tmp_path, capsys):
    path = write_corpus(tmp_path / "c.jsonl", [GOLDEN_TEST, PLAIN_TEST, BROKEN_TEST])
    assert main(["golden", str(path)]) == 0
    rows = read_lines(capsys)
    assert len(rows) == 1
    assert rows[0]["test"] == GOLDEN_TEST


def test_split_writes_files_and_manifest(tmp_path, capsys):
    tests = [GOLDEN_TEST] * 40
    repos = [f"repo{i % 8}" for i in range(40)]
    path = write_corpus(tmp_path / "c.jsonl", tests, repo=repos)
    out_dir = tmp_path / "splits"
    assert main(["split", str(path), "--out-dir", str(out_dir), "--seed", "1"]) == 0

    counts = json.loads(capsys.readouterr().out.strip())
    assert set(counts) == {"train", "val", "test"}
    assert sum(counts.values()) == 40

    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["schema"] == "split-manifest.v1"
    assert set(manifest["assignments"].values()) == {"train", "val", "test"}
    for name in ("train", "val", "test"):
        lines = (out_dir / f"{name}.jsonl").read_text().strip().splitlines()
        assert len(lines) == counts[name]
        for line in lines:
            record = json.loads(line)
            assert manifest["assignments"][record["repo"]] == name


def test_split_too_few_repos_is_data_error(tmp_path, capsys):
    path = write_corpus(tmp_path / "c.jsonl", [GOLDEN_TEST] * 4, repo="only")
    assert main(["split", str(path), "--out-dir", str(tmp_path / "s")]) == 1


def test_split_takes_no_out_flag(tmp_path, capsys):
    # split writes into --out-dir only; an --out it would ignore is refused.
    path = write_corpus(tmp_path / "c.jsonl", [GOLDEN_TEST] * 40,
                        repo=[f"repo{i % 8}" for i in range(40)])
    with pytest.raises(SystemExit) as excinfo:
        main(["split", str(path), "--out-dir", str(tmp_path / "s"), "--out", str(tmp_path / "x")])
    assert excinfo.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert not (tmp_path / "s").exists() and not (tmp_path / "x").exists()


# ── unwritable outputs ───────────────────────────────────────────────


def test_analyze_out_to_a_directory_is_usage_error(tmp_path, capsys):
    corpus = write_corpus(tmp_path / "c.jsonl", [GOLDEN_TEST])
    assert main(["analyze", str(corpus), "--out", str(tmp_path)]) == 2
    assert "tqual:" in capsys.readouterr().err


def test_report_out_to_a_directory_is_usage_error(tmp_path, capsys):
    corpus = write_corpus(tmp_path / "c.jsonl", [GOLDEN_TEST])
    reports_path = tmp_path / "reports.jsonl"
    assert main(["analyze", str(corpus), "--out", str(reports_path)]) == 0
    assert main(["report", str(reports_path), "--out", str(tmp_path)]) == 2
    assert "tqual:" in capsys.readouterr().err


# Output is written while input is read, so the input would be emptied.
@pytest.mark.parametrize("command, hard_link", [
    ("analyze", False), ("truncate", False), ("prompt", False), ("reward", False),
    ("golden", False), ("analyze", True)])
def test_out_naming_the_input_of_a_per_line_command_is_usage_error(
        tmp_path, capsys, command, hard_link):
    path = tmp_path / "c.jsonl"
    path.write_text(dump_line({
        "test": GOLDEN_TEST, "focal_method": "Stop", "completion": "()\n{\n}\n",
        "focal_path": "tests/fixtures/focal_files/InventoryService.cs"}) + "\n")
    before = path.read_bytes()
    out = path
    if hard_link:
        out = tmp_path / "link.jsonl"
        os.link(path, out)
    argv = [command, str(path), "--out", str(out)]
    assert main(argv + (["--properties", "has_assertion"] if command == "reward" else [])) == 2
    assert path.read_bytes() == before
    assert str(out) in capsys.readouterr().err


@pytest.mark.parametrize("spelling", ["F.cs", "./F.cs", "absolute"])
def test_prompt_out_naming_a_focal_file_is_usage_error(tmp_path, monkeypatch, capsys,
                                                       spelling):
    # The output is opened before the requests are read, so it would empty
    # the focal file that a request names.
    monkeypatch.chdir(tmp_path)
    focal = tmp_path / "F.cs"
    shutil.copy(Path(__file__).parent / "fixtures" / "focal_files" / "InventoryService.cs",
                focal)
    before = focal.read_bytes()
    named = str(focal) if spelling == "absolute" else spelling
    (tmp_path / "req.jsonl").write_text(
        dump_line({"focal_path": "other.cs", "focal_method": "Reserve"}) + "\n"
        + dump_line({"focal_path": named, "focal_method": "Reserve"}) + "\n")
    assert main(["prompt", "req.jsonl", "--out", "F.cs"]) == 2
    assert focal.read_bytes() == before
    assert capsys.readouterr().err == (
        "tqual: --out F.cs is the focal file of req.jsonl line 2; it would be emptied\n")


@pytest.mark.parametrize("spelling", ["same", "dotted", "hard-link"])
def test_two_outputs_naming_one_file_is_usage_error(tmp_path, capsys, spelling):
    # train-toy would write its metrics, then overwrite them with the policy.
    metrics = tmp_path / "x.json"
    out = {"same": metrics, "dotted": tmp_path / "." / "x.json",
           "hard-link": tmp_path / "link.json"}[spelling]
    if spelling == "hard-link":
        metrics.write_text("kept\n")
        os.link(metrics, out)
    argv = ["train-toy", "--episodes", "40", "--metrics", str(metrics), "--out", str(out)]
    assert main(argv) == 2
    assert "name the same file" in capsys.readouterr().err
    if spelling == "hard-link":
        assert metrics.read_text() == "kept\n"
    else:
        assert not metrics.exists()


def test_whole_input_commands_may_write_over_their_input(tmp_path, capsys):
    corpus = write_corpus(tmp_path / "d.jsonl", [GOLDEN_TEST] * 30)
    assert main(["subsample", str(corpus), "--n", "10", "--out", str(corpus)]) == 0
    assert len(corpus.read_text().splitlines()) == 10
    policy = tmp_path / "p.json"
    assert main(["train-toy", "--episodes", "10", "--out", str(policy)]) == 0
    assert main(["train-toy", "--episodes", "10", "--init-policy", str(policy),
                 "--out", str(policy)]) == 0
    assert json.loads(policy.read_text())["schema"] == "policy.v1"


def test_closed_stdout_exits_0_without_a_message(tmp_path):
    # Enough report lines to overflow the pipe, so writes go on after the close.
    corpus = write_corpus(tmp_path / "c.jsonl", [GOLDEN_TEST] * 3000)
    env = dict(os.environ)
    paths = [str(Path(tqual.__file__).resolve().parent.parent), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    proc = subprocess.Popen([sys.executable, "-m", "tqual.cli", "analyze", str(corpus)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert json.loads(proc.stdout.readline())["schema"] == "report.v1"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert stderr == b""


def test_split_out_dir_that_is_a_file_is_usage_error(tmp_path, capsys):
    path = write_corpus(tmp_path / "c.jsonl", [GOLDEN_TEST] * 3, repo=["a", "b", "c"])
    assert main(["split", str(path), "--out-dir", str(path)]) == 2
    assert "tqual:" in capsys.readouterr().err


def test_subsample_returns_requested_count(tmp_path, capsys):
    path = write_corpus(tmp_path / "c.jsonl", [GOLDEN_TEST] * 10)
    assert main(["subsample", str(path), "--n", "3", "--seed", "2"]) == 0
    assert len(read_lines(capsys)) == 3


# ── records with a bad test field ────────────────────────────────────

BAD_TEST_ROWS = [{"focal_method": "Stop", "repo": "r"},
                 {"focal_method": "Stop", "repo": "r", "test": 42}]


@pytest.mark.parametrize("bad", BAD_TEST_ROWS, ids=["missing", "number"])
@pytest.mark.parametrize("command", ["reward", "golden"])
def test_bad_test_field_is_an_error_record(tmp_path, capsys, command, bad):
    path = tmp_path / "c.jsonl"
    good = {"focal_method": "Stop", "repo": "r", "test": GOLDEN_TEST}
    path.write_text("\n".join(dump_line(row) for row in (good, bad, good)) + "\n")
    argv = [command, str(path)] + (["--properties", "assertion"] if command == "reward" else [])
    assert main(argv) == 1
    rows = read_lines(capsys)
    assert [r["schema"] for r in rows] == (
        ["labeled.v1", "error.v1", "labeled.v1"] if command == "reward"
        else ["corpus.v1", "error.v1", "corpus.v1"])
    assert rows[1]["line"] == 2
    assert "'test'" in rows[1]["error"]


@pytest.mark.parametrize("bad", BAD_TEST_ROWS, ids=["missing", "number"])
@pytest.mark.parametrize("command", ["split", "subsample", "resample"])
def test_bad_test_field_in_whole_corpus_input_is_usage_error(tmp_path, capsys, command, bad):
    path = tmp_path / "c.jsonl"
    row = {"record": bad, "report": {}, "reward": 0} if command == "resample" else bad
    path.write_text(dump_line(row) + "\n")
    argv = {"split": ["--out-dir", str(tmp_path / "s")], "subsample": ["--n", "1"],
            "resample": []}[command]
    assert main([command, str(path)] + argv) == 2
    assert "line 1: record needs a string 'test' field" in capsys.readouterr().err


# ── nesting past the parser cap ──────────────────────────────────────


def deep_test(depth: int) -> str:
    return ("[TestMethod]\npublic void TestStopAtDepth()\n{\n" + "if (ready)\n{\n" * depth
            + "c.Stop();\nAssert.IsTrue(c.IsStopped());\n" + "}\n" * depth + "}")


def test_analyze_reports_deep_nesting(tmp_path, capsys):
    path = write_corpus(tmp_path / "c.jsonl", [deep_test(d) for d in (400, 1000, 10_000)])
    assert main(["analyze", str(path)]) == 0
    reports = read_lines(capsys)
    assert [r["schema"] for r in reports] == ["report.v1"] * 3
    assert not any(r["correct_syntax"] for r in reports)
    assert all(r["has_assertion"] and r["invokes_focal"] for r in reports)


@pytest.mark.parametrize("opener", ["namespace N {\n", "class C {\n"])
def test_prompt_on_deeply_nested_focal_files(tmp_path, capsys, opener):
    rows = []
    for depth in (400, 1000, 10_000):
        focal = tmp_path / f"Deep{depth}.cs"
        focal.write_text(opener * depth + "class S { public void Stop() { } }\n"
                         + "}\n" * depth)
        rows.append({"focal_path": str(focal), "focal_method": "Stop"})
    path = tmp_path / "wanted.jsonl"
    path.write_text("".join(dump_line(row) + "\n" for row in rows))
    assert main(["prompt", str(path)]) == 1
    # Within the cap the method is found; past it the body was skipped.
    assert [r["schema"] for r in read_lines(capsys)] == ["prompt.v1", "error.v1", "error.v1"]


# ── toy RL commands ──────────────────────────────────────────────────


def test_train_toy_and_sample_round_trip(tmp_path, capsys):
    vocab_path = tmp_path / "vocab.txt"
    vocab_path.write_text("\n".join(["</s>", "Assert", "(", ")", ";", "x"]) + "\n")
    seed_path = tmp_path / "seed.jsonl"
    seed_path.write_text(
        dump_line({"tokens": ["Assert", "(", "x", ")", ";"]})
        + "\n"
        + dump_line({"tokens": ["x", ";"]})
        + "\n"
    )
    policy_path = tmp_path / "policy.json"
    metrics_path = tmp_path / "metrics.jsonl"

    code = main(
        [
            "train-toy",
            "--properties", "assertion",
            "--episodes", "100",
            "--max-tokens", "8",
            "--vocab-file", str(vocab_path),
            "--seed-corpus", str(seed_path),
            "--metrics", str(metrics_path),
            "--out", str(policy_path),
        ]
    )
    assert code == 0
    policy_payload = json.loads(policy_path.read_text())
    assert policy_payload["schema"] == "policy.v1"
    metric_rows = [
        json.loads(line) for line in metrics_path.read_text().strip().splitlines()
    ]
    assert metric_rows[0]["episode"] == 0
    assert metric_rows[-1]["episode"] == 100
    capsys.readouterr()

    assert main(
        ["sample", "--policy", str(policy_path), "--count", "4", "--max-tokens", "8"]
    ) == 0
    rows = read_lines(capsys)
    assert len(rows) == 4
    assert all(r["schema"] == "sample.v1" for r in rows)
    assert all("[TestMethod]" in r["test"] for r in rows)


def test_a_non_ascii_token_goes_through_train_toy_and_sample(tmp_path, capsys):
    vocab_path = tmp_path / "vocab.txt"
    vocab_path.write_text("</s>\né\n;\n", encoding="utf-8")
    policy_path = tmp_path / "policy.json"
    assert main(["train-toy", "--episodes", "10", "--max-tokens", "4",
                 "--vocab-file", str(vocab_path), "--out", str(policy_path)]) == 0
    text = policy_path.read_text(encoding="utf-8")
    assert '"é"' in text and "\\u" not in text
    assert json.loads(text)["vocabulary"] == ["</s>", "é", ";"]
    capsys.readouterr()

    assert main(["sample", "--policy", str(policy_path), "--count", "20",
                 "--max-tokens", "4"]) == 0
    assert any("é" in row["tokens"] for row in read_lines(capsys))


def test_train_toy_with_a_tiny_learning_rate_succeeds(tmp_path, capsys):
    # Rows a few ulps from the reference once rounded the KL below zero,
    # which stopped the run with exit 2.
    policy_path = tmp_path / "policy.json"
    argv = ["train-toy", "--episodes", "100", "--learning-rate", "1e-9",
            "--out", str(policy_path)]
    assert main(argv) == 0
    assert "KL divergence" not in capsys.readouterr().err
    assert json.loads(policy_path.read_text())["schema"] == "policy.v1"


@pytest.mark.parametrize("count", ["0", "-1"])
def test_sample_count_below_one_is_usage_error(tmp_path, capsys, count):
    policy_path = tmp_path / "policy.json"
    assert main(["train-toy", "--episodes", "10", "--out", str(policy_path)]) == 0
    capsys.readouterr()
    assert main(["sample", "--policy", str(policy_path), "--count", count]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--count must be at least 1" in captured.err


@pytest.mark.parametrize("line", ["train.temperature = nan", "train.frequency_penalty = inf"])
def test_sample_with_non_finite_config_is_usage_error(tmp_path, capsys, line):
    policy_path = tmp_path / "policy.json"
    assert main(["train-toy", "--episodes", "10", "--out", str(policy_path)]) == 0
    capsys.readouterr()
    cfg_path = tmp_path / "pipeline.cfg"
    cfg_path.write_text(line + "\n")
    assert main(["sample", "--policy", str(policy_path), "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err


def test_sample_checks_its_config_before_it_reads_the_policy(tmp_path, monkeypatch, capsys):
    # The policy file is missing too; the config error is reported first,
    # as train-toy does, so one run shows the bad setting.
    monkeypatch.chdir(tmp_path)
    Path("r.cfg").write_text("train.max_tokens = 0\n")
    assert main(["sample", "--policy", "missing.json", "--config", "r.cfg"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "tqual: r.cfg: train.max_tokens: max_tokens must be at least 1\n"


def test_train_toy_vocab_must_include_stop_token(tmp_path):
    vocab_path = tmp_path / "vocab.txt"
    vocab_path.write_text("Assert\n(\n)\n")
    assert main(
        ["train-toy", "--vocab-file", str(vocab_path), "--episodes", "10"]
    ) == 2


def test_train_toy_scores_checkpoints_with_the_configured_formula(tmp_path, capsys):
    cfg_path = tmp_path / "pipeline.cfg"
    cfg_path.write_text("score.positive_properties = has_comment\n"
                        "score.smell_properties = duplicate_assertion\n")
    metrics_path = tmp_path / "metrics.jsonl"
    assert main(["train-toy", "--episodes", "60", "--config", str(cfg_path),
                 "--metrics", str(metrics_path), "--out", str(tmp_path / "p.json")]) == 0
    rows = [json.loads(line) for line in metrics_path.read_text().splitlines()]
    for row in rows:
        freq = row["frequencies"]
        assert row["quality_score"] == freq["has_comment"] - freq["duplicate_assertion"]
    # The default formula gives other scores on these rows.
    assert any(row["quality_score"] != row["frequencies"]["has_assertion"]
               + row["frequencies"]["invokes_focal"]
               - row["frequencies"]["duplicate_assertion"]
               - row["frequencies"]["conditional_or_exception"] for row in rows)


def train_toy_scheme(monkeypatch, tmp_path, config: str | None, *flags: str) -> RewardScheme:
    """The reward scheme ``train-toy`` hands to ``make_analyzer_reward``."""
    schemes = []
    make_reward = cli.make_analyzer_reward

    def recording(scheme, focal_name):
        schemes.append(scheme)
        return make_reward(scheme, focal_name)

    monkeypatch.setattr(cli, "make_analyzer_reward", recording)
    argv = ["train-toy", "--episodes", "10", "--max-tokens", "6",
            "--out", str(tmp_path / "policy.json"), *flags]
    if config is not None:
        cfg_path = tmp_path / "pipeline.cfg"
        cfg_path.write_text(config)
        argv += ["--config", str(cfg_path)]
    assert main(argv) == 0
    (scheme,) = schemes
    return scheme


def test_train_toy_reads_reward_properties_from_the_config(monkeypatch, tmp_path):
    scheme = train_toy_scheme(monkeypatch, tmp_path, "reward.properties = invokes_focal\n")
    assert scheme == RewardScheme(("invokes_focal",), "individual")


def test_train_toy_properties_flag_beats_the_config(monkeypatch, tmp_path):
    scheme = train_toy_scheme(monkeypatch, tmp_path, "reward.properties = invokes_focal\n",
                              "--properties", "has_comment")
    assert scheme == RewardScheme(("has_comment",), "individual")


def test_train_toy_defaults_to_has_assertion(monkeypatch, tmp_path):
    scheme = train_toy_scheme(monkeypatch, tmp_path, None)
    assert scheme == RewardScheme(("has_assertion",), "individual")


# ── seeds ────────────────────────────────────────────────────────────


SEED_KEYS = {"train-toy": "train.seed", "sample": "train.seed", "split": "split.seed"}


def seeded_output(tmp_path, capsys, command: str, args: list[str]) -> str:
    """What ``command`` writes when given ``args``: the policy of a short
    train-toy run, a sample batch, or a split manifest."""
    out = tmp_path / f"out{len(list(tmp_path.iterdir()))}"
    if command == "train-toy":
        argv = ["train-toy", "--episodes", "40", "--max-tokens", "6", "--out", str(out)]
    elif command == "sample":
        policy = tmp_path / "policy.json"
        if not policy.exists():
            assert main(["train-toy", "--episodes", "10", "--out", str(policy)]) == 0
        argv = ["sample", "--policy", str(policy), "--count", "8", "--out", str(out)]
    else:
        repos = [f"repo{i % 8}" for i in range(40)]
        corpus = write_corpus(tmp_path / "c.jsonl", [GOLDEN_TEST] * 40, repo=repos)
        argv = ["split", str(corpus), "--out-dir", str(out)]
        out = out / "manifest.json"
    assert main(argv + args) == 0
    capsys.readouterr()
    return out.read_text()


@pytest.mark.parametrize("command", sorted(SEED_KEYS))
def test_config_seed_holds_unless_the_flag_is_given(tmp_path, capsys, command):
    cfg_path = tmp_path / "seed.cfg"
    cfg_path.write_text(f"{SEED_KEYS[command]} = 5\n")

    def run(*args: str) -> str:
        return seeded_output(tmp_path, capsys, command, list(args))

    seed0, seed5 = run("--seed", "0"), run("--seed", "5")
    assert seed0 != seed5
    assert run() == seed0
    assert run("--config", str(cfg_path)) == seed5
    assert run("--config", str(cfg_path), "--seed", "0") == seed0


@pytest.mark.parametrize("command", ["resample", "subsample"])
def test_seed_defaults_to_zero_without_a_config(tmp_path, capsys, command):
    corpus = write_corpus(tmp_path / "c.jsonl", [GOLDEN_TEST, PLAIN_TEST] * 10)
    source = corpus
    if command == "resample":
        source = tmp_path / "labeled.jsonl"
        assert main(["reward", str(corpus), "--properties", "assertion",
                     "--out", str(source)]) == 0
    extra = ["--n", "5"] if command == "subsample" else []

    def run(*args: str) -> list[dict]:
        assert main([command, str(source), *extra, *args]) == 0
        return read_lines(capsys)

    assert run() == run("--seed", "0")


# ── argument handling ────────────────────────────────────────────────


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_config_file_feeds_subcommands(tmp_path, capsys):
    cfg_path = tmp_path / "pipeline.cfg"
    cfg_path.write_text("reward.properties = assertion\n")
    corpus = write_corpus(tmp_path / "c.jsonl", [GOLDEN_TEST])
    assert main(["reward", str(corpus), "--config", str(cfg_path)]) == 0
    (row,) = read_lines(capsys)
    assert row["reward"] == 1


def test_bad_config_file_is_usage_error(tmp_path):
    cfg_path = tmp_path / "pipeline.cfg"
    cfg_path.write_text("nonsense.key = 1\n")
    corpus = write_corpus(tmp_path / "c.jsonl", [GOLDEN_TEST])
    assert main(["reward", str(corpus), "--config", str(cfg_path),
                 "--properties", "assertion"]) == 2


# ── the names a tracer replaces ──────────────────────────────────────

SPLIT = ["split", "corpus.jsonl", "--out-dir", "splits", "--dedupe"]
TRAIN = ["train-toy", "--episodes", "10", "--max-tokens", "6", "--out", "policy.json"]

# Each name perfbench/tracing.py swaps on tqual.cli, a command that calls it,
# and how often on the 24-record corpus of ``write_pipeline_inputs``.
PATCH_POINTS = [
    ("analyze", ["golden", "corpus.jsonl"], 24),
    ("analyze", ["reward", "corpus.jsonl", "--properties", "assertion"], 24),
    ("is_golden", ["golden", "corpus.jsonl"], 24),
    ("reward_for", ["reward", "corpus.jsonl", "--properties", "assertion"], 24),
    ("score_corpus", ["report", "reports.jsonl"], 1),
    ("resample_balanced", ["resample", "labeled.jsonl"], 1),
    ("dedupe", SPLIT, 1),
    ("split_by_repository", SPLIT, 1),
    ("split_manifest", SPLIT, 1),
    ("build_prompt", ["prompt", "wanted.jsonl"], 1),
    ("parse_focal_file", ["prompt", "wanted.jsonl"], 1),
    ("truncate_completion", ["truncate", "raw.jsonl"], 1),
    ("iter_jsonl", ["analyze", "corpus.jsonl"], 1),
    ("dump_line", ["analyze", "corpus.jsonl"], 24),
    ("train_toy_policy", TRAIN, 1),
    ("make_analyzer_reward", TRAIN, 1),
]


def write_pipeline_inputs(root) -> None:
    tests = [GOLDEN_TEST, PLAIN_TEST, BROKEN_TEST] * 8
    write_corpus(root / "corpus.jsonl", tests, repo=[f"repo{i % 8}" for i in range(24)])
    assert main(["analyze", "corpus.jsonl", "--out", "reports.jsonl"]) == 0
    assert main(["reward", "corpus.jsonl", "--properties", "assertion",
                 "--out", "labeled.jsonl"]) == 0
    focal = Path(__file__).parent / "fixtures" / "focal_files" / "InventoryService.cs"
    (root / "wanted.jsonl").write_text(
        dump_line({"focal_path": str(focal), "focal_method": "Reserve"}) + "\n")
    (root / "raw.jsonl").write_text(
        dump_line({"focal_method": "Stop", "completion": "()\n{\n}\nleftover"}) + "\n")


@pytest.mark.parametrize("name, argv, calls", PATCH_POINTS,
                         ids=[f"{name}-{argv[0]}" for name, argv, _ in PATCH_POINTS])
def test_commands_look_up_each_traced_name_when_they_run(
        tmp_path, monkeypatch, capsys, name, argv, calls):
    monkeypatch.chdir(tmp_path)
    write_pipeline_inputs(tmp_path)
    original = getattr(cli, name)
    seen = []

    def counting(*args, **kwargs):
        seen.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, counting)
    assert main(argv) == 0
    assert len(seen) == calls


# ── the option surface ───────────────────────────────────────────────


def option_surface(parser: argparse.ArgumentParser) -> dict:
    """Per subcommand: its help, ``allow_abbrev`` and, for each action but
    ``--help``, (flags, dest, default, type, choices, required, help)."""
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    helps = {a.dest: a.help for a in commands._choices_actions}
    return {name: (helps[name], sub.allow_abbrev, [
        (" ".join(a.option_strings) or a.dest, a.dest, a.default,
         getattr(a.type, "__name__", a.type), a.choices, a.required, a.help)
        for a in sub._actions if not isinstance(a, argparse._HelpAction)])
        for name, sub in commands.choices.items()}


OPTION_SURFACE = {
    "analyze": ("quality reports for corpus records", True, [
        ("input", "input", None, None, None, True, None),
        ("--out", "out", None, None, None, False, "output path (default stdout)"),
    ]),
    "report": ("property frequency table for reports", True, [
        ("input", "input", None, None, None, True, None),
        ("--config", "config", None, None, None, False, "flat key=value config file"),
        ("--out", "out", None, None, None, False, "output path (default stdout)"),
    ]),
    "truncate": ("cut completions at test boundaries", True, [
        ("input", "input", None, None, None, True, None),
        ("--out", "out", None, None, None, False, "output path (default stdout)"),
    ]),
    "prompt": ("build budgeted prompts from focal files", True, [
        ("input", "input", None, None, None, True, None),
        ("--config", "config", None, None, None, False, "flat key=value config file"),
        ("--out", "out", None, None, None, False, "output path (default stdout)"),
    ]),
    "reward": ("label corpus records with rewards", True, [
        ("input", "input", None, None, None, True, None),
        ("--properties", "properties", None, None, None, False,
         "comma-separated quality properties"),
        ("--strategy", "strategy", None, None, ["individual", "combined"], False, None),
        ("--config", "config", None, None, None, False, "flat key=value config file"),
        ("--out", "out", None, None, None, False, "output path (default stdout)"),
    ]),
    "resample": ("class-balance labeled records", True, [
        ("input", "input", None, None, None, True, None),
        ("--out", "out", None, None, None, False, "output path (default stdout)"),
        ("--seed", "seed", 0, "int", None, False, None),
    ]),
    "golden": ("keep only golden-quality records", True, [
        ("input", "input", None, None, None, True, None),
        ("--out", "out", None, None, None, False, "output path (default stdout)"),
    ]),
    "split": ("leakage-free repository splits", False, [
        ("input", "input", None, None, None, True, None),
        ("--out-dir", "out_dir", None, None, None, True, None),
        ("--rl", "rl", False, None, None, False,
         "three-way sft/rm/pm partition of the training repos"),
        ("--dedupe", "dedupe", False, None, None, False, None),
        ("--config", "config", None, None, None, False, "flat key=value config file"),
        ("--seed", "seed", None, "int", None, False, None),
    ]),
    "subsample": ("seeded random subset", True, [
        ("input", "input", None, None, None, True, None),
        ("--n", "n", None, "int", None, True, None),
        ("--out", "out", None, None, None, False, "output path (default stdout)"),
        ("--seed", "seed", 0, "int", None, False, None),
    ]),
    "train-toy": ("PPO on a tabular bigram policy", True, [
        ("--properties", "properties", None, None, None, False,
         "comma-separated quality properties (default has_assertion)"),
        ("--strategy", "strategy", None, None, ["individual", "combined"], False, None),
        ("--focal", "focal", "Stop", None, None, False, None),
        ("--episodes", "episodes", None, "int", None, False, None),
        ("--beta", "beta", None, "float", None, False, None),
        ("--epsilon", "epsilon", None, "float", None, False, None),
        ("--learning-rate", "learning_rate", None, "float", None, False, None),
        ("--max-tokens", "max_tokens", None, "int", None, False, None),
        ("--vocab-file", "vocab_file", None, None, None, False, None),
        ("--init-policy", "init_policy", None, None, None, False, "policy JSON to start from"),
        ("--seed-corpus", "seed_corpus", None, None, None, False,
         "JSONL of {'tokens': [...]} for bigram init"),
        ("--metrics", "metrics", None, None, None, False, "write metrics JSONL here"),
        ("--config", "config", None, None, None, False, "flat key=value config file"),
        ("--out", "out", None, None, None, False, "output path (default stdout)"),
        ("--seed", "seed", None, "int", None, False, None),
    ]),
    "sample": ("draw completions from a policy", True, [
        ("--policy", "policy", None, None, None, True, None),
        ("--count", "count", 10, "int", None, False, None),
        ("--max-tokens", "max_tokens", None, "int", None, False, None),
        ("--focal", "focal", "Stop", None, None, False, None),
        ("--config", "config", None, None, None, False, "flat key=value config file"),
        ("--out", "out", None, None, None, False, "output path (default stdout)"),
        ("--seed", "seed", None, "int", None, False, None),
    ]),
}


def test_option_surface_is_pinned():
    assert option_surface(cli.build_parser()) == OPTION_SURFACE


# ── settings ─────────────────────────────────────────────────────────

# One run of each command on the files of ``write_pipeline_inputs`` (plus
# ``policy.json`` for ``sample``), writing only ``out``.
RUNS = {
    "analyze": ["analyze", "corpus.jsonl", "--out", "out"],
    "report": ["report", "reports.jsonl", "--out", "out"],
    "truncate": ["truncate", "raw.jsonl", "--out", "out"],
    "prompt": ["prompt", "wanted.jsonl", "--out", "out"],
    "reward": ["reward", "corpus.jsonl", "--properties", "assertion", "--out", "out"],
    "resample": ["resample", "labeled.jsonl", "--out", "out"],
    "golden": ["golden", "corpus.jsonl", "--out", "out"],
    "split": ["split", "corpus.jsonl", "--out-dir", "out"],
    "subsample": ["subsample", "corpus.jsonl", "--n", "5", "--out", "out"],
    "train-toy": ["train-toy", "--episodes", "10", "--max-tokens", "6", "--out", "out"],
    "sample": ["sample", "--policy", "policy.json", "--count", "3", "--out", "out"],
}

# The config sections each command builds.  README's "Configuration" list
# is checked against this table in test_docs.py.
SECTIONS_READ = {
    "prompt": ("budget",),
    "report": ("score",),
    "reward": ("reward",),
    "split": ("split",),
    "train-toy": ("train", "reward", "score"),
    "sample": ("train",),
}

# Per section, a line that loads but that building the section refuses,
# with a part of the refusal.
OUT_OF_RANGE = {
    "budget": ("budget.chars_per_token = 0", "chars_per_token must be positive"),
    "split": ("split.test_fraction = 2", "split fractions must lie in (0, 1)"),
    "reward": ("reward.strategy = sideways", "unknown strategy: 'sideways'"),
    "train": ("train.batch_size = 0", "batch_size must be at least 1"),
    "score": ("score.smell_properties = made_up", "unknown quality property: 'made_up'"),
}

# Per section, a line whose value does not parse as its key's type.
ILL_TYPED = {
    "train": "train.episodes = abc",
    "split": "split.rl_three_way = maybe",
    "budget": "budget.model_context = big",
}


def takes_config(command: str) -> bool:
    return any(flag == "--config" for flag, _ in cli._COMMANDS[command].options)


CONFIG_COMMANDS = [name for name in cli._COMMANDS if takes_config(name)]


@pytest.fixture(scope="module")
def pipeline_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    cwd = os.getcwd()
    os.chdir(root)
    try:
        write_pipeline_inputs(root)
        assert main(["train-toy", "--episodes", "10", "--out", "policy.json"]) == 0
    finally:
        os.chdir(cwd)
    return root


@pytest.fixture
def pipeline_dir(pipeline_inputs, tmp_path, monkeypatch):
    """A fresh copy of ``pipeline_inputs`` as the working directory."""
    for path in pipeline_inputs.iterdir():
        shutil.copy(path, tmp_path)
    monkeypatch.chdir(tmp_path)
    return tmp_path


# The refusal is put on the key whose value raises it by itself.
@pytest.mark.parametrize("lines, key", [
    ("score.positive_properties = has_assertion, has_assertion",
     "score.positive_properties"),
    ("score.positive_properties = has_assertion\nscore.smell_properties = has_assertion",
     "score.smell_properties"),
], ids=["positive-repeated", "positive-and-smell"])
def test_a_score_property_listed_twice_is_refused_naming_the_key(pipeline_dir, capsys,
                                                                 lines, key):
    (pipeline_dir / "bad.cfg").write_text(lines + "\n")
    assert main(RUNS["report"] + ["--config", "bad.cfg"]) == 2
    assert capsys.readouterr().err == (
        f"tqual: bad.cfg: {key}: quality property 'has_assertion' is listed more than once\n")
    assert not (pipeline_dir / "out").exists()


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_each_run_succeeds_without_a_config(pipeline_dir, capsys, command):
    assert main(RUNS[command]) == 0
    assert (pipeline_dir / "out").exists()


@pytest.mark.parametrize("section", sorted(OUT_OF_RANGE))
@pytest.mark.parametrize("command", CONFIG_COMMANDS)
def test_a_command_builds_exactly_the_sections_it_lists(pipeline_dir, capsys, command, section):
    line, refusal = OUT_OF_RANGE[section]
    (pipeline_dir / "bad.cfg").write_text(line + "\n")
    code = main(RUNS[command] + ["--config", "bad.cfg"])
    err = capsys.readouterr().err
    if section in SECTIONS_READ[command]:
        assert code == 2
        assert refusal in err
        assert not (pipeline_dir / "out").exists()
    else:
        assert code == 0, err


def bad_config_cases() -> list:
    """(command, config text or None for a missing file, what stderr names)."""
    cases = []
    for command in cli._COMMANDS:
        cases.append(pytest.param(command, None, "missing.cfg", id=f"{command}-missing"))
        cases.append(pytest.param(command, "train.seed = 1\ntrain.episode = 3\n",
                                  "config line 2: unknown key 'train.episode'",
                                  id=f"{command}-unknown-key"))
        for section, line in ILL_TYPED.items():
            if section not in SECTIONS_READ.get(command, ()):
                key = line.split(" = ")[0]
                cases.append(pytest.param(command, f"# unread section\n{line}\n",
                                          f"config line 2: {key}: ", id=f"{command}-{key}"))
    return cases


@pytest.mark.parametrize("command, text, named", bad_config_cases())
def test_a_bad_config_is_refused_before_the_command_runs(pipeline_dir, capsys,
                                                         command, text, named):
    # A command that reads settings checks the whole file first; any other
    # command does not take the flag.
    if text is not None:
        (pipeline_dir / "bad.cfg").write_text(text)
    argv = RUNS[command] + ["--config", "missing.cfg" if text is None else "bad.cfg"]
    if takes_config(command):
        assert main(argv) == 2
    else:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        named = "unrecognized arguments: --config"
    captured = capsys.readouterr()
    assert named in captured.err
    assert captured.out == ""
    assert not (pipeline_dir / "out").exists()


@pytest.mark.parametrize("given", ["seed-corpus", "vocab-file", "both"])
def test_init_policy_refuses_a_seed_corpus_or_vocab_file(pipeline_dir, capsys, given):
    # The policy file brings its own vocabulary and weights, so either file
    # would be ignored: a missing seed corpus, or one with a token the
    # vocabulary file lacks.
    (pipeline_dir / "vocab.txt").write_text("Assert\n</s>\n")
    (pipeline_dir / "seed.jsonl").write_text(dump_line({"tokens": ["Bogus"]}) + "\n")
    extra = {"seed-corpus": ["--seed-corpus", "no-such-seed.jsonl"],
             "vocab-file": ["--vocab-file", "vocab.txt"],
             "both": ["--seed-corpus", "seed.jsonl", "--vocab-file", "vocab.txt"]}[given]
    argv = ["train-toy", "--episodes", "5", "--init-policy", "policy.json", *extra,
            "--out", "out"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    flag = "--seed-corpus" if given == "seed-corpus" else "--vocab-file"
    assert "--init-policy" in err and flag in err
    assert not (pipeline_dir / "out").exists()


@pytest.mark.parametrize("argv, config", [
    (["train-toy", "--episodes", "5", "--seed", "-1"], None),
    (["sample", "--policy", "policy.json", "--seed", "-3"], None),
    (["train-toy", "--episodes", "5"], "train.seed = -1\n"),
    (["sample", "--policy", "policy.json"], "train.seed = -1\n"),
], ids=["train-toy-flag", "sample-flag", "train-toy-config", "sample-config"])
def test_a_negative_seed_is_a_usage_error_naming_seed(pipeline_dir, capsys, argv, config):
    if config is not None:
        (pipeline_dir / "seed.cfg").write_text(config)
        argv = argv + ["--config", "seed.cfg"]
    assert main(argv + ["--out", "out"]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not (pipeline_dir / "out").exists()
