"""Output checks against the oracle in ``gen``.

Each check reads one command's output files from the work directory and
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import posixpath
from pathlib import Path

import gen


def _lines(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _corpus_dict(row: dict) -> dict:
    """A corpus row as `CorpusRecord.to_dict` documents it."""
    return {"schema": "corpus.v1", "repo": row.get("repo", ""),
            "focal_class": row.get("focal_class", ""),
            "focal_method": row.get("focal_method", ""),
            "prompt": row.get("prompt", ""), "test": row["test"],
            "source": row.get("source", "generated")}


def _first(problems: list[str], limit: int = 5) -> list[str]:
    if len(problems) <= limit:
        return problems
    return problems[:limit] + [f"... and {len(problems) - limit} more"]


def check_reports(work: Path, plan: gen.Plan, rel: str) -> list[str]:
    got = _lines(work / rel)
    rows, labels = plan.expect["rows"], plan.expect["labels"]
    if len(got) != len(rows):
        return [f"{rel}: {len(got)} lines for {len(rows)} records"]
    problems = []
    for i, (row, lab, report) in enumerate(zip(rows, labels, got)):
        want = gen.expected_report(lab, row["focal_method"])
        if report != want:
            diff = sorted(k for k in want if report.get(k) != want[k])
            problems.append(f"{rel} line {i + 1}: {diff} differ ({row['prompt'][:30]!r})")
    return _first(problems)


def check_golden(work: Path, plan: gen.Plan, rel: str) -> list[str]:
    got = _lines(work / rel)
    want = [_corpus_dict(r) for r, l in zip(plan.expect["rows"], plan.expect["labels"])
            if gen.is_golden(l)]
    if got == want:
        return []
    got_prompts = {g.get("prompt") for g in got}
    want_prompts = {w["prompt"] for w in want}
    return _first([f"{rel}: kept {len(got)}, expected {len(want)}"]
                  + [f"{rel}: wrongly kept {p[:30]!r}" for p in got_prompts - want_prompts]
                  + [f"{rel}: wrongly dropped {p[:30]!r}" for p in want_prompts - got_prompts])


def check_rewards(work: Path, plan: gen.Plan, rel: str) -> list[str]:
    got = _lines(work / rel)
    rows, labels = plan.expect["rows"], plan.expect["labels"]
    if len(got) != len(rows):
        return [f"{rel}: {len(got)} lines for {len(rows)} records"]
    problems = []
    for i, (row, lab, item) in enumerate(zip(rows, labels, got)):
        want = {"schema": "labeled.v1", "record": _corpus_dict(row),
                "report": gen.expected_report(lab, row["focal_method"]),
                "reward": gen.expected_reward(lab)}
        if item != want:
            diff = sorted(k for k in want if item.get(k) != want[k])
            problems.append(f"{rel} line {i + 1}: {diff} differ")
    return _first(problems)


def check_stats(work: Path, plan: gen.Plan, rel: str) -> list[str]:
    got = json.loads((work / rel).read_text(encoding="utf-8"))
    want = gen.expected_stats(plan.expect["labels"])
    problems = []
    if got.get("schema") != "stats.v1" or got.get("count") != want["count"]:
        problems.append(f"{rel}: schema or count differ")
    for prop, freq in want["frequencies"].items():
        if abs(got.get("frequencies", {}).get(prop, -1.0) - freq) > 1e-12:
            problems.append(f"{rel}: frequency of {prop} differs")
    if abs(got.get("quality_score", math.inf) - want["quality_score"]) > 1e-12:
        problems.append(f"{rel}: quality_score differs")
    return problems


def check_resample(work: Path, plan: gen.Plan, rel: str) -> list[str]:
    got = _lines(work / rel)
    rewards = plan.expect["rewards"]
    sizes = gen.resample_sizes(rewards)
    median = sizes["median"]
    by_prompt = {r["prompt"]: rw for r, rw in zip(plan.expect["rows"], rewards)}
    counts = {"low": 0, "high": 0, "negative": 0}
    seen = set()
    problems = []
    for item in got:
        prompt = item.get("record", {}).get("prompt")
        if prompt not in by_prompt or item.get("reward") != by_prompt[prompt]:
            problems.append(f"{rel}: record {str(prompt)[:30]!r} not from the input")
            continue
        if prompt in seen:
            problems.append(f"{rel}: record {prompt[:30]!r} drawn twice")
        seen.add(prompt)
        reward = item["reward"]
        counts["negative" if reward < 0 else "low" if reward < median else "high"] += 1
    for key in counts:
        if counts[key] != sizes[key]:
            problems.append(f"{rel}: {counts[key]} {key} records, formula gives {sizes[key]}")
    return _first(problems)


def check_split(work: Path, plan: gen.Plan, rel_dir: str) -> list[str]:
    names = ("sft", "rm", "pm", "val", "test")
    out = work / rel_dir
    problems = []
    repo_split: dict[str, str] = {}
    total = []
    for name in names:
        members = _lines(out / f"{name}.jsonl")
        if not members:
            problems.append(f"{rel_dir}: split {name} is empty")
        for record in members:
            total.append(record)
            previous = repo_split.setdefault(record["repo"], name)
            if previous != name:
                problems.append(f"{rel_dir}: repo {record['repo']} in {previous} and {name}")
    want = sorted(json.dumps(_corpus_dict(r), sort_keys=True) for r in plan.expect["rows"])
    if sorted(json.dumps(r, sort_keys=True) for r in total) != want:
        problems.append(f"{rel_dir}: splits do not hold exactly the input records")
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    if manifest.get("assignments") != dict(sorted(repo_split.items())):
        problems.append(f"{rel_dir}: manifest assignments disagree with the files")
    return _first(problems)


def check_prompts(work: Path, plan: gen.Plan, rel: str) -> list[str]:
    got = _lines(work / rel)
    expect = plan.expect
    if len(got) != len(expect["requests"]):
        return [f"{rel}: {len(got)} lines for {len(expect['requests'])} requests"]
    problems = []
    rows = zip(expect["requests"], expect["request_kinds"], expect["method_texts"], got)
    for i, (req, kind, text, item) in enumerate(rows):
        where = f"{rel} line {i + 1} ({req['focal_method']}, {kind})"
        if kind != "ok":
            if item.get("schema") != "error.v1" or item.get("line") != i + 1:
                problems.append(f"{where}: expected an error.v1 record")
            continue
        head, tail = posixpath.split(req["focal_path"])
        prompt = item.get("prompt_text", "")
        if (item.get("schema") != "prompt.v1"
                or item.get("focal_path") != req["focal_path"]
                or item.get("focal_method") != req["focal_method"]
                or item.get("test_path") != posixpath.join(head, "Test" + tail)
                or item.get("context_level") not in (1, 2, 3, 4)):
            problems.append(f"{where}: wrong fields")
        elif len(prompt) > gen.PROMPT_BUDGET_CHARS or item.get("estimated_tokens") != \
                math.ceil(len(prompt) / 4):
            problems.append(f"{where}: over budget or miscounted")
        elif text.strip() not in prompt:
            problems.append(f"{where}: focal method missing from the prompt")
        elif not prompt.endswith(f"[TestMethod]\npublic void Test{req['focal_method']}"):
            problems.append(f"{where}: prompt does not end with the test stub")
    return _first(problems)


def check_truncated(work: Path, plan: gen.Plan, rel: str) -> list[str]:
    got = _lines(work / rel)
    cuts = plan.expect["cuts"]
    if len(got) != len(cuts):
        return [f"{rel}: {len(got)} lines for {len(cuts)} completions"]
    problems = [f"{rel} line {i + 1}: wrong cut"
                for i, (item, want) in enumerate(zip(got, cuts))
                if item.get("schema") != "truncated.v1" or item.get("test") != want]
    return _first(problems)


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def check_train(work: Path, plan: gen.Plan, rel: str) -> list[str]:
    rows = _lines(work / rel)
    want = plan.expect["metrics_rows"]
    problems = []
    if len(rows) != want:
        problems.append(f"{rel}: {len(rows)} metrics rows, expected {want}")
    for i, row in enumerate(rows):
        values = [row.get("mean_reward"), row.get("mean_kl"), row.get("quality_score")]
        values += list(row.get("frequencies", {}).values())
        if row.get("schema") != "metrics.v1" or row.get("epoch") != i \
                or len(row.get("frequencies", {})) != 7 or not all(map(_finite, values)):
            problems.append(f"{rel} row {i}: bad schema, epoch or value")
    if rows and rows[-1].get("episode") != gen.TRAIN_EPISODES:
        problems.append(f"{rel}: last row at episode {rows[-1].get('episode')}")
    policy = json.loads((work / "out/policy.json").read_text(encoding="utf-8"))
    cells = [v for row in policy.get("logits", []) for v in row]
    if policy.get("schema") != "policy.v1" or not cells or not all(map(_finite, cells)):
        problems.append("out/policy.json: bad schema or non-finite logits")
    return _first(problems)


CHECKS = {
    ("curate", "prompt"): (check_prompts, "out/prompts.jsonl"),
    ("curate", "truncate"): (check_truncated, "out/truncated.jsonl"),
    ("curate", "analyze"): (check_reports, "out/reports.jsonl"),
    ("curate", "report"): (check_stats, "out/stats.json"),
    ("curate", "reward"): (check_rewards, "out/labeled.jsonl"),
    ("curate", "resample"): (check_resample, "out/balanced.jsonl"),
    ("curate", "golden"): (check_golden, "out/golden.jsonl"),
    ("curate", "split"): (check_split, "out/splits"),
    ("long_tests", "analyze"): (check_reports, "out/reports.jsonl"),
    ("long_tests", "golden"): (check_golden, "out/golden.jsonl"),
    ("long_tests", "reward"): (check_rewards, "out/labeled.jsonl"),
    ("train", "train-toy"): (check_train, "out/metrics.jsonl"),
}

# Exit code each command must return: `prompt` reports missing and
# oversized methods as error.v1 lines, which sets exit code 1.
def expected_rc(plan: gen.Plan, command: str) -> int:
    if command == "prompt":
        return int(any(k != "ok" for k in plan.expect["request_kinds"]))
    return 0


def check_probe(work: Path, probe: gen.Command, answer: dict) -> str | None:
    """A known-defect probe passes when the command keeps the documented
    record contract: exit code 0 or 1, no crash, and exactly one output line
    that is a report (deep nesting) or an error record (missing test)."""
    if answer.get("exception"):
        return f"{answer['exception']}: {answer.get('message', '')[:80]}"
    if answer.get("rc") not in (0, 1):
        return f"exit code {answer.get('rc')}"
    path = work / probe.outputs[0]
    lines = _lines(path) if path.exists() else []
    want = "error.v1" if probe.name.endswith("missing_test") else "report.v1"
    if len(lines) != 1 or lines[0].get("schema") != want:
        return f"expected one {want} line, got {[l.get('schema') for l in lines]}"
    return None
