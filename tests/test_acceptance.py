"""End-to-end acceptance suite.

Eleven criteria gate the pipeline: detector fidelity against hand labels,
golden-filter soundness under perturbation, reward algebra, resampler class
sizes, split leakage bounds, prompt budget selection, truncation properties,
the training math that runs, toy PPO convergence, sequential-stage retention,
and reporting fidelity.  Each criterion is one test; the conftest summary
prints one pass/fail line per criterion after the run.
"""

from __future__ import annotations

import json
import math
import random
import time

import numpy as np
import pytest

from labeled_corpus import LABELED_TESTS, PROPERTIES
from toy_setup import (
    TOY_FOCAL,
    assert_seeded_policy,
    property_frequency,
    smell_seeded_policy,
    toy_config,
)
from tqual.analyzer import PROPERTY_FIELDS, QualityReport, analyze
from tqual.cli import main
from tqual.completion import RawCompletion, prompt_hint_for, truncate_completion
from tqual.corpus import CorpusRecord, dump_line
from tqual.curation import SplitSpec, split_by_repository, split_manifest
from tqual.errors import PromptTooLong
from tqual.lexer import TokenKind, tokenize
from tqual.parser import parse_focal_file
from tqual.prompting import BudgetConfig, build_prompt, estimate_tokens, render_level
from tqual.rewards import (
    NEGATIVE_PROPERTIES,
    LabeledRecord,
    RewardScheme,
    resample_balanced,
    reward_for,
)
from tqual.rlcore.policy import PolicyTable
from tqual.rlcore.reward_model import train_reward_model
from tqual.rlcore.trainer import TrainConfig, _ascend, make_analyzer_reward, train_toy_policy


def make_report(bits: dict[str, bool]) -> QualityReport:
    return QualityReport(focal_method_name="Stop", **bits)


def random_report(rng: random.Random) -> QualityReport:
    return make_report({prop: rng.random() < 0.5 for prop in PROPERTY_FIELDS})


# ── criterion 1: detector oracle suite ───────────────────────────────


def test_criterion_01_detector_oracle():
    assert len(LABELED_TESTS) >= 50
    assert PROPERTIES == PROPERTY_FIELDS

    # Both polarities of every property appear in the corpus.
    for prop in PROPERTIES:
        values = {case["labels"][prop] for case in LABELED_TESTS}
        assert values == {True, False}, f"{prop} needs both label polarities"

    started = time.perf_counter()
    disagreements = []
    for case in LABELED_TESTS:
        report = analyze(case["test"], case["focal"])
        for prop in PROPERTIES:
            if getattr(report, prop) != case["labels"][prop]:
                disagreements.append((case["name"], prop))
    elapsed = time.perf_counter() - started

    assert disagreements == []
    assert elapsed < 1.0, f"labeled corpus took {elapsed:.3f}s"


# ── criterion 2: golden-filter soundness ─────────────────────────────

_GOLDEN_BASES = [
    "[TestMethod]\npublic void TestStopWorks()\n{\n"
    "    var c = new UploadCommand();\n    c.Stop();\n"
    "    Assert.IsTrue(c.IsStopped());\n}",
    "[TestMethod]\npublic void TestStopResetsCount()\n{\n"
    "    c.Stop();\n    Assert.AreEqual(0, c.Count());\n}",
    "[TestMethod]\npublic void TestStopLogs()\n{\n"
    "    // act\n    c.Stop();\n"
    '    StringAssert.Contains(log.Text(), "stopped");\n}',
]


def _perturb(base: str, kind: str) -> str:
    lines = base.splitlines()
    if kind == "identity":
        return base
    if kind == "break_syntax":
        return "\n".join(lines[:-1])
    if kind == "strip_assertion":
        return "\n".join(l for l in lines if "Assert" not in l)
    if kind == "remove_focal":
        return base.replace(".Stop();", ".Other();")
    if kind == "duplicate_assertion":
        out = []
        for line in lines:
            out.append(line)
            if "Assert" in line:
                out.append(line)
        return "\n".join(out)
    if kind == "wrap_conditional":
        body = lines[3:-1]
        return "\n".join(lines[:3] + ["    if (true) {"] + body + ["    }", "}"])
    raise AssertionError(kind)


def test_criterion_02_golden_filter_soundness(tmp_path):
    kinds = (
        "identity", "break_syntax", "strip_assertion", "remove_focal",
        "duplicate_assertion", "wrap_conditional",
    )
    rng = random.Random(202)
    records = []
    for i in range(1000):
        base = rng.choice(_GOLDEN_BASES)
        kind = rng.choice(kinds)
        records.append(
            CorpusRecord(
                repo="r", focal_class="C", focal_method=TOY_FOCAL,
                prompt=f"p{i}", test=_perturb(base, kind),
            )
        )

    # Through the shipped command: ``tqual golden`` over a JSONL of the records.
    corpus_path, golden_path = tmp_path / "perturbed.jsonl", tmp_path / "golden.jsonl"
    corpus_path.write_text("".join(dump_line(r.to_dict()) + "\n" for r in records),
                           encoding="utf-8")
    assert main(["golden", str(corpus_path), "--out", str(golden_path)]) == 0
    kept = {json.loads(line)["prompt"]
            for line in golden_path.read_text(encoding="utf-8").splitlines()}
    for record in records:
        report = analyze(record.test, record.focal_method)
        satisfies = (
            report.correct_syntax
            and report.has_assertion
            and report.invokes_focal
            and not report.duplicate_assertion
            and not report.conditional_or_exception
        )
        assert (record.prompt in kept) == satisfies

    # The perturbations exercise both filter outcomes.
    assert 0 < len(kept) < len(records)


# ── criterion 3: reward algebra ──────────────────────────────────────


def test_criterion_03_reward_algebra():
    rewardable = tuple(sorted(set(PROPERTY_FIELDS) - {"correct_syntax"}))
    rng = random.Random(303)

    def desirable(report: QualityReport, prop: str) -> int:
        value = getattr(report, prop)
        return int(not value) if prop in NEGATIVE_PROPERTIES else int(value)

    for _ in range(10_000):
        report = random_report(rng)

        # Individual and combined agree on a single property.
        prop = rng.choice(rewardable)
        single = reward_for(report, RewardScheme.individual(prop))
        as_combined = reward_for(report, RewardScheme.combined([prop]))
        assert single == as_combined

        # Combined rewards add over disjoint property sets (valid syntax).
        size = rng.randint(2, len(rewardable))
        chosen = rng.sample(rewardable, size)
        cut = rng.randint(1, size - 1)
        left, right = chosen[:cut], chosen[cut:]
        whole = reward_for(report, RewardScheme.combined(chosen))
        parts = (
            reward_for(report, RewardScheme.combined(left)),
            reward_for(report, RewardScheme.combined(right)),
        )
        if report.correct_syntax:
            assert whole == sum(parts)
            assert whole == sum(desirable(report, p) for p in chosen)
        else:
            assert whole == -1 and parts == (-1, -1)

        # Range is exactly {-1} U [0, k].
        scheme = RewardScheme.combined(rewardable)
        reward = reward_for(report, scheme)
        assert isinstance(reward, int)
        if report.correct_syntax:
            assert 0 <= reward <= scheme.k
        else:
            assert reward == -1


# ── criterion 4: resampler class sizes ───────────────────────────────


def _labeled_pool(n0: int, n1: int, n_neg: int) -> list[LabeledRecord]:
    template = dict.fromkeys(PROPERTY_FIELDS, False)
    pool = []
    for i, reward in enumerate([0] * n0 + [1] * n1 + [-1] * n_neg):
        bits = dict(template)
        bits["correct_syntax"] = reward >= 0
        bits["has_assertion"] = reward == 1
        record = CorpusRecord(
            repo="r", focal_class="C", focal_method="Stop",
            prompt=f"p{i}", test=f"t{i}",
        )
        pool.append(LabeledRecord(record, make_report(bits), reward))
    return pool


def test_criterion_04_resampler_class_sizes():
    rng = random.Random(404)
    for trial in range(100):
        n0 = rng.randint(1, 60)
        n1 = rng.randint(1, 60)
        n_neg = rng.randint(0, 80)
        pool = _labeled_pool(n0, n1, n_neg)

        out = resample_balanced(pool, seed=trial)
        rewards = [l.reward for l in out]
        d = min(n0, n1)
        assert rewards.count(0) == d
        assert rewards.count(1) == d
        assert rewards.count(-1) == min(2 * d, n_neg)
        assert len(rewards) == 2 * d + min(2 * d, n_neg)

        again = resample_balanced(pool, seed=trial)
        first_bytes = "\n".join(dump_line(l.to_dict()) for l in out)
        second_bytes = "\n".join(dump_line(l.to_dict()) for l in again)
        assert first_bytes == second_bytes


# ── criterion 5: split leakage ───────────────────────────────────────


def test_criterion_05_split_leakage():
    rng = random.Random(505)
    for trial in range(100):
        n_repos = rng.randint(5, 50)
        sizes = {f"repo{j:02d}": rng.randint(1, 40) for j in range(n_repos)}
        records = [
            CorpusRecord(
                repo=name, focal_class="C", focal_method="Stop",
                prompt=f"{name}-{i}", test="t",
            )
            for name, size in sizes.items()
            for i in range(size)
        ]

        splits = split_by_repository(records, SplitSpec(seed=trial))

        repos_by_split = {
            name: {r.repo for r in members} for name, members in splits.items()
        }
        seen: set[str] = set()
        for members in repos_by_split.values():
            assert not (members & seen), "repository appears in two splits"
            seen |= members
        assert split_manifest(splits)  # every repo assigned exactly once

        total = len(records)
        test_mass = len(splits["test"]) / total
        largest_share = max(sizes.values()) / total
        tolerance = max(0.05, largest_share)
        assert abs(test_mass - 0.05) <= tolerance + 1e-12, (
            f"trial {trial}: test mass {test_mass:.3f} "
            f"outside {tolerance:.3f} of 5%"
        )


# ── criterion 6: prompt builder levels ───────────────────────────────


def _prompt_tokens(tree, focal: str, focal_path: str, level: int) -> int:
    context = render_level(tree, focal, level)
    head, _, tail = focal_path.rpartition("/")
    test_path = f"{head}/Test{tail}" if head else f"Test{tail}"
    prompt = (
        f"{focal_path}:\n{context}\n"
        f"{test_path}:\n[TestMethod]\npublic void Test{focal}"
    )
    return estimate_tokens(prompt)


def test_criterion_06_prompt_builder_levels(inventory_source, upload_source):
    assert estimate_tokens("x" * 6144) == 1536

    trees = {
        "src/InventoryService.cs": parse_focal_file(inventory_source),
        "src/UploadCommand.cs": parse_focal_file(upload_source),
    }
    cases = 0
    for focal_path, tree in trees.items():
        for cls in tree.walk_classes():
            for method in cls.methods:
                sizes = {
                    level: _prompt_tokens(tree, method.name, focal_path, level)
                    for level in (1, 2, 3, 4)
                }
                assert sizes[1] >= sizes[2] >= sizes[3] >= sizes[4]

                # Budgets straddling every level boundary.
                budgets = sorted(
                    {sizes[1], sizes[1] - 1, sizes[2], sizes[3], sizes[4]}
                )
                for budget in budgets:
                    fitting = [l for l in (1, 2, 3, 4) if sizes[l] <= budget]
                    cfg = BudgetConfig(
                        prompt_token_budget=budget,
                        completion_token_budget=1,
                        model_context=budget + 1,
                    )
                    if not fitting:
                        with pytest.raises(PromptTooLong):
                            build_prompt(tree, method.name, focal_path, cfg)
                        continue
                    record = build_prompt(tree, method.name, focal_path, cfg)
                    assert record.context_level == min(fitting)
                    assert record.estimated_tokens == sizes[record.context_level]
                    cases += 1

                # Below the level-4 floor nothing fits.
                if sizes[4] > 1:
                    floor_cfg = BudgetConfig(
                        prompt_token_budget=sizes[4] - 1,
                        completion_token_budget=1,
                        model_context=sizes[4],
                    )
                    with pytest.raises(PromptTooLong):
                        build_prompt(tree, method.name, focal_path, floor_cfg)
    assert cases >= 40


# ── criterion 7: truncation properties ───────────────────────────────


def _count_annotations(text: str) -> int:
    """Independent counter for [TestMethod] annotations on the token level."""
    tokens = [t for t in tokenize(text)]
    count = 0
    for i, tok in enumerate(tokens):
        if tok.kind is TokenKind.ATTRIBUTE:
            inner = tok.text[1:-1].strip()
            name = inner.split("(")[0].split(",")[0].strip()
            if name == "TestMethod":
                count += 1
        elif tok.kind is TokenKind.PUNCTUATION and tok.text == "[":
            rest = [t for t in tokens[i + 1 :] if t.kind is not TokenKind.WHITESPACE]
            if (
                len(rest) >= 2
                and rest[0].text == "TestMethod"
                and rest[1].text == "]"
            ):
                count += 1
    return count


def test_criterion_07_truncation_properties():
    hint = prompt_hint_for(TOY_FOCAL)
    fixture_tests = [case["test"] for case in LABELED_TESTS[:8]]
    noise = [
        "()\n{\n    c.Stop();\n}\n", "}\n", "}", "{\n    x();\n",
        "\nrandom prose about the test\n", "// [TestMethod] in a comment\n",
        '    var s = "}";\n', "\n[TestMethod]\npublic void TestNext()\n{\n}\n",
        "", ";\n",
    ]
    pool = fixture_tests + noise

    rng = random.Random(707)
    for i in range(10_000):
        completion = "".join(
            rng.choice(pool) for _ in range(rng.randint(0, 4))
        )
        once = truncate_completion(RawCompletion(hint, completion))
        assert once.startswith(hint)

        twice = truncate_completion(RawCompletion("", once))
        assert twice == once, f"sample {i} not idempotent"

        assert _count_annotations(once) == 1, f"sample {i} kept extra annotations"


# ── criterion 8: the training math that runs ─────────────────────────


def _relative_close(analytic: float, numeric: float, tol: float) -> bool:
    # Central differences at h = 1e-6 carry about 1e-10 of rounding, so a
    # gradient near 0 is compared on the scale 1e-4.
    scale = max(abs(analytic), abs(numeric), 1e-4)
    return abs(analytic - numeric) <= tol * scale


def _surrogate_mean(vocabulary, logits, states, actions, old_log_probs, advantages,
                    epsilon):
    """The batch mean of min(ratio * A, clip(ratio, 1-eps, 1+eps) * A)."""
    log_probs = PolicyTable(vocabulary, logits, logits).log_prob_table()
    ratios = np.exp(log_probs[states, actions] - old_log_probs)
    clipped = np.clip(ratios, 1 - epsilon, 1 + epsilon)
    return float(np.mean(np.minimum(ratios * advantages, clipped * advantages)))


def _check_ppo_step(rng: np.random.Generator) -> None:
    """The logit step ``_ascend`` takes, over the learning rate, is the
    gradient of the batch's clipped-surrogate mean."""
    size = int(rng.integers(2, 7))
    vocabulary = ("</s>",) + tuple(f"t{i}" for i in range(1, size))
    logits = rng.normal(size=(size, size))
    policy = PolicyTable(vocabulary, logits, logits)
    cfg = TrainConfig(epsilon=float(rng.uniform(0.1, 0.3)), learning_rate=1.0)
    steps = int(rng.integers(1, 13))
    states = rng.integers(0, size, steps)
    actions = rng.integers(0, size, steps)
    log_ratios = rng.uniform(-0.5, 0.5, steps)
    # Central differences straddle the clip kinks; sample away from them.
    edges = np.array([1 - cfg.epsilon, 1 + cfg.epsilon])
    while np.any(near := np.any(np.abs(np.exp(log_ratios)[:, None] - edges) < 1e-2, axis=1)):
        log_ratios[near] = rng.uniform(-0.5, 0.5, int(near.sum()))
    old_log_probs = policy.log_prob_table()[states, actions] - log_ratios
    advantages = rng.uniform(-3.0, 3.0, steps)

    _ascend(policy, states, actions, old_log_probs, advantages, cfg)
    step = (policy.logits - logits) / cfg.learning_rate

    h = 1e-6
    batch = (states, actions, old_log_probs, advantages, cfg.epsilon)
    for cell in np.ndindex(size, size):
        up, down = logits.copy(), logits.copy()
        up[cell] += h
        down[cell] -= h
        numeric = (_surrogate_mean(vocabulary, up, *batch)
                   - _surrogate_mean(vocabulary, down, *batch)) / (2 * h)
        assert _relative_close(step[cell], numeric, 1e-5), (cell, step[cell], numeric)


def _check_kl_table(rng: np.random.Generator) -> None:
    """``kl_table`` is KL(reference row || current row), summed directly."""
    size = int(rng.integers(2, 9))
    vocabulary = ("</s>",) + tuple(f"t{i}" for i in range(1, size))
    ref_logits = rng.normal(scale=2.0, size=(size, size))
    logits = rng.normal(scale=2.0, size=(size, size))
    same = rng.random(size) < 0.3
    logits[same] = ref_logits[same]
    kl = PolicyTable(vocabulary, logits, ref_logits).kl_table()

    assert np.all(kl >= 0.0)
    assert np.all(kl[same] == 0.0)
    for row in range(size):
        p = [math.exp(x) for x in ref_logits[row]]
        q = [math.exp(x) for x in logits[row]]
        p = [x / sum(p) for x in p]
        q = [x / sum(q) for x in q]
        direct = sum(a * math.log(a / b) for a, b in zip(p, q))
        assert abs(kl[row] - direct) <= 1e-12, (row, kl[row], direct)


_FIT_TOKENS = ("Assert", "IsTrue", "x", "y", "result", "(", ")", ";", ".", "1")


def _check_reward_fit(rng: np.random.Generator) -> None:
    """``train_reward_model`` solves the normal equations on the centred
    counts, and its bias is the mean target less the mean counts times the
    weights."""
    examples = []
    for _ in range(int(rng.integers(3, 25))):
        tokens = rng.choice(_FIT_TOKENS, size=int(rng.integers(1, 15)))
        examples.append((" ".join(tokens), float(rng.uniform(-2.0, 2.0))))
    model = train_reward_model(examples)
    design = np.array([model.featurize(text) for text, _ in examples])
    targets = np.array([reward for _, reward in examples])

    centred = design - design.mean(axis=0)
    residual = centred @ model.weights - (targets - targets.mean())
    normal = centred.T @ residual
    assert np.max(np.abs(normal)) <= 1e-9 * (1.0 + np.max(np.abs(centred.T @ targets)))
    bias = targets.mean() - design.mean(axis=0) @ model.weights
    assert math.isclose(model.bias, bias, rel_tol=1e-12, abs_tol=1e-12)


def test_criterion_08_rl_math_gradients():
    rng = np.random.default_rng(808)
    for _ in range(100):
        _check_ppo_step(rng)
    for _ in range(500):
        _check_kl_table(rng)
    for _ in range(100):
        _check_reward_fit(rng)


# ── criteria 9 and 10: toy PPO ───────────────────────────────────────


@pytest.fixture(scope="module")
def assertion_stage():
    """One full assertion-reward training run, shared by criteria 9 and 10."""
    cfg = toy_config()
    init = assert_seeded_policy()
    init_frequency = property_frequency(init, cfg, "has_assertion")
    reward_fn, report_fn = make_analyzer_reward(
        RewardScheme.individual("has_assertion"), TOY_FOCAL
    )
    started = time.perf_counter()
    trained, metrics = train_toy_policy(init, reward_fn, cfg, report_fn)
    elapsed = time.perf_counter() - started
    return {
        "cfg": cfg,
        "init_frequency": init_frequency,
        "policy": trained,
        "metrics": metrics,
        "elapsed": elapsed,
    }


def test_criterion_09_toy_ppo_convergence(assertion_stage):
    cfg = assertion_stage["cfg"]
    assert cfg.seed == 0
    assert assertion_stage["policy"].size <= 200

    assert assertion_stage["init_frequency"] < 0.50
    final_frequency = property_frequency(
        assertion_stage["policy"], cfg, "has_assertion"
    )
    assert final_frequency >= 0.90
    assert assertion_stage["metrics"][-1].episode <= 2000

    # Second run: combined reward pushes conditional wrappers out.
    smell_cfg = toy_config(beta=0.05)
    smelly = smell_seeded_policy()
    conditional_before = property_frequency(
        smelly, smell_cfg, "conditional_or_exception"
    )
    assert conditional_before > 0.50
    scheme = RewardScheme.combined(["has_assertion", "conditional_or_exception"])
    reward_fn, report_fn = make_analyzer_reward(scheme, TOY_FOCAL)
    started = time.perf_counter()
    cleaned, _ = train_toy_policy(smelly, reward_fn, smell_cfg, report_fn)
    second_elapsed = time.perf_counter() - started
    conditional_after = property_frequency(
        cleaned, smell_cfg, "conditional_or_exception"
    )
    assert conditional_after < 0.05

    total_elapsed = assertion_stage["elapsed"] + second_elapsed
    assert total_elapsed < 300, f"toy PPO took {total_elapsed:.0f}s"


def test_criterion_10_sequential_strategy(assertion_stage):
    cfg = assertion_stage["cfg"]
    stage1 = assertion_stage["policy"]
    stage1_assertion = property_frequency(stage1, cfg, "has_assertion")
    stage1_focal = property_frequency(stage1, cfg, "invokes_focal")

    reward_fn, report_fn = make_analyzer_reward(
        RewardScheme.individual("invokes_focal"), TOY_FOCAL
    )
    stage2, _ = train_toy_policy(stage1, reward_fn, cfg, report_fn)

    stage2_assertion = property_frequency(stage2, cfg, "has_assertion")
    stage2_focal = property_frequency(stage2, cfg, "invokes_focal")

    assert stage2_assertion >= 0.80 * stage1_assertion, (
        f"stage 2 kept only {stage2_assertion:.2f} of {stage1_assertion:.2f}"
    )
    assert stage2_focal > stage1_focal


# ── criterion 11: reporting fidelity ─────────────────────────────────


def _fidelity_corpus() -> list[CorpusRecord]:
    """1,000 tests built to exact 83/63/69% syntax/assertion/focal rates."""
    n = 1000
    rng = random.Random(1111)

    def chosen(count: int) -> set[int]:
        return set(rng.sample(range(n), count))

    syntax_ok = chosen(830)
    with_assertion = chosen(630)
    with_focal = chosen(690)

    records = []
    for i in range(n):
        body = []
        if i in with_focal:
            body.append("    c.Stop();")
        else:
            body.append("    c.Prepare();")
        if i in with_assertion:
            body.append("    Assert.IsTrue(x);")
        else:
            body.append("    x.Touch();")
        lines = ["[TestMethod]", f"public void TestM{i}()", "{", *body, "}"]
        if i not in syntax_ok:
            lines = lines[:-1]  # drop the closing brace
        records.append(
            CorpusRecord(
                repo="synthetic", focal_class="C", focal_method="Stop",
                prompt=f"p{i}", test="\n".join(lines),
            )
        )
    return records


def _brute_force_rates(records: list[CorpusRecord]) -> dict[str, float]:
    """String-level counting, independent of the analyzer."""
    n = len(records)
    syntax = sum(
        1 for r in records if r.test.count("{") == r.test.count("}")
    )
    assertion = sum(1 for r in records if "Assert.IsTrue(" in r.test)
    focal = sum(1 for r in records if "c.Stop();" in r.test)
    return {
        "correct_syntax": syntax / n,
        "has_assertion": assertion / n,
        "invokes_focal": focal / n,
    }


def test_criterion_11_reporting_fidelity(tmp_path, capsys):
    records = _fidelity_corpus()
    brute = _brute_force_rates(records)
    assert brute["correct_syntax"] == pytest.approx(0.83, abs=1e-12)
    assert brute["has_assertion"] == pytest.approx(0.63, abs=1e-12)
    assert brute["invokes_focal"] == pytest.approx(0.69, abs=1e-12)

    corpus_path = tmp_path / "synthetic.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(dump_line(record.to_dict()) + "\n")
    reports_path = tmp_path / "reports.jsonl"
    assert main(["analyze", str(corpus_path), "--out", str(reports_path)]) == 0
    capsys.readouterr()

    stats_path = tmp_path / "stats.json"
    assert main(["report", str(reports_path), "--out", str(stats_path)]) == 0
    table = capsys.readouterr().out

    for label, expected in (
        ("Correct Syntax", "83.0%"),
        ("Has Assertion", "63.0%"),
        ("Invokes Focal Method", "69.0%"),
    ):
        row = next(line for line in table.splitlines() if line.startswith(label))
        assert row.split()[-1] == expected, row

    stats = json.loads(stats_path.read_text())
    for prop in ("correct_syntax", "has_assertion", "invokes_focal"):
        assert abs(stats["frequencies"][prop] - brute[prop]) <= 0.001
    assert stats["count"] == 1000
