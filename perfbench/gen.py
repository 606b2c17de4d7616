"""Seeded benchmark inputs and the oracle for their expected outputs.

Everything here is built from templates whose quality properties are known
by construction, plus the hand-labeled cases from ``tests/labeled_corpus.py``
with their hand labels.  Nothing in this module imports ``tqual``: the
expected reports, cuts, golden decisions and rewards come from the
documented rules, never from the analyzer under test.

``build(workload, seed, workdir)`` writes the input files into ``workdir``
and returns a ``Plan``: the commands to run, their record counts, and what
each output must look like.
"""

from __future__ import annotations

import importlib.util
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

PROPERTIES = (
    "correct_syntax",
    "has_assertion",
    "invokes_focal",
    "has_comment",
    "descriptive_name",
    "duplicate_assertion",
    "conditional_or_exception",
)
POSITIVE = ("has_assertion", "invokes_focal", "has_comment", "descriptive_name")

# Reward scheme used by every `reward` command: combined over four
# properties, so rewards span -1..4 and `resample` splits at the median.
REWARD_PROPERTIES = ("has_assertion", "invokes_focal", "duplicate_assertion",
                     "conditional_or_exception")

PROMPT_BUDGET_CHARS = 1536 * 4  # default prompt budget times chars per token

# Sizes of one pass of each workload.
CURATE_GENERATED = 400
CURATE_REPOS = 40
CURATE_MISSING_TEST = 3
CURATE_FOCAL_FILES = 16
CURATE_COMPLETIONS = 300
LONG_TESTS = 44
LONG_NESTED_DEPTHS = (50, 120, 200)
LONG_DEEP_DEPTHS = (400, 700, 1000)
TRAIN_EPISODES = 2000
TRAIN_EVAL_INTERVAL = 200  # the trainer's default
TRAIN_LATENCY_SAMPLES = 2000

# The `analyze()` latency percentile reported besides the median, over the
# workload's calls: p99 where there are hundreds or more, p90 on long_tests,
# which makes only 50.
TAIL_PERCENTILE = {"curate": 99, "long_tests": 90, "train": 99}

_FOCAL_VERBS = ("Compute", "Parse", "Resolve", "Render", "Merge", "Validate",
                "Apply", "Load", "Schedule", "Encode", "Decode", "Publish",
                "Reserve", "Release", "Normalize", "Allocate")
_FOCAL_NOUNS = ("Total", "Header", "Route", "Invoice", "Batch", "Token",
                "Order", "Quota", "Snapshot", "Ledger", "Window", "Payload",
                "Cursor", "Policy", "Lease", "Digest")
_HELPER_CALLS = ("Configure", "Prepare", "Register", "Attach", "Seed",
                 "Enqueue", "Observe", "Prime", "Stage", "Bind")
_WORDS = ("alpha", "beta", "gamma", "delta", "omega", "north", "south",
          "amber", "cobalt", "violet", "granite", "harbor", "meadow",
          "summit", "willow", "ember", "quartz", "tundra", "canyon", "delta")
_SUFFIXES = ("ReturnsExpectedTotal", "WhenInputIsEmpty", "HandlesLargeBatch",
             "RejectsNullArgument", "KeepsOrderStable", "UpdatesLedger",
             "SkipsExpiredEntries", "ReportsFailure", "MergesDuplicates",
             "ProducesSameDigest")
_WEAK_SUFFIXES = ("", "1", "_2", "Ok", "_A")
_TYPES = ("Widget", "Account", "Buffer", "Channel", "Record", "Segment")


def _rand_word(rng: random.Random) -> str:
    return rng.choice(_WORDS)


def _log_sizes(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """``count`` sizes evenly spaced on a log scale, in seeded order.  Every
    seed gets the same sizes, so seeds differ in content, not in cost."""
    step = (math.log(hi) - math.log(lo)) / count
    sizes = [int(math.exp(math.log(lo) + (i + 0.5) * step)) for i in range(count)]
    rng.shuffle(sizes)
    return sizes


def _deck(rng: random.Random, count: int, share: float, kinds: tuple = (True,)) -> list:
    """A shuffled list with ``round(count * share)`` entries cycling through
    ``kinds`` and the rest falsy: fixed proportions in seeded positions."""
    hits = round(count * share)
    deck = [kinds[i % len(kinds)] for i in range(hits)] + [0] * (count - hits)
    rng.shuffle(deck)
    return deck


# ── test methods with known properties ─────────────────────────────────

def _filler(rng: random.Random, i: int, comment_free_trap: bool) -> str:
    """One statement with no assertion, focal call, comment, smell or
    ternary.  Callees come from a list disjoint from every focal name."""
    w = _rand_word(rng)
    n = rng.randint(1, 999)
    kind = rng.randrange(9)
    if kind == 0:
        return f'var value{i} = new {rng.choice(_TYPES)}({n}, "{w}");'
    if kind == 1:
        return f"helper.{rng.choice(_HELPER_CALLS)}{w.title()}(value{i % 7}, {n});"
    if kind == 2:
        return f"var list{i} = new List<int> {{ {n}, {n + 1}, {n + 2} }};"
    if kind == 3:
        return f"int count{i} = {n} * {rng.randint(2, 9)} + {rng.randint(0, 50)};"
    if kind == 4:
        return f'var text{i} = $"item {{count{i % 5}}} of {n} {w}";'
    if kind == 5 and comment_free_trap:
        return f'var url{i} = "http://{w}.example/api/{n}";'
    if kind == 6:
        return f'var path{i} = @"C:\\data\\{w}\\{n}.txt";'
    if kind == 7:
        return f"var map{i} = new Dictionary<string, int>();"
    return f"var fn{i} = new Func<int, int>(x => x + {n});"


_CONDITIONALS = (
    "if (result{k} > {n})\n    {{\n        total{k}++;\n    }}",
    "try\n    {{\n        helper.Stage{w}({n});\n    }}\n"
    "    catch (InvalidOperationException)\n    {{\n        failed{k} = true;\n    }}",
    "foreach (var item in items{k})\n    {{\n        sum{k} += item;\n    }}",
    "for (int i = 0; i < {n}; i++)\n    {{\n        helper.Prime{w}(i);\n    }}",
    "while (queue{k}.Count > {n})\n    {{\n        queue{k}.Dequeue();\n    }}",
    'var label{k} = flag{k} ? "{w}" : "none";',
    "switch (mode{k})\n    {{\n        case {n}:\n            break;\n"
    "        default:\n            break;\n    }}",
    "do\n    {{\n        n{k}--;\n    }}\n    while (n{k} > {n});",
)

_ASSERTIONS = (
    "Assert.AreEqual({n}, result{k});",
    "Assert.IsTrue(result{k} > {n});",
    'StringAssert.Contains(text{k}, "{w}");',
    "CollectionAssert.AreEqual(expected{k}, actual{k});",
    "Assert.IsNotNull(value{k});",
)


@dataclass
class TestCase:
    focal: str
    source: str
    labels: dict[str, bool]


def make_test(rng: random.Random, *, focal: str, cls: str, labels: dict[str, bool],
              target_chars: int, break_kind: int = 0) -> TestCase:
    """A test method whose seven properties equal ``labels``.

    ``break_kind`` 1-3 damages the syntax in a way that leaves every
    statement recoverable: an unclosed method body, an extra statement with
    a stray ``)``, or an unterminated string in a last extra statement."""
    k = rng.randint(1, 99)
    n = rng.randint(1, 500)
    w = _rand_word(rng).title()
    if labels["descriptive_name"]:
        name = "Test" + focal + rng.choice(_SUFFIXES)
    else:
        name = "Test" + focal + rng.choice(_WEAK_SUFFIXES)

    body: list[str] = []
    if labels["has_comment"]:
        body.append(rng.choice((f"// Arrange the {w.lower()} fixture.",
                                f"/* covers {w.lower()} input */")))
    body.append(f"var sut = new {cls}();")
    if labels["invokes_focal"]:
        body.append(f"var result{k} = sut.{focal}(value{k % 7}, {n});")
    else:
        body.append(f"var result{k} = sut.{rng.choice(_HELPER_CALLS)}{w}(value{k % 7});")

    # Fillers first, so the required statements sit at the end and the
    # size target is reached without touching them.
    required: list[str] = []
    if labels["conditional_or_exception"]:
        required.append(rng.choice(_CONDITIONALS).format(k=k, n=n, w=w))
    if labels["has_assertion"]:
        first = rng.choice(_ASSERTIONS).format(k=k, n=n, w=w.lower())
        required.append(first)
        if labels["duplicate_assertion"]:
            required.append(first)
        elif rng.random() < 0.3:
            # The same assertion again, but not adjacent: not a duplicate.
            required.append(f"helper.Observe{w}(result{k});")
            required.append(first)
        else:
            required.append(f"Assert.IsFalse(result{k} == {n + 1});")
    elif labels["duplicate_assertion"]:
        raise ValueError("a duplicate assertion needs an assertion")

    def render(fillers: list[str]) -> str:
        lines = body + fillers + required
        return ("[TestMethod]\npublic void " + name + "()\n{\n"
                + "".join("    " + line + "\n" for line in lines) + "}")

    fillers: list[str] = []
    no_comment = not labels["has_comment"]
    while len(render(fillers)) < target_chars:
        fillers.append(_filler(rng, len(fillers), no_comment))
    if break_kind == 2:
        fillers.append(f"var broken{k} = value{k % 7} + ({n}));")
    source = render(fillers)

    if break_kind == 1:
        source = source[:-1].rstrip() + "\n"
    elif break_kind == 3:
        source = source[:-1] + '    var tail = "unterminated;\n}'
    labels = dict(labels, correct_syntax=break_kind == 0)
    return TestCase(focal, source, labels)


def random_labels(rng: random.Random) -> dict[str, bool]:
    assertion = rng.random() < 0.75
    return {
        "correct_syntax": True,
        "has_assertion": assertion,
        "invokes_focal": rng.random() < 0.7,
        "has_comment": rng.random() < 0.4,
        "descriptive_name": rng.random() < 0.6,
        "duplicate_assertion": assertion and rng.random() < 0.15,
        "conditional_or_exception": rng.random() < 0.3,
    }


def nested_test(depth: int, focal: str, *, with_if: bool) -> TestCase:
    """A valid test nested ``depth`` blocks deep, asserting at the bottom."""
    opener = "if (ready)\n{\n" if with_if else "{\n"
    source = ("[TestMethod]\npublic void Test" + focal + "ReachesDeepestLevel()\n{\n"
              + opener * depth
              + f"var result = sut.{focal}(1);\nAssert.AreEqual(1, result);\n"
              + "}\n" * depth + "}")
    labels = {
        "correct_syntax": True, "has_assertion": True, "invokes_focal": True,
        "has_comment": False, "descriptive_name": True,
        "duplicate_assertion": False, "conditional_or_exception": with_if,
    }
    return TestCase(focal, source, labels)


def expected_report(labels: dict[str, bool], focal: str) -> dict:
    report = {"schema": "report.v1", "focal_method_name": focal,
              "low_confidence": not labels["correct_syntax"]}
    report.update({p: labels[p] for p in PROPERTIES})
    return report


def expected_reward(labels: dict[str, bool]) -> int:
    if not labels["correct_syntax"]:
        return -1
    return sum(int(labels[p]) if p in POSITIVE else int(not labels[p])
               for p in REWARD_PROPERTIES)


def is_golden(labels: dict[str, bool]) -> bool:
    return (labels["correct_syntax"] and labels["has_assertion"]
            and labels["invokes_focal"] and not labels["duplicate_assertion"]
            and not labels["conditional_or_exception"])


def expected_stats(label_list: list[dict[str, bool]]) -> dict:
    count = len(label_list)
    freqs = {p: sum(1 for l in label_list if l[p]) / count for p in PROPERTIES}
    score = ((freqs["has_assertion"] + freqs["invokes_focal"])
             - (freqs["duplicate_assertion"] + freqs["conditional_or_exception"]))
    return {"schema": "stats.v1", "count": count, "frequencies": freqs,
            "quality_score": score}


def resample_sizes(rewards: list[int]) -> dict[str, int]:
    """Class sizes `resample` must produce, from its documented formula."""
    nonneg = sorted(r for r in rewards if r >= 0)
    negative = sum(1 for r in rewards if r < 0)
    if max(nonneg) <= 1:
        low = sum(1 for r in nonneg if r == 0)
        high = sum(1 for r in nonneg if r == 1)
        median = 1.0
    else:
        mid = len(nonneg) // 2
        median = (nonneg[mid] if len(nonneg) % 2
                  else (nonneg[mid - 1] + nonneg[mid]) / 2)
        low = sum(1 for r in nonneg if r < median)
        high = len(nonneg) - low
    d = min(low, high)
    return {"low": d, "high": d, "negative": min(2 * d, negative),
            "median": median}


def load_labeled_cases(root: Path) -> list[dict]:
    """The hand-labeled oracle cases, imported by file path."""
    path = root / "tests" / "labeled_corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_labeled_corpus", path)
    if spec is None or spec.loader is None:
        raise FileNotFoundError(path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return list(module.LABELED_TESTS)


# ── truncation inputs ───────────────────────────────────────────────────

def hint_for(focal: str) -> str:
    return f"[TestMethod]\npublic void Test{focal}"


def make_completion(rng: random.Random, case: TestCase, variant: int) -> tuple[dict, str]:
    """A raw completion for ``case`` plus the exact text truncation must
    return.  The hint is the documented stub for the focal method."""
    hint = hint_for(case.focal)
    source = case.source
    if not source.startswith(hint) or not source.endswith("\n}"):
        raise ValueError("completion cases need a well-formed template test")
    body = source[len(hint):]
    if rng.random() < 0.3:
        # Braces and annotations inside literals and comments must not cut.
        trap = ('    var json = @"{\n}";\n    var note = "[TestMethod]";\n'
                if rng.random() < 0.5 else "    var x = 1; // }\n")
        body = body[:-1] + trap + "}"
    second = ("\n\n[TestMethod]\npublic void TestOther" + case.focal
              + "()\n{\n    Assert.IsTrue(true);\n}\n")
    prose = "\nThe test above checks the happy path and nothing else.\n"
    if variant == 0:       # column-0 brace, then a second test
        completion = body + second
        expected = hint + body
    elif variant == 1:     # column-0 brace, then prose
        completion = body + prose
        expected = hint + body
    elif variant == 2:     # indented close, then a second test
        body = body[:-1] + "  }"
        completion = body + second
        expected = hint + body + "\n\n"
    else:                  # nothing to cut
        body = body[:-1] + "  }"
        completion = body + "\n"
        expected = hint + completion
    if rng.random() < 0.5:
        record = {"prompt_hint": hint, "completion": completion}
    else:
        record = {"focal_method": case.focal, "completion": completion}
    return record, expected


# ── focal files for prompting ───────────────────────────────────────────

def _method_text(rng: random.Random, name: str, target: int) -> str:
    lines = [f"        public int {name}(int value, string key)", "        {"]
    i = 0
    while sum(len(l) + 1 for l in lines) < target:
        lines.append(f"            var local{i} = Lookup(key, value + {rng.randint(1, 99)});")
        i += 1
    lines += ["            return value;", "        }"]
    return "\n".join(lines)


@dataclass
class FocalFile:
    path: str
    text: str
    methods: dict[str, str]          # name -> exact method text
    requests: list[tuple[str, str]]  # (method name, "ok" | "missing" | "too_long")


def make_focal_file(rng: random.Random, repo: str, index: int, target: int,
                    oversized: bool, missing: bool) -> FocalFile:
    cls = f"{rng.choice(_TYPES)}Service{index}"
    path = f"src/{repo}/{cls}.cs"
    names = [f"{v}{n}" for v in _FOCAL_VERBS for n in _FOCAL_NOUNS]
    rng.shuffle(names)
    methods: dict[str, str] = {}
    parts = ["using System;", "using System.Collections.Generic;", "",
             f"namespace Bench.{repo.replace('/', '.').title()}", "{",
             f"    // Service {index} under benchmark.",
             f"    public class {cls}", "    {",
             "        private readonly Dictionary<string, int> _cache = "
             "new Dictionary<string, int>();",
             "        private int _calls;", ""]
    size = sum(len(p) + 1 for p in parts)
    while size < target or len(methods) < 4:
        name = names.pop()
        if oversized and len(methods) == 1:
            text = _method_text(rng, name, rng.randint(7000, 9000))
        else:
            text = _method_text(rng, name, rng.randint(200, 2500))
        methods[name] = text
        parts += [f"        /* {name} keeps the cache warm. */", text, ""]
        size += len(text) + len(name) + 40
    parts += ["        private int Lookup(string key, int value)", "        {",
              "            _calls++;",
              "            return _cache.TryGetValue(key, out var hit) ? hit : value;",
              "        }", "    }", "}", ""]
    chosen = rng.sample(list(methods), min(4, len(methods)))
    if oversized and list(methods)[1] not in chosen:
        chosen.append(list(methods)[1])
    # Even level 4 (class header plus the method) overruns the budget for
    # an oversized method; every other method fits at some level.
    requests = [(name, "too_long" if len(methods[name]) > 6000 else "ok")
                for name in chosen]
    if missing:
        requests.append((names.pop(), "missing"))
    return FocalFile(path, "\n".join(parts), methods, requests)


# ── plans ───────────────────────────────────────────────────────────────

@dataclass
class Command:
    name: str
    argv: list[str]
    records: int                      # input lines the command reads
    outputs: list[str]                # files to digest, relative to workdir


@dataclass
class Plan:
    workload: str
    commands: list[Command]
    latency: str                      # file of {"test", "focal"} lines, or ""
    probes: list[Command] = field(default_factory=list)
    expect: dict[str, Any] = field(default_factory=dict)
    samples: int = 0                  # completions the worker renders for `train`


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")


def _prompt_text(rng: random.Random) -> str:
    words = []
    while sum(len(w) + 1 for w in words) < 400:
        words.append(rng.choice(_WORDS + _FOCAL_NOUNS + ("=", ";", "{", "}", "()")))
    return " ".join(words)[:400]


def _corpus(rng: random.Random, root: Path, count: int, size: tuple[int, int]
            ) -> tuple[list[dict], list[dict]]:
    """Distinct corpus records plus the labels each must get."""
    repos = [f"org{i:02d}/proj{i:02d}" for i in range(CURATE_REPOS)]
    weights = [1.0 / (i + 1) ** 0.7 for i in range(CURATE_REPOS)]
    rows, labels = [], []
    sizes = _log_sizes(rng, count, *size)
    broken_kinds = _deck(rng, count, 0.2, (1, 2, 3))
    for i in range(count):
        focal = rng.choice(_FOCAL_VERBS) + rng.choice(_FOCAL_NOUNS)
        cls = rng.choice(_TYPES) + "Service"
        lab = random_labels(rng)
        case = make_test(rng, focal=focal, cls=cls, labels=lab,
                         target_chars=sizes[i], break_kind=broken_kinds[i])
        rows.append({"repo": rng.choices(repos, weights)[0], "focal_class": cls,
                     "focal_method": focal, "prompt": f"{i}: " + _prompt_text(rng),
                     "test": case.source, "source": "generated"})
        labels.append(case.labels)
    for j, case in enumerate(load_labeled_cases(root)):
        rows.append({"repo": repos[j % len(repos)], "focal_class": "Labeled",
                     "focal_method": case["focal"], "prompt": f"labeled {case['name']}",
                     "test": case["test"], "source": "human"})
        labels.append(dict(case["labels"]))
    order = list(range(len(rows)))
    rng.shuffle(order)
    return [rows[i] for i in order], [labels[i] for i in order]


def _reward_args(src: str, out: str) -> list[str]:
    return ["reward", src, "--properties", ",".join(REWARD_PROPERTIES),
            "--strategy", "combined", "--out", out]


def build_curate(rng: random.Random, root: Path, work: Path) -> Plan:
    rows, labels = _corpus(rng, root, CURATE_GENERATED, (100, 3000))
    _write_jsonl(work / "corpus.jsonl", rows)

    # Requests against generated focal files.
    requests, kinds, method_texts = [], [], []
    sizes = _log_sizes(rng, CURATE_FOCAL_FILES, 1000, 30000)
    oversized = _deck(rng, CURATE_FOCAL_FILES, 0.5)
    missing = _deck(rng, CURATE_FOCAL_FILES, 0.4)
    for i in range(CURATE_FOCAL_FILES):
        repo = f"org{i % CURATE_REPOS:02d}/proj{i % CURATE_REPOS:02d}"
        ff = make_focal_file(rng, repo, i, sizes[i], oversized[i], missing[i])
        (work / ff.path).parent.mkdir(parents=True, exist_ok=True)
        (work / ff.path).write_text(ff.text, encoding="utf-8")
        for name, kind in ff.requests:
            requests.append({"focal_path": ff.path, "focal_method": name})
            kinds.append(kind)
            method_texts.append(ff.methods.get(name, ""))
    _write_jsonl(work / "requests.jsonl", requests)

    # Raw completions from well-formed template tests.
    completions, cuts = [], []
    sizes = _log_sizes(rng, CURATE_COMPLETIONS, 150, 1500)
    for i in range(CURATE_COMPLETIONS):
        focal = rng.choice(_FOCAL_VERBS) + rng.choice(_FOCAL_NOUNS)
        case = make_test(rng, focal=focal, cls="Sut", labels=random_labels(rng),
                         target_chars=sizes[i])
        record, expected = make_completion(rng, case, rng.randrange(4))
        completions.append(record)
        cuts.append(expected)
    _write_jsonl(work / "completions.jsonl", completions)

    # Records without a `test` field, each probed on its own.
    probes = []
    for i in range(CURATE_MISSING_TEST):
        name = f"probe_missing_test_{i}.jsonl"
        _write_jsonl(work / name, [{"repo": "org00/proj00", "focal_method": "Run",
                                    "prompt": f"probe {i}"}])
        for cmd in ("golden", "reward"):
            argv = ([cmd, name, "--out", f"out/{cmd}_{name}"] if cmd == "golden"
                    else _reward_args(name, f"out/{cmd}_{name}"))
            probes.append(Command(f"{cmd}.missing_test", argv, 1,
                                  [f"out/{cmd}_{name}"]))

    n = len(rows)
    commands = [
        Command("prompt", ["prompt", "requests.jsonl", "--out", "out/prompts.jsonl"],
                len(requests), ["out/prompts.jsonl"]),
        Command("truncate", ["truncate", "completions.jsonl", "--out",
                             "out/truncated.jsonl"], len(completions),
                ["out/truncated.jsonl"]),
        Command("analyze", ["analyze", "corpus.jsonl", "--out", "out/reports.jsonl"],
                n, ["out/reports.jsonl"]),
        Command("report", ["report", "out/reports.jsonl", "--out", "out/stats.json"],
                n, ["out/stats.json"]),
        Command("reward", _reward_args("corpus.jsonl", "out/labeled.jsonl"), n,
                ["out/labeled.jsonl"]),
        Command("resample", ["resample", "out/labeled.jsonl", "--seed", "7",
                             "--out", "out/balanced.jsonl"], n,
                ["out/balanced.jsonl"]),
        Command("golden", ["golden", "corpus.jsonl", "--out", "out/golden.jsonl"],
                n, ["out/golden.jsonl"]),
        Command("split", ["split", "corpus.jsonl", "--out-dir", "out/splits", "--rl",
                          "--dedupe"], n,
                [f"out/splits/{s}.jsonl" for s in ("sft", "rm", "pm", "val", "test")]
                + ["out/splits/manifest.json"]),
    ]
    rewards = [expected_reward(l) for l in labels]
    expect = {
        "rows": rows, "labels": labels, "rewards": rewards,
        "requests": requests, "request_kinds": kinds, "method_texts": method_texts,
        "cuts": cuts,
    }
    return Plan("curate", commands, "corpus.jsonl", probes, expect)


def build_long_tests(rng: random.Random, root: Path, work: Path) -> Plan:
    rows, labels = [], []
    sizes = _log_sizes(rng, LONG_TESTS, 1000, 20000)
    broken_kinds = _deck(rng, LONG_TESTS, 0.2, (1, 2, 3))
    for i in range(LONG_TESTS):
        focal = rng.choice(_FOCAL_VERBS) + rng.choice(_FOCAL_NOUNS)
        lab = random_labels(rng)
        case = make_test(rng, focal=focal, cls="LargeService", labels=lab,
                         target_chars=sizes[i], break_kind=broken_kinds[i])
        rows.append({"repo": f"org{i % 5}/large", "focal_method": focal,
                     "prompt": f"long {i}", "test": case.source})
        labels.append(case.labels)
    for j, depth in enumerate(LONG_NESTED_DEPTHS):
        for with_if in (False, True):
            case = nested_test(depth, "Descend", with_if=with_if)
            rows.append({"repo": "org9/nested", "focal_method": case.focal,
                         "prompt": f"nested {depth} {with_if}", "test": case.source})
            labels.append(case.labels)
    _write_jsonl(work / "long.jsonl", rows)

    probes = []
    for depth in LONG_DEEP_DEPTHS:
        case = nested_test(depth, "Descend", with_if=True)
        name = f"probe_depth_{depth}.jsonl"
        _write_jsonl(work / name, [{"repo": "org9/deep", "focal_method": case.focal,
                                    "prompt": "deep", "test": case.source}])
        probes.append(Command(f"analyze.depth_{depth}",
                              ["analyze", name, "--out", f"out/{name}"], 1,
                              [f"out/{name}"]))
    n = len(rows)
    commands = [
        Command("analyze", ["analyze", "long.jsonl", "--out", "out/reports.jsonl"],
                n, ["out/reports.jsonl"]),
        Command("golden", ["golden", "long.jsonl", "--out", "out/golden.jsonl"],
                n, ["out/golden.jsonl"]),
        Command("reward", _reward_args("long.jsonl", "out/labeled.jsonl"), n,
                ["out/labeled.jsonl"]),
    ]
    expect = {"rows": rows, "labels": labels,
              "rewards": [expected_reward(l) for l in labels]}
    return Plan("long_tests", commands, "long.jsonl", probes, expect)


def build_train(seed: int) -> Plan:
    # The vocabulary and seed corpus come from tests/toy_setup.py; the
    # worker writes them, because that module imports the package.
    argv = ["train-toy", "--seed-corpus", "seed_corpus.jsonl",
            "--vocab-file", "vocab.txt", "--properties", "has_assertion",
            "--episodes", str(TRAIN_EPISODES), "--max-tokens", "16",
            "--learning-rate", "1.0", "--beta", "0.1", "--seed", str(seed),
            "--metrics", "out/metrics.jsonl", "--out", "out/policy.json"]
    rows = 1 + math.ceil(TRAIN_EPISODES / TRAIN_EVAL_INTERVAL)
    commands = [Command("train-toy", argv, TRAIN_EPISODES,
                        ["out/metrics.jsonl", "out/policy.json"])]
    return Plan("train", commands, "episodes.jsonl", [], {"metrics_rows": rows},
                TRAIN_LATENCY_SAMPLES)


WORKLOADS = ("curate", "long_tests", "train")


def build(workload: str, seed: int, root: Path, work: Path) -> Plan:
    rng = random.Random(f"{workload}:{seed}")
    (work / "out").mkdir(parents=True, exist_ok=True)
    if workload == "curate":
        return build_curate(rng, root, work)
    if workload == "long_tests":
        return build_long_tests(rng, root, work)
    if workload == "train":
        return build_train(seed)
    raise ValueError(f"unknown workload {workload!r}")
