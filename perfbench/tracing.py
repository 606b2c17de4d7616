"""In-memory spans around the package's public entry points.

Only the traced run installs these wrappers, and it installs them where each
caller looks the function up (``tqual.cli.analyze``, ``tqual.parser.tokenize``
and so on), so the package itself is never edited.  Every call records a
span: name, start, end and the index of its parent span.  A span's self time
is its duration minus the durations of its children; work done by the
tracer's own counters after a call is excluded from the parent as well.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from typing import Any, Callable

_now = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int]] = []
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        self.open: Counter[str] = Counter()
        self.distinct: dict[str, set] = {}
        self._stack: list[list[int]] = []   # [span index, child ns]

    # ── spans ────────────────────────────────────────────────────────

    def begin(self, name: str) -> list[int]:
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0, 0, parent))
        frame = [index, 0, _now()]
        self._stack.append(frame)
        self.open[name] += 1
        return frame

    def end(self, frame: list[int], name: str, counted_until: int | None = None) -> None:
        """Close ``frame``.  Time between the call's return and
        ``counted_until`` (the tracer's own bookkeeping) is charged to no one."""
        end = _now()
        index, child, start = frame
        returned = end if counted_until is None else counted_until
        self._stack.pop()
        self.open[name] -= 1
        duration = returned - start
        self.spans[index] = (name, start, returned, self.spans[index][3])
        self.calls[name] += 1
        self.self_ns[name] += duration - child
        if self._stack:
            # The parent loses the whole interval, bookkeeping included.
            self._stack[-1][1] += end - start

    def span(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(frame, name)
                raise
            returned = _now()
            if after is not None:
                after(args, result)
            self.end(frame, name, counted_until=returned)
            return result
        return wrapper

    def span_generator(self, name: str, fn: Callable) -> Callable:
        """Each ``next()`` is its own span; the consumer's work between
        items is not charged to the generator."""
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            frame = self.begin(name)
            iterator = fn(*args, **kwargs)
            self.end(frame, name)
            while True:
                frame = self.begin(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    self.end(frame, name)
                    return
                self.end(frame, name)
                yield item
        return wrapper

    def patch(self, owner: Any, attr: str, name: str, after: Callable | None = None) -> None:
        setattr(owner, attr, self.span(name, getattr(owner, attr), after))

    def note_distinct(self, key: str, value: Any) -> None:
        """Count ``value`` once per process: each command runs in its own
        fork, so distinct values are what a cache inside one command could
        not hit."""
        self.distinct.setdefault(key, set()).add(hash(value))

    # ── output ───────────────────────────────────────────────────────

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "counters": dict(self.counters),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                         "end_ns": end, "parent": parent}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point where its caller binds it."""
    import tqual.analyzer
    import tqual.cli
    import tqual.completion
    import tqual.parser
    import tqual.prompting
    import tqual.rlcore.trainer as trainer
    from tqual.rlcore.policy import PolicyTable

    t = tracer
    c = t.counters
    cli = tqual.cli

    def lexed(args: tuple, tokens: list) -> None:
        c["lexer.chars"] += len(args[0])
        c["lexer.tokens"] += len(tokens)
        if t.open["analyzer.analyze"]:
            c["lexer.calls_in_analyze"] += 1

    def parsed(args: tuple, tree: Any) -> None:
        stack = list(tree.statements())
        while stack:
            stmt = stack.pop()
            c["parser.statements"] += 1
            stack.extend(stmt.children)
        c["parser.fatal"] += int(tree.has_fatal)

    def analyzed(args: tuple, report: Any) -> None:
        t.note_distinct("analyzer.inputs", (args[0], args[1]))
        if t.open["trainer.train"]:
            c["trainer.analyze_calls"] += 1
            t.note_distinct("trainer.texts", args[0])

    def golden(args: tuple, kept: bool) -> None:
        c["curation.golden_kept"] += int(kept)

    def truncated(args: tuple, text: str) -> None:
        raw = args[0]
        c["completion.cut"] += int(len(text) < len(raw.prompt_hint) + len(raw.completion_text))

    def sampled(args: tuple, completion: Any) -> None:
        c["policy.tokens_sampled"] += len(completion.actions)
        if t.open["trainer.train"] and not t.open["trainer.eval"]:
            c["trainer.episodes"] += 1

    t.patch(tqual.parser, "tokenize", "lexer.tokenize", lexed)
    t.patch(tqual.completion, "tokenize", "lexer.tokenize", lexed)
    t.patch(tqual.analyzer, "parse_test_method", "parser.parse_test_method", parsed)
    t.patch(cli, "parse_focal_file", "parser.parse_focal_file")
    for module in (cli, trainer):
        t.patch(module, "analyze", "analyzer.analyze", analyzed)
        t.patch(module, "score_corpus", "analyzer.score_corpus")
        t.patch(module, "reward_for", "rewards.reward_for")
    t.patch(cli, "resample_balanced", "rewards.resample_balanced")
    t.patch(cli, "is_golden", "curation.is_golden", golden)
    t.patch(cli, "dedupe", "curation.dedupe")
    t.patch(cli, "split_by_repository", "curation.split_by_repository")
    t.patch(cli, "split_manifest", "curation.split_manifest")
    t.patch(cli, "build_prompt", "prompting.build_prompt")
    t.patch(tqual.prompting, "render_level", "prompting.render_level")
    t.patch(cli, "truncate_completion", "completion.truncate_completion", truncated)
    cli.iter_jsonl = t.span_generator("corpus.read", cli.iter_jsonl)
    t.patch(cli, "dump_line", "corpus.write")
    t.patch(trainer, "sample_completion", "policy.sample", sampled)
    t.patch(PolicyTable, "kl_from_reference", "policy.kl")
    t.patch(PolicyTable, "log_probs", "policy.log_probs")
    t.patch(trainer, "clipped_surrogate_grad", "math.surrogate_grad")
    t.patch(trainer, "_evaluate", "trainer.eval")
    t.patch(cli, "train_toy_policy", "trainer.train")

    make_reward = cli.make_analyzer_reward

    def traced_make_reward(*args: Any, **kwargs: Any):
        reward_fn, report_fn = make_reward(*args, **kwargs)
        return (t.span("trainer.reward", reward_fn),
                t.span("trainer.report", report_fn))

    cli.make_analyzer_reward = traced_make_reward
