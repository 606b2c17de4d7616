"""Command-line pipeline over JSONL files.

Each subcommand wraps one pipeline stage: quality analysis, frequency
reporting, completion truncation, prompt construction, reward labeling,
class-balanced resampling, golden filtering, repository-level splitting,
subsampling, toy policy training and sampling.  Records are decoded by the
``from_dict`` of their type, or by ``decode`` with a field spec.  Per-line
stages stream their input through ``_stream`` and preserve order; a bad line
becomes an ``error.v1`` record and flips the exit code to 1.  Whole-input
stages stop at the first bad line with a usage error naming it.

Exit codes: 0 success, 1 data error, 2 usage error.

Only ``train-toy`` and ``sample`` need the RL core, and it imports numpy,
which would more than double the start-up time of every other command and
add about 12 MB to its peak memory.  So its names (``train_toy_policy``, ``PolicyTable`` and the
rest of ``_RLCORE_NAMES``) are bound into this module on first use: those
two commands call ``_bind_rlcore`` first, and reading one of the names as an
attribute of the module binds them too.  Tracers such as
``perfbench/tracing.py`` wrap ``train_toy_policy`` and
``make_analyzer_reward`` by getting and setting them as attributes before
any command runs; binding never overwrites a name already set, so the
commands then call the wrappers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from . import __version__
from .analyzer import PROPERTY_FIELDS, QualityReport, analyze, score_corpus
from .completion import RawCompletion, prompt_hint_for, truncate_completion
from .config import PipelineConfig
from .corpus import REQUIRED, CorpusRecord, decode, dump_line, iter_jsonl
from .curation import dedupe, is_golden, split_by_repository, split_manifest, subsample
from .errors import DomainError, PipelineError
from .parser import parse_focal_file
from .prompting import build_prompt
from .rewards import LabeledRecord, resample_balanced, reward_for

__all__ = ["main", "build_parser"]

_PROPERTY_LABELS = {
    "correct_syntax": "Correct Syntax",
    "has_assertion": "Has Assertion",
    "invokes_focal": "Invokes Focal Method",
    "has_comment": "Has Comment",
    "descriptive_name": "Descriptive Name",
    "duplicate_assertion": "Duplicate Assertion",
    "conditional_or_exception": "Conditional Or Exception",
}


def _write_lines(path: str | Path | None, lines: Iterable[str]) -> None:
    """Write each line and a newline to ``path``, or to stdout when ``path``
    is None or "-".  The lines are written as they come."""
    to_stdout = path is None or path == "-"
    with nullcontext(sys.stdout) if to_stdout else open(path, "w", encoding="utf-8") as out:
        for line in lines:
            out.write(line + "\n")


def _write_jsonl(path: str | Path | None, rows: Iterable[dict]) -> None:
    _write_lines(path, map(dump_line, rows))


def _error_record(line_no: int, message: str) -> dict:
    return {"schema": "error.v1", "line": line_no, "error": message}


def _require_file(path: str) -> None:
    if not Path(path).is_file():
        raise FileNotFoundError(f"input file not found: {path}")


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    if getattr(args, "config", None):
        return PipelineConfig.from_file(args.config)
    return PipelineConfig.empty()


# ── line-streaming commands ─────────────────────────────────────────

def _stream(args: argparse.Namespace, handle: Callable[[dict], dict | None]) -> int:
    """Run ``handle`` on each object of ``args.input`` and write the wire
    form it returns, in input order; ``None`` drops the line.  A line that
    is not a JSON object, or on which ``handle`` raises a PipelineError or
    an OSError, becomes that line's ``error.v1`` record and makes the exit
    code 1.  The output is written while the input is read, so an ``--out``
    naming the input file is a usage error."""
    _require_file(args.input)
    if args.out not in (None, "-") and Path(args.out).exists() \
            and os.path.samefile(args.input, args.out):
        raise ValueError(f"--out {args.out} is the input file; it would be emptied")
    had_error = False

    def rows() -> Iterator[dict]:
        nonlocal had_error
        for line_no, obj, err in iter_jsonl(args.input):
            if err is None:
                try:
                    row = handle(obj)
                except (PipelineError, OSError) as exc:
                    err = str(exc)
            if err is not None:
                row = _error_record(line_no, err)
                had_error = True
            if row is not None:
                yield row

    _write_jsonl(args.out, rows())
    return 1 if had_error else 0


def cmd_analyze(args: argparse.Namespace) -> int:
    def handle(obj: dict) -> dict:
        record = CorpusRecord.from_dict(obj)
        return analyze(record.test, record.focal_method).to_dict()
    return _stream(args, handle)


_TRUNCATE_FIELDS = {
    "prompt_hint": (str, None),
    "focal_method": (str, None),
    "completion": (str, REQUIRED),
}


def cmd_truncate(args: argparse.Namespace) -> int:
    def handle(obj: dict) -> dict:
        fields = decode(dict, obj, _TRUNCATE_FIELDS)
        hint = fields["prompt_hint"]
        if hint is None and fields["focal_method"] is not None:
            hint = prompt_hint_for(fields["focal_method"])
        if hint is None:
            raise DomainError("record needs a string 'prompt_hint' or 'focal_method' field")
        test = truncate_completion(RawCompletion(hint, fields["completion"]))
        return {"schema": "truncated.v1", "prompt_hint": hint, "test": test}
    return _stream(args, handle)


_PROMPT_FIELDS = {"focal_path": (str, REQUIRED), "focal_method": (str, REQUIRED)}


def cmd_prompt(args: argparse.Namespace) -> int:
    cfg = _pipeline_config(args).budget()
    trees: dict[str, Any] = {}

    def handle(obj: dict) -> dict:
        fields = decode(dict, obj, _PROMPT_FIELDS)
        path = fields["focal_path"]
        if path not in trees:
            try:
                source = Path(path).read_text(encoding="utf-8")
            except ValueError as exc:  # a NUL byte in the path, or a file that is not UTF-8
                raise DomainError(f"cannot read focal file {path!r}: {exc}") from None
            trees[path] = parse_focal_file(source)
        return build_prompt(trees[path], fields["focal_method"], path, cfg).to_dict()
    return _stream(args, handle)


def cmd_reward(args: argparse.Namespace) -> int:
    scheme = _pipeline_config(args).reward_scheme(args.properties, args.strategy)
    if scheme is None:
        print("reward: no properties given (use --properties or reward.properties)",
              file=sys.stderr)
        return 2

    def handle(obj: dict) -> dict:
        record = CorpusRecord.from_dict(obj)
        report = analyze(record.test, record.focal_method)
        return LabeledRecord(record, report, reward_for(report, scheme)).to_dict()
    return _stream(args, handle)


def cmd_golden(args: argparse.Namespace) -> int:
    def handle(obj: dict) -> dict | None:
        record = CorpusRecord.from_dict(obj)
        if is_golden(analyze(record.test, record.focal_method)):
            return record.to_dict()
        return None
    return _stream(args, handle)


# ── whole-corpus commands ───────────────────────────────────────────

def _read_records(path: str, from_dict: Callable[[dict], Any] = CorpusRecord.from_dict
                  ) -> list:
    """Every record of the input; the first bad line is a usage error."""
    _require_file(path)
    records = []
    for line_no, obj, err in iter_jsonl(path):
        try:
            if err is not None:
                raise DomainError(err)
            records.append(from_dict(obj))
        except DomainError as exc:
            raise DomainError(f"line {line_no}: {exc}") from None
    return records


def cmd_report(args: argparse.Namespace) -> int:
    _require_file(args.input)
    reports: list[QualityReport] = []
    for line_no, obj, err in iter_jsonl(args.input):
        try:
            if err is not None:
                raise DomainError(err)
            reports.append(QualityReport.from_dict(obj))
        except DomainError as exc:
            print(f"report: skipping line {line_no}: {exc}", file=sys.stderr)
    stats = score_corpus(reports, _pipeline_config(args).score_config())

    width = max(len(label) for label in _PROPERTY_LABELS.values()) + 2
    print(f"{'Property':<{width}}Frequency")
    for prop in PROPERTY_FIELDS:
        pct = stats.frequencies[prop] * 100
        print(f"{_PROPERTY_LABELS[prop]:<{width}}{pct:5.1f}%")
    print(f"\nTests analyzed: {stats.count}")
    print(f"Quality score: {stats.quality_score:.3f}")

    _write_lines(args.out, [json.dumps(stats.to_dict(), sort_keys=True, ensure_ascii=False)])
    return 0


def cmd_resample(args: argparse.Namespace) -> int:
    labeled = _read_records(args.input, LabeledRecord.from_dict)
    balanced = resample_balanced(labeled, args.seed)
    _write_jsonl(args.out, (item.to_dict() for item in balanced))
    return 0


def cmd_split(args: argparse.Namespace) -> int:
    spec = _pipeline_config(args).split_spec(
        seed=args.seed, rl_three_way=True if args.rl else None
    )
    records = _read_records(args.input)
    if args.dedupe:
        records = dedupe(records)
    splits = split_by_repository(records, spec)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    counts = {}
    for name, members in splits.items():
        _write_jsonl(out_dir / f"{name}.jsonl", (record.to_dict() for record in members))
        counts[name] = len(members)
    manifest = {
        "schema": "split-manifest.v1",
        "assignments": split_manifest(splits),
        "counts": counts,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps(counts, sort_keys=True))
    return 0


def cmd_subsample(args: argparse.Namespace) -> int:
    records = _read_records(args.input)
    chosen = subsample(records, args.n, args.seed)
    _write_jsonl(args.out, (record.to_dict() for record in chosen))
    return 0


# ── toy RL commands ─────────────────────────────────────────────────

_RLCORE_NAMES = (
    "PolicyTable",
    "DEFAULT_VOCAB",
    "bigram_policy_from_corpus",
    "generate_completions",
    "make_analyzer_reward",
    "render_toy_test",
    "train_toy_policy",
)


def _bind_rlcore() -> None:
    """Import the RL core and bind ``_RLCORE_NAMES`` here, keeping any name
    already set (a tracer's wrapper)."""
    from .rlcore import trainer
    names = globals()
    for name in _RLCORE_NAMES:
        names.setdefault(name, getattr(trainer, name))


def __getattr__(name: str) -> Any:
    if name in _RLCORE_NAMES:
        _bind_rlcore()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _load_vocabulary(path: str | None) -> tuple[str, ...]:
    if path is None:
        return DEFAULT_VOCAB
    tokens = [line.strip() for line in Path(path).read_text(encoding="utf-8").splitlines()]
    vocab = tuple(t for t in tokens if t)
    if "</s>" not in vocab:
        raise DomainError("vocabulary file must include the stop token </s>")
    return vocab


def _load_policy(path: str) -> PolicyTable:
    _require_file(path)
    return PolicyTable.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


_SEED_FIELDS = {"tokens": ([str], REQUIRED)}


def cmd_train_toy(args: argparse.Namespace) -> int:
    _bind_rlcore()
    pipeline = _pipeline_config(args)
    cfg = pipeline.train_config(
        beta=args.beta,
        epsilon=args.epsilon,
        learning_rate=args.learning_rate,
        episodes=args.episodes,
        max_tokens=args.max_tokens,
        seed=args.seed,
    )
    # has_assertion only when neither the flag nor the config names properties.
    scheme = (pipeline.reward_scheme(args.properties, args.strategy)
              or pipeline.reward_scheme("has_assertion", args.strategy))

    vocabulary = _load_vocabulary(args.vocab_file)
    if args.init_policy:
        policy = _load_policy(args.init_policy)
    elif args.seed_corpus:
        token_lists = _read_records(
            args.seed_corpus, lambda obj: decode(dict, obj, _SEED_FIELDS)["tokens"])
        policy = bigram_policy_from_corpus(token_lists, vocabulary)
    else:
        policy = PolicyTable.uniform(vocabulary)

    reward_fn, report_fn = make_analyzer_reward(scheme, args.focal)
    trained, metrics = train_toy_policy(policy, reward_fn, cfg, report_fn,
                                        pipeline.score_config())

    if args.metrics:
        _write_jsonl(args.metrics, (entry.to_dict() for entry in metrics))
    _write_lines(args.out, [json.dumps(trained.to_dict(), sort_keys=True)])
    final = metrics[-1]
    print(
        f"episodes={final.episode} mean_reward={final.mean_reward:.3f} "
        f"quality_score={final.quality_score:.3f}",
        file=sys.stderr,
    )
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    _bind_rlcore()
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    policy = _load_policy(args.policy)
    cfg = _pipeline_config(args).train_config(seed=args.seed, max_tokens=args.max_tokens)
    completions = generate_completions(policy, cfg, seed=cfg.seed, count=args.count)
    _write_jsonl(args.out, ({
        "schema": "sample.v1",
        "tokens": list(completion.tokens),
        "stopped": completion.stopped,
        "test": render_toy_test(completion.tokens, args.focal),
    } for completion in completions))
    return 0


# ── parser ──────────────────────────────────────────────────────────

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tqual",
        description="Static quality analysis and RL data pipeline for generated C# tests.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, seed: bool = True, out: bool = True) -> None:
        p.add_argument("--config", help="flat key=value config file")
        if out:
            p.add_argument("--out", help="output path (default stdout)")
        if seed:  # no default: a --seed left out leaves the config's seed in force
            p.add_argument("--seed", type=int)

    p = sub.add_parser("analyze", help="quality reports for corpus records")
    p.add_argument("input")
    common(p, seed=False)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("report", help="property frequency table for reports")
    p.add_argument("input")
    common(p, seed=False)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("truncate", help="cut completions at test boundaries")
    p.add_argument("input")
    common(p, seed=False)
    p.set_defaults(func=cmd_truncate)

    p = sub.add_parser("prompt", help="build budgeted prompts from focal files")
    p.add_argument("input")
    common(p, seed=False)
    p.set_defaults(func=cmd_prompt)

    p = sub.add_parser("reward", help="label corpus records with rewards")
    p.add_argument("input")
    p.add_argument("--properties", help="comma-separated quality properties")
    p.add_argument("--strategy", choices=["individual", "combined"])
    common(p, seed=False)
    p.set_defaults(func=cmd_reward)

    p = sub.add_parser("resample", help="class-balance labeled records")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_resample, seed=0)

    p = sub.add_parser("golden", help="keep only golden-quality records")
    p.add_argument("input")
    common(p, seed=False)
    p.set_defaults(func=cmd_golden)

    # No abbreviations: ``--out`` would otherwise be taken for ``--out-dir``.
    p = sub.add_parser("split", help="leakage-free repository splits", allow_abbrev=False)
    p.add_argument("input")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--rl", action="store_true",
                   help="three-way sft/rm/pm partition of the training repos")
    p.add_argument("--dedupe", action="store_true")
    common(p, out=False)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("subsample", help="seeded random subset")
    p.add_argument("input")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_subsample, seed=0)

    p = sub.add_parser("train-toy", help="PPO on a tabular bigram policy")
    p.add_argument("--properties",
                   help="comma-separated quality properties (default has_assertion)")
    p.add_argument("--strategy", choices=["individual", "combined"])
    p.add_argument("--focal", default="Stop")
    p.add_argument("--episodes", type=int)
    p.add_argument("--beta", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--max-tokens", type=int)
    p.add_argument("--vocab-file")
    p.add_argument("--init-policy", help="policy JSON to start from")
    p.add_argument("--seed-corpus", help="JSONL of {'tokens': [...]} for bigram init")
    p.add_argument("--metrics", help="write metrics JSONL here")
    common(p)
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("sample", help="draw completions from a policy")
    p.add_argument("--policy", required=True)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--max-tokens", type=int)
    p.add_argument("--focal", default="Stop")
    common(p)
    p.set_defaults(func=cmd_sample)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, DomainError, OSError) as exc:
        print(f"tqual: {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"tqual: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
