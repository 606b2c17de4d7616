"""Command-line pipeline over JSONL files.

Each subcommand wraps one pipeline stage and is one row of ``_COMMANDS``,
from which the parser and the path check are built.  Only the rows whose
commands read settings take ``--config``; ``main`` loads and checks that
file once, after the path check, and hands the command a ``PipelineConfig``
as ``args.config`` (empty without the flag).  Every JSONL input goes
through ``_read``, and every other input file through ``read_input``; a
path given as ``""`` is refused, never taken for one not given.  A bad
line becomes an ``error.v1`` record and exit code 1 in a per-line stage
(``_stream``), stops a whole-input stage with a usage error naming it, and
is skipped with a note by ``report``.

Exit codes: 0 success, also when the reader closes stdout early (``head``);
1 data error; 2 usage error, which includes two outputs of one command
naming one file and an ``--out`` naming the input of a per-line stage.

Only ``train-toy`` and ``sample`` need the RL core, and it imports numpy,
which would more than double the start-up time of every other command and
add about 12 MB to its peak memory.  So its names (``train_toy_policy``, ``PolicyTable`` and the
rest of ``_RLCORE_NAMES``) are bound into this module on first use: those
two commands call ``_bind_rlcore`` first, and reading one of the names as an
attribute of the module binds them too.  Tracers such as
``perfbench/tracing.py`` wrap ``train_toy_policy`` and
``make_analyzer_reward`` by getting and setting them as attributes before
any command runs; binding never overwrites a name already set, so the
commands then call the wrappers.  The rows hold only ``cmd_*`` functions,
which look up every pipeline function here when they run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from . import __version__
from .analyzer import PROPERTIES, QualityReport, analyze, score_corpus
from .completion import RawCompletion, prompt_hint_for, truncate_completion
from .config import PipelineConfig
from .corpus import REQUIRED, CorpusRecord, check_input, decode, dump_line, iter_jsonl, read_input
from .curation import dedupe, is_golden, split_by_repository, split_manifest, subsample
from .errors import DomainError, PipelineError
from .parser import parse_focal_file
from .prompting import build_prompt
from .rewards import LabeledRecord, resample_balanced, reward_for

__all__ = ["main", "build_parser"]

def _write_lines(path: str | Path | None, lines: Iterable[str]) -> None:
    """Write each line and a newline to ``path``, or to stdout when ``path``
    is None or "-".  The lines are written as they come."""
    to_stdout = path is None or path == "-"
    with nullcontext(sys.stdout) if to_stdout else open(path, "w", encoding="utf-8") as out:
        for line in lines:
            out.write(line + "\n")


def _write_jsonl(path: str | Path | None, rows: Iterable[dict]) -> None:
    _write_lines(path, map(dump_line, rows))


def _read(path: str, handle: Callable[[dict], Any] = CorpusRecord.from_dict,
          on_bad: Callable[[int, str], Any] | None = None) -> Iterator:
    """``handle(obj)`` for each object of the JSONL file ``path``, in order,
    or ``on_bad(line_no, message)`` for a line that is not an object or on
    which ``handle`` raises a PipelineError or an OSError; None results are
    dropped.  Without ``on_bad`` a bad line is a usage error naming it.  The
    file must exist when ``_read`` is called; its lines are read lazily."""
    check_input(path)

    def items() -> Iterator:
        for line_no, obj, err in iter_jsonl(path):
            if err is None:
                try:
                    item = handle(obj)
                except (PipelineError, OSError) as exc:
                    err = str(exc)
            if err is not None:
                if on_bad is None:
                    raise DomainError(f"line {line_no}: {err}")
                item = on_bad(line_no, err)
            if item is not None:
                yield item
    return items()


# ── line-streaming commands ─────────────────────────────────────────

def _stream(args: argparse.Namespace, handle: Callable[[dict], dict | None]) -> int:
    """Write what ``_read`` gives for ``args.input`` as it reads, with each
    bad line as its ``error.v1`` record, which makes the exit code 1."""
    bad_lines = []

    def error_record(line_no: int, message: str) -> dict:
        bad_lines.append(line_no)
        return {"schema": "error.v1", "line": line_no, "error": message}

    _write_jsonl(args.out, _read(args.input, handle, error_record))
    return 1 if bad_lines else 0


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
    cfg = args.config.budget()
    trees: dict[str, Any] = {}

    def handle(obj: dict) -> dict:
        fields = decode(dict, obj, _PROMPT_FIELDS)
        path = fields["focal_path"]
        if path not in trees:
            trees[path] = parse_focal_file(read_input(path))
        return build_prompt(trees[path], fields["focal_method"], path, cfg).to_dict()
    return _stream(args, handle)


def cmd_reward(args: argparse.Namespace) -> int:
    scheme = args.config.reward_scheme(args.properties, args.strategy)
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

def cmd_report(args: argparse.Namespace) -> int:
    def skip(line_no: int, message: str) -> None:
        print(f"report: skipping line {line_no}: {message}", file=sys.stderr)

    reports = list(_read(args.input, QualityReport.from_dict, skip))
    stats = score_corpus(reports, args.config.score_config())

    width = max(len(prop.label) for prop in PROPERTIES) + 2
    print(f"{'Property':<{width}}Frequency")
    for prop in PROPERTIES:
        pct = stats.frequencies[prop.name] * 100
        print(f"{prop.label:<{width}}{pct:5.1f}%")
    print(f"\nTests analyzed: {stats.count}")
    print(f"Quality score: {stats.quality_score:.3f}")

    _write_jsonl(args.out, [stats.to_dict()])
    return 0


def cmd_resample(args: argparse.Namespace) -> int:
    labeled = list(_read(args.input, LabeledRecord.from_dict))
    balanced = resample_balanced(labeled, args.seed)
    _write_jsonl(args.out, (item.to_dict() for item in balanced))
    return 0


def cmd_split(args: argparse.Namespace) -> int:
    spec = args.config.split_spec(seed=args.seed, rl_three_way=True if args.rl else None)
    records = list(_read(args.input))
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
    records = list(_read(args.input))
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
    tokens = [line.strip() for line in read_input(path).splitlines()]
    vocab = tuple(t for t in tokens if t)
    if "</s>" not in vocab:
        raise DomainError(f"{path}: vocabulary file must include the stop token </s>")
    return vocab


def _load_policy(path: str) -> PolicyTable:
    text = read_input(path)
    try:
        return PolicyTable.from_dict(json.loads(text))
    except (ValueError, RecursionError, DomainError) as exc:  # not JSON, too deep, not a policy
        raise DomainError(f"{path}: {exc}") from None


_SEED_FIELDS = {"tokens": ([str], REQUIRED)}


def cmd_train_toy(args: argparse.Namespace) -> int:
    if args.init_policy is not None and (args.vocab_file, args.seed_corpus) != (None, None):
        flag = "--vocab-file" if args.vocab_file is not None else "--seed-corpus"
        raise ValueError(f"--init-policy and {flag} cannot be combined: "
                         "the policy file brings its own vocabulary and weights")
    _bind_rlcore()
    cfg = args.config.train_config(
        beta=args.beta,
        epsilon=args.epsilon,
        learning_rate=args.learning_rate,
        episodes=args.episodes,
        max_tokens=args.max_tokens,
        seed=args.seed,
    )
    # has_assertion only when neither the flag nor the config names properties.
    scheme = (args.config.reward_scheme(args.properties, args.strategy)
              or args.config.reward_scheme("has_assertion", args.strategy))

    if args.init_policy is not None:
        policy = _load_policy(args.init_policy)
    elif args.seed_corpus is not None:
        vocabulary = _load_vocabulary(args.vocab_file)
        def seed_tokens(obj: dict) -> list[str]:
            tokens = decode(dict, obj, _SEED_FIELDS)["tokens"]
            for token in tokens:
                if token not in vocabulary:
                    raise DomainError(f"token {token!r} not in vocabulary")
            return tokens
        token_lists = list(_read(args.seed_corpus, seed_tokens))
        policy = bigram_policy_from_corpus(token_lists, vocabulary)
    else:
        policy = PolicyTable.uniform(_load_vocabulary(args.vocab_file))

    reward_fn, report_fn = make_analyzer_reward(scheme, args.focal)
    trained, metrics = train_toy_policy(policy, reward_fn, cfg, report_fn,
                                        args.config.score_config())

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
    cfg = args.config.train_config(seed=args.seed, max_tokens=args.max_tokens)
    completions = generate_completions(policy, cfg, seed=cfg.seed, count=args.count)
    _write_jsonl(args.out, ({
        "schema": "sample.v1",
        "tokens": list(completion.tokens),
        "stopped": completion.stopped,
        "test": render_toy_test(completion.tokens, args.focal),
    } for completion in completions))
    return 0


# ── command table ───────────────────────────────────────────────────

class _Command(NamedTuple):
    name: str
    help: str
    func: Callable[[argparse.Namespace], int]
    options: tuple[tuple[str, dict], ...]  # (flag, add_argument keywords), in --help order
    outputs: tuple[str, ...] = ("out",)  # the dests of the files it writes
    streams: bool = False  # writes as it reads, so --out may not be the input
    allow_abbrev: bool = True


_INPUT = ("input", {})
_CONFIG = ("--config", {"help": "flat key=value config file"})
_OUT = ("--out", {"help": "output path (default stdout)"})
_SEED = ("--seed", {"type": int})  # no default: a --seed left out leaves the config's in force
_SEED_0 = ("--seed", {"type": int, "default": 0})  # for commands that read no config seed
_STRATEGY = ("--strategy", {"choices": ["individual", "combined"]})
_FOCAL = ("--focal", {"default": "Stop"})
_MAX_TOKENS = ("--max-tokens", {"type": int})
_IO = (_INPUT, _OUT)
_CONFIG_IO = (_INPUT, _CONFIG, _OUT)

_COMMANDS = {row.name: row for row in (
    _Command("analyze", "quality reports for corpus records", cmd_analyze, _IO, streams=True),
    _Command("report", "property frequency table for reports", cmd_report, _CONFIG_IO),
    _Command("truncate", "cut completions at test boundaries", cmd_truncate, _IO, streams=True),
    _Command("prompt", "build budgeted prompts from focal files", cmd_prompt, _CONFIG_IO,
             streams=True),
    _Command("reward", "label corpus records with rewards", cmd_reward, (
        _INPUT,
        ("--properties", {"help": "comma-separated quality properties"}),
        _STRATEGY, _CONFIG, _OUT,
    ), streams=True),
    _Command("resample", "class-balance labeled records", cmd_resample, _IO + (_SEED_0,)),
    _Command("golden", "keep only golden-quality records", cmd_golden, _IO, streams=True),
    # No abbreviations: ``--out`` would otherwise be taken for ``--out-dir``.
    _Command("split", "leakage-free repository splits", cmd_split, (
        _INPUT,
        ("--out-dir", {"required": True}),
        ("--rl", {"action": "store_true",
                  "help": "three-way sft/rm/pm partition of the training repos"}),
        ("--dedupe", {"action": "store_true"}),
        _CONFIG, _SEED,
    ), outputs=("out_dir",), allow_abbrev=False),
    _Command("subsample", "seeded random subset", cmd_subsample,
             (_INPUT, ("--n", {"type": int, "required": True}), _OUT, _SEED_0)),
    _Command("train-toy", "PPO on a tabular bigram policy", cmd_train_toy, (
        ("--properties",
         {"help": "comma-separated quality properties (default has_assertion)"}),
        _STRATEGY,
        _FOCAL,
        ("--episodes", {"type": int}),
        ("--beta", {"type": float}),
        ("--epsilon", {"type": float}),
        ("--learning-rate", {"type": float}),
        _MAX_TOKENS,
        ("--vocab-file", {}),
        ("--init-policy", {"help": "policy JSON to start from"}),
        ("--seed-corpus", {"help": "JSONL of {'tokens': [...]} for bigram init"}),
        ("--metrics", {"help": "write metrics JSONL here"}),
        _CONFIG, _OUT, _SEED,
    ), outputs=("metrics", "out")),
    _Command("sample", "draw completions from a policy", cmd_sample, (
        ("--policy", {"required": True}),
        ("--count", {"type": int, "default": 10}),
        _MAX_TOKENS, _FOCAL, _CONFIG, _OUT, _SEED,
    )),
)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tqual",
        description="Static quality analysis and RL data pipeline for generated C# tests.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for row in _COMMANDS.values():
        p = sub.add_parser(row.name, help=row.help, allow_abbrev=row.allow_abbrev)
        for flag, kwargs in row.options:
            p.add_argument(flag, **kwargs)
    return parser


def _same_file(a: str, b: str) -> bool:
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def _check_paths(args: argparse.Namespace, row: _Command) -> None:
    """Refuse two outputs of one command that name the same file, and an
    output naming the input of a command that writes while it reads."""
    outputs = [(f"--{dest.replace('_', '-')}", getattr(args, dest)) for dest in row.outputs]
    outputs = [(flag, path) for flag, path in outputs if path not in (None, "-")]
    if row.streams and Path(args.input).is_file():
        for flag, path in outputs:
            if _same_file(args.input, path):
                raise ValueError(f"{flag} {path} is the input file; it would be emptied")
    for (flag_a, a), (flag_b, b) in itertools.combinations(outputs, 2):
        if _same_file(a, b):
            raise ValueError(f"{flag_a} {a} and {flag_b} {b} name the same file")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    row = _COMMANDS[args.command]
    try:
        _check_paths(args, row)
        if _CONFIG in row.options:  # the command gets the checked settings, not the path
            args.config = (PipelineConfig.from_file(args.config) if args.config is not None
                           else PipelineConfig.empty())
        code = row.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout has stopped, as ``head`` does.  Point stdout
        # at devnull so that the interpreter's last flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (ValueError, DomainError, OSError) as exc:
        print(f"tqual: {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"tqual: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
