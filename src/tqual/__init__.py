"""Static quality analysis and RL data pipeline for generated C# unit tests.

The package covers the automatable core of a test-generation training
pipeline: a lexer and subset parser for C# test methods, seven quality
property detectors, completion truncation, budgeted prompt construction,
reward assignment, dataset curation, and a desk-scale PPO loop over a
tabular bigram policy.
"""

from .analyzer import (
    PROPERTY_FIELDS,
    CorpusStats,
    QualityReport,
    ScoreConfig,
    analyze,
    score_corpus,
)
from .completion import RawCompletion, prompt_hint_for, truncate_completion
from .corpus import CorpusRecord, iter_jsonl
from .curation import (
    SplitSpec,
    dedupe,
    is_golden,
    split_by_repository,
    split_manifest,
    subsample,
)
from .errors import (
    DomainError,
    EmptyCorpus,
    FocalNotFound,
    InsufficientData,
    LengthMismatch,
    PipelineError,
    PromptTooLong,
    TooFewRepos,
)
from .parser import check_syntax, parse_focal_file, parse_test_method
from .prompting import BudgetConfig, PromptRecord, build_prompt, estimate_tokens
from .rewards import (
    LabeledRecord,
    RewardScheme,
    resample_balanced,
    reward_for,
)

__version__ = "0.1.0"

__all__ = [
    "PROPERTY_FIELDS",
    "CorpusStats",
    "QualityReport",
    "ScoreConfig",
    "analyze",
    "score_corpus",
    "RawCompletion",
    "prompt_hint_for",
    "truncate_completion",
    "CorpusRecord",
    "iter_jsonl",
    "SplitSpec",
    "dedupe",
    "is_golden",
    "split_by_repository",
    "split_manifest",
    "subsample",
    "DomainError",
    "EmptyCorpus",
    "FocalNotFound",
    "InsufficientData",
    "LengthMismatch",
    "PipelineError",
    "PromptTooLong",
    "TooFewRepos",
    "check_syntax",
    "parse_focal_file",
    "parse_test_method",
    "BudgetConfig",
    "PromptRecord",
    "build_prompt",
    "estimate_tokens",
    "LabeledRecord",
    "RewardScheme",
    "resample_balanced",
    "reward_for",
    "__version__",
]
