"""Tabular bigram policy over a small token vocabulary.

A policy is a logits matrix: row i is the unnormalised next-token
distribution after token i.  Completions start from the stop-token row and
end when the stop token is drawn again.  A frozen copy of the logits serves
as the pre-training reference for the KL penalty.

One softmax, one log-softmax and one KL formula reduce over the last axis,
so they serve a single row (``log_probs``, ``kl_from_reference``) and the
whole table at once (``log_prob_table``, ``kl_table``) with the same
arithmetic: row ``s`` of a table equals the row call for ``s`` bit for bit.

Sampling applies the decoding pipeline in a fixed order: temperature
scaling, then a per-completion frequency penalty, then nucleus truncation.
The sampler reads its four settings (``max_tokens``, ``temperature``,
``top_p``, ``frequency_penalty``) from a ``TrainConfig``, which has already
range-checked them, so it checks none of them again.  A temperature at or
below ``1e-8`` decodes greedily.  The log-probabilities used for
policy-gradient ratios come from the plain softmax of the logits; the
decoding settings shape exploration only.

Under fixed weights and settings, a draw's nucleus (the kept token indices and
their cdf) depends only on the current state and the completion's token
counts.  A caller that samples many completions from a frozen policy passes
one draw-table dict to every ``sample_completion`` call: it maps
``(state, *counts)`` to that pair, so each nucleus is built once.  A miss
builds it with numpy from one sort of the row and stores it as a list of
token indices and an ``array("d")`` cdf copied from the cdf's bytes, so
every draw, hit or miss, is one ``bisect_right`` of one uniform with no
numpy call.  A table stops growing at ``DRAW_TABLE_SIZE`` entries, and
greedy decoding never reads or fills it.  The draws, and the generator's
stream, are the same with or without a table.
"""

from __future__ import annotations

import dataclasses
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..config import TrainConfig
from ..corpus import REQUIRED, decode, encode
from ..errors import DomainError

__all__ = ["PolicyTable", "SampledCompletion", "sample_completion"]

# Most nucleus tables one draw-table dict holds; past it, misses are built
# and used but not stored.
DRAW_TABLE_SIZE = 512

# (state, *token counts) -> (kept token indices, their cdf).
DrawTable = dict[tuple[int, ...], tuple[list[int], array]]

# Below this temperature the softmax is numerically a point mass; decode
# greedily instead of dividing by ~0.
_GREEDY_TEMPERATURE = 1e-8


@dataclass
class PolicyTable:
    """The constructor is the one check of a vocabulary: not empty, no
    repeated token, and the stop token in it."""

    vocabulary: tuple[str, ...]
    logits: np.ndarray
    ref_logits: np.ndarray
    stop_token: str = "</s>"
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.vocabulary = tuple(self.vocabulary)
        self.logits = np.asarray(self.logits, dtype=float)
        self.ref_logits = np.asarray(self.ref_logits, dtype=float)
        self._index = {tok: i for i, tok in enumerate(self.vocabulary)}
        size = len(self.vocabulary)
        if size == 0:
            raise DomainError("vocabulary is empty")
        if len(self._index) != size:
            raise DomainError("vocabulary contains duplicate tokens")
        if self.stop_token not in self._index:
            raise DomainError(f"stop token {self.stop_token!r} not in vocabulary")
        for name, table in (("logits", self.logits), ("ref_logits", self.ref_logits)):
            if table.shape != (size, size):
                raise DomainError(
                    f"{name} shape {table.shape} does not match vocabulary size {size}"
                )
            if not np.all(np.isfinite(table)):
                raise DomainError(f"{name} contains non-finite values")

    # ── construction ────────────────────────────────────────────────

    @classmethod
    def uniform(cls, vocabulary: tuple[str, ...] | list[str], stop_token: str = "</s>") -> "PolicyTable":
        """All-zero logits: every row is the uniform distribution."""
        size = len(vocabulary)
        return cls(
            vocabulary=tuple(vocabulary),
            logits=np.zeros((size, size)),
            ref_logits=np.zeros((size, size)),
            stop_token=stop_token,
        )

    def copy(self) -> "PolicyTable":
        return dataclasses.replace(self, logits=self.logits.copy(),
                                   ref_logits=self.ref_logits.copy())

    # ── lookups ─────────────────────────────────────────────────────

    @property
    def size(self) -> int:
        return len(self.vocabulary)

    @property
    def stop_index(self) -> int:
        return self._index[self.stop_token]

    def token_index(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise DomainError(f"token {token!r} not in vocabulary") from None

    # ── distributions ───────────────────────────────────────────────

    def log_probs(self, state: int) -> np.ndarray:
        return _log_softmax(self.logits[state])

    def log_prob_table(self) -> np.ndarray:
        """Every row's log-probabilities; row ``s`` equals ``log_probs(s)``."""
        return _log_softmax(self.logits)

    def kl_from_reference(self, state: int) -> float:
        """KL(reference row || current row)."""
        return float(_kl(self.ref_logits[state], self.logits[state]))

    def kl_table(self) -> np.ndarray:
        """Every row's KL from the reference; entry ``s`` equals
        ``kl_from_reference(s)``."""
        return _kl(self.ref_logits, self.logits)

    def refreeze_reference(self) -> None:
        """Make the current weights the new KL anchor."""
        self.ref_logits = self.logits.copy()

    # ── serialization ───────────────────────────────────────────────

    def to_dict(self) -> dict[str, Any]:
        return encode(self, "policy.v1")

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "PolicyTable":
        return decode(cls, payload, {
            "vocabulary": ([str], REQUIRED),
            "logits": ([[float]], REQUIRED),
            "ref_logits": ([[float]], REQUIRED),
            "stop_token": (str, REQUIRED),
        }, schema="policy.v1")


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)

def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

def _kl(ref_logits: np.ndarray, logits: np.ndarray) -> np.ndarray:
    """KL(softmax(ref_logits) || softmax(logits)) over the last axis.
    Softmax rows are strictly positive, so no zero-mass handling is needed;
    nearly equal rows can round the sum just below zero, so it is clamped."""
    log_p = _log_softmax(ref_logits)
    kl = np.sum(_softmax(ref_logits) * (log_p - _log_softmax(logits)), axis=-1)
    return np.maximum(kl, 0.0)


@dataclass(frozen=True)
class SampledCompletion:
    """One decoded completion with its state/action trace.

    ``tokens`` excludes the terminating stop token; the trace includes the
    stop decision so the trainer can credit it.
    """

    tokens: tuple[str, ...]
    states: tuple[int, ...]
    actions: tuple[int, ...]
    stopped: bool


def sample_completion(
    policy: PolicyTable,
    rng: np.random.Generator,
    cfg: TrainConfig,
    tables: DrawTable | None = None,
) -> SampledCompletion:
    """Decode one completion with the decoding settings of ``cfg``
    (``max_tokens``, ``temperature``, ``top_p``, ``frequency_penalty``),
    which ``TrainConfig`` has range-checked.  ``tables`` is a draw table
    shared by calls that sample ``policy`` with the same weights and
    settings (see the module docstring); without one, each nucleus is built
    for its draw alone."""
    temperature, top_p, frequency_penalty = cfg.temperature, cfg.top_p, cfg.frequency_penalty
    stop, vocabulary = policy.stop_index, policy.vocabulary
    counts = [0] * len(vocabulary)
    state = stop
    tokens: list[str] = []
    states: list[int] = []
    actions: list[int] = []
    stopped = False
    greedy = temperature <= _GREEDY_TEMPERATURE
    if tables is None:
        tables = {}

    for _ in range(cfg.max_tokens):
        if greedy:
            penalties = frequency_penalty * np.array(counts, dtype=float)
            action = int(np.argmax(policy.logits[state] - penalties))
        else:
            key = (state, *counts)
            table = tables.get(key)
            if table is None:
                adjusted = (policy.logits[state] / temperature
                            - frequency_penalty * np.array(counts, dtype=float))
                keep, cdf = _nucleus_table(_softmax(adjusted), top_p)
                table = keep.tolist(), array("d", cdf.tobytes())
                if len(tables) < DRAW_TABLE_SIZE:
                    tables[key] = table
            keep, cdf = table
            action = keep[bisect_right(cdf, rng.random())]

        states.append(state)
        actions.append(action)
        if action == stop:
            stopped = True
            break
        tokens.append(vocabulary[action])
        counts[action] += 1
        state = action

    return SampledCompletion(
        tokens=tuple(tokens),
        states=tuple(states),
        actions=tuple(actions),
        stopped=stopped,
    )


def _nucleus_table(probs: np.ndarray, top_p: float) -> tuple[np.ndarray, np.ndarray]:
    """The smallest probability-sorted prefix with mass >= top_p: its token
    indices and their normalised cdf, ending at exactly 1.  For one uniform
    ``u``, ``keep[cdf.searchsorted(u, side="right")]`` is the index that
    ``rng.choice`` draws from the same nucleus with that uniform, and
    ``bisect_right`` on the cdf's floats finds the same position."""
    order = (-probs).argsort(kind="stable")
    ranked = probs[order]
    cut = int(ranked.cumsum().searchsorted(top_p, side="left")) + 1
    kept = ranked[:cut]
    cdf = (kept / kept.sum()).cumsum()
    if not math.isfinite(cdf[-1]):
        raise DomainError("next-token distribution is not finite; the logits overflowed")
    cdf /= cdf[-1]
    return order[:cut], cdf

