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
builds it on Python floats, bit for bit as numpy would (``_nucleus``), and
stores it as a list of token indices and an ``array("d")`` cdf, so every
draw, hit or miss, is one ``bisect_right`` of one uniform.  A table stops growing
at ``DRAW_TABLE_SIZE`` entries, and greedy decoding never reads or fills
it.  The draws, and the generator's stream, are the same with or without a
table.
"""

from __future__ import annotations

import dataclasses
import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate
from operator import add
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
                table = _nucleus(policy.logits[state].tolist(), temperature,
                                 counts, frequency_penalty, top_p)
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


def _nucleus(row: list[float], temperature: float, counts: list[int],
             frequency_penalty: float, top_p: float) -> tuple[list[int], array]:
    """The nucleus of one draw from the logits ``row``: the smallest
    probability-sorted prefix of the decoding distribution with mass >=
    top_p, as its token indices and their normalised cdf, ending at exactly
    1.  It is built on Python floats with one ``np.exp`` call, and every
    float equals the one that numpy's softmax, ``argsort(kind="stable")``,
    ``cumsum`` and ``searchsorted`` give: both sums follow numpy's pairwise
    order (``_pairwise_sum``), and ``np.exp`` stays because ``math.exp``
    differs from it in the last bit on some inputs."""
    row = [x / temperature - frequency_penalty * c for x, c in zip(row, counts)]
    top = max(row)
    exps = np.exp([x - top for x in row]).tolist()
    total = _pairwise_sum(exps)
    # Each shifted term is at most 0, so the sum lies in [1, len(row)]
    # unless a term is NaN: an overflowed (inf - inf) or NaN logit.  With
    # the sum checked, no later division is by zero or by a NaN.
    if not math.isfinite(total):
        raise DomainError("next-token distribution is not finite; the logits overflowed")
    probs = [e / total for e in exps]
    order = sorted(range(len(probs)), key=probs.__getitem__, reverse=True)
    ranked = [probs[i] for i in order]
    cut = bisect_left(list(accumulate(ranked)), top_p) + 1
    kept = ranked[:cut]
    kept_total = _pairwise_sum(kept)
    cdf = list(accumulate([p / kept_total for p in kept]))
    last = cdf[-1]
    return order[:cut], array("d", [c / last for c in cdf])


def _pairwise_sum(values: list[float]) -> float:
    """``np.sum`` of non-negative ``values``, bit for bit, in numpy's
    pairwise order: left to right below 8 terms; up to 128 terms, eight
    running sums combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and
    then the tail left to right; above that, the sums of two halves split
    at half the length rounded down to a multiple of 8."""
    n = len(values)
    if n < 8:
        # Not ``sum``: from Python 3.12 it compensates for rounding.
        return reduce(add, values, 0.0)
    if n <= 128:
        whole = n - n % 8
        r = values[:8]
        for i in range(8, whole, 8):
            r = list(map(add, r, values[i:i + 8]))
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, values[whole:], total)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
