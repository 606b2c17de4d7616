"""Policy table tests: distributions, decoding pipeline, serialization."""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqual.config import TrainConfig
from tqual.errors import DomainError
from tqual.rlcore import policy as policy_module
from tqual.rlcore.policy import (
    DRAW_TABLE_SIZE,
    PolicyTable,
    SampledCompletion,
    _nucleus,
    _pairwise_sum,
    sample_completion,
)

VOCAB = ("</s>", "Assert", "(", ")", ";", "x")


def uniform() -> PolicyTable:
    return PolicyTable.uniform(VOCAB)


def draw(policy, seed=0, **overrides):
    params = dict(max_tokens=8, temperature=0.7, top_p=1.0, frequency_penalty=0.5)
    params.update(overrides)
    return sample_completion(policy, np.random.default_rng(seed), TrainConfig(**params))


# ── table construction and lookups ───────────────────────────────────


def test_uniform_rows_are_uniform_distributions():
    policy = uniform()
    for state in range(policy.size):
        log_probs = policy.log_probs(state)
        assert np.exp(log_probs) == pytest.approx(np.full(policy.size, 1 / policy.size))
        assert log_probs == pytest.approx(np.full(policy.size, -np.log(policy.size)))


def test_stop_index_and_token_lookup():
    policy = uniform()
    assert policy.stop_index == 0
    assert policy.token_index("Assert") == 1
    with pytest.raises(DomainError):
        policy.token_index("missing")


def test_validation_rejects_bad_tables():
    with pytest.raises(DomainError):
        PolicyTable.uniform(())
    with pytest.raises(DomainError):
        PolicyTable.uniform(("</s>", "x", "x"))
    with pytest.raises(DomainError):
        PolicyTable.uniform(("a", "b"))  # no stop token
    with pytest.raises(DomainError):
        PolicyTable(
            vocabulary=VOCAB,
            logits=np.zeros((2, 2)),
            ref_logits=np.zeros((len(VOCAB), len(VOCAB))),
        )
    bad = np.zeros((len(VOCAB), len(VOCAB)))
    bad[0, 0] = np.inf
    with pytest.raises(DomainError):
        PolicyTable(vocabulary=VOCAB, logits=bad, ref_logits=np.zeros_like(bad))


def test_copy_is_independent():
    policy = uniform()
    clone = policy.copy()
    clone.logits[0, 1] = 5.0
    assert policy.logits[0, 1] == 0.0


def test_kl_from_reference_zero_then_positive():
    policy = uniform()
    assert policy.kl_from_reference(0) == pytest.approx(0.0)
    policy.logits[0, 1] = 2.0
    assert policy.kl_from_reference(0) > 0
    policy.refreeze_reference()
    assert policy.kl_from_reference(0) == pytest.approx(0.0)


@st.composite
def _logit_pairs(draw):
    """Finite ``(logits, ref_logits)`` of one size in 1..60 and scale up to
    1e3.  Rounding to whole numbers gives rows with tied entries; the
    reference is the same table, a copy nudged by a few ulps (where the KL
    sum rounds near zero) or an independent table."""
    size = draw(st.integers(min_value=1, max_value=60))
    scale = draw(st.floats(min_value=0.0, max_value=1e3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    logits = rng.normal(size=(size, size)) * scale
    if draw(st.booleans()):
        logits = np.round(logits)
    reference = draw(st.sampled_from(["same", "nudged", "independent"]))
    if reference == "same":
        ref_logits = logits.copy()
    elif reference == "nudged":
        ref_logits = logits + rng.normal(size=(size, size)) * 1e-15
    else:
        ref_logits = rng.normal(size=(size, size)) * scale
    return logits, ref_logits


@given(_logit_pairs())
@settings(max_examples=300, deadline=None)
def test_tables_equal_their_rows_bit_for_bit(pair):
    logits, ref_logits = pair
    size = len(logits)
    policy = PolicyTable(
        vocabulary=("</s>",) + tuple(f"t{i}" for i in range(1, size)),
        logits=logits,
        ref_logits=ref_logits,
    )
    log_probs, kl = policy.log_prob_table(), policy.kl_table()
    assert log_probs.shape == (size, size) and kl.shape == (size,)
    for state in range(size):
        assert np.array_equal(log_probs[state], policy.log_probs(state))
        assert kl[state] == policy.kl_from_reference(state)
    assert np.all(kl >= 0.0)


def test_dict_round_trip():
    policy = uniform()
    policy.logits[2, 3] = 1.5
    data = policy.to_dict()
    assert data["schema"] == "policy.v1"
    back = PolicyTable.from_dict(data)
    assert back.vocabulary == policy.vocabulary
    assert np.array_equal(back.logits, policy.logits)
    with pytest.raises(DomainError):
        PolicyTable.from_dict({"schema": "policy.v2"})


@pytest.mark.parametrize("key", ["vocabulary", "logits", "ref_logits", "stop_token"])
def test_policy_from_dict_names_a_missing_key(key):
    data = uniform().to_dict()
    del data[key]
    with pytest.raises(DomainError, match=f"'{key}' field"):
        PolicyTable.from_dict(data)


# ── sampling ─────────────────────────────────────────────────────────


def test_sampling_is_deterministic_per_seed():
    policy = uniform()
    a = draw(policy, seed=42)
    b = draw(policy, seed=42)
    c = draw(policy, seed=43)
    assert a == b
    assert (a.tokens, a.actions) != (c.tokens, c.actions) or a == c


def test_trace_includes_stop_decision():
    policy = uniform()
    # Make every row deterministic: always emit token 5, except from
    # token 5 emit stop.
    policy.logits[:, 5] = 50.0
    policy.logits[5] = 0.0
    policy.logits[5, 0] = 50.0
    out = draw(policy, temperature=1.0, frequency_penalty=0.0)
    assert out.stopped
    assert out.tokens == ("x",)
    assert out.states == (0, 5)
    assert out.actions == (5, 0)
    assert " ".join(out.tokens) == "x"


def test_max_tokens_bounds_generation():
    policy = uniform()
    policy.logits[:, 5] = 50.0  # never stops on its own
    out = draw(policy, max_tokens=4, temperature=1.0, frequency_penalty=0.0)
    assert not out.stopped
    assert len(out.tokens) == 4


def test_near_zero_temperature_decodes_greedily_with_index_ties():
    policy = uniform()
    # All logits equal: argmax must take the lowest index, the stop token.
    out = draw(policy, temperature=1e-9, frequency_penalty=0.0)
    assert out.tokens == ()
    assert out.stopped

    policy.logits[0, 3] = 1.0
    policy.logits[3, 0] = 1.0
    out = draw(policy, temperature=1e-9, frequency_penalty=0.0)
    assert out.tokens == (")",)


def test_frequency_penalty_lowers_repeat_probability():
    policy = uniform()
    policy.logits[5, 5] = 3.0  # strong self-loop on "x"

    def prob_of_x_after_x(penalty: float) -> float:
        row = policy.logits[5] / 0.7 - penalty * np.eye(policy.size)[5] * 1.0
        exp = np.exp(row - row.max())
        return float(exp[5] / exp.sum())

    assert prob_of_x_after_x(0.5) < prob_of_x_after_x(0.0)


def test_frequency_penalty_changes_sampled_stream():
    policy = uniform()
    policy.logits[:, 5] = 4.0
    policy.logits[:, 0] = 3.9
    heavy = [
        draw(policy, seed=s, frequency_penalty=2.5, max_tokens=6).tokens
        for s in range(40)
    ]
    free = [
        draw(policy, seed=s, frequency_penalty=0.0, max_tokens=6).tokens
        for s in range(40)
    ]
    mean_run = lambda seqs: np.mean([len(t) for t in seqs])
    # Penalizing the repeated favorite shortens runs of it.
    assert mean_run(heavy) < mean_run(free)


def test_top_p_one_keeps_the_full_distribution():
    policy = uniform()
    seen = set()
    for seed in range(200):
        out = draw(policy, seed=seed, top_p=1.0, max_tokens=1, frequency_penalty=0.0)
        seen.add(out.actions[0])
    assert seen == set(range(policy.size))


def test_small_top_p_restricts_to_the_nucleus():
    policy = uniform()
    policy.logits[0, 5] = 5.0  # "x" dominates the start row
    for seed in range(100):
        out = draw(policy, seed=seed, top_p=0.5, max_tokens=1, frequency_penalty=0.0)
        assert out.actions[0] == 5


def test_sampling_parameter_validation():
    # The sampler reads its settings from a TrainConfig, which checks them.
    with pytest.raises(DomainError):
        TrainConfig(max_tokens=0, temperature=1.0, top_p=1.0, frequency_penalty=0.0)
    with pytest.raises(DomainError):
        TrainConfig(max_tokens=1, temperature=-1.0, top_p=1.0, frequency_penalty=0.0)
    with pytest.raises(DomainError):
        TrainConfig(max_tokens=1, temperature=1.0, top_p=0.0, frequency_penalty=0.0)
    with pytest.raises(DomainError):
        TrainConfig(max_tokens=1, temperature=1.0, top_p=1.0, frequency_penalty=-0.5)


@pytest.mark.parametrize("knob", ["temperature", "frequency_penalty"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_sampling_rejects_non_finite_knobs(knob, value):
    with pytest.raises(DomainError, match=f"{knob} must be finite"):
        TrainConfig(**{knob: value})


def test_overflowing_logits_are_a_domain_error():
    policy = uniform()
    policy.logits[0, 1] = 1e305
    # Dividing by the temperature overflows the row to inf, so the softmax
    # turns to NaN; the draw must refuse it rather than return an index.
    with pytest.raises(DomainError, match="not finite"):
        draw(policy, temperature=1e-7)
    with pytest.raises(DomainError, match="not finite"):
        _nucleus([math.nan] * 4, 1.0, [0] * 4, 0.0, 1.0)


@pytest.mark.parametrize("row", [
    [1e305, 0.0, -1.0],  # inf after scaling: inf - inf
    [0.0, -1.0, 1e305],
    [1e305, 1e305, 1e305],
    [-1e305, -1e305, -1e305],  # all -inf: -inf - -inf
    [math.nan, 0.0, 1.0],  # a NaN first, where max() returns it
    [0.0, math.nan, 1.0],  # and later, where max() passes over it
])
@pytest.mark.parametrize("frequency_penalty", [0.0, 0.5])
def test_a_non_finite_distribution_is_a_domain_error_from_the_kernel(row, frequency_penalty):
    # Never a ZeroDivisionError or OverflowError from the float arithmetic,
    # and never a nucleus; the numpy path refused each of these too.
    with pytest.raises(DomainError, match="not finite"):
        _nucleus(row, 1e-7, [1, 0, 2], frequency_penalty, 1.0)
    with np.errstate(all="ignore"), pytest.raises(DomainError, match="not finite"):
        _numpy_nucleus(row, 1e-7, [1, 0, 2], frequency_penalty, 1.0)


# ── the float kernel against the numpy miss path it replaced ─────────


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


def _numpy_probs(row, temperature, counts, frequency_penalty):
    """The decoding distribution as numpy built it: temperature, penalty
    and softmax."""
    adjusted = (np.asarray(row, dtype=float) / temperature
                - frequency_penalty * np.asarray(counts, dtype=float))
    return policy_module._softmax(adjusted)


def _numpy_nucleus(row, temperature, counts, frequency_penalty, top_p):
    """A draw-table miss as numpy built it before the float kernel."""
    return _nucleus_table(_numpy_probs(row, temperature, counts, frequency_penalty), top_p)


def _assert_kernel_matches_numpy(row, temperature, counts, frequency_penalty, top_p):
    """The same token list and cdf bytes, or the same refusal.  Returns
    whether a nucleus was built."""
    try:
        with np.errstate(all="ignore"):
            keep, cdf = _numpy_nucleus(row, temperature, counts, frequency_penalty, top_p)
    except DomainError:
        with pytest.raises(DomainError, match="not finite"):
            _nucleus(row, temperature, counts, frequency_penalty, top_p)
        return False
    tokens, floats = _nucleus(row, temperature, counts, frequency_penalty, top_p)
    assert tokens == keep.tolist()
    assert floats.tobytes() == cdf.tobytes()
    return True


def _miss_rows(source: np.random.Generator, width: int):
    """Spread, rounded (tied), uniform, one-hot (+30) and large-magnitude
    logits rows; the last overflow at small temperatures."""
    yield source.normal(0.0, 3.0, width)
    yield np.round(source.normal(0.0, 3.0, width))
    yield np.zeros(width)
    one_hot = source.normal(0.0, 3.0, width)
    one_hot[int(source.integers(width))] += 30.0
    yield one_hot
    yield source.normal(0.0, 1.0, width) * 10.0 ** float(source.choice([3, 30, 300, 307]))


def test_the_kernel_builds_what_the_numpy_path_built():
    # Widths past 128 take numpy's pairwise split; 8, 16 and 128 are the
    # edges of its blocks.
    source = np.random.default_rng(34)
    built = refused = 0
    for width in (*range(1, 41), 63, 64, 120, 127, 128, 129, 136, 200):
        for row in _miss_rows(source, width):
            for frequency_penalty in (0.0, 0.5, float(source.uniform(0.0, 5.0))):
                for counts in ([0] * width, source.integers(0, 17, width).tolist()):
                    temperature = float(source.uniform(0.05, 2.0))
                    top_p = 1.0 if source.random() < 0.5 else 1.0 - float(source.random())
                    if _assert_kernel_matches_numpy(row.tolist(), temperature, counts,
                                                    frequency_penalty, top_p):
                        built += 1
                    else:
                        refused += 1
    assert built > 1200 and refused > 0


@st.composite
def _miss_cases(draw):
    """One draw-table miss: a row 1 to 200 wide in one of ``_miss_rows``'
    styles, counts 0 to 16 (all zero half the time), a penalty of 0, 0.5 or
    any in [0, 10], a temperature in [0.05, 2] and top_p in (0, 1]."""
    width = draw(st.integers(min_value=1, max_value=200))
    source = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rows = list(_miss_rows(source, width))
    row = rows[draw(st.integers(min_value=0, max_value=len(rows) - 1))]
    counts = ([0] * width if draw(st.booleans())
              else source.integers(0, 17, width).tolist())
    frequency_penalty = draw(st.sampled_from([0.0, 0.5])
                             | st.floats(min_value=0.0, max_value=10.0))
    temperature = draw(st.floats(min_value=0.05, max_value=2.0))
    top_p = draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    return row.tolist(), temperature, counts, frequency_penalty, top_p


@given(_miss_cases())
@settings(max_examples=400, deadline=None)
def test_the_kernel_matches_the_numpy_path_on_any_miss(case):
    _assert_kernel_matches_numpy(*case)


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=400))
@settings(max_examples=300, deadline=None)
def test_pairwise_sum_is_numpys_sum(values):
    assert _pairwise_sum(values) == np.sum(np.array(values))


# ── the nucleus draw against rng.choice ──────────────────────────────
#
# The chain: ``rng.choice`` draws what the per-draw nucleus draws, and the
# table-backed sampler draws what the per-draw sampler built on it draws.


def _per_draw_nucleus(probs, top_p, rng):
    """The nucleus draw as it was before draw tables: built on every draw."""
    keep, cdf = _nucleus_table(probs, top_p)
    return int(keep[cdf.searchsorted(rng.random(), side="right")])


def _choice_draw(probs: np.ndarray, top_p: float, rng: np.random.Generator) -> int:
    """The nucleus draw as ``rng.choice`` makes it, with the same top-p cut."""
    order = np.argsort(-probs, kind="stable")
    cumulative = np.cumsum(probs[order])
    cut = int(np.searchsorted(cumulative, top_p, side="left")) + 1
    keep = order[: min(cut, len(order))]
    kept = probs[keep]
    return int(keep[rng.choice(len(keep), p=kept / kept.sum())])


def _rows(source: np.random.Generator):
    """Seeded distributions 1 to 50 wide: spread, rounded (tied), uniform
    and one-hot-like rows, each with a full and a cut nucleus."""
    for width in range(1, 51):
        for trial in range(40):
            logits = source.normal(0.0, 3.0, width)
            if trial % 4 == 1:
                logits = np.round(logits)
            elif trial % 4 == 2:
                logits = np.zeros(width)
            elif trial % 4 == 3:
                logits[int(source.integers(width))] += 30.0
            exp = np.exp(logits - logits.max())
            probs = exp / exp.sum()
            top_p = 1.0 if trial % 2 else float(source.uniform(0.0, 1.0)) or 0.5
            yield probs, top_p
        # Cuts that land exactly on a tie boundary of a uniform row.
        yield np.full(width, 1.0 / width), 0.5


def test_nucleus_draw_matches_rng_choice_and_its_stream():
    ours = np.random.default_rng(20231004)
    reference = np.random.default_rng(20231004)
    draws = 0
    for probs, top_p in _rows(np.random.default_rng(7)):
        assert _per_draw_nucleus(probs, top_p, ours) == _choice_draw(probs, top_p, reference)
        assert ours.bit_generator.state == reference.bit_generator.state
        draws += 1
    assert draws == 50 * 41


def _probe_uniforms(cdf: np.ndarray, source: np.random.Generator):
    """0.0, every cdf entry exactly, the float on each side of each entry,
    and seeded uniforms."""
    yield 0.0
    for entry in cdf.tolist():
        yield entry
        yield math.nextafter(entry, -math.inf)
        yield math.nextafter(entry, math.inf)
    yield from source.random(16).tolist()


def test_bisect_on_the_stored_cdf_draws_what_searchsorted_draws():
    # A draw table stores a nucleus as a token list and an array("d") cdf,
    # and a draw is one bisect_right on it.  Its position equals numpy's
    # searchsorted for every probe, and for every probe the generator can
    # return, [0, 1), so does the token drawn.
    source = np.random.default_rng(31)
    probes = 0
    for probs, top_p in _rows(np.random.default_rng(7)):
        keep, cdf = _nucleus_table(probs, top_p)
        tokens, floats = keep.tolist(), array("d", cdf)
        for u in _probe_uniforms(cdf, source):
            position = bisect_right(floats, u)
            assert position == int(cdf.searchsorted(u, side="right"))
            if u < 1.0:
                assert tokens[position] == int(keep[cdf.searchsorted(u, side="right")])
                probes += 1
    assert probes > 50 * 41 * 16


class _Uniforms:
    """A stand-in generator whose ``random()`` returns the given values."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self) -> float:
        return next(self._values)


def test_the_sampler_draws_at_each_probe_what_searchsorted_draws():
    # A uniform exactly on a cdf entry is where a right and a left bisection
    # part, and a generator almost never returns one, so the probes are fed
    # to the sampler's first draw directly.
    for policy, temperature in ((uniform(), 1.0),
                                (_random_policy(np.random.default_rng(11), 12), 0.7)):
        cfg = TrainConfig(max_tokens=1, temperature=temperature, top_p=1.0,
                          frequency_penalty=0.0)
        first = policy.logits[policy.stop_index] / temperature
        keep, cdf = _nucleus_table(policy_module._softmax(first), 1.0)
        for u in _probe_uniforms(cdf, np.random.default_rng(5)):
            if u < 1.0:
                got = sample_completion(policy, _Uniforms([u]), cfg, tables={})
                assert got.actions == (int(keep[cdf.searchsorted(u, side="right")]),)


def test_a_draw_table_maps_state_and_counts_to_a_token_list_and_a_float_array():
    policy = uniform()
    cfg = TrainConfig(max_tokens=8, temperature=0.7, top_p=0.9, frequency_penalty=0.5)
    rng = np.random.default_rng(1)
    tables: dict = {}
    for _ in range(20):
        sample_completion(policy, rng, cfg, tables=tables)
    assert tables
    for key, (tokens, cdf) in tables.items():
        assert len(key) == 1 + policy.size
        assert all(type(part) is int for part in key)
        assert tokens and all(type(token) is int for token in tokens)
        assert isinstance(cdf, array) and cdf.typecode == "d"
        assert len(cdf) == len(tokens) and cdf[-1] == 1.0


# ── the draw table against the per-draw loop it replaced ─────────────


def _per_draw_sample(policy, rng, *, max_tokens, temperature, top_p, frequency_penalty):
    """``sample_completion`` as it was before draw tables (argument checks
    left out): temperature, penalty, softmax and nucleus on every draw."""
    counts = np.zeros(policy.size)
    state = policy.stop_index
    tokens, states, actions = [], [], []
    stopped = False
    for _ in range(max_tokens):
        row = policy.logits[state]
        if temperature <= 1e-8:
            action = int(np.argmax(row - frequency_penalty * counts))
        else:
            probs = _numpy_probs(row, temperature, counts, frequency_penalty)
            action = _per_draw_nucleus(probs, top_p, rng)
        states.append(state)
        actions.append(action)
        if action == policy.stop_index:
            stopped = True
            break
        tokens.append(policy.vocabulary[action])
        counts[action] += 1.0
        state = action
    return SampledCompletion(tuple(tokens), tuple(states), tuple(actions), stopped)


def _random_policy(source, size):
    """A seeded policy ``size`` tokens wide: spread, tied (rounded) or
    uniform rows, with a stop column strong enough to end completions."""
    vocabulary = ("</s>",) + tuple(f"t{i}" for i in range(1, size))
    logits = source.normal(0.0, 2.0, (size, size))
    style = int(source.integers(3))
    if style == 1:
        logits = np.round(logits)
    elif style == 2:
        logits = np.zeros((size, size))
    logits[:, 0] += float(source.uniform(0.0, 2.0))
    return PolicyTable(vocabulary=vocabulary, logits=logits, ref_logits=logits.copy())


def _knob_cases():
    source = np.random.default_rng(2020)
    temperatures = (1e-9, 0.3, 0.7, 1.0, 1.3, 2.5)
    penalties = (0.0, 0.5, 1.7)
    for case in range(24):
        size = int(source.integers(2, 51))
        knobs = dict(
            max_tokens=int(source.integers(1, 13)),
            temperature=temperatures[case % len(temperatures)],
            top_p=1.0 if case % 3 == 0 else float(1.0 - source.uniform(0.0, 1.0)),
            frequency_penalty=penalties[case % len(penalties)],
        )
        yield _random_policy(source, size), knobs


def _assert_table_matches_per_draw(policy, knobs, seed, completions=200):
    ours = np.random.default_rng(seed)
    reference = np.random.default_rng(seed)
    tables = {}
    for _ in range(completions):
        got = sample_completion(policy, ours, TrainConfig(**knobs), tables=tables)
        assert got == _per_draw_sample(policy, reference, **knobs)
        assert ours.bit_generator.state == reference.bit_generator.state
        assert len(tables) <= DRAW_TABLE_SIZE
    return tables


@pytest.mark.parametrize("case", range(24))
def test_draw_table_matches_the_per_draw_loop(case):
    policy, knobs = list(_knob_cases())[case]
    tables = _assert_table_matches_per_draw(policy, knobs, seed=case)
    if knobs["temperature"] <= 1e-8:
        assert tables == {}


def test_draw_table_matches_the_per_draw_loop_past_its_cap():
    # Fifty tokens, flat rows and a penalty give thousands of distinct
    # (state, counts) keys, so the table fills and later misses go unstored.
    source = np.random.default_rng(99)
    policy = _random_policy(source, 50)
    policy.logits[:, 0] -= 3.0
    knobs = dict(max_tokens=40, temperature=1.1, top_p=0.95, frequency_penalty=0.4)
    tables = _assert_table_matches_per_draw(policy, knobs, seed=5)
    assert len(tables) == DRAW_TABLE_SIZE


def test_a_full_table_still_matches_with_a_small_cap(monkeypatch):
    monkeypatch.setattr(policy_module, "DRAW_TABLE_SIZE", 3)
    source = np.random.default_rng(3)
    policy = _random_policy(source, 12)
    knobs = dict(max_tokens=12, temperature=0.8, top_p=0.9, frequency_penalty=0.5)
    tables = _assert_table_matches_per_draw(policy, knobs, seed=8)
    assert len(tables) == 3
