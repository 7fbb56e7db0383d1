"""Tests for the sampler building blocks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import parts
from repro.ipv6.eui64 import (
    U_BIT,
    decode_ipv4_decimal_words,
    is_eui64_iid,
)


@pytest.fixture
def gen():
    return np.random.default_rng(7)


def draw(sampler, gen, n=200, context=None):
    return [sampler(gen, {} if context is None else dict(context)) for _ in range(n)]


class TestBasicSamplers:
    def test_constant(self, gen):
        assert set(draw(parts.constant(42), gen)) == {42}

    def test_uniform_bounds(self, gen):
        values = draw(parts.uniform(2), gen, 500)
        assert all(0 <= v < 256 for v in values)
        assert len(set(values)) > 100

    def test_uniform_full_64_bits(self, gen):
        values = draw(parts.uniform(16), gen, 50)
        assert all(0 <= v < (1 << 64) for v in values)
        assert max(values) > 1 << 60  # top bits actually vary

    def test_uniform_range_inclusive(self, gen):
        values = draw(parts.uniform_range(5, 7), gen, 300)
        assert set(values) == {5, 6, 7}

    def test_uniform_range_validation(self):
        with pytest.raises(ValueError):
            parts.uniform_range(7, 5)

    def test_weighted_distribution(self, gen):
        sampler = parts.weighted([1, 2], [0.9, 0.1])
        values = draw(sampler, gen, 2000)
        assert values.count(1) > 1500

    def test_weighted_validation(self):
        with pytest.raises(ValueError):
            parts.weighted([1], [0.5, 0.5])

    def test_pool_is_deterministic(self, gen):
        a = parts.pool(10, 4, seed=3)
        b = parts.pool(10, 4, seed=3)
        assert set(draw(a, np.random.default_rng(0), 500)) == set(
            draw(b, np.random.default_rng(1), 500)
        )

    def test_pool_respects_bounds(self, gen):
        values = draw(parts.pool(50, 4, seed=1, low=0x10, high=0x20), gen)
        assert all(0x10 <= v <= 0x20 for v in values)

    def test_zipf_pool_heavy_hitters(self, gen):
        sampler = parts.zipf_pool(100, 4, seed=2, exponent=2.0)
        values = draw(sampler, gen, 2000)
        top_share = max(values.count(v) for v in set(values)) / len(values)
        assert top_share > 0.3

    def test_sequential_low_mostly_small(self, gen):
        values = draw(parts.sequential_low(1 << 20), gen, 2000)
        assert all(0 <= v < (1 << 20) for v in values)
        small = sum(1 for v in values if v < 256)
        assert small > 1000


class TestVariants:
    def test_select_stores_tag(self, gen):
        sampler = parts.select("k", [(1.0, "only", parts.constant(5))])
        context = {}
        assert sampler(gen, context) == 5
        assert context["k"] == "only"

    def test_switch_dispatches(self, gen):
        sampler = parts.switch("k", {"a": parts.constant(1),
                                     "b": parts.constant(2)})
        assert sampler(gen, {"k": "a"}) == 1
        assert sampler(gen, {"k": "b"}) == 2

    def test_switch_missing_tag(self, gen):
        with pytest.raises(KeyError):
            parts.switch("k", {"a": parts.constant(1)})(gen, {})

    def test_select_switch_correlation(self, gen):
        select = parts.select("k", [
            (0.5, "x", parts.constant(1)),
            (0.5, "y", parts.constant(2)),
        ])
        follow = parts.switch("k", {"x": parts.constant(10),
                                    "y": parts.constant(20)})
        for _ in range(100):
            context = {}
            first = select(gen, context)
            second = follow(gen, context)
            assert (first, second) in {(1, 10), (2, 20)}

    def test_mixture_weights(self, gen):
        sampler = parts.mixture([(0.95, parts.constant(1)),
                                 (0.05, parts.constant(2))])
        values = draw(sampler, gen, 1000)
        assert values.count(1) > 850

    def test_copy_field(self, gen):
        assert parts.copy_field("a")(gen, {"a": 9}) == 9


class TestIidSamplers:
    def test_privacy_iid_u_bit_cleared(self, gen):
        values = draw(parts.privacy_iid(), gen, 300)
        assert all(0 <= v < (1 << 64) for v in values)
        assert all(not (v & U_BIT) for v in values)
        assert len(set(values)) == 300  # effectively unique

    def test_eui64_iid_has_filler(self, gen):
        values = draw(parts.eui64_iid(seed=5), gen, 200)
        assert all(is_eui64_iid(v) for v in values)
        # u-bit set (universal) after the EUI-64 flip of vendor MACs.
        assert all(v & U_BIT for v in values)

    def test_eui64_custom_oui_pool(self, gen):
        values = draw(parts.eui64_iid(oui_pool=[0x001122]), gen, 50)
        assert all((v >> 40) == (0x001122 ^ 0x020000) for v in values)

    def test_point_to_point_iid(self, gen):
        values = draw(parts.point_to_point_iid((1, 2), (0.5, 0.5)), gen, 300)
        assert set(values) == {1, 2}

    def test_ipv4_decimal_words_decodable(self, gen):
        sampler = parts.ipv4_decimal_words_iid((10,), second_max=0,
                                               third_max=31)
        for value in draw(sampler, gen, 200):
            text = decode_ipv4_decimal_words(value)
            assert text is not None
            octets = [int(o) for o in text.split(".")]
            assert octets[0] == 10
            assert octets[1] == 0
            assert octets[2] <= 31

    def test_ipv4_hex_low32_bounds(self, gen):
        values = draw(parts.ipv4_hex_low32(), gen, 100)
        assert all(0 <= v < (1 << 32) for v in values)


#: Weight vectors with zero entries mixed in (at least one positive).
WEIGHTS = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e3)),
    min_size=1,
    max_size=12,
).filter(lambda w: sum(w) > 0)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
DRAWS = 25


def choice_oracle(weights, seed):
    """Indices ``Generator.choice(len(p), p=p)`` draws, and its end state."""
    p = np.asarray(weights, dtype=np.float64)
    p = p / p.sum()
    rng = np.random.default_rng(seed)
    indices = [int(rng.choice(len(p), p=p)) for _ in range(DRAWS)]
    return indices, rng.bit_generator.state


class TestChoiceOracle:
    """The precomputed-CDF samplers consume the same RNG stream as
    ``Generator.choice(p=)``: same index per draw, same final state."""

    @staticmethod
    def run(sampler, seed, context_key=None):
        rng = np.random.default_rng(seed)
        drawn = []
        for _ in range(DRAWS):
            context = {}
            drawn.append(sampler(rng, context))
            if context_key is not None:
                assert context[context_key] == drawn[-1]
        return drawn, rng.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(WEIGHTS, SEEDS)
    def test_weighted_matches_choice(self, weights, seed):
        sampler = parts.weighted(list(range(len(weights))), weights)
        assert self.run(sampler, seed) == choice_oracle(weights, seed)

    @settings(max_examples=60, deadline=None)
    @given(WEIGHTS, SEEDS)
    def test_select_matches_choice(self, weights, seed):
        sampler = parts.select(
            "tag", [(w, i, parts.constant(i)) for i, w in enumerate(weights)]
        )
        assert self.run(sampler, seed, "tag") == choice_oracle(weights, seed)

    @settings(max_examples=60, deadline=None)
    @given(WEIGHTS, SEEDS)
    def test_mixture_matches_choice(self, weights, seed):
        sampler = parts.mixture(
            [(w, parts.constant(i)) for i, w in enumerate(weights)]
        )
        assert self.run(sampler, seed) == choice_oracle(weights, seed)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=200),
        st.floats(min_value=0.1, max_value=3.0),
        SEEDS,
    )
    def test_zipf_pool_matches_choice(self, size, exponent, seed):
        sampler = parts.zipf_pool(size, 4, seed=3, exponent=exponent)
        values = np.random.default_rng(3).integers(
            0, 16**4, size=size, dtype=np.uint64
        )
        indices, state = choice_oracle(
            np.arange(1, size + 1, dtype=np.float64) ** (-exponent), seed
        )
        expected = [int(values[i]) for i in indices]
        assert self.run(sampler, seed) == (expected, state)


BAD_WEIGHTS = {
    "negative": [0.5, -0.1, 0.6],
    "nan": [0.5, math.nan, 0.5],
    "all_zero": [0.0, 0.0, 0.0],
}
WEIGHTED_BUILDERS = {
    "weighted": lambda w: parts.weighted(list(range(len(w))), w),
    "select": lambda w: parts.select(
        "k", [(x, i, parts.constant(i)) for i, x in enumerate(w)]
    ),
    "mixture": lambda w: parts.mixture(
        [(x, parts.constant(i)) for i, x in enumerate(w)]
    ),
}


class TestWeightValidation:
    """``choice``'s check on ``p`` runs once, when the sampler is built."""

    @pytest.mark.parametrize("builder", sorted(WEIGHTED_BUILDERS))
    @pytest.mark.parametrize("bad", sorted(BAD_WEIGHTS))
    def test_bad_weights_fail_at_construction(self, builder, bad):
        with pytest.raises(ValueError):
            WEIGHTED_BUILDERS[builder](BAD_WEIGHTS[bad])

    def test_zipf_pool_bad_exponent_fails_at_construction(self):
        with pytest.raises(ValueError):
            parts.zipf_pool(4, 2, seed=0, exponent=math.nan)
