import random
from math import gcd

import pytest

from helpers import naive_wgcd, time_limit
from wgcd import bench, gcd_many, valuation
from wgcd.bench import MODES, GenSpec, generate, known_answer_tuple
from wgcd.core import (
    WeightedTuple,
    weighted_gcd,
    wgcd_auto,
)


def spec(mode, weights, seed=0, d_bits=6, cofactor_bits=6):
    return GenSpec(
        seed=seed,
        weights=weights,
        d_bits=d_bits,
        cofactor_bits=cofactor_bits,
        mode=mode,
    )


class TestGenSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GenSpec(0, (2, 3), 0, 4, "known-answer")
        with pytest.raises(ValueError):
            GenSpec(0, (2, 3), 4, 4, "surprise")

    @pytest.mark.parametrize("weights", [(), (2, 0, 3), (1, -1), (1.5, 2)])
    def test_weights_rejected_as_weighted_tuple_does(self, weights):
        # the spec and the known-answer builder run the tuple's own weight
        # check, so a bad weight vector gets the same error everywhere
        with pytest.raises((TypeError, ValueError)) as built:
            WeightedTuple((1,) * len(weights), weights)
        for make in (
            lambda: GenSpec(0, weights, 4, 4, "known-answer"),
            lambda: known_answer_tuple(6, weights, (1,) * len(weights)),
        ):
            with pytest.raises(built.type) as made:
                make()
            assert str(made.value) == str(built.value)

    @pytest.mark.parametrize("bad", [None, 1.5, 8.0, "7"])
    @pytest.mark.parametrize("field", ["seed", "d_bits", "cofactor_bits"])
    def test_integer_fields_rejected_at_construction(self, field, bad):
        # a None seed would draw from the OS, and float bits failed only
        # inside generate
        with pytest.raises(TypeError):
            spec("random", (2, 3), **{field: bad})

    def test_json_round_trip(self):
        s = spec("random", (2, 3, 5), seed=99)
        assert GenSpec.from_json_dict(s.to_json_dict()) == s

    # d**(10**9) for a 64-bit d, about 64 Gbit, ran past 120 s; a
    # 10**10-bit d raised a bare MemoryError
    OVERSIZED = [(1, (10**9,), 64, 8, "known-answer"), (1, (1, 2), 10**10, 8, "known-answer")]

    @pytest.mark.parametrize("args", OVERSIZED)
    def test_oversized_spec_refused_before_any_draw(self, args):
        with time_limit(1), pytest.raises(ValueError, match="bench.SPEC_BITS"):
            GenSpec(*args)

    @pytest.mark.parametrize("mode", MODES)
    def test_size_bound_covers_every_coordinate(self, mode, monkeypatch):
        # the bound is sound: with SPEC_BITS one bit below the largest
        # coordinate the spec built, the same spec is refused
        rng = random.Random(36)
        for _ in range(60):
            weights = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 4)))
            args = (rng.getrandbits(32), weights, rng.randint(1, 24), rng.randint(1, 64), mode)
            t, _ = generate(GenSpec(*args))
            with monkeypatch.context() as m:
                m.setattr(bench, "SPEC_BITS", max(abs(x).bit_length() for x in t.values) - 1)
                with pytest.raises(ValueError, match="SPEC_BITS"):
                    GenSpec(*args)


class TestKnownAnswer:
    def test_worked_tuple_reconstruction(self):
        t = known_answer_tuple(24, (2, 3), (10, 1))
        assert t.values == (5760, 13824)
        assert naive_wgcd(t.values, (2, 3)) == 24
        t = known_answer_tuple(6, (2, 3), (5, 1))
        assert t.values == (180, 216)
        assert naive_wgcd(t.values, (2, 3)) == 6

    def test_builder_validation(self):
        with pytest.raises(ValueError):
            known_answer_tuple(6, (2, 3), (5, 7))  # no unit cofactor
        with pytest.raises(ValueError):
            known_answer_tuple(6, (2, 3), (0, 1))  # zero frees a coordinate
        with pytest.raises(ValueError, match="d must be >= 1"):
            known_answer_tuple(0, (2, 3), (5, 1))
        with pytest.raises(ValueError, match="one cofactor per coordinate"):
            known_answer_tuple(6, (2, 3), (1,))

    def test_non_integer_cofactors_rejected(self):
        # int() would truncate 1.7 to a unit cofactor and return (2, 12)
        with pytest.raises(TypeError):
            known_answer_tuple(2, (1, 2), (1.7, 3))
        with pytest.raises(TypeError):
            known_answer_tuple(2, (1, 2), ("1", 3))

    def test_deterministic(self):
        s = spec("known-answer", (2, 3), seed=42)
        assert generate(s) == generate(s)

    def test_unit_cofactor_and_coprimality(self):
        for seed in range(30):
            s = spec("known-answer", (2, 2, 3), seed=seed, d_bits=9, cofactor_bits=8)
            t, d = generate(s)
            cofactors = [x // d**q for x, q in zip(t.values, t.weights)]
            assert 1 in cofactors
            assert all(gcd(c, d) == 1 for c in cofactors)
            assert all(c.bit_length() == 8 or c == 1 for c in cofactors)

    def test_oracle_confirms_within_reach(self):
        for seed in range(60):
            s = spec("known-answer", (1, 2), seed=seed, d_bits=7, cofactor_bits=6)
            t, d = generate(s)
            assert weighted_gcd(t.values, t.weights, "oracle") == d

    def test_unit_d(self):
        t, d = generate(spec("known-answer", (2, 3), d_bits=1, cofactor_bits=5))
        assert d == 1
        assert weighted_gcd(t.values, t.weights, "oracle") == 1

    def test_wide_cofactors_exact_bits(self):
        s = spec("known-answer", (2, 3), seed=5, d_bits=16, cofactor_bits=128)
        t, d = generate(s)
        cofactors = [x // d**q for x, q in zip(t.values, t.weights)]
        assert sorted(c.bit_length() for c in cofactors) == [1, 128]
        assert wgcd_auto(t).d == d


class TestAdversarial:
    def test_base_prime_powers(self):
        # all weights 1: deficiency impossible, base tuple comes back
        s = spec("adversarial-deficient", (1, 1), d_bits=5)
        t, p = generate(s)
        assert t.values == (p, p)

    def test_deficient_noise_adds_nothing(self):
        for seed in range(10):
            s = spec(
                "adversarial-deficient", (2, 3), seed=seed, d_bits=6, cofactor_bits=24
            )
            t, d = generate(s)
            assert wgcd_auto(t).d == weighted_gcd(t.values, t.weights, "full-factor") == d
            # the answer is the base prime itself: noise stays deficient
            assert d > 1 and all(x % d**q == 0 for x, q in zip(t.values, t.weights))
            assert gcd_many(t.values) > d**2  # the plain gcd got inflated

    def test_spec_example_shape(self):
        # a prime with exponents below the weights contributes nothing
        base = naive_wgcd((3**2 * 2, 3**3 * 4), (2, 3))
        assert base == naive_wgcd((3**2, 3**3), (2, 3)) == 3

    def test_deterministic(self):
        s = spec("adversarial-deficient", (2, 2, 3), seed=11, cofactor_bits=20)
        assert generate(s) == generate(s)

    def test_answer_is_the_weighted_gcd(self):
        # all-weight-1 vectors get no noise; the rest get deficient noise
        rng = random.Random(33)
        for seed in range(40):
            n = rng.randint(1, 4)
            weights = (1,) * n if seed % 4 == 0 else tuple(
                rng.choice((1, 1, 2, 3, 4)) for _ in range(n)
            )
            s = spec(
                "adversarial-deficient",
                weights,
                seed=seed,
                d_bits=rng.randint(1, 12),
                cofactor_bits=rng.randint(1, 24),
            )
            t, p = generate(s)
            assert weighted_gcd(t.values, t.weights) == p
            assert weighted_gcd(t.values, t.weights, "full-factor") == p

    def test_repeated_noise_prime_is_drawn_again(self, monkeypatch):
        # the second noise draw repeats the first: it is skipped, so that
        # prime enters every coordinate once, below its weight in one
        draws, random_prime = [], bench._random_prime

        def repeat_second_noise(rng, bits):
            r = random_prime(rng, bits)
            draws.append(r)
            return draws[1] if len(draws) == 3 else r

        monkeypatch.setattr(bench, "_random_prime", repeat_second_noise)
        t, p = generate(spec("adversarial-deficient", (2, 3), seed=3, cofactor_bits=60))
        assert len(draws) > 3 and draws[0] == p
        assert weighted_gcd(t.values, t.weights, "full-factor") == p
        r = draws[1]
        exponents = [valuation(r, x) for x in t.values]
        assert exponents in ([1, 3], [2, 1], [2, 2]), exponents


class TestRandomMode:
    def test_valid_and_deterministic(self):
        s = spec("random", (2, 3, 4), seed=3, cofactor_bits=12)
        t, d = generate(s)
        assert (t, d) == generate(s)
        assert d is None
        assert any(t.values)
        assert all(abs(v).bit_length() <= 12 for v in t.values)

    def test_generate_dispatch(self):
        t, d = generate(spec("known-answer", (2, 3), seed=1))
        assert d is not None and wgcd_auto(t).d == d
        t, d = generate(spec("random", (2, 3), seed=1))
        assert d is None
        t, d = generate(spec("adversarial-deficient", (2, 3), seed=1))
        assert d == 37 and wgcd_auto(t).d == d


# Tuples drawn with one-bit parameters, pinned so that the bit drawing
# keeps its stream: a one-bit d is 1 and a one-bit cofactor is 1, and
# neither consumes a draw.
ONE_BIT_TUPLES = [
    ("known-answer", 1, 4, (1, 11, 13), 1),
    ("known-answer", 4, 1, (10, 100, 1000), 10),
    ("known-answer", 1, 1, (1, 1, 1), 1),
    ("random", 1, 4, (-15, 6, 1), None),
    ("random", 4, 1, (-1, 0, 0), None),
    ("random", 1, 1, (-1, 0, 0), None),
    ("adversarial-deficient", 1, 4, (615561, 1846683, 233245508511803481), 3),
    ("adversarial-deficient", 4, 1, (2257057, 24827627, 11498139697378164193), 11),
    ("adversarial-deficient", 1, 1, (615561, 1846683, 233245508511803481), 3),
]


def test_one_bit_tuples_pinned():
    assert {case[0] for case in ONE_BIT_TUPLES} == set(MODES)
    for mode, d_bits, cofactor_bits, values, d in ONE_BIT_TUPLES:
        s = spec(mode, (1, 2, 3), seed=7, d_bits=d_bits, cofactor_bits=cofactor_bits)
        t, got = generate(s)
        assert (t.values, got) == (values, d), (mode, d_bits, cofactor_bits)
