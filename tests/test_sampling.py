from __future__ import annotations

import random

import pytest

from takiffalg import sampling


class TestUniformInts:
    """`uniform_ints` draws what `randint` draws and consumes the same words."""

    @pytest.mark.parametrize("bound", [0, 1, 9, 50, 1000])
    def test_matches_randint_draw_for_draw(self, bound):
        for seed in range(200):
            ours, theirs = random.Random(seed), random.Random(seed)
            assert sampling.uniform_ints(ours, 7, bound) == \
                [theirs.randint(-bound, bound) for _ in range(7)]
            assert ours.getrandbits(32) == theirs.getrandbits(32)

    @pytest.mark.parametrize("bound", [-1, -1000])
    def test_negative_bound_is_refused(self, bound):
        with pytest.raises(ValueError):
            sampling.uniform_ints(random.Random(0), 3, bound)
        with pytest.raises(ValueError):
            random.Random(0).randint(-bound, bound)

    def test_random_coords_keep_the_randint_stream(self):
        names = ("e", "h", "f")
        bound = sampling.DEFAULT_BOUND
        for t in range(50):
            ours, theirs = sampling.rng(3, 4, t), sampling.rng(3, 4, t)
            assert sampling.random_coords(names, ours) == \
                {b: theirs.randint(-bound, bound) for b in names}

    def test_lower_components_do_not_depend_on_the_top(self):
        # the top component is drawn last, so a draw without it keeps the rest
        names = ("x", "y", "z", "w")
        for m in (1, 2, 3):
            full = sampling.random_components(names, m, sampling.rng(0, 9, m))
            lower = sampling.random_components(names, m - 1, sampling.rng(0, 9, m))
            assert lower == full[:m]
