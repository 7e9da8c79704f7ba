from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from takiffalg import sampling

from oracles import random_components


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
                [theirs.randint(-bound, bound) for _ in names]

    def test_lower_components_do_not_depend_on_the_top(self):
        # the top component is drawn last, so a draw without it keeps the rest
        names = ("x", "y", "z", "w")
        for m in (1, 2, 3):
            full = random_components(names, m, sampling.rng(0, 9, m))
            lower = random_components(names, m - 1, sampling.rng(0, 9, m))
            assert lower == full[:m]

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_one_flat_draw_is_the_components_concatenated(self, n):
        # a regularity sample draws its point on L<m> as one list of (m+1)n
        # ints: the grade-major coordinate list of the m+1 components
        names = tuple(f"b{i}" for i in range(n))
        for m in (1, 2, 5):
            for seed in (0, 1, 7, 2**40):
                stream = sampling.streams(seed, sampling.TAG_REGULARITY)
                flat = sampling.uniform_ints(stream(m), (m + 1) * n, sampling.DEFAULT_BOUND)
                comps = random_components(names, m, stream(m), bound=sampling.DEFAULT_BOUND)
                assert flat == [c[b] for c in comps for b in names]


class TestStreams:
    """`streams(seed, *prefix)(t)` is the stream `rng(seed, *prefix, t)`."""

    @staticmethod
    def _words(r):
        return [r.getrandbits(32) for _ in range(64)]

    @given(seed=st.integers(-2**70, 2**70),
           prefix=st.lists(st.integers(-2**70, 2**70), max_size=4),
           t=st.integers(-2**70, 2**70))
    def test_same_words_as_rng(self, seed, prefix, t):
        assert self._words(sampling.streams(seed, *prefix)(t)) == \
            self._words(sampling.rng(seed, *prefix, t))

    @pytest.mark.parametrize("seed", [0, 1, -1, -2**63, 2**64, 2**64 + 5, 3**50])
    @pytest.mark.parametrize("prefix", [(), (sampling.TAG_OMEGA, 1), (-7,), (2**80, -2**80, 0)])
    def test_edge_seeds_and_parts(self, seed, prefix):
        stream = sampling.streams(seed, *prefix)
        for t in (0, 1, 99, -1, 2**64 + 1):
            assert self._words(stream(t)) == self._words(sampling.rng(seed, *prefix, t))
