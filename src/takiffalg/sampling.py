"""Deterministic seeded sampling of integer points and elements.

Every randomized routine in the package derives a private stream seed from
(seed, domain tag, trial index) with a fixed 64-bit mixing function, so runs
are reproducible bit-for-bit and trial t never depends on how many other
trials run around it.  A sampled loop takes its streams from
``streams(seed, *prefix)``, which mixes the fixed prefix once and gives, for
each t, the stream ``rng(seed, *prefix, t)`` gives; ``rng`` serves one-off
streams.

Integers uniform in [-bound, bound] come from `uniform_ints`, which draws
exactly as CPython's ``randint(-bound, bound)`` does: k = span.bit_length()
random bits per try, with span = 2*bound + 1, until the value is below span.
It calls ``getrandbits`` directly instead of going through ``randint``,
``randrange`` and ``_randbelow``, so every stream, and every point drawn
from it, is the one ``randint`` gave.  A point is drawn as its coordinate
list, `random_coords`.  A point on a truncation L<m> is drawn as one list
of (m+1)n integers: the basis is grade-major, so the list holds the m+1
components of n, in order, that m+1 draws of n would give.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

__all__ = ["derive_seed", "rng", "streams", "uniform_ints", "random_coords", "DEFAULT_BOUND"]

DEFAULT_BOUND = 1000

# Domain tags keep the seeded streams of different subsystems disjoint.
TAG_INDEX = 1
TAG_OMEGA = 3
TAG_REGULARITY = 4
TAG_NULLFIBER = 7
TAG_STRATA = 8

_MASK = (1 << 64) - 1


def _mix(x: int) -> int:
    # splitmix64 finalizer; stable across platforms and Python versions.
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def derive_seed(seed: int, *parts: int) -> int:
    """Stable stream seed for (seed, *parts); independent of call order."""
    acc = _mix(seed & _MASK)
    for p in parts:
        acc = _mix(acc ^ _mix(p & _MASK))
    return acc


def rng(seed: int, *parts: int) -> random.Random:
    return random.Random(derive_seed(seed, *parts))


def streams(seed: int, *prefix: int) -> Callable[[int], random.Random]:
    """``t -> rng(seed, *prefix, t)``, with the prefix mixed once.

    Each stream then costs two mixes, whatever the length of the prefix.
    """
    acc = derive_seed(seed, *prefix)

    def stream(t: int) -> random.Random:
        return random.Random(_mix(acc ^ _mix(t & _MASK)))

    return stream


def uniform_ints(r: random.Random, count: int, bound: int) -> list[int]:
    """``count`` ints uniform in [-bound, bound], as ``r.randint(-bound, bound)`` draws them.

    A negative bound raises ValueError, as ``randint`` does.
    """
    if bound < 0:
        raise ValueError(f"the bound must be >= 0, got {bound}")
    span = 2 * bound + 1
    k = span.bit_length()
    getrandbits = r.getrandbits
    out = []
    for _ in range(count):
        x = getrandbits(k)
        while x >= span:
            x = getrandbits(k)
        out.append(x - bound)
    return out


def random_coords(names: Sequence[str], r: random.Random,
                  bound: int = DEFAULT_BOUND) -> list[int]:
    """A point over ``names``: its coordinate list, `int`s uniform in [-bound, bound].

    Only the count of ``names`` is read; this is ``uniform_ints(r,
    len(names), bound)``.
    """
    return uniform_ints(r, len(names), bound)
