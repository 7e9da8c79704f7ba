from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "exact",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")

from takiffalg import catalog  # noqa: E402


@pytest.fixture(scope="session")
def sl2():
    return catalog.load("sl2")


@pytest.fixture(scope="session")
def sl3():
    return catalog.load("sl3")


@pytest.fixture(scope="session")
def heis1():
    return catalog.load("heis1")


@pytest.fixture(scope="session")
def heis2():
    return catalog.load("heis2")


@pytest.fixture(scope="session")
def sl2_family_m1(sl2):
    from takiffalg.raistauvel import build_family
    return build_family(sl2.invariants, 1)


# A linear subspace of the base null fiber N for each algebra that has no
# cone parametrization: points drawn there lie on N.
_ON_NULL_FIBER = {"sl3": ("e12", "e23", "e13"), "heis1": ("x", "y")}


@pytest.fixture(scope="session")
def n1_points():
    """Seeded points (xi_0, xi_1) of q<1>* for the N<1> cross-checks.

    ``draw(entry, seed, samples)`` yields one point per t from the stream
    ``sampling.rng(seed, TAG_NULLFIBER, t)``, by t % 5: xi_1 on N (a cone
    point where the entry has one, else a point of a linear subspace of N)
    for t % 5 <= 2, a random xi_1 for 3 and xi_1 = 0 for 4; xi_0 in the
    exact kernel of the differentials at xi_1 for t % 5 == 2, else random.
    So points on N<1> and off it both occur.  Kernels come from the
    oracle's Fraction nullspace.
    """
    from takiffalg import sampling
    from oracles import fraction_nullspace, gradient_at

    def draw(entry, seed=0, samples=50):
        L, fs = entry.algebra, entry.invariants
        cone = entry.parametrizations.get("nilcone")
        for t in range(samples):
            r = sampling.rng(seed, sampling.TAG_NULLFIBER, t)
            kind = t % 5
            if kind <= 2 and cone is not None:
                xi1 = dict(zip(L.basis, cone.sample(r)[1]))
            elif kind <= 2:
                xi1 = {b: r.randint(-9, 9) if b in _ON_NULL_FIBER[entry.name] else 0
                       for b in L.basis}
            elif kind == 3:
                xi1 = dict(zip(L.basis, sampling.random_coords(L.basis, r)))
            else:
                xi1 = {b: 0 for b in L.basis}
            if kind == 2:
                kernel = fraction_nullspace([gradient_at(f, xi1) for f in fs.polys])
                coeffs = [r.randint(-9, 9) for _ in kernel]
                xi0 = {b: sum(c * v[k] for c, v in zip(coeffs, kernel))
                       for k, b in enumerate(L.basis)}
            else:
                xi0 = dict(zip(L.basis, sampling.random_coords(L.basis, r)))
            yield xi0, xi1

    return draw
