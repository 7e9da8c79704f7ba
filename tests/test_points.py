"""One dual-point format.

A point is its coordinate list inside the package; `polyring.coordinates`
is the one reader that also takes a mapping.  So every function that takes
a point gives one answer for a mapping and for its list, refuses the same
malformed points, and a FAIL witness that prints a point names it the same
from either.  The pinned witnesses are the JSON the mapping-only point
format wrote for the same cases.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from takiffalg import catalog, liealg, nilfiber, sampling
from takiffalg.catalog import Parametrization
from takiffalg.liealg import (
    AlgebraFormatError,
    differential_matrix,
    kirillov_matrix,
    omega_test,
)
from takiffalg.nilfiber import StratumSample, check_N1_characterization, equidim_diagnostic
from takiffalg.polyring import MissingAssignmentError, coordinates, parse_poly
from takiffalg.raistauvel import InvariantFamily, build_family, family_rank_at
from takiffalg.report import jsonable

CASES = [(name, 0) for name in catalog.NAMES] + [("sl2", 2), ("sl3", 2)]


def _invariants(name, depth):
    fs = catalog.load(name).invariants
    return build_family(fs, depth) if depth else fs


def _points(L, seed):
    """(mapping, list) pairs: an integral draw, a rational one and one with a zero top."""
    n = L.grading.base_dim if L.grading is not None else L.dim
    out = []
    for t in range(3):
        vals = sampling.random_coords(L.basis, sampling.rng(seed, 91, t))
        if t == 1:
            vals = [Fraction(v, k % 3 + 1) for k, v in enumerate(vals)]
        elif t == 2:
            vals[-n:] = [0] * n
        # the mapping lists its names backwards: only the names count
        out.append((dict(reversed(list(zip(L.basis, vals)))), vals))
    return out


def _answers(fs, point):
    L = fs.algebra
    out = {"kirillov_matrix": kirillov_matrix(L, point),
           "kirillov_rank_at": liealg.kirillov_rank_at(L, point),
           "set.kirillov_rank_at": fs.kirillov_rank_at(point)}
    if fs.polys:
        out.update({
            "evaluate": [f.evaluate(point) for f in fs.polys],
            "gradient_at": [f.gradient_at(point) for f in fs.polys],
            "differential_matrix": differential_matrix(fs.polys, point),
            "omega_test": omega_test(fs, point),
            "stratum_index": nilfiber.stratum_index(fs, point),
        })
    if isinstance(fs, InvariantFamily):
        out["family_rank_at"] = family_rank_at(fs, point)
    return out


@pytest.mark.parametrize("name,depth", CASES)
def test_a_mapping_and_its_list_give_one_answer(name, depth):
    fs = _invariants(name, depth)
    for mapping, vals in _points(fs.algebra, 7):
        assert _answers(fs, mapping) == _answers(fs, vals)


class _ListSub(list):
    """A list subclass: read as a general sequence, not through the list fast path."""


class TestOneBoundaryRule:
    """Each point-taking function refuses a malformed point the same way."""

    @staticmethod
    def _calls(fs):
        f, L = fs.polys[0], fs.algebra
        return {
            "evaluate": f.evaluate,
            "gradient_at": f.gradient_at,
            "differential_matrix": lambda pt: differential_matrix(fs.polys, pt),
            "omega_test": lambda pt: omega_test(fs, pt),
            "stratum_index": lambda pt: nilfiber.stratum_index(fs, pt),
            "kirillov_matrix": lambda pt: kirillov_matrix(L, pt),
            "kirillov_rank_at": lambda pt: liealg.kirillov_rank_at(L, pt),
            "set.kirillov_rank_at": fs.kirillov_rank_at,
        }

    @pytest.mark.parametrize("bad", [
        {"e": 1, "h": 2, "f": 3, "zzz": 9},
        {"e": 1, "h": 2},
        [1, 2],
        [1, 2, 3, 4],
    ], ids=["extra-name", "missing-name", "short-list", "long-list"])
    def test_a_wrong_set_of_coordinates_is_a_missing_assignment(self, sl2, bad):
        for call in self._calls(sl2.invariants).values():
            with pytest.raises(MissingAssignmentError):
                call(bad)

    @pytest.mark.parametrize("bad", [{"e": 1, "h": 0.5, "f": 3}, [1, 0.5, 3]],
                             ids=["mapping", "list"])
    def test_a_float_is_a_type_error(self, sl2, bad):
        for call in self._calls(sl2.invariants).values():
            with pytest.raises(TypeError):
                call(bad)

    def test_a_family_refuses_as_its_members_do(self, sl2_family_m1):
        fam = sl2_family_m1
        good = dict(zip(fam.algebra.basis, range(1, 7)))
        for bad in ({**good, "zzz": 9}, [1, 2, 3]):
            for call in (*self._calls(fam).values(), lambda pt: family_rank_at(fam, pt)):
                with pytest.raises(MissingAssignmentError):
                    call(bad)

    @given(st.lists(st.one_of(st.integers(-9, 9), st.fractions(max_denominator=5)),
                    min_size=3, max_size=3),
           st.sampled_from(["list", "list-subclass", "tuple", "mapping"]))
    def test_every_container_reads_to_one_list(self, vals, kind):
        basis = ("e", "h", "f")
        point = {"list": list, "list-subclass": _ListSub, "tuple": tuple,
                 "mapping": lambda v: dict(zip(reversed(basis), reversed(v)))}[kind](vals)
        got = coordinates(basis, point)
        assert type(got) is list
        assert got == vals
        assert all(type(x) is (int if x.denominator == 1 else Fraction) for x in got)
        if kind == "list" and all(type(x) is int for x in vals):
            assert got is point
        else:
            assert got is not point

    @pytest.mark.parametrize("make", [list, _ListSub, tuple],
                             ids=["list", "list-subclass", "tuple"])
    def test_every_sequence_keeps_the_rule(self, make):
        basis = ("e", "h", "f")
        for bad in ([1, 2], [1, 2, 3, 4], []):
            with pytest.raises(MissingAssignmentError):
                coordinates(basis, make(bad))
        with pytest.raises(TypeError):
            coordinates(basis, make([1, 0.5, 3]))
        with pytest.raises(TypeError):
            coordinates(basis, make([1, "2", 3]))
        assert coordinates(basis, make([True, 2, Fraction(4, 2)])) == [1, 2, 2]

    def test_the_validator_returns_the_list(self, sl2):
        basis = sl2.algebra.basis
        assert coordinates(basis, {"f": Fraction(6, 3), "e": 1, "h": Fraction(1, 2)}) == \
            [1, Fraction(1, 2), 2]
        assert coordinates(basis, (1, 2, 3)) == [1, 2, 3]
        vals = [4, 5, 6]
        assert coordinates(basis, vals) is vals


class TestParametrizationOrder:
    def test_an_entry_refuses_coordinates_out_of_basis_order(self, sl2):
        cone = sl2.parametrizations["nilcone"]
        permuted = cone._replace(coords={b: cone.coords[b] for b in ("h", "e", "f")})
        with pytest.raises(AlgebraFormatError, match="nilcone.*in order"):
            catalog._entry("sl2", "sl2 with a permuted cone", basis=sl2.algebra.basis,
                           brackets={(0, 1): {0: -2}, (0, 2): {1: 1}, (1, 2): {2: -2}},
                           invariant_strs=("h^2 + 4*e*f",), flags={},
                           expected=sl2.expected, parametrizations={"nilcone": permuted})

    @pytest.mark.parametrize("name", catalog.NAMES)
    def test_every_image_point_is_in_basis_order(self, name):
        entry = catalog.load(name)
        for par in entry.parametrizations.values():
            assert tuple(par.coords) == entry.algebra.basis
            vals, pt = par.sample(sampling.rng(0, 5))
            assert par.point_at(dict(zip(par.params, vals))) == pt
            assert par.jacobian_rank_at(dict(zip(par.params, vals))) == \
                par.jacobian_rank_at(vals)


def _check_json(rep, name):
    (check,) = [c for c in rep.checks if c.name == name]
    return json.dumps({"name": check.name, "status": check.status, "seed": check.seed,
                       "witness": jsonable(check.witness)}, sort_keys=True)


class TestWitnessBytes:
    """A FAIL that prints a point writes the same bytes from a mapping and from its list."""

    def test_a_stratum_fail(self, sl2):
        pinned = ('{"name": "stratum:claimed-singular", "seed": null, "status": "FAIL", '
                  '"witness": {"computed": 1, "declared_index": 0, '
                  '"point": {"e": "3/2", "f": "5", "h": "-2"}}}')
        for pt in ({"f": 5, "e": Fraction(3, 2), "h": -2}, [Fraction(3, 2), -2, 5]):
            rep = equidim_diagnostic(sl2.invariants, [StratumSample(
                name="claimed-singular", points=(pt,), declared_dim=2, declared_index=0)])
            assert _check_json(rep, "stratum:claimed-singular") == pinned

    def test_a_lemma_bounds_violation(self, monkeypatch, sl2, sl2_family_m1):
        pinned = ('{"name": "lemma-bounds", "seed": 3, "status": "FAIL", "witness": '
                  '{"J": 0, "i": 1, "lower": 2, "mode": "derivative-identity", "upper": 2, '
                  '"violations": [{"J": 0, "i": 1, "lower": 2, "point": '
                  '{"e@0": "565022/1369", "e@1": "1444", "f@0": "-301", "f@1": "-1369", '
                  '"h@0": "-711", "h@1": "-2812"}, "upper": 2}]}}')
        monkeypatch.setattr(nilfiber, "family_rank_at", lambda fam, flat: 0)
        cone = sl2.parametrizations["nilcone"]

        def named_cone(r):
            params, pt = cone.sample(r)
            return params, dict(zip(sl2.algebra.basis, pt))

        for sample in (cone.sample, named_cone):
            rep = check_N1_characterization(sl2_family_m1, seed=3, cone=sample)
            assert _check_json(rep, "lemma-bounds") == pinned

    def test_an_off_cone_parametrization(self, monkeypatch, sl2):
        pinned = ('{"name": "parametrization:plane", "seed": 2, "status": "FAIL", '
                  '"witness": {"declared_dim": 2, "jacobian_rank": 2, "off_cone_sample": '
                  '{"nonzero_invariants": ["h^2 + 4*e*f"], "params": {"s": "-46", "t": "10"}}}}')
        st = ("s", "t")
        plane = Parametrization(name="plane", params=st, declared_dim=2, coords={
            "e": parse_poly("s", st), "h": parse_poly("t", st), "f": parse_poly("0", st)})
        entry = catalog._entry("sl2", "sl2 with an off-cone plane", basis=sl2.algebra.basis,
                               brackets={(0, 1): {0: -2}, (0, 2): {1: 1}, (1, 2): {2: -2}},
                               invariant_strs=("h^2 + 4*e*f",), flags={},
                               expected=sl2.expected, parametrizations={"plane": plane})
        assert _check_json(catalog.self_test(entry, seed=2), "parametrization:plane") == pinned
        listed = Parametrization.sample

        def named_sample(self, r):
            vals, pt = listed(self, r)
            return dict(zip(self.params, vals)), dict(zip(sl2.algebra.basis, pt))

        monkeypatch.setattr(Parametrization, "sample", named_sample)
        assert _check_json(catalog.self_test(entry, seed=2), "parametrization:plane") == pinned
