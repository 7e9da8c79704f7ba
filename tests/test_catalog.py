from __future__ import annotations

from fractions import Fraction

import pytest

from takiffalg import catalog, liealg
from takiffalg.liealg import InvariantSet, index, is_symmetric_invariant, magic_from_index
from takiffalg.polyring import parse_poly
from takiffalg.report import FAIL, PASS

from oracles import bracket_elements

EXPECTED = {
    "sl2": {"index": 1, "magic": 2, "degrees": [2], "dim": 3},
    "sl3": {"index": 2, "magic": 5, "degrees": [2, 3], "dim": 8},
    "heis1": {"index": 1, "magic": 2, "degrees": [1], "dim": 3},
    "heis2": {"index": 1, "magic": 3, "degrees": [1], "dim": 5},
    "affine2": {"index": 0, "magic": 1, "degrees": [], "dim": 2},
    "slnV2": {"index": 1, "magic": 4, "degrees": [2], "dim": 7},
    "slnV3": {"index": 1, "magic": 9, "degrees": [3], "dim": 17},
    "nilrad_sl3": {"index": 1, "magic": 2, "degrees": [1], "dim": 3},
}


def test_names():
    assert catalog.NAMES == tuple(EXPECTED)
    assert all(catalog.load(name).summary for name in catalog.NAMES)


def test_unknown_name_reports_choices():
    with pytest.raises(KeyError, match="sl2"):
        catalog.load("so5")


@pytest.mark.parametrize("name", catalog.NAMES)
def test_expected_values(name):
    entry = catalog.load(name)
    want = EXPECTED[name]
    assert entry.algebra.dim == want["dim"]
    assert entry.expected["index"] == want["index"]
    assert entry.expected["magic"] == want["magic"]
    assert entry.expected["degrees"] == want["degrees"]
    ind = index(entry.algebra, trials=5, seed=0)
    assert ind == want["index"]
    assert magic_from_index(entry.algebra, ind) == want["magic"]
    assert list(entry.invariants.degrees()) == want["degrees"]


@pytest.mark.parametrize("name", catalog.NAMES)
def test_self_certification(name):
    rep = catalog.self_test(catalog.load(name))
    assert rep.summary == PASS, rep.to_json()


def test_flags_present():
    for name in catalog.NAMES:
        flags = catalog.load(name).flags
        assert set(flags) == {"semisimple", "no_proper_semiinvariants", "frobenius"}
    assert catalog.load("affine2").flags["frobenius"] is True
    assert catalog.load("sl2").flags["semisimple"] is True
    assert catalog.load("heis1").flags["frobenius"] is False


class TestModuleExtension:
    def test_slnv2_action_example(self):
        entry = catalog.load("slnV2")
        L = entry.algebra
        # [e, v_2l] = v_1l: e feeds row 2 into row 1 of the coordinate block
        e, v21 = L.basis.index("e"), L.basis.index("v21")
        out = bracket_elements(L, {e: Fraction(1)}, {v21: Fraction(1)})
        assert out == {L.basis.index("v11"): Fraction(1)}
        # module vectors commute with one another
        v11, v22 = L.basis.index("v11"), L.basis.index("v22")
        assert bracket_elements(L, {v11: Fraction(1)}, {v22: Fraction(1)}) == {}

    def test_slnv2_determinant_is_invariant(self):
        entry = catalog.load("slnV2")
        assert is_symmetric_invariant(entry.algebra, entry.invariants.polys[0])

    def test_slnv3_determinant_degree(self):
        entry = catalog.load("slnV3")
        (det,) = entry.invariants.polys
        assert det.degree() == 3
        assert is_symmetric_invariant(entry.algebra, det)


class TestParametrizations:
    def test_sl2_nilcone_covers_expected_dim(self, sl2):
        cone = sl2.parametrizations["nilcone"]
        assert cone.declared_dim == 2
        assert cone.params == ("s", "t")
        pt = cone.point_at({"s": Fraction(2), "t": Fraction(3)})
        assert pt == {"e": Fraction(4), "h": Fraction(12), "f": Fraction(-9)}
        assert sl2.invariants.polys[0].evaluate(pt) == 0

    def test_fields_are_read_only(self, sl2):
        cone = sl2.parametrizations["nilcone"]
        for name in ("name", "params", "coords", "declared_dim"):
            with pytest.raises(AttributeError):
                setattr(cone, name, getattr(cone, name))
        for name in ("name", "summary", "algebra", "invariants", "flags", "expected",
                     "parametrizations"):
            with pytest.raises(AttributeError):
                setattr(sl2, name, getattr(sl2, name))

    def test_construction_by_keyword(self, sl2):
        cone = sl2.parametrizations["nilcone"]
        copy = catalog.Parametrization(name=cone.name, params=cone.params,
                                       coords=cone.coords, declared_dim=cone.declared_dim)
        assert copy == cone
        entry = catalog.CatalogEntry(
            name=sl2.name, summary=sl2.summary, algebra=sl2.algebra,
            invariants=sl2.invariants, flags=sl2.flags, expected=sl2.expected,
            parametrizations={"nilcone": copy})
        assert entry == sl2
        assert entry.parametrizations["nilcone"].declared_dim == 2

    def test_only_sl2_ships_one(self):
        for name in catalog.NAMES:
            entry = catalog.load(name)
            if name == "sl2":
                assert set(entry.parametrizations) == {"nilcone"}
            else:
                assert entry.parametrizations == {}


class TestCertifiedIndex:
    """`self_test` hands `index` the entry's invariants once they are certified.

    Symbolic invariance and independence at the first point of the Omega
    stream give ind >= l, so the trials stop at dim - l; the index, and so
    every report byte, is what all five trials give.
    """

    @staticmethod
    def _spied(monkeypatch, entry):
        """(report, certified set sizes handed to `index`, Kirillov matrices built)."""
        index, matrix = liealg.index, liealg.kirillov_matrix
        sets, built = [], []

        def index_spy(L, *, certified=None, **kwargs):
            sets.append(None if certified is None else len(certified))
            return index(L, certified=certified, **kwargs)

        def matrix_spy(L, point):
            built.append(L.dim)
            return matrix(L, point)

        monkeypatch.setattr(liealg, "index", index_spy)
        monkeypatch.setattr(liealg, "kirillov_matrix", matrix_spy)
        rep = catalog.self_test(entry)
        monkeypatch.undo()
        return rep, sets, built

    @pytest.mark.parametrize("name", catalog.NAMES)
    def test_every_byte_is_the_uncertified_report(self, monkeypatch, name):
        entry = catalog.load(name)
        rep, sets, _ = self._spied(monkeypatch, entry)
        assert sets == [len(entry.invariants) or None]
        index = liealg.index
        monkeypatch.setattr(liealg, "index",
                            lambda L, certified=None, **kwargs: index(L, **kwargs))
        assert rep.to_json() == catalog.self_test(entry).to_json()

    def test_sl3_ranks_one_trial(self, monkeypatch, sl3):
        _, sets, built = self._spied(monkeypatch, sl3)
        assert sets == [2]
        assert built == [8]

    def test_a_non_invariant_is_not_certified(self, monkeypatch, sl3):
        C2, C3 = sl3.invariants.polys
        bad = C3 + parse_poly("h1^3", sl3.algebra.basis)
        entry = sl3._replace(invariants=InvariantSet(algebra=sl3.algebra, polys=(C2, bad)))
        rep, sets, built = self._spied(monkeypatch, entry)
        assert sets == [None]
        assert built == [8] * 5
        assert rep.checks[1].status == FAIL

    def test_no_independent_point_is_not_certified(self, monkeypatch, sl3):
        # C2 and C2^2 are invariants, dependent everywhere
        (C2, _) = sl3.invariants.polys
        entry = sl3._replace(invariants=InvariantSet(algebra=sl3.algebra, polys=(C2, C2 * C2)))
        _, sets, built = self._spied(monkeypatch, entry)
        assert sets == [None]
        assert built == [8] * 5
