from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest

from takiffalg import catalog, liealg
from takiffalg.cli import main
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


# sha256 of `takiff catalog export NAME`, recorded while every load still
# built its entry afresh
EXPORT_SHA256 = {
    "sl2": "93151a6cec75f7b84730fc45fa18011ccb8da2ca804c64c8b5d254212dcd918f",
    "sl3": "7938f4896ecde6bcdd8bb67ef50b6c465782ce786e8766d2c172bb76654f3065",
    "heis1": "d3e2e91b1a584ccf11e14cd398ebd3174b7193f65861555948272995ef75cf33",
    "heis2": "084f0af2ddea8e0385e7082c5b5c8adcdc1a61b882e80fd1a2cdf4dc468e1af8",
    "affine2": "ea11a233cf7efa06b38f14665dc80581b21cdf15466964075c8d37507e847e85",
    "slnV2": "846117badfbde3c12fc1ba4ca46a7ec2fee0ef9bc95a1817caefa5b091567d5a",
    "slnV3": "92878e82663db643750e71ec70812b9c795fcfb663e43bfacfcbd54438dfd7bc",
    "nilrad_sl3": "80c74655d6820ae78e5d2be14a84cea010af5f9d783092d1f9bf0ae64f94cf18",
}


class TestOneEntryPerProcess:
    """`load` builds an entry once; loads share only what no caller can change."""

    @pytest.mark.parametrize("name", catalog.NAMES)
    def test_loads_share_the_algebra_and_the_invariants(self, name):
        a, b = catalog.load(name), catalog.load(name)
        assert a.algebra is b.algebra
        assert a.invariants is b.invariants
        assert all(f is g for f, g in zip(a.invariants.polys, b.invariants.polys))
        for k, par in a.parametrizations.items():
            other = b.parametrizations[k]
            assert all(p is q for p, q in zip(par.coords.values(), other.coords.values()))

    @pytest.mark.parametrize("name", catalog.NAMES)
    def test_a_load_owns_its_dict_fields(self, name):
        a, b = catalog.load(name), catalog.load(name)
        assert a.flags is not b.flags
        assert a.expected is not b.expected
        assert a.expected["degrees"] is not b.expected["degrees"]
        assert a.parametrizations is not b.parametrizations
        for k, par in a.parametrizations.items():
            assert par.coords is not b.parametrizations[k].coords

    def test_a_callers_changes_do_not_reach_the_next_load(self, sl2):
        before = catalog.load("sl2")
        spoiled = catalog.load("sl2")
        spoiled.flags["semisimple"] = False
        spoiled.flags["extra"] = True
        spoiled.expected["degrees"].append(7)
        spoiled.expected["index"] = 9
        cone = spoiled.parametrizations["nilcone"]
        cone.coords["e"] = cone.coords["f"]
        del cone.coords["h"]
        spoiled.parametrizations["other"] = cone
        after = catalog.load("sl2")
        assert after == before
        assert after.flags == {"semisimple": True, "no_proper_semiinvariants": True,
                               "frobenius": False}
        assert after.expected == {"index": 1, "magic": 2, "degrees": [2]}
        assert list(after.parametrizations) == ["nilcone"]
        assert list(after.parametrizations["nilcone"].coords) == ["e", "h", "f"]
        assert catalog.self_test(after).summary == PASS

    def test_the_shared_parts_are_read_only(self):
        # a load shares its polynomials and its bracket table: each is a
        # read-only view, so no caller can spoil them for the next load or
        # leave their integer plans stale
        before = catalog.load("sl2")
        terms = dict(before.invariants.polys[0].terms)
        table = {pair: dict(vec) for pair, vec in before.algebra.brackets.items()}
        with pytest.raises(AttributeError):
            catalog.load("sl2").invariants.polys[0].terms.clear()
        with pytest.raises(TypeError):
            catalog.load("sl2").invariants.polys[0].terms[((0, 2),)] = Fraction(1)
        with pytest.raises(TypeError):
            catalog.load("sl2").algebra.brackets[(0, 1)][0] = 5
        with pytest.raises(TypeError):
            catalog.load("sl2").algebra.brackets[(0, 2)] = {}
        after = catalog.load("sl2")
        assert after.invariants.polys[0].terms == terms
        assert after.algebra.brackets == table
        assert catalog.self_test(after).summary == PASS

    def test_an_unknown_name_is_refused_on_every_load(self):
        for _ in range(2):
            with pytest.raises(KeyError, match="unknown catalog entry 'so5'"):
                catalog.load("so5")

    def test_the_cli_refuses_an_unknown_name_in_one_line(self, tmp_path, capsys):
        catalog.load("sl2")
        for _ in range(2):
            assert main(["catalog", "export", "so5", "--out", str(tmp_path / "x.json")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", catalog.NAMES)
    def test_export_bytes_are_unchanged(self, name, tmp_path):
        for k in range(2):
            out = tmp_path / f"{name}{k}.json"
            assert main(["catalog", "export", name, "--out", str(out)]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPORT_SHA256[name]


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
        assert pt == [4, 12, -9]
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

    Symbolic invariance and the set's `omega_point` give ind >= l, so the
    trials stop at dim - l; the index, and so every report byte, is what
    all five trials give.
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
