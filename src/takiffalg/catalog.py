"""Built-in pre-validated algebras with known invariants and expected values.

Every entry carries its basis, bracket table, basic invariants as canonical
polynomial strings, informational flags, the expected index / magic number /
invariant degrees under default seeds, and (where the null-fiber machinery
needs them) rational parametrizations of null-cone strata.

The sl3 bracket table and both Casimir strings are frozen output of
scripts/derive_sl3_casimirs.py, which rebuilds them from 3x3 matrix
commutators and trace powers; `self_test` re-certifies every entry
mechanically, so the literal data cannot drift silently.

`load` builds each entry once per process.  Every load shares the
immutable parts: the `LieAlgebra`, the `InvariantSet` and the parsed
polynomials, with the integer plans they cache.  Each load gets its own
copy of the dict fields a caller could change: `flags`, `expected` (and
its `degrees` list), `parametrizations` and each one's `coords`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple

from . import liealg, linalg, sampling
from .liealg import AlgebraFormatError, InvariantSet, LieAlgebra
from .polyring import Point, Polynomial, Scalar, coordinates, parse_poly
from .report import FAIL, PASS, Check, Report

__all__ = ["CatalogEntry", "Parametrization", "PARAMETER_BOUND", "NAMES", "load",
           "self_test"]

# `Parametrization.sample` draws integer parameters in [-PARAMETER_BOUND, PARAMETER_BOUND].
PARAMETER_BOUND = 50

NAMES = ("sl2", "sl3", "heis1", "heis2", "affine2", "slnV2", "slnV3", "nilrad_sl3")


class Parametrization(NamedTuple):
    """Polynomial map from a parameter space onto a stratum of the null cone.

    The declared dimension is audited by the Jacobian rank of the map at
    sampled parameter values, not taken on faith.  ``coords`` names the
    basis of the algebra in basis order (a catalog entry refuses any other
    order), so an image point is a coordinate list.
    """

    name: str
    params: tuple[str, ...]
    coords: Mapping[str, Polynomial]
    declared_dim: int

    def point_at(self, values: Point) -> list[Scalar]:
        """The image of a parameter point: one coordinate per basis element, in basis order."""
        return [p.evaluate(values) for p in self.coords.values()]

    def sample(self, r) -> tuple[list[int], list[Scalar]]:
        """(parameter point, image point), both coordinate lists, with nonzero integer parameters."""
        vals = [0] * len(self.params)
        while not any(vals):
            vals = sampling.random_coords(self.params, r, PARAMETER_BOUND)
        return vals, self.point_at(vals)

    def jacobian_rank_at(self, values: Point) -> int:
        return linalg.rank(liealg.differential_matrix(tuple(self.coords.values()), values))

    def audit(self, streams, count: int) -> tuple[list[tuple[list, list]], int]:
        """``count`` draws ``sample(streams(t))`` and the best Jacobian rank at their parameters.

        Every draw is made; the ranks are taken in draw order and stop at
        the first that reaches min(len(params), len(coords)), which no
        Jacobian rank can exceed, so the best rank is the full scan's.
        """
        drawn = [self.sample(streams(t)) for t in range(count)]
        ceiling = min(len(self.params), len(self.coords))
        best = 0
        for vals, _ in drawn:
            best = max(best, self.jacobian_rank_at(vals))
            if best == ceiling:
                break
        return drawn, best


class CatalogEntry(NamedTuple):
    name: str
    summary: str
    algebra: LieAlgebra
    invariants: InvariantSet
    flags: dict[str, bool]
    expected: dict
    parametrizations: dict[str, Parametrization]


def _entry(name, summary, basis, brackets, invariant_strs, flags, expected,
           parametrizations=None) -> CatalogEntry:
    algebra = LieAlgebra.create(name, basis, brackets)
    for par in (parametrizations or {}).values():
        if tuple(par.coords) != algebra.basis:
            raise AlgebraFormatError(
                f"parametrization '{par.name}' of {name} maps to {tuple(par.coords)}, "
                f"not to the basis {algebra.basis} in order")
    polys = tuple(parse_poly(s, basis) for s in invariant_strs)
    fs = InvariantSet(algebra=algebra, polys=polys)
    return CatalogEntry(name=name, summary=summary, algebra=algebra,
                        invariants=fs, flags=flags, expected=expected,
                        parametrizations=parametrizations or {})


def _sl2() -> CatalogEntry:
    s, t = "s", "t"
    cone = Parametrization(
        name="nilcone",
        params=(s, t),
        coords={
            "e": parse_poly("s^2", (s, t)),
            "h": parse_poly("2*s*t", (s, t)),
            "f": parse_poly("-t^2", (s, t)),
        },
        declared_dim=2,
    )
    return _entry(
        "sl2", "rank-1 simple algebra; Casimir of degree 2",
        basis=("e", "h", "f"),
        brackets={(0, 1): {0: -2}, (0, 2): {1: 1}, (1, 2): {2: -2}},
        invariant_strs=("h^2 + 4*e*f",),
        flags={"semisimple": True, "no_proper_semiinvariants": True,
               "frobenius": False},
        expected={"index": 1, "magic": 2, "degrees": [2]},
        parametrizations={"nilcone": cone},
    )


# Frozen from scripts/derive_sl3_casimirs.py.
_SL3_BASIS = ("h1", "h2", "e12", "e23", "e13", "e21", "e32", "e31")
_SL3_BRACKETS = {
    (0, 2): {2: 2}, (0, 3): {3: -1}, (0, 4): {4: 1},
    (0, 5): {5: -2}, (0, 6): {6: 1}, (0, 7): {7: -1},
    (1, 2): {2: -1}, (1, 3): {3: 2}, (1, 4): {4: 1},
    (1, 5): {5: 1}, (1, 6): {6: -2}, (1, 7): {7: -1},
    (2, 3): {4: 1}, (2, 5): {0: 1}, (2, 7): {6: -1},
    (3, 6): {1: 1}, (3, 7): {5: 1},
    (4, 5): {3: -1}, (4, 6): {2: 1}, (4, 7): {0: 1, 1: 1},
    (5, 6): {7: -1},
}
_SL3_CASIMIR_2 = "h1^2 + h1*h2 + h2^2 + 3*e12*e21 + 3*e23*e32 + 3*e13*e31"
_SL3_CASIMIR_3 = ("2*h1^3 + 3*h1^2*h2 - 3*h1*h2^2 - 2*h2^3"
                  " + 9*h1*e12*e21 + 18*h2*e12*e21"
                  " + 9*h1*e13*e31 - 9*h2*e13*e31"
                  " - 18*h1*e23*e32 - 9*h2*e23*e32"
                  " + 27*e12*e23*e31 + 27*e13*e21*e32")


def _sl3() -> CatalogEntry:
    return _entry(
        "sl3", "rank-2 simple algebra; Casimirs of degrees 2 and 3",
        basis=_SL3_BASIS,
        brackets=_SL3_BRACKETS,
        invariant_strs=(_SL3_CASIMIR_2, _SL3_CASIMIR_3),
        flags={"semisimple": True, "no_proper_semiinvariants": True,
               "frobenius": False},
        expected={"index": 2, "magic": 5, "degrees": [2, 3]},
    )


def _heis(n: int) -> CatalogEntry:
    if n == 1:
        basis = ("x", "y", "z")
        brackets = {(0, 1): {2: 1}}
    else:
        basis = tuple(f"x{i}" for i in range(1, n + 1)) + \
            tuple(f"y{i}" for i in range(1, n + 1)) + ("z",)
        brackets = {(i, n + i): {2 * n: 1} for i in range(n)}
    return _entry(
        f"heis{n}",
        f"Heisenberg algebra of dimension {2 * n + 1}; centre generates the invariants",
        basis=basis, brackets=brackets, invariant_strs=("z",),
        flags={"semisimple": False, "no_proper_semiinvariants": True,
               "frobenius": False},
        expected={"index": 1, "magic": n + 1, "degrees": [1]},
    )


def _affine2() -> CatalogEntry:
    return _entry(
        "affine2", "nonabelian 2-dimensional algebra; Frobenius, no invariants",
        basis=("x", "y"), brackets={(0, 1): {1: 1}}, invariant_strs=(),
        flags={"semisimple": False, "no_proper_semiinvariants": False,
               "frobenius": True},
        expected={"index": 0, "magic": 1, "degrees": []},
    )


# n x n matrices for the simple part of the semidirect products; the module
# copy v_kl is the matrix unit E_kl acted on by left multiplication:
# [a, v_kl] = sum_i a[i][k] * v_il.
_SL2_MATS = {
    "e": ((0, 1), (0, 0)),
    "h": ((1, 0), (0, -1)),
    "f": ((0, 0), (1, 0)),
}
_SL3_MATS = {
    "h1": ((1, 0, 0), (0, -1, 0), (0, 0, 0)),
    "h2": ((0, 0, 0), (0, 1, 0), (0, 0, -1)),
    "e12": ((0, 1, 0), (0, 0, 0), (0, 0, 0)),
    "e23": ((0, 0, 0), (0, 0, 1), (0, 0, 0)),
    "e13": ((0, 0, 1), (0, 0, 0), (0, 0, 0)),
    "e21": ((0, 0, 0), (1, 0, 0), (0, 0, 0)),
    "e32": ((0, 0, 0), (0, 0, 0), (0, 1, 0)),
    "e31": ((0, 0, 0), (0, 0, 0), (1, 0, 0)),
}

_DET2 = "v11*v22 - v12*v21"
_DET3 = ("v11*v22*v33 - v11*v23*v32 - v12*v21*v33"
         " + v12*v23*v31 + v13*v21*v32 - v13*v22*v31")


def _slnv(n: int) -> CatalogEntry:
    if n == 2:
        simple_basis, mats = ("e", "h", "f"), _SL2_MATS
        simple_brackets = {(0, 1): {0: -2}, (0, 2): {1: 1}, (1, 2): {2: -2}}
        det = _DET2
    else:
        simple_basis, mats = _SL3_BASIS, _SL3_MATS
        simple_brackets = _SL3_BRACKETS
        det = _DET3
    module = tuple(f"v{k}{l}" for k in range(1, n + 1) for l in range(1, n + 1))
    basis = simple_basis + module
    d = len(simple_basis)
    brackets = {pair: dict(coeffs) for pair, coeffs in simple_brackets.items()}
    for a_idx, a in enumerate(simple_basis):
        mat = mats[a]
        for k in range(n):
            for l in range(n):
                coeffs = {d + i * n + l: Fraction(mat[i][k])
                          for i in range(n) if mat[i][k]}
                if coeffs:
                    brackets[(a_idx, d + k * n + l)] = coeffs
    return _entry(
        f"slnV{n}",
        f"sl{n} acting on {n} copies of k^{n}; invariant det of the coordinate block",
        basis=basis, brackets=brackets, invariant_strs=(det,),
        flags={"semisimple": False, "no_proper_semiinvariants": True,
               "frobenius": False},
        expected={"index": 1, "magic": n * n, "degrees": [n]},
    )


def _nilrad_sl3() -> CatalogEntry:
    return _entry(
        "nilrad_sl3",
        "nilradical of the Borel of sl3; a copy of the 3-dimensional Heisenberg algebra",
        basis=("e12", "e23", "e13"), brackets={(0, 1): {2: 1}},
        invariant_strs=("e13",),
        flags={"semisimple": False, "no_proper_semiinvariants": True,
               "frobenius": False},
        expected={"index": 1, "magic": 2, "degrees": [1]},
    )


_BUILDERS = {
    "sl2": _sl2,
    "sl3": _sl3,
    "heis1": lambda: _heis(1),
    "heis2": lambda: _heis(2),
    "affine2": _affine2,
    "slnV2": lambda: _slnv(2),
    "slnV3": lambda: _slnv(3),
    "nilrad_sl3": _nilrad_sl3,
}


# entries built so far in this process, by name
_BUILT: dict[str, CatalogEntry] = {}


def load(name: str) -> CatalogEntry:
    """The entry ``name``, built on its first load in the process (see the module docstring)."""
    entry = _BUILT.get(name)
    if entry is None:
        builder = _BUILDERS.get(name)
        if builder is None:
            raise KeyError(f"unknown catalog entry '{name}' (known: {', '.join(NAMES)})")
        entry = _BUILT[name] = builder()
    return entry._replace(
        flags=dict(entry.flags),
        expected=dict(entry.expected, degrees=list(entry.expected["degrees"])),
        parametrizations={k: par._replace(coords=dict(par.coords))
                          for k, par in entry.parametrizations.items()})


def self_test(entry: CatalogEntry, seed: int = 0) -> Report:
    """Re-certify an entry: Jacobi, invariance, expected values, parametrizations.

    When every invariant passes the symbolic test and has an Omega point,
    `liealg.index` takes them as its certified set, as `verify` does: the
    estimate is the same, its `liealg.DEFAULT_TRIALS` trials stop at dim - l.
    """
    rep = Report(label=f"catalog:{entry.name}")
    L = entry.algebra

    rep.extend_prefixed("", liealg.validate(L).checks)

    bad = [str(f) for f in entry.invariants.polys
           if not liealg.is_symmetric_invariant(L, f)]
    rep.add(Check(name="invariants-symbolic", status=FAIL if bad else PASS,
                  witness={"count": len(entry.invariants),
                           "not_invariant": bad}))

    degrees = list(entry.invariants.degrees())
    rep.add(Check(name="expected-degrees",
                  status=PASS if degrees == entry.expected["degrees"] else FAIL,
                  witness={"degrees": degrees,
                           "expected": entry.expected["degrees"]}))

    fs = entry.invariants
    certified = not bad and fs.omega_point(seed) is not None
    idx = liealg.index(L, seed=seed, certified=fs if certified else None)
    rep.add(Check(name="expected-index",
                  status=PASS if idx == entry.expected["index"] else FAIL,
                  witness={"index": idx, "expected": entry.expected["index"]},
                  seed=seed))
    magic = liealg.magic_from_index(L, idx)
    rep.add(Check(name="expected-magic",
                  status=PASS if magic == entry.expected["magic"] else FAIL,
                  witness={"magic": magic, "expected": entry.expected["magic"]},
                  seed=seed))

    streams = sampling.streams(seed, sampling.TAG_STRATA)
    for pname, par in sorted(entry.parametrizations.items()):
        drawn, best_rank = par.audit(streams, 5)
        off_cone = None
        for vals, pt in drawn:
            nonzero = [str(f) for f in fs.polys if f.evaluate(pt)]
            if nonzero:
                off_cone = {"params": dict(zip(par.params,
                                               map(str, coordinates(par.params, vals)))),
                            "nonzero_invariants": nonzero}
                break
        ok = best_rank == par.declared_dim and off_cone is None
        rep.add(Check(name=f"parametrization:{pname}",
                      status=PASS if ok else FAIL,
                      witness={"declared_dim": par.declared_dim,
                               "jacobian_rank": best_rank,
                               "off_cone_sample": off_cone},
                      seed=seed))
    return rep
