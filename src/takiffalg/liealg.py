"""Finite-dimensional Lie algebras given by rational structure constants.

A `LieAlgebra` stores the brackets sparsely: only pairs i < j with a nonzero
bracket appear, each as a sparse coefficient vector over the basis.  On top of
that this module provides the Kirillov form and its exact rank, the randomized
index estimate, the magic number (dim + ind)/2 of a known index, the Poisson
bracket of a polynomial with basis elements, the invariance test, and
differentials of polynomial functions at points of the dual space.

A point of the dual space is its coordinate list: dim values, `int` or
`Fraction`, in basis order.  Every function that takes a point reads it
through `check_point`, `polyring.coordinates` over the basis, which also
takes a mapping that assigns every basis name exactly once; inside the
package points are lists.  All operations are pure functions on immutable
data.  Numeric work (Kirillov matrices, the Jacobi check) runs on an
integer copy of the structure constants over one common denominator,
built on first use and kept on the algebra, and so does the symbolic
Poisson bracket {f, b_t}: it walks f's terms, cleared to integers over one
denominator, against a per-target adjacency of that integer table.

The algebra also keeps, from the same table, a split of its basis into a
set Z of pairwise commuting elements and the rest S.  K(xi)[Z][Z] = 0 at
every point, so rank K(xi) = 2|S| exactly when the |S| x |Z| block
B(xi) = K(xi)[S][Z] has full row rank.  For the semi-direct products
sl_n x V^n and the Heisenberg algebras, Z has (dim + ind)/2 elements; an
invariant set of the size dim - 2|S| then ranks a generic point from B
alone (`InvariantSet.kirillov_rank_at`), as the empty set does where
2|S| = dim.  An uncertified `index` certifies the empty set, l = 0 in
every bound; `kirillov_rank_at` always ranks the Kirillov matrix.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Sequence

from . import linalg, sampling
from .polyring import (
    Monomial,
    Point,
    Polynomial,
    Scalar,
    UnknownVariableError,
    _common_denominator,
    _int_gradient_rows,
    _over,
    coordinates,
)
from .report import FAIL, PASS, Check, Report

__all__ = [
    "LieAlgebra",
    "InvariantSet",
    "AlgebraError",
    "AlgebraFormatError",
    "HomogeneityError",
    "IndexEstimateError",
    "validate",
    "kirillov_matrix",
    "kirillov_rank_at",
    "DEFAULT_TRIALS",
    "index",
    "magic_from_index",
    "is_symmetric_invariant",
    "invariance_defect",
    "bracket_defect_against",
    "differential_matrix",
    "omega_test",
    "check_point",
]

BracketTable = Mapping[tuple[int, int], Mapping[int, Fraction]]
# t -> {i: [(k, D * c), ...]} with [b_i, b_t] = sum_k c b_k, over the plan's D
Adjacency = dict[int, dict[int, list[tuple[int, int]]]]
# a point of L*: its coordinate list in basis order, or a mapping over the basis
DualPoint = Point

class AlgebraError(Exception):
    """Base error for the Lie-algebra layer."""


class AlgebraFormatError(AlgebraError):
    """Structurally invalid algebra data (bad indices, names, rationals...)."""


class HomogeneityError(AlgebraError):
    """A supplied invariant is not homogeneous."""


class IndexEstimateError(AlgebraError):
    """The randomized rank estimate is inconsistent (parity failure)."""


class LieAlgebra:
    """Immutable structure-constant presentation of a Lie algebra.

    ``brackets[(i, j)][k]`` with i < j is the coefficient of basis[k] in
    [basis[i], basis[j]]; antisymmetry is implicit in the storage.  ``grading``
    is attached by the truncated-current constructor and is None for plain
    algebras.  Equal algebras have equal fields; the caches ``_vidx``,
    ``_plan``, ``_adj`` and ``_split`` are not compared.

    The table may be deferred: ``brackets`` is then a function that builds
    it, called on the first read of ``brackets`` and kept, and ``entries``
    is the number of entries it will hold, so `bracket_count` needs no
    table.  `takiff.takiff` defers its table this way.
    """

    # The package's records are slot classes and NamedTuples because the
    # standard library's record decorator, with the inspect module it loads,
    # costs about 60 % of `import takiffalg` (README, "Start-up").
    __slots__ = ("label", "basis", "grading", "_brackets", "_build", "_entries", "_vidx",
                 "_plan", "_adj", "_split")

    def __init__(self, label: str, basis: tuple[str, ...],
                 brackets: BracketTable | Callable[[], BracketTable],
                 grading: object | None = None, entries: int | None = None):
        vidx = {b: i for i, b in enumerate(basis)}
        if len(vidx) != len(basis):
            raise AlgebraFormatError("basis names must be distinct")
        deferred = callable(brackets)
        if deferred and entries is None:
            raise ValueError("a deferred bracket table needs its entry count")
        init = object.__setattr__
        init(self, "label", label)
        init(self, "basis", basis)
        init(self, "_brackets", None if deferred else brackets)
        init(self, "_build", brackets if deferred else None)
        init(self, "_entries", entries if deferred else len(brackets))
        init(self, "grading", grading)
        init(self, "_vidx", vidx)
        init(self, "_plan", None)
        init(self, "_adj", None)
        init(self, "_split", None)

    @property
    def brackets(self) -> BracketTable:
        if self._brackets is None:
            object.__setattr__(self, "_brackets", self._build())
            object.__setattr__(self, "_build", None)
        return self._brackets

    @property
    def bracket_count(self) -> int:
        """The number of entries of ``brackets``, read without building a deferred table."""
        return self._entries

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.label, self.basis, self.brackets, self.grading) == \
            (other.label, other.basis, other.brackets, other.grading)

    @classmethod
    def create(cls, label: str, basis: Sequence[str],
               entries: Mapping[tuple[int, int], Mapping[int, Fraction | int]],
               grading: object | None = None) -> "LieAlgebra":
        """Build from raw bracket entries, normalizing orientation and dropping zeros.

        The table and each of its coefficient vectors are read-only views,
        so an algebra that `catalog.load` shares cannot be changed.
        """
        basis = tuple(basis)
        n = len(basis)
        table: dict[tuple[int, int], Mapping[int, Fraction]] = {}
        for (i, j), coeffs in entries.items():
            if not (0 <= i < n and 0 <= j < n):
                raise AlgebraFormatError(f"bracket pair ({i}, {j}) out of range")
            if i == j:
                raise AlgebraFormatError(f"bracket pair ({i}, {i}) pairs an element with itself")
            sign = 1
            if i > j:
                i, j = j, i
                sign = -1
            vec: dict[int, Fraction] = {}
            for k, c in coeffs.items():
                if not (0 <= k < n):
                    raise AlgebraFormatError(f"bracket target index {k} out of range")
                c = Fraction(c) * sign
                if c:
                    vec[k] = vec.get(k, Fraction(0)) + c
            vec = {k: c for k, c in vec.items() if c}
            if not vec:
                continue
            if (i, j) in table:
                raise AlgebraFormatError(f"duplicate bracket entry for pair ({i}, {j})")
            table[(i, j)] = MappingProxyType(vec)
        return cls(label=label, basis=basis, brackets=MappingProxyType(table), grading=grading)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def index_of(self, name: str) -> int:
        idx = self._vidx.get(name)
        if idx is None:
            raise UnknownVariableError(name)
        return idx

    def structure_equal(self, other: "LieAlgebra") -> bool:
        return self is other or (self.basis == other.basis and self.brackets == other.brackets)

    def _int_plan(self) -> tuple[int, list[tuple[int, int, list[tuple[int, int]]]]]:
        """(D, [(i, j, [(k, D * c_ij^k), ...]), ...]): the brackets as integers over D."""
        if self._plan is None:
            den = _common_denominator(c for v in self.brackets.values() for c in v.values())
            rows = [(i, j, [(k, c.numerator * (den // c.denominator)) for k, c in v.items()])
                    for (i, j), v in self.brackets.items()]
            object.__setattr__(self, "_plan", (den, rows))
        return self._plan

    def _adjacency(self) -> Adjacency:
        """The integer plan by second factor: t -> {i: [(k, D * c)]}, [b_i, b_t] = sum c b_k."""
        if self._adj is None:
            adj: Adjacency = {}
            for i, j, vec in self._int_plan()[1]:
                adj.setdefault(j, {})[i] = vec
                adj.setdefault(i, {})[j] = [(k, -c) for k, c in vec]
            object.__setattr__(self, "_adj", adj)
        return self._adj

    def _commuting_split(self) -> tuple[tuple[int, ...], tuple[int, ...],
                                        list[tuple[int, int, list[tuple[int, int]]]]]:
        """(S, Z, [(a, c, [(k, D * x), ...]), ...]): pairwise commuting Z, the rest S.

        Z is chosen greedily, basis elements with the fewest nonzero
        brackets first (ties by index), each kept when it commutes with
        every element kept so far.  The plan lists the nonzero entries of
        the |S| x |Z| block B(xi)[a][c] = <xi, [b_S[a], b_Z[c]]>, each as
        sum x xi_k over the plan's D.
        """
        if self._split is None:
            adj = self._adjacency()
            Z: list[int] = []
            for i in sorted(range(self.dim), key=lambda i: (len(adj.get(i, ())), i)):
                if not any(z in adj.get(i, ()) for z in Z):
                    Z.append(i)
            Z.sort()
            kept = set(Z)
            S = tuple(i for i in range(self.dim) if i not in kept)
            row = {i: a for a, i in enumerate(S)}
            plan = [(row[i], c, vec) for c, z in enumerate(Z)
                    for i, vec in adj.get(z, {}).items()]
            object.__setattr__(self, "_split", (S, tuple(Z), plan))
        return self._split


def check_point(L: LieAlgebra, point: DualPoint) -> list[Scalar]:
    """The coordinate list of a dual point, validated by `polyring.coordinates` over the basis.

    A list of dim values or a mapping that assigns every basis name exactly
    once; anything else raises MissingAssignmentError, and a coordinate
    that is not an `int` or a `Fraction` raises TypeError.
    """
    return coordinates(L.basis, point)


def validate(L: LieAlgebra) -> Report:
    """Check the Jacobi identity on all basis triples (antisymmetry is structural).

    Only the products that exist are summed: each stored [b_i, b_j] =
    sum x_t b_t meets each b_a with [b_a, b_t] != 0, and x * [b_a, b_t] goes
    into the sorted triple {a, i, j}, with a minus sign when a lies between
    i and j (the cyclic term [b_a, [b_j, b_i]]).  The sums run on the integer
    structure constants, which scales every residual by D^2; a violation's
    residual is scaled back.  Violations come in triple order, and the
    witness's ``triples_checked`` is comb(dim, 3), every triple of distinct
    basis elements; those with no product sum to zero.  `verify` calls this
    on the base of a truncation, since L<m> satisfies Jacobi exactly when L
    does, and on L<m> itself only to name the triples of a FAIL.
    """
    rep = Report(label=f"validate:{L.label}")
    den, rows = L._int_plan()
    adj = L._adjacency()
    sums: dict[tuple[int, int, int], dict[int, int]] = {}
    for i, j, vec in rows:
        for t, x in vec:
            for a, bracket in adj.get(t, {}).items():
                if a == i or a == j:
                    continue
                if a < i:
                    key, s = (a, i, j), x
                elif a < j:
                    key, s = (i, a, j), -x
                else:
                    key, s = (i, j, a), x
                res = sums.setdefault(key, {})
                for u, y in bracket:
                    res[u] = res.get(u, 0) + s * y
    violations = []
    for key in sorted(sums):
        res = {t: v for t, v in sorted(sums[key].items()) if v}
        if res:
            violations.append({
                "triple": [L.basis[i] for i in key],
                "residual": {L.basis[t]: Fraction(v, den * den) for t, v in res.items()},
            })
    witness = {"triples_checked": comb(L.dim, 3), "violation_count": len(violations),
               "violations": violations[:5]}
    rep.add(Check(name="jacobi", status=FAIL if violations else PASS,
                  paper_ref="plumbing", witness=witness))
    return rep


# ---------------------------------------------------------------------------
# Kirillov form, index, magic number
# ---------------------------------------------------------------------------

def kirillov_matrix(L: LieAlgebra, point: DualPoint) -> list[list[Scalar]]:
    """B(xi)_{ij} = <xi, [b_i, b_j]>, an antisymmetric dim x dim matrix.

    Entries are `int` when integral and `Fraction` otherwise; at an integral
    point of an algebra with integer structure constants all are `int`.
    """
    vals = check_point(L, point)
    den, rows = L._int_plan()
    n = L.dim
    B: list[list[Scalar]] = [[0] * n for _ in range(n)]
    for i, j, coeffs in rows:
        s = 0
        for k, c in coeffs:
            s += c * vals[k]
        if s:
            s = _over(s, den)
            B[i][j] = s
            B[j][i] = -s
    return B


def kirillov_rank_at(L: LieAlgebra, point: DualPoint) -> int:
    return linalg.skew_rank(kirillov_matrix(L, point))


# random points an index estimate ranks unless told otherwise
DEFAULT_TRIALS = 5


def index(L: LieAlgebra, trials: int = DEFAULT_TRIALS, seed: int = 0,
          certified: InvariantSet | None = None) -> int:
    """ind L = dim L - max rank of the Kirillov form, estimated at random points.

    The estimate can only err upward (a random point may be non-generic), and
    more trials never increase the result.  ``certified`` is an invariant set
    of L whose members the caller has certified invariant and independent at
    one point, as `verify` does once per step; None is the empty set.  The
    differential of an invariant at xi lies in the stabilizer of xi, so the
    stabilizer has dimension at least l on the open set Omega where the l
    members are independent, hence at a generic point: ind L >= l, and no
    Kirillov rank exceeds dim L - l.  Each trial is ranked by
    ``certified.kirillov_rank_at``, an exact rank by whatever route the set
    knows, and the trials stop once the best rank reaches dim L - l rounded
    down to even, since the form is skew and its exact rank is even: no
    later trial can exceed it.  Every trial draws its own stream, so the
    estimate is the one all ``trials`` would give.  A set over another
    algebra raises AlgebraError and a ``trials`` below 1 ValueError.
    """
    if trials < 1:
        raise ValueError(f"the rank estimate needs at least one trial, got {trials}")
    if certified is None:
        certified = InvariantSet(algebra=L, polys=())
    elif not certified.algebra.structure_equal(L):
        raise AlgebraError(f"the certified invariants belong to {certified.algebra.label}, "
                           f"not {L.label}")
    ceiling = L.dim - len(certified)
    ceiling -= ceiling % 2
    best = 0
    streams = sampling.streams(seed, sampling.TAG_INDEX)
    for t in range(trials):
        best = max(best, certified.kirillov_rank_at(sampling.random_coords(L.basis,
                                                                            streams(t))))
        if best >= ceiling:
            break
    return L.dim - best


def magic_from_index(L: LieAlgebra, idx: int) -> int:
    """(dim + ind)/2 for a known index estimate.

    An odd dim + ind raises IndexEstimateError.  An index from `index` never
    trips this: it is dim minus an exact rank of the skew Kirillov form,
    and that rank is even at every point, so only an index supplied from
    elsewhere can be odd against dim.
    """
    s = L.dim + idx
    if s % 2:
        raise IndexEstimateError(f"dim + ind = {L.dim} + {idx} = {s} is odd, so {idx} is "
                                 f"not an index: dim - ind is the rank of a skew form, "
                                 f"which is even")
    return s // 2


# ---------------------------------------------------------------------------
# Poisson structure on the symmetric algebra
# ---------------------------------------------------------------------------

def _check_over_basis(L: LieAlgebra, f: Polynomial) -> None:
    if f.varset != L.basis:
        raise AlgebraError(
            f"polynomial variables {f.varset} do not match the basis of {L.label}")


def _mono_times_var(mono: Monomial, k: int) -> Monomial:
    # the monomial times x_k, indices kept increasing
    for pos, (i, e) in enumerate(mono):
        if i == k:
            return mono[:pos] + ((k, e + 1),) + mono[pos + 1:]
        if i > k:
            return mono[:pos] + ((k, 1),) + mono[pos:]
    return mono + ((k, 1),)


def _brackets_with_basis(L: LieAlgebra, f: Polynomial,
                         targets: Sequence[int]) -> Iterator[tuple[int, Polynomial]]:
    """(t, {f, b_t}) for each target t, in order, whose bracket is nonzero.

    {f, b_t} = sum_i df/db_i [b_i, b_t].  f's terms are cleared once to
    integers over one denominator and split by variable into the terms of
    each partial; a target then walks only the i with [b_i, b_t] != 0 in
    the algebra's adjacency, in integers, and a Polynomial is built (over
    the product of the two denominators) only when the sum is nonzero.
    """
    den = L._int_plan()[0]
    adj = L._adjacency()
    fden = _common_denominator(f.terms.values())
    partials: dict[int, list[tuple[int, Monomial]]] = {}
    for mono, c in f.terms.items():
        a = c.numerator * (fden // c.denominator)
        for pos, (i, e) in enumerate(mono):
            if e > 1:
                rest = mono[:pos] + ((i, e - 1),) + mono[pos + 1:]
            else:
                rest = mono[:pos] + mono[pos + 1:]
            partials.setdefault(i, []).append((a * e, rest))
    scale = fden * den
    for t in targets:
        acc: dict[Monomial, int] = {}
        for i, bracket in adj.get(t, {}).items():
            d = partials.get(i)
            if d is None:
                continue
            for k, c in bracket:
                for a, rest in d:
                    key = _mono_times_var(rest, k)
                    acc[key] = acc.get(key, 0) + a * c
        if any(acc.values()):
            yield t, Polynomial(L.basis, {m: Fraction(v, scale) for m, v in acc.items() if v},
                                _canonical=True)


def is_symmetric_invariant(L: LieAlgebra, f: Polynomial) -> bool:
    """Exact symbolic test that {f, b} = 0 for every basis element b."""
    return invariance_defect(L, f) is None


def bracket_defect_against(L: LieAlgebra, f: Polynomial,
                           targets: Sequence[int]) -> tuple[str, Polynomial] | None:
    """First target basis element whose bracket with f is nonzero, with the bracket."""
    _check_over_basis(L, f)
    for t, br in _brackets_with_basis(L, f, targets):
        return L.basis[t], br
    return None


def invariance_defect(L: LieAlgebra, f: Polynomial) -> tuple[str, Polynomial] | None:
    """First basis element whose bracket with f is nonzero, with the bracket."""
    return bracket_defect_against(L, f, range(L.dim))


# ---------------------------------------------------------------------------
# differentials and the singular-set test
# ---------------------------------------------------------------------------

def differential_matrix(polys: Sequence[Polynomial], point: DualPoint) -> list[list[int]]:
    """The differentials of polys at a point, as integer rows, for ranks and kernels only.

    Row i is a positive rational multiple of the gradient of polys[i] at the
    point (see `polyring._int_gradient_rows`), so the matrix has the rank,
    row space and null space of the exact differentials, not their values;
    `Polynomial.gradient_at` gives those.  The point is read by
    `polyring.coordinates`.
    """
    return _int_gradient_rows(polys, point)


class InvariantSet:
    """A tuple of homogeneous polynomial invariants attached to an algebra."""

    __slots__ = ("algebra", "polys")

    def __init__(self, algebra: LieAlgebra, polys: Sequence[Polynomial]):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "polys", tuple(polys))
        for f in self.polys:
            if f.varset != self.algebra.basis:
                raise AlgebraError(
                    f"invariant variables {f.varset} do not match the basis of "
                    f"{self.algebra.label}")
            if not f.is_homogeneous():
                raise HomogeneityError(f"invariant '{f}' is not homogeneous")
            if f.degree() < 1:
                raise AlgebraError("basic invariants must be non-constant")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def _fields(self) -> tuple:
        return self.algebra, self.polys

    def __len__(self) -> int:
        return len(self.polys)

    def degrees(self) -> tuple[int, ...]:
        return tuple(f.degree() for f in self.polys)

    def first_defect(self) -> tuple[int, str] | None:
        """The first (i, x) with {f_i, x} != 0, over the members and then the basis."""
        for i, f in enumerate(self.polys, start=1):
            found = invariance_defect(self.algebra, f)
            if found is not None:
                return i, found[0]
        return None

    def omega_point(self, seed: int) -> list[int] | None:
        """The first of 50 draws where the members are independent, or None if none is.

        The draws are coordinate lists from ``sampling.rng(seed, TAG_OMEGA, 0,
        0)``, which no other check draws.  With invariance, such a point
        certifies ind >= l.
        """
        if not self.polys:
            return None
        r = sampling.rng(seed, sampling.TAG_OMEGA, 0, 0)
        for _ in range(50):
            point = sampling.random_coords(self.algebra.basis, r)
            if self._independent_at(point):
                return point
        return None

    def _independent_at(self, point: DualPoint) -> bool:
        return omega_test(self, point)

    def kirillov_rank_at(self, point: DualPoint) -> int:
        """rank K(xi) at a point of ``algebra``: exact, through a commuting half if it can.

        With the split S, Z of `LieAlgebra._commuting_split`, K(xi)[Z][Z] = 0,
        so rank K(xi) <= |S| + rank B(xi) <= 2|S| with B(xi) = K(xi)[S][Z],
        and rank K(xi) = 2|S| exactly when B(xi) has full row rank |S|.
        Where 2|S| = dim - len(set), the ceiling that a certified set puts on
        every rank, B(xi) alone is built and ranked, and a full row rank
        returns 2|S|, for any set.  Every other point, and every algebra
        without such a split, ranks the Kirillov matrix.
        """
        L = self.algebra
        vals = check_point(L, point)
        S, Z, plan = L._commuting_split()
        if 2 * len(S) == L.dim - len(self.polys):
            B = [[0] * len(Z) for _ in S]
            for a, c, vec in plan:
                B[a][c] = sum(x * vals[k] for k, x in vec)
            if linalg.rank(B) == len(S):
                return 2 * len(S)
        return kirillov_rank_at(L, vals)


def omega_test(fs: InvariantSet, point: DualPoint) -> bool:
    """True iff the differentials of the invariants are independent at the point."""
    if not fs.polys:
        raise AlgebraError("the singular-set test needs at least one invariant")
    return linalg.rank(differential_matrix(fs.polys, point)) == len(fs.polys)
