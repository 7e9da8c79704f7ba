"""Truncated current algebras over a base Lie algebra.

`takiff(L, m)` builds the algebra L<m> on basis names `b@j` (b a base name,
j the grade, 0 <= j <= m) with bracket

    [a@i, b@j] = ([a, b]_base)@(i+j)   if i+j <= m, else 0.

Multi-current algebras iterate the construction left to right; names nest as
`b@j1@j2`.  The grading metadata always describes the outermost construction
step relative to its immediate base; earlier levels are visible only through
the nested names.

A dual point on L<m> is given by its component tuple (xi_0, ..., xi_m) of
base dual points, xi_j holding the grade-j coordinates; `flatten_point`
assembles the flat point with one coordinate per graded name.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from . import linalg
from .liealg import AlgebraError, AlgebraFormatError, DualPoint, LieAlgebra
from .polyring import Scalar, exact_scalars

__all__ = [
    "TakiffGrading",
    "TakiffDualPoint",
    "takiff",
    "multi_current",
    "graded_name",
    "graded_varset",
    "nilpotent_ideal",
    "generating_targets",
    "flatten_point",
]

# components (xi_0, ..., xi_m), each a complete dual point on the base algebra
TakiffDualPoint = Sequence[DualPoint]


def graded_name(base: str, j: int) -> str:
    return f"{base}@{j}"


def graded_varset(L: LieAlgebra, m: int) -> tuple[str, ...]:
    """The basis names of L<m> in basis order: grade 0 first, base order within a grade."""
    return tuple(graded_name(b, j) for j in range(m + 1) for b in L.basis)


@dataclass(frozen=True)
class TakiffGrading:
    """Grading metadata for one truncation step.

    grade_of and base_name_of are keyed by the graded basis names; base_name_of
    points back at the immediate base algebra's names.
    """

    base_dim: int
    depth: int
    grade_of: Mapping[str, int]
    base_name_of: Mapping[str, str]

    def __post_init__(self):
        counts: dict[int, int] = {}  # per grade that occurs: a huge depth is free
        for name, j in self.grade_of.items():
            if not (0 <= j <= self.depth):
                raise AlgebraFormatError(f"grade {j} of '{name}' out of range 0..{self.depth}")
            if name != graded_name(self.base_name_of[name], j):
                raise AlgebraFormatError(f"graded name '{name}' does not match its base name and grade")
            counts[j] = counts.get(j, 0) + 1
        if set(self.grade_of) != set(self.base_name_of):
            raise AlgebraFormatError("grade_of and base_name_of must cover the same names")
        if any(c != self.base_dim for c in counts.values()) or \
                (self.base_dim and len(counts) != self.depth + 1):
            raise AlgebraFormatError("every grade must contain exactly base_dim names")

    def to_dict(self) -> dict:
        return {
            "base_dim": self.base_dim,
            "depth": self.depth,
            "grade_of": dict(self.grade_of),
            "base_name_of": dict(self.base_name_of),
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "TakiffGrading":
        return cls(base_dim=int(d["base_dim"]), depth=int(d["depth"]),
                   grade_of={k: int(v) for k, v in d["grade_of"].items()},
                   base_name_of=dict(d["base_name_of"]))


def _require_grading(L: LieAlgebra) -> TakiffGrading:
    if not isinstance(L.grading, TakiffGrading):
        raise AlgebraFormatError(f"algebra {L.label} carries no truncation grading")
    return L.grading


def takiff(L: LieAlgebra, m: int) -> LieAlgebra:
    """The truncated current algebra L<m> with grading metadata attached.

    Each base vector [b_i, b_j] (i < j, already normalized) is copied by
    grade straight into the (min, max) orientation of the pair
    (s*n + i, t*n + j), negated when s*n + i > t*n + j, so no coefficient is
    re-normalized; the table is the one `LieAlgebra.create` would build from
    the unoriented entries, in the same order.
    """
    if m < 1:
        raise ValueError(f"truncation order must be >= 1, got {m}")
    n = L.dim
    basis = graded_varset(L, m)
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (i, j), coeffs in L.brackets.items():
        neg = {k: -c for k, c in coeffs.items()}
        for s in range(m + 1):
            for t in range(m + 1 - s):
                a, b, shift = s * n + i, t * n + j, (s + t) * n
                if a < b:
                    table[(a, b)] = {shift + k: c for k, c in coeffs.items()}
                else:
                    table[(b, a)] = {shift + k: c for k, c in neg.items()}
    grading = TakiffGrading(
        base_dim=n, depth=m,
        grade_of={name: k // n for k, name in enumerate(basis)},
        base_name_of={name: L.basis[k % n] for k, name in enumerate(basis)},
    )
    return LieAlgebra(label=f"{L.label}<{m}>", basis=basis, brackets=table, grading=grading)


def multi_current(L: LieAlgebra, degrees: Sequence[int]) -> LieAlgebra:
    """Iterated truncation ((L<m1>)<m2>)...<mr>, labelled L<m1,...,mr>."""
    if not degrees:
        raise ValueError("degree list must not be empty")
    cur = L
    for d in degrees:
        cur = takiff(cur, d)
    label = f"{L.label}<{','.join(str(d) for d in degrees)}>"
    return dataclasses.replace(cur, label=label)


def nilpotent_ideal(L: LieAlgebra) -> list[str]:
    """Basis names of positive grade; verified to span an ideal."""
    grading = _require_grading(L)
    ideal_idx = {i for i, b in enumerate(L.basis) if grading.grade_of[b] >= 1}
    for (i, j), coeffs in L.brackets.items():
        if i in ideal_idx or j in ideal_idx:
            outside = [L.basis[k] for k in coeffs if k not in ideal_idx]
            if outside:
                raise AlgebraError(
                    f"positive-grade span is not an ideal: [{L.basis[i]}, {L.basis[j]}] "
                    f"meets {outside}")
    return [b for b in L.basis if grading.grade_of[b] >= 1]


def generating_targets(L: LieAlgebra) -> tuple[list[int], list[int]]:
    """Basis indices that generate L = q<m> and its positive-grade ideal, in basis order.

    C is the set of base names whose columns carry no pivot in one
    `linalg.rref` of the grade-0 bracket vectors, so span(C) + [q, q] = q.
    The first list is grades 0 and 1 plus C@j for 2 <= j <= m; the second is
    grade 1 plus C@j for j >= 2.  Since [q@1, q@(j-1)] = [q, q]@j, induction
    on j shows that the first list generates L<m> and the second the ideal.
    Only the grading and the bracket table are read, and only the grade-0
    brackets when m >= 2; L must be a truncation built by `takiff`.
    """
    grading = _require_grading(L)
    grades = [grading.grade_of[b] for b in L.basis]
    free: set[str] = set()
    if grading.depth >= 2:
        grade0 = [i for i, g in enumerate(grades) if g == 0]
        col = {i: c for c, i in enumerate(grade0)}   # grade-0 index -> base column
        rows = []
        for (i, j), coeffs in L.brackets.items():
            if i in col and j in col:
                row = [0] * len(col)
                for k, c in coeffs.items():
                    row[col[k]] = c
                rows.append(row)
        pivots = set(linalg.rref(rows)[1])
        free = {grading.base_name_of[L.basis[i]] for i, c in col.items() if c not in pivots}
    invariance = [i for i, b in enumerate(L.basis)
                  if grades[i] <= 1 or grading.base_name_of[b] in free]
    return invariance, [i for i in invariance if grades[i] >= 1]


def flatten_point(L: LieAlgebra, components: TakiffDualPoint) -> dict[str, Scalar]:
    """Assemble a dual point on L from its base components (xi_0..xi_m).

    Each basis name is read through the grading's grade_of/base_name_of, so
    no graded name is formatted.  Keys come grade by grade, within a grade in
    the order the grade-0 names have in the basis (the order of
    `graded_varset`).  Component j must assign exactly the base names of the
    grade-j names.  Coordinates pass through `exact_scalars`, so they stay
    `int` when integral and a float raises TypeError.
    """
    grading = _require_grading(L)
    m = grading.depth
    if len(components) != m + 1:
        raise AlgebraError(f"expected {m + 1} components, got {len(components)}")
    grade_of, base_name_of = grading.grade_of, grading.base_name_of
    graded: list[dict[str, str]] = [{} for _ in components]   # per grade: base name -> name
    for name in L.basis:
        graded[grade_of[name]][base_name_of[name]] = name
    base = graded[0]
    flat: dict[str, Scalar] = {}
    for j, comp in enumerate(components):
        names = graded[j]
        if comp.keys() != names.keys():
            raise AlgebraError(f"component {j} must assign exactly the base names")
        for b, v in zip(base, exact_scalars([comp[b] for b in base])):
            flat[names[b]] = v
    return flat
