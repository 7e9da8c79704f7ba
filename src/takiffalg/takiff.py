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

from .liealg import AlgebraError, AlgebraFormatError, DualPoint, LieAlgebra
from .polyring import Scalar, exact_scalars

__all__ = [
    "TakiffGrading",
    "TakiffDualPoint",
    "takiff",
    "multi_current",
    "graded_name",
    "nilpotent_ideal",
    "flatten_point",
]

# components (xi_0, ..., xi_m), each a complete dual point on the base algebra
TakiffDualPoint = Sequence[DualPoint]


def graded_name(base: str, j: int) -> str:
    return f"{base}@{j}"


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
    """The truncated current algebra L<m> with grading metadata attached."""
    if m < 1:
        raise ValueError(f"truncation order must be >= 1, got {m}")
    n = L.dim
    basis = tuple(graded_name(b, j) for j in range(m + 1) for b in L.basis)
    entries: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (i, j), coeffs in L.brackets.items():
        for s in range(m + 1):
            for t in range(m + 1 - s):
                a_idx = s * n + i
                b_idx = t * n + j
                entries[(a_idx, b_idx)] = {(s + t) * n + k: c for k, c in coeffs.items()}
    grading = TakiffGrading(
        base_dim=n, depth=m,
        grade_of={graded_name(b, j): j for j in range(m + 1) for b in L.basis},
        base_name_of={graded_name(b, j): b for j in range(m + 1) for b in L.basis},
    )
    return LieAlgebra.create(f"{L.label}<{m}>", basis, entries, grading=grading)


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


def flatten_point(L: LieAlgebra, components: TakiffDualPoint) -> dict[str, Scalar]:
    """Assemble a dual point on L from its base components (xi_0..xi_m).

    Coordinates pass through `exact_scalars`, so they stay `int` when integral
    and a float raises TypeError.
    """
    grading = _require_grading(L)
    base_names = [grading.base_name_of[b] for b in L.basis if grading.grade_of[b] == 0]
    m = grading.depth
    if len(components) != m + 1:
        raise AlgebraError(f"expected {m + 1} components, got {len(components)}")
    flat: dict[str, Scalar] = {}
    for j, comp in enumerate(components):
        if set(comp.keys()) != set(base_names):
            raise AlgebraError(f"component {j} must assign exactly the base names")
        for b, v in zip(base_names, exact_scalars([comp[b] for b in base_names])):
            flat[graded_name(b, j)] = v
    return flat
