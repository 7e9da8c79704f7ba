"""Truncated current algebras over a base Lie algebra.

`takiff(L, m)` builds the algebra L<m> on basis names `b@j` (b a base name,
j the grade, 0 <= j <= m) with bracket

    [a@i, b@j] = ([a, b]_base)@(i+j)   if i+j <= m, else 0.

The basis is grade-major: with n = dim L, index k holds the k % n-th base
name in grade k // n, so grade j is the slice [j*n, (j+1)*n) in base order.
A dual point of L<m>, its coordinate list, is therefore the lists of its
components xi_0, ..., xi_m concatenated, and its top xi_m is the slice
from m*n.  `TakiffGrading` records that layout and nothing else; every other module
reads grades by this index arithmetic.

Multi-current algebras iterate the construction left to right; names nest as
`b@j1@j2`.  The grading describes the outermost construction step relative
to its immediate base; earlier levels are visible only through the nested
names.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .liealg import AlgebraError, AlgebraFormatError, LieAlgebra

__all__ = [
    "TakiffGrading",
    "takiff",
    "multi_current",
    "graded_name",
    "graded_varset",
]


def graded_name(base: str, j: int) -> str:
    return f"{base}@{j}"


def graded_varset(L: LieAlgebra, m: int) -> tuple[str, ...]:
    """The basis names of L<m> in basis order: grade 0 first, base order within a grade."""
    return _grade_major(L.basis, m)


def _grade_major(base_basis: Sequence[str], m: int) -> tuple[str, ...]:
    return tuple(graded_name(b, j) for j in range(m + 1) for b in base_basis)


class TakiffGrading(NamedTuple):
    """The grade-major layout of one truncation step over its immediate base.

    With n = base_dim, basis index k of the truncation is the name
    `graded_name(base_basis[k % n], k // n)`, in grade k // n.
    """

    base_basis: tuple[str, ...]
    depth: int

    @property
    def base_dim(self) -> int:
        return len(self.base_basis)

    def to_dict(self) -> dict:
        n = self.base_dim
        names = _grade_major(self.base_basis, self.depth)
        return {
            "base_dim": n,
            "depth": self.depth,
            "grade_of": {name: k // n for k, name in enumerate(names)},
            "base_name_of": {name: self.base_basis[k % n] for k, name in enumerate(names)},
        }

    @classmethod
    def from_dict(cls, d: Mapping, basis: Sequence[str]) -> "TakiffGrading":
        """The grading of a loaded truncation, rebuilt from its basis.

        The block must be the one `to_dict` writes for that basis, and the
        basis must be grade-major; anything else raises AlgebraFormatError.
        """
        n, m = d["base_dim"], d["depth"]
        if type(n) is not int or type(m) is not int or n < 1 or m < 1 or \
                len(basis) != n * (m + 1):
            raise AlgebraFormatError(
                f"grading block with base_dim {n!r} and depth {m!r} "
                f"does not fit a basis of {len(basis)} names")
        grading = cls(base_basis=tuple(b.rsplit("@", 1)[0] for b in basis[:n]), depth=m)
        if _grade_major(grading.base_basis, m) != tuple(basis) or grading.to_dict() != d:
            raise AlgebraFormatError(
                "grading block does not describe the grade-major basis b@j of the file")
        return grading


def _require_grading(L: LieAlgebra) -> TakiffGrading:
    if not isinstance(L.grading, TakiffGrading):
        raise AlgebraFormatError(f"algebra {L.label} carries no truncation grading")
    return L.grading


# L<m> has n(m+1) basis names and |brackets L| (m+1)(m+2)/2 bracket entries,
# whose sum may not exceed MAX_TAKIFF_SIZE; both are known before anything is
# built, and the entry count of a deferred L is arithmetic too.  On a 2-core
# x86 box with Python 3.11, sl3<64> (45,045 entries) builds in 0.06 s and
# sl3<256> (696,213) in 1.7 s at 281 MB.  The cap admits sl3<306>.
MAX_TAKIFF_SIZE = 1_000_000


def takiff(L: LieAlgebra, m: int) -> LieAlgebra:
    """The truncated current algebra L<m> with grading metadata attached.

    The basis, grading and dim are set at once; the bracket table is built
    by `_truncated_table` on the first read of ``brackets`` and kept, so a
    check that reads only names, grades and the base, as a certified
    `verify` step does, builds none.  The size cap counts the entries by
    arithmetic from ``L.bracket_count``, so a chain of truncations reads no
    table of a lower level, and a truncation past the cap is refused before
    it is constructed.
    """
    if m < 1:
        raise ValueError(f"truncation order must be >= 1, got {m}")
    names, entries = L.dim * (m + 1), L.bracket_count * (m + 1) * (m + 2) // 2
    if names + entries > MAX_TAKIFF_SIZE:
        raise AlgebraError(f"{L.label}<{m}> would have {names} basis names and {entries} "
                           f"bracket entries, past the cap of {MAX_TAKIFF_SIZE} in all")
    return LieAlgebra(label=f"{L.label}<{m}>", basis=graded_varset(L, m),
                      brackets=lambda: _truncated_table(L, m),
                      grading=TakiffGrading(base_basis=L.basis, depth=m), entries=entries)


def _truncated_table(L: LieAlgebra, m: int) -> dict[tuple[int, int], dict[int, Fraction]]:
    """The bracket table of L<m>, built from the table of L.

    Each base vector [b_i, b_j] (i < j, already normalized) is copied by
    grade straight into the (min, max) orientation of the pair
    (s*n + i, t*n + j), negated when s*n + i > t*n + j, so no coefficient is
    re-normalized; the table is the one `LieAlgebra.create` would build from
    the unoriented entries, in the same order.
    """
    n = L.dim
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
    return table


def multi_current(L: LieAlgebra, degrees: Sequence[int]) -> LieAlgebra:
    """Iterated truncation ((L<m1>)<m2>)...<mr>, labelled L<m1,...,mr>; its table is deferred."""
    if not degrees:
        raise ValueError("degree list must not be empty")
    cur = L
    for d in degrees:
        cur = takiff(cur, d)
    label = f"{L.label}<{','.join(str(d) for d in degrees)}>"
    return LieAlgebra(label=label, basis=cur.basis, brackets=lambda: cur.brackets,
                      grading=cur.grading, entries=cur.bracket_count)
