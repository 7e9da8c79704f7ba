"""Invariant families on truncated current algebras by epsilon-expansion.

Given a homogeneous invariant f of the base algebra, substituting

    b  ->  b@m + eps*b@(m-1) + ... + eps^m * b@0

for every base variable b and truncating at eps^(m+1) yields polynomials
F^0..F^m over the graded variables,

    f(xi_m + eps xi_{m-1} + ... + eps^m xi_0) = sum_j F^j(xi) eps^j,

each of which is a symmetric invariant of L<m>.  The expansion is computed
symbolically through jet arithmetic; numeric dual-number evaluation exists
only in the test suite as an independent oracle.

Structural facts exposed here: F^j depends only on the grades m-j..m
(triangularity), deg F^j = deg f, the lowest nonzero graded component of
(dF^j)_xi, and the grade-blocked Jacobian profile of a whole family at a
point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from . import linalg
from .liealg import AlgebraError, HomogeneityError, InvariantSet, LieAlgebra
from .polyring import Jet, Polynomial, jet_substitute
from .takiff import TakiffDualPoint, flatten_point, graded_name, takiff

__all__ = [
    "InvariantFamily",
    "JacobianProfile",
    "expand_invariant",
    "build_family",
    "lowest_component",
    "jacobian_profile",
    "family_rank_at",
]


def graded_varset(L: LieAlgebra, m: int) -> tuple[str, ...]:
    """Variable names of L<m> in basis order, without building the algebra."""
    return tuple(graded_name(b, j) for j in range(m + 1) for b in L.basis)


def expand_invariant(L: LieAlgebra, m: int, f: Polynomial) -> list[Polynomial]:
    """[F^0, ..., F^m] over the graded variables; F^0 is f with b -> b@m."""
    if m < 1:
        raise ValueError(f"truncation order must be >= 1, got {m}")
    if f.varset != L.basis:
        raise AlgebraError(
            f"invariant variables {f.varset} do not match the basis of {L.label}")
    if not f.is_homogeneous():
        raise HomogeneityError(f"cannot expand non-homogeneous polynomial '{f}'")
    names = graded_varset(L, m)
    subst = {
        b: Jet(order=m, coeffs=tuple(
            Polynomial.variable(names, graded_name(b, m - s)) for s in range(m + 1)))
        for b in L.basis
    }
    return list(jet_substitute(f, subst, m).coeffs)


@dataclass(frozen=True)
class InvariantFamily:
    """The l x (m+1) grid of expanded invariants attached to L<m>.

    table[i][j] is F_{i+1}^j; rows follow the base invariants, columns the
    eps-power.  Construction enforces the two structural facts that later
    checks rely on: every entry is homogeneous of its row's base degree, and
    row entry j uses only variables of grade m-j and above.
    """

    takiff_algebra: LieAlgebra
    base: InvariantSet
    table: tuple[tuple[Polynomial, ...], ...]

    def __post_init__(self):
        m = self.depth
        grading = self.takiff_algebra.grading
        for i, row in enumerate(self.table):
            if len(row) != m + 1:
                raise AlgebraError(f"family row {i + 1} must have {m + 1} entries")
            want = self.base.polys[i].degree()
            for j, F in enumerate(row):
                if F.varset != self.takiff_algebra.basis:
                    raise AlgebraError(f"family entry ({i + 1},{j}) is over the wrong variables")
                if not F.is_homogeneous() or F.degree() != want:
                    raise AlgebraError(
                        f"family entry ({i + 1},{j}) has degree {F.degree()}, expected {want}")
                low = min(grading.grade_of[v] for v in F.support())
                if low < m - j:
                    raise AlgebraError(
                        f"family entry ({i + 1},{j}) reaches below grade {m - j}")

    @property
    def l(self) -> int:
        return len(self.table)

    @property
    def depth(self) -> int:
        return self.takiff_algebra.grading.depth

    def member(self, i: int, j: int) -> Polynomial:
        """F_i^j with i 1-based (matching the usual subscript), j the eps-power."""
        return self.table[i - 1][j]

    def members(self) -> Iterator[tuple[int, int, Polynomial]]:
        """All (i, j, F_i^j), eps-power major: F_1^0..F_l^0, F_1^1, ..."""
        for j in range(self.depth + 1):
            for i in range(1, self.l + 1):
                yield i, j, self.table[i - 1][j]

    def invariant_set(self, claimed_index: int | None = None) -> InvariantSet:
        return InvariantSet(algebra=self.takiff_algebra,
                            polys=tuple(F for _, _, F in self.members()),
                            claimed_index=claimed_index)


def build_family(L: LieAlgebra, m: int, fs: InvariantSet) -> InvariantFamily:
    if not fs.algebra.structure_equal(L):
        raise AlgebraError("invariant set belongs to a different algebra")
    if not fs.polys:
        raise AlgebraError("cannot expand an empty invariant set")
    table = tuple(tuple(expand_invariant(L, m, f)) for f in fs.polys)
    return InvariantFamily(takiff_algebra=takiff(L, m), base=fs, table=table)


def _grade_positions(Lm: LieAlgebra) -> tuple[list[list[int]], tuple[str, ...]]:
    """Basis positions grouped by grade, each group in base-name order."""
    grading = Lm.grading
    base_names = tuple(grading.base_name_of[b] for b in Lm.basis
                       if grading.grade_of[b] == 0)
    pos = {b: i for i, b in enumerate(Lm.basis)}
    groups = [[pos[graded_name(b, g)] for b in base_names]
              for g in range(grading.depth + 1)]
    return groups, base_names


def lowest_component(Lm: LieAlgebra, F: Polynomial,
                     components: TakiffDualPoint) -> tuple[int | None, list[Fraction] | None]:
    """Lowest nonzero graded component of (dF)_xi, as (grade, base vector).

    The differential lives in the algebra, so its grade-g part consists of the
    partials with respect to the grade-g variables.  A vanishing differential
    gives (None, None).
    """
    flat = flatten_point(Lm, components)
    grad = F.gradient_at(flat)
    groups, _ = _grade_positions(Lm)
    for g, idxs in enumerate(groups):
        vec = [grad[i] for i in idxs]
        if any(vec):
            return g, vec
    return None, None


def family_rank_at(fam: InvariantFamily, components: TakiffDualPoint) -> int:
    """Rank of the full (m+1)l x (m+1)n Jacobian of the family at a point."""
    flat = flatten_point(fam.takiff_algebra, components)
    return linalg.rank([F.gradient_at(flat) for _, _, F in fam.members()])


@dataclass(frozen=True)
class JacobianProfile:
    """Grade-blocked rank data of a family's Jacobian at one point.

    Row block j holds the differentials of the F_i^j; column block k holds the
    grade-k partials.  Blocks with k < m-j are identically zero by the
    dependence structure; any nonzero entry there is recorded as a violation.
    """

    total_rank: int
    block_ranks: tuple[tuple[int, ...], ...]
    band_violations: tuple[tuple[int, int], ...]
    expected_full_rank: int

    @property
    def is_full_rank(self) -> bool:
        return self.total_rank == self.expected_full_rank


def jacobian_profile(fam: InvariantFamily, components: TakiffDualPoint) -> JacobianProfile:
    Lm = fam.takiff_algebra
    m = fam.depth
    flat = flatten_point(Lm, components)
    groups, _ = _grade_positions(Lm)
    rows_by_level: list[list[list[Fraction]]] = []
    for j in range(m + 1):
        rows_by_level.append([fam.member(i, j).gradient_at(flat)
                              for i in range(1, fam.l + 1)])
    all_rows = [row for level in rows_by_level for row in level]
    block_ranks = []
    violations = []
    for j in range(m + 1):
        ranks = []
        for k in range(m + 1):
            block = [[row[c] for c in groups[k]] for row in rows_by_level[j]]
            r = linalg.rank(block)
            ranks.append(r)
            if k < m - j and r:
                violations.append((j, k))
        block_ranks.append(tuple(ranks))
    return JacobianProfile(
        total_rank=linalg.rank(all_rows),
        block_ranks=tuple(block_ranks),
        band_violations=tuple(violations),
        expected_full_rank=(m + 1) * fam.l,
    )
