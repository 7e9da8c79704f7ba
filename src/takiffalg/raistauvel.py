"""Invariant families on truncated current algebras by epsilon-expansion.

Given a homogeneous invariant f of the base algebra, substituting

    b  ->  b@m + eps*b@(m-1) + ... + eps^m * b@0

for every base variable b and truncating at eps^(m+1) yields polynomials
F^0..F^m over the graded variables,

    f(xi_m + eps xi_{m-1} + ... + eps^m xi_0) = sum_j F^j(xi) eps^j,

each of which is a symmetric invariant of L<m>.  `expand_invariant` hands
each base variable's coefficient list (b@m, b@(m-1), ..., b@0) to
`polyring.jet_substitute`, which multiplies the lists out symbolically,
truncated at eps^m; numeric dual-number evaluation exists only in the test
suite as an independent oracle.

Structural facts enforced here when a family is built: F^j depends only on
the grades m-j..m (triangularity) and deg F^j = deg f.  `family_rank_at`
gives the rank of a whole family's Jacobian at a flat point.

Ordered by eps-power (rows) and by descending grade (columns), that
Jacobian is block lower triangular.  `derivative_identity_defect` checks,
once per family and as a polynomial identity, that every diagonal block is
the base Jacobian at the top component,

    dF_i^j / d(b@(m-j)) = (df_i / db)(xi_m),

so the family has full rank (m+1)l at xi exactly when `omega_test` holds at
xi_m.  Reversing the grade blocks makes the Kirillov matrix of L<m> block
triangular too, with diagonal K(xi_m); `block_triangle_rank` uses both
triangles to give rank K(xi) = (m+1)(n-l) from the top component alone
wherever it is regular and in Omega.  It is the one route for that
decision: `takiff_kirillov_rank` applies it at a flat point and ranks the
full matrix where it gives None.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from . import linalg
from .liealg import (
    AlgebraError,
    DualPoint,
    HomogeneityError,
    InvariantSet,
    LieAlgebra,
    RankFunction,
    kirillov_rank_at,
    omega_test,
)
from .polyring import Polynomial, jet_substitute
from .takiff import graded_name, graded_varset, takiff

__all__ = [
    "InvariantFamily",
    "expand_invariant",
    "build_family",
    "family_rank_at",
    "derivative_identity_defect",
    "block_triangle_rank",
    "takiff_kirillov_rank",
]


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
    subst = {b: [Polynomial.variable(names, graded_name(b, m - s)) for s in range(m + 1)]
             for b in L.basis}
    return jet_substitute(f, subst, m)


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

    def invariant_set(self) -> InvariantSet:
        return InvariantSet(algebra=self.takiff_algebra,
                            polys=tuple(F for _, _, F in self.members()))


def build_family(L: LieAlgebra, m: int, fs: InvariantSet) -> InvariantFamily:
    if not fs.algebra.structure_equal(L):
        raise AlgebraError("invariant set belongs to a different algebra")
    if not fs.polys:
        raise AlgebraError("cannot expand an empty invariant set")
    table = tuple(tuple(expand_invariant(L, m, f)) for f in fs.polys)
    return InvariantFamily(takiff_algebra=takiff(L, m), base=fs, table=table)


def family_rank_at(fam: InvariantFamily, flat: DualPoint) -> int:
    """Rank of the full (m+1)l x (m+1)n Jacobian of the family at a flat point.

    The point is one on L<m>, as `takiff.flatten_point` assembles it from
    its components.
    """
    return linalg.rank([F.gradient_at(flat) for _, _, F in fam.members()])


def derivative_identity_defect(fam: InvariantFamily) -> tuple[int, int, str] | None:
    """First (i, j, b@(m-j)) where dF_i^j/d(b@(m-j)) is not df_i/db at grade m.

    The right side is df_i/db with every base variable b' renamed to b'@m.
    Members come in `members` order, variables in base order; None means
    the identity holds for every i, j and b.  Together with the
    triangularity the family enforces, the identity makes rank J_F(xi) =
    (m+1)l equivalent to `omega_test(fam.base, xi_m)` at every point.
    One sweep over each member's terms forms all of its partials in the
    grade-(m-j) variables at once.
    """
    Lm = fam.takiff_algebra
    m = fam.depth
    base = fam.base.algebra.basis
    top = [Lm.index_of(graded_name(b, m)) for b in base]
    want = [[{tuple(sorted((top[k], e) for k, e in mono)): c
              for mono, c in f.partial(b).terms.items()}
             for b in base] for f in fam.base.polys]
    for i, j, F in fam.members():
        names = [graded_name(b, m - j) for b in base]
        column = {Lm.index_of(name): k for k, name in enumerate(names)}
        partials: list[dict] = [{} for _ in base]
        for mono, c in F.terms.items():
            for pos, (v, e) in enumerate(mono):
                k = column.get(v)
                if k is None:
                    continue
                rest = mono[pos + 1:] if e == 1 else ((v, e - 1),) + mono[pos + 1:]
                # the partial's monomial determines mono: nothing cancels
                partials[k][mono[:pos] + rest] = c if e == 1 else c * e
        for k, name in enumerate(names):
            if partials[k] != want[i - 1][k]:
                return i, j, name
    return None


def block_triangle_rank(fam: InvariantFamily, top: DualPoint,
                        top_rank: int | None = None) -> int | None:
    """rank K(xi) on fam.takiff_algebra from the top component alone, or None.

    Valid only when every member of the family is a symmetric invariant of
    L<m> and `derivative_identity_defect(fam)` is None.  When the top
    component xi_m has rank K(xi_m) = n - l and passes `omega_test`, the
    rank is exactly (m+1)(n-l): the block triangle with diagonal K(xi_m)
    bounds it below, and the (m+1)l gradients of the family, independent at
    xi and in ker K(xi) because the members are invariants, bound it above.
    Everywhere else only the Kirillov matrix of L<m> knows the rank, and the
    answer is None.  ``top_rank`` is rank K(xi_m) when the caller already
    has it; None ranks the top here.
    """
    L, fs = fam.base.algebra, fam.base
    if top_rank is None:
        top_rank = kirillov_rank_at(L, top)
    regular = L.dim - fam.l
    if top_rank == regular and omega_test(fs, top):
        return (fam.depth + 1) * regular
    return None


def takiff_kirillov_rank(fam: InvariantFamily, flat: DualPoint,
                         base_rank: RankFunction | None = None) -> int:
    """rank K(xi) at a flat point of fam.takiff_algebra, by the grade blocks where possible.

    The top component is read off the flat point for `block_triangle_rank`;
    where that gives None, the Kirillov matrix of L<m> is built and ranked.
    ``base_rank``, any exact rank function on the base, ranks the top
    component when given; None leaves that to `block_triangle_rank`.  The
    same validity conditions apply.
    """
    Lm = fam.takiff_algebra
    grading = Lm.grading
    m = fam.depth
    top = {grading.base_name_of[name]: flat[name]
           for name in Lm.basis if grading.grade_of[name] == m}
    top_rank = base_rank(fam.base.algebra, top) if base_rank is not None else None
    rank = block_triangle_rank(fam, top, top_rank)
    return kirillov_rank_at(Lm, flat) if rank is None else rank
