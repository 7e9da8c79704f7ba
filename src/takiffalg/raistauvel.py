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

The chain rule gives every such expansion, whatever f, the structure that
`InvariantFamily` enforces when a family is built, in one sweep over each
member's terms: every term of F^j has degree deg f and Takiff weight j,
where b@g weighs m-g (so F^j depends only on the grades m-j..m), and

    dF_i^j / d(b@(m-j)) = (df_i / db)(xi_m).

A table that breaks any of the three is refused, naming the member and the
term or variable; only a broken expansion can build one.  `family_rank_at`
gives the rank of a whole family's Jacobian at a flat point.  Ordered by
eps-power (rows) and by descending grade (columns), that Jacobian is block
lower triangular with the base Jacobian at the top component on the
diagonal, so the family has full rank (m+1)l at xi exactly when
`omega_test` holds at xi_m.  Reversing the grade blocks makes the Kirillov
matrix of L<m> block triangular too, with diagonal K(xi_m);
`block_triangle_rank` uses both triangles to give rank K(xi) = (m+1)(n-l)
from the top component alone wherever it is regular and in Omega.  It is
the one route for that decision: `takiff_kirillov_rank` applies it at a
flat point and ranks the full matrix where it gives None.
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
    eps-power.  Construction enforces the structure of the expansion that
    later checks rely on, member by member in `members` order: every term
    of F_i^j has degree deg f_i and weight j, and dF_i^j/d(b@(m-j)) is
    df_i/db at grade m for every base variable b.  The first defect raises
    AlgebraError naming (i, j) and the term or the variable.
    """

    takiff_algebra: LieAlgebra
    base: InvariantSet
    table: tuple[tuple[Polynomial, ...], ...]

    def __post_init__(self):
        Lm, m = self.takiff_algebra, self.depth
        n = Lm.grading.base_dim
        if len(self.table) != len(self.base.polys):
            raise AlgebraError(f"family has {len(self.table)} rows for "
                               f"{len(self.base.polys)} base invariants")
        for i, row in enumerate(self.table, start=1):
            if len(row) != m + 1:
                raise AlgebraError(f"family row {i} must have {m + 1} entries")
        want = [(f.degree(), _partials_at_grade(f, m * n)) for f in self.base.polys]
        for i, j, F in self.members():
            if F.varset != Lm.basis:
                raise AlgebraError(f"family entry ({i},{j}) is over the wrong variables")
            deg, want_partials = want[i - 1]
            low = (m - j) * n    # the grade-(m-j) variables are low..low+n-1
            partials: list[dict] = [{} for _ in range(n)]
            for mono, c in F.terms.items():
                degree = weight = 0
                for pos, (v, e) in enumerate(mono):
                    degree += e
                    weight += (m - v // n) * e
                    if low <= v < low + n:
                        rest = mono[pos + 1:] if e == 1 else ((v, e - 1),) + mono[pos + 1:]
                        # the partial's monomial determines mono: nothing cancels
                        partials[v - low][mono[:pos] + rest] = c if e == 1 else c * e
                if degree != deg or weight != j:
                    raise AlgebraError(
                        f"family entry ({i},{j}) has the term "
                        f"'{Polynomial(F.varset, {mono: c})}' of degree {degree} and "
                        f"weight {weight}, expected degree {deg} and weight {j}")
            for k in range(n):
                if partials[k] != want_partials[k]:
                    raise AlgebraError(
                        f"family entry ({i},{j}): the partial in '{Lm.basis[low + k]}' "
                        f"is not df_{i}/d{self.base.algebra.basis[k]} at grade {m}")

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


def _partials_at_grade(f: Polynomial, shift: int) -> list[dict]:
    """[df/db for b in the base] as term dicts, every variable index moved up by shift.

    One sweep over the terms of f; shift m*n puts the partials at grade m.
    """
    out: list[dict] = [{} for _ in f.varset]
    for mono, c in f.terms.items():
        moved = tuple((k + shift, e) for k, e in mono)
        for pos, (k, e) in enumerate(mono):
            rest = moved[pos + 1:] if e == 1 else ((k + shift, e - 1),) + moved[pos + 1:]
            out[k][moved[:pos] + rest] = c if e == 1 else c * e
    return out


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


def block_triangle_rank(fam: InvariantFamily, top: DualPoint, top_rank: int) -> int | None:
    """rank K(xi) on fam.takiff_algebra from the top component alone, or None.

    Valid only when every member of the family is a symmetric invariant of
    L<m>.  ``top_rank`` is rank K(xi_m).  When it is n - l and the top
    component xi_m passes `omega_test`, the rank is exactly (m+1)(n-l): the
    block triangle with diagonal K(xi_m) bounds it below, and the (m+1)l
    gradients of the family, independent at xi and in ker K(xi) because
    the members are invariants, bound it above.  Everywhere else only the
    Kirillov matrix of L<m> knows the rank, and the answer is None.
    """
    regular = fam.base.algebra.dim - fam.l
    if top_rank == regular and omega_test(fam.base, top):
        return (fam.depth + 1) * regular
    return None


def takiff_kirillov_rank(fam: InvariantFamily, flat: DualPoint,
                         base_rank: RankFunction) -> int:
    """rank K(xi) at a flat point of fam.takiff_algebra, by the grade blocks where possible.

    The top component is read off the flat point and ranked by
    ``base_rank``, any exact rank function on the base, for
    `block_triangle_rank`; where that gives None, the Kirillov matrix of
    L<m> is built and ranked.  The same validity condition applies.
    """
    Lm = fam.takiff_algebra
    base = fam.base.algebra.basis
    top = {b: flat[name] for b, name in zip(base, Lm.basis[fam.depth * len(base):])}
    rank = block_triangle_rank(fam, top, base_rank(fam.base.algebra, top))
    return kirillov_rank_at(Lm, flat) if rank is None else rank
