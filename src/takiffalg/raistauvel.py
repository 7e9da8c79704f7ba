"""Invariant families on truncated current algebras by epsilon-expansion.

Given a homogeneous invariant f of the base algebra, substituting

    b  ->  b@m + eps*b@(m-1) + ... + eps^m * b@0

for every base variable b and truncating at eps^(m+1) yields polynomials
F^0..F^m over the graded variables,

    f(xi_m + eps xi_{m-1} + ... + eps^m xi_0) = sum_j F^j(xi) eps^j,

each of which is a symmetric invariant of L<m> (by Rais-Tauvel, basic ones
when f is), so an `InvariantFamily` is the `InvariantSet` of the next
level as it stands.  Each base variable's coefficients (b@m, ..., b@0) go
to `polyring.jet_substitute`, which multiplies them out symbolically,
truncated at eps^m; numeric dual-number evaluation exists only in the test
suite as an independent oracle.

The chain rule gives every such expansion, whatever f, the structure that
`InvariantFamily` enforces when a family is built, in one sweep over each
member's terms: every term of F^j has degree deg f and Takiff weight j,
where b@g weighs m-g (so F^j depends only on the grades m-j..m), and

    dF_i^j / d(b@(m-j)) = (df_i / db)(xi_m).

A member that breaks any of the three is refused, naming it and the term
or variable; only a broken expansion can build one.  `family_rank_at`
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
from fractions import Fraction
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
from .takiff import _require_grading, graded_varset, takiff

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
    return _expand(f, m, graded_varset(L, m))


def _expand(f: Polynomial, m: int, names: tuple[str, ...]) -> list[Polynomial]:
    # b@(m-s) for the i-th base variable b is basis index (m-s)*n + i of L<m>
    n, one = len(f.varset), Fraction(1)
    subst = {b: [Polynomial(names, {(((m - s) * n + i, 1),): one}, _canonical=True)
                 for s in range(m + 1)]
             for i, b in enumerate(f.varset)}
    return jet_substitute(f, subst, m)


@dataclass(frozen=True)
class InvariantFamily(InvariantSet):
    """The expansion of ``base`` as an invariant set of ``algebra`` = L<m>.

    ``polys`` is eps-power major, F_i^j = ``polys[j*l + i - 1]``.
    Construction enforces, member by member, that every term of F_i^j has
    degree deg f_i and weight j and that dF_i^j/d(b@(m-j)) is df_i/db at
    grade m; the first defect raises AlgebraError naming (i, j) and the term
    or variable.  That implies the `InvariantSet` check, which is not run:
    right variables, homogeneous of degree deg f_i >= 1, and nonzero, since
    some partial df_i/db is.
    """

    base: InvariantSet

    def __post_init__(self):
        object.__setattr__(self, "polys", tuple(self.polys))
        Lm, base = self.algebra, self.base
        grading = _require_grading(Lm)
        if grading.base_basis != base.algebra.basis:
            raise AlgebraError(f"algebra {Lm.label} is not a truncation of "
                               f"{base.algebra.label}")
        m, n, l = grading.depth, grading.base_dim, len(base)
        if len(self.polys) != (m + 1) * l:
            raise AlgebraError(f"family has {len(self.polys)} members, expected "
                               f"{(m + 1) * l} for {l} base invariants at depth {m}")
        want = list(zip(base.degrees(), (_partials_at_grade(f, m * n) for f in base.polys)))
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
                        f"is not df_{i}/d{base.algebra.basis[k]} at grade {m}")

    @property
    def l(self) -> int:
        return len(self.base)

    @property
    def depth(self) -> int:
        return self.algebra.grading.depth

    def degrees(self) -> tuple[int, ...]:
        """deg F_i^j = deg f_i, enforced at construction: the base's, m+1 times."""
        return self.base.degrees() * (self.depth + 1)

    def member(self, i: int, j: int) -> Polynomial:
        """F_i^j with i 1-based (matching the usual subscript), j the eps-power."""
        return self.polys[j * self.l + i - 1]

    def members(self) -> Iterator[tuple[int, int, Polynomial]]:
        """All (i, j, F_i^j) in ``polys`` order: F_1^0..F_l^0, F_1^1, ..."""
        l = self.l
        return ((k % l + 1, k // l, F) for k, F in enumerate(self.polys))


def _partials_at_grade(f: Polynomial, shift: int) -> list[dict]:
    """[df/db for b in the base] as term dicts in one sweep, indices moved up by shift."""
    out: list[dict] = [{} for _ in f.varset]
    for mono, c in f.terms.items():
        moved = tuple((k + shift, e) for k, e in mono)
        for pos, (k, e) in enumerate(mono):
            rest = moved[pos + 1:] if e == 1 else ((k + shift, e - 1),) + moved[pos + 1:]
            out[k][moved[:pos] + rest] = c if e == 1 else c * e
    return out


def build_family(L: LieAlgebra, m: int, fs: InvariantSet) -> InvariantFamily:
    """The expansion of ``fs`` on L<m>; a family as ``fs`` is not checked again."""
    if not fs.algebra.structure_equal(L):
        raise AlgebraError("invariant set belongs to a different algebra")
    if not fs.polys:
        raise AlgebraError("cannot expand an empty invariant set")
    Lm = takiff(L, m)
    jets = [_expand(f, m, Lm.basis) for f in fs.polys]
    return InvariantFamily(algebra=Lm, base=fs,
                           polys=tuple(F[j] for j in range(m + 1) for F in jets))


def family_rank_at(fam: InvariantFamily, flat: DualPoint) -> int:
    """Rank of the (m+1)l x (m+1)n family Jacobian at a `takiff.flatten_point` of L<m>."""
    return linalg.rank([F.gradient_at(flat) for F in fam.polys])


def block_triangle_rank(fam: InvariantFamily, top: DualPoint, top_rank: int) -> int | None:
    """rank K(xi) on fam.algebra from the top component alone, or None.

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
    """rank K(xi) at a flat point of fam.algebra, by the grade blocks where possible.

    The top component is read off the flat point and ranked by
    ``base_rank``, any exact rank function on the base, for
    `block_triangle_rank`; where that gives None, the Kirillov matrix of
    L<m> is built and ranked.  The same validity condition applies.
    """
    Lm = fam.algebra
    base = fam.base.algebra.basis
    top = {b: flat[name] for b, name in zip(base, Lm.basis[fam.depth * len(base):])}
    rank = block_triangle_rank(fam, top, base_rank(fam.base.algebra, top))
    return kirillov_rank_at(Lm, flat) if rank is None else rank
