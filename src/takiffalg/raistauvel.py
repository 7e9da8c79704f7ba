"""Invariant families on truncated current algebras by epsilon-expansion.

Given a homogeneous invariant f of the base algebra, substituting

    b  ->  b@m + eps*b@(m-1) + ... + eps^m * b@0

for every base variable b and truncating at eps^(m+1) yields polynomials
F^0..F^m over the graded variables,

    f(xi_m + eps xi_{m-1} + ... + eps^m xi_0) = sum_j F^j(xi) eps^j,

each of which is a symmetric invariant of L<m> (by Rais-Tauvel, basic ones
when f is), so an `InvariantFamily` is the `InvariantSet` of the next
level as it stands.  Each base variable's coefficients (b@m, ..., b@0) are
distinct variables of L<m>, so `polyring.jet_substitute` writes F^j
directly: each term of f splits its exponents over the grade shifts in
every way of total weight j, with multinomial coefficients, and no two
splits meet in one monomial.  Numeric dual-number evaluation exists only
in the test suite as an independent oracle.

The chain rule gives every such expansion, whatever f, the structure that
`InvariantFamily` enforces when a family is built, in one sweep over each
member's terms: every term of F^j has degree deg f and Takiff weight j,
where b@g weighs m-g (so F^j depends only on the grades m-j..m), and

    dF_i^j / d(b@(m-j)) = (df_i / db)(xi_m).

A member that breaks any of the three is refused, naming it and the term
or variable; only a broken expansion can build one.  Ordered by eps-power
(rows) and by descending grade (columns), a family's Jacobian is block
lower triangular with the base Jacobian at the top component on the
diagonal, so the family has full rank (m+1)l at xi exactly when the base
differentials are independent at xi_m.  `family_rank_at` ranks that base
block first, down to the first base of an iterated family, and ranks the
member gradients only where it is short.  Reversing the grade blocks
makes the Kirillov matrix of L<m> block triangular too, with diagonal
K(xi_m), so rank K(xi) >= (m+1) rank K(xi_m).  For a family that is
invariant and independent at one point, which `verify` certifies once per
step, no Kirillov rank on L<m> exceeds (m+1)(n-l); `block_triangle_rank`
then gives rank K(xi) = (m+1)(n-l) wherever rank K(xi_m) = n-l, from that
rank alone.  It is the one route for that decision:
`InvariantFamily.kirillov_rank_at` applies it at a flat point, ranking the
top through the base's own `kirillov_rank_at` down to the first base, and
ranks L<m> itself where it gives None.  Each of those two ranks is
`InvariantSet.kirillov_rank_at`'s: through a commuting half of the basis
where the algebra has one of the right size, else from the Kirillov matrix.
The empty family meets the precondition: an uncertified step certifies
the empty set, l = 0 in every bound.
"""

from __future__ import annotations

from math import comb
from typing import Iterator, Sequence

from . import linalg
from .liealg import AlgebraError, DualPoint, InvariantSet, LieAlgebra, check_point
from .polyring import Polynomial, _common_denominator, _over, jet_substitute
from .takiff import _require_grading, graded_name, takiff

__all__ = [
    "InvariantFamily",
    "build_family",
    "family_rank_at",
    "block_triangle_rank",
]


def _expand(f: Polynomial, m: int, names: tuple[str, ...]) -> list[Polynomial]:
    # b@(m-s) for the i-th base variable b is basis index (m-s)*n + i of L<m>
    n = len(f.varset)
    return jet_substitute(f, [[(m - s) * n + i for s in range(m + 1)] for i in range(n)],
                          names)


class InvariantFamily(InvariantSet):
    """The expansion of ``base`` as an invariant set of ``algebra`` = L<m>.

    ``polys`` is eps-power major, F_i^j = ``polys[j*l + i - 1]``.
    Construction enforces, member by member, that every term of F_i^j has
    degree deg f_i and weight j and that dF_i^j/d(b@(m-j)) is df_i/db at
    grade m; the first defect raises AlgebraError naming (i, j) and the term
    or variable.  Partials are compared exactly as integers, scaled by the
    common denominator of f_i's coefficients; a member coefficient whose
    scaled partial is no integer matches nothing.  That implies the
    `InvariantSet` check, which is not run: right variables, homogeneous of
    degree deg f_i >= 1, and nonzero, since some partial df_i/db is.
    """

    __slots__ = ("base",)

    def __init__(self, algebra: LieAlgebra, polys: Sequence[Polynomial], base: InvariantSet):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "polys", tuple(polys))
        object.__setattr__(self, "base", base)
        grading = _require_grading(algebra)
        if grading.base_basis != base.algebra.basis:
            raise AlgebraError(f"algebra {algebra.label} is not a truncation of "
                               f"{base.algebra.label}")
        m, n, l = grading.depth, grading.base_dim, len(base)
        if len(self.polys) != (m + 1) * l:
            raise AlgebraError(f"family has {len(self.polys)} members, expected "
                               f"{(m + 1) * l} for {l} base invariants at depth {m}")
        want = [(deg, *_partials_at_grade(f, m * n))
                for f, deg in zip(base.polys, base.degrees())]
        for i, j, F in self.members():
            if F.varset != algebra.basis:
                raise AlgebraError(f"family entry ({i},{j}) is over the wrong variables")
            deg, den, want_partials = want[i - 1]
            low = (m - j) * n    # the grade-(m-j) variables are low..low+n-1
            partials: list[dict] = [{} for _ in range(n)]
            for mono, c in F.terms.items():
                degree = weight = 0
                for pos, (v, e) in enumerate(mono):
                    degree += e
                    weight += (m - v // n) * e
                    if low <= v < low + n:
                        rest = mono[pos + 1:] if e == 1 else ((v, e - 1),) + mono[pos + 1:]
                        # the partial's monomial determines mono: nothing cancels;
                        # den * c * e is an int, or a Fraction no wanted int equals
                        partials[v - low][mono[:pos] + rest] = _over(c.numerator * den * e,
                                                                     c.denominator)
                if degree != deg or weight != j:
                    raise AlgebraError(
                        f"family entry ({i},{j}) has the term "
                        f"'{Polynomial(F.varset, {mono: c})}' of degree {degree} and "
                        f"weight {weight}, expected degree {deg} and weight {j}")
            for k in range(n):
                if partials[k] != want_partials[k]:
                    raise AlgebraError(
                        f"family entry ({i},{j}): the partial in '{algebra.basis[low + k]}' "
                        f"is not df_{i}/d{base.algebra.basis[k]} at grade {m}")

    def _fields(self) -> tuple:
        return self.algebra, self.polys, self.base

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

    def first_defect(self) -> tuple[int, str] | None:
        """The base's first defect (i, x) as (i, x@0), down the chain to the first base.

        Bracketing every member finds the same: every member of an invariant
        f_i' is one, F^0 and x@0 come first, and {F_i^0, x@0} is {f_i, x}@m.
        """
        found = self.base.first_defect()
        return None if found is None else (found[0], graded_name(found[1], 0))

    def _independent_at(self, point: DualPoint) -> bool:
        return family_rank_at(self, point) == len(self)

    def kirillov_rank_at(self, point: DualPoint) -> int:
        """rank K at a flat point of L<m>, read down the family chain to the first base.

        The top component is ranked by the base's own `kirillov_rank_at`,
        and `kirillov_rank_over` does the rest.  Precondition: the family is
        invariant and independent at one point, as `verify` certifies once
        per step (the empty family always is).  Then so is every family
        below it: F_i^j is an invariant exactly when f_i is, and that point's
        deepest top is in Omega of the first base, so every family of the
        chain is independent where that top is deepest.  The point goes
        through `check_point`, and the top is the last n entries of its
        coordinate list.
        """
        vals = check_point(self.algebra, point)
        top = vals[self.depth * self.base.algebra.dim:]
        return self.kirillov_rank_over(vals, self.base.kirillov_rank_at(top))

    def kirillov_rank_over(self, vals: list, top_rank: int) -> int:
        """rank K at the flat point ``vals`` given rank K(xi_m) = ``top_rank``.

        `block_triangle_rank` first, else `InvariantSet.kirillov_rank_at` on L<m>.
        """
        rank = block_triangle_rank(self, top_rank)
        return super().kirillov_rank_at(vals) if rank is None else rank


def _partials_at_grade(f: Polynomial, shift: int) -> tuple[int, list[dict]]:
    """(D, [D * df/db for b in the base]): int term dicts in one sweep, indices moved up by shift.

    D is the common denominator of f's coefficients, read off its terms.
    """
    den = _common_denominator(f.terms.values())
    out: list[dict] = [{} for _ in f.varset]
    for mono, c in f.terms.items():
        scaled = c.numerator * (den // c.denominator)
        moved = tuple((k + shift, e) for k, e in mono)
        for pos, (k, e) in enumerate(mono):
            rest = moved[pos + 1:] if e == 1 else ((k + shift, e - 1),) + moved[pos + 1:]
            out[k][moved[:pos] + rest] = scaled * e
    return den, out


# The family of f at depth m has one term per term of f and split of each of
# its exponents over the m+1 grade shifts, of total weight at most m: at most
# prod C(e+m, m) per term, and nothing merges (see `jet_substitute`).  On a
# 2-core x86 box with Python 3.11, `verify --m 128 sl3` (3,467,822 terms)
# peaks at 663 MB; sl3<306>, which `takiff` admits, would hold 45,733,962
# terms, about 13 GB.  The budget admits sl3<134> and refuses sl3<135>.
MAX_FAMILY_TERMS = 4_000_000


def _refuse_past_budget(fs: InvariantSet, m: int) -> None:
    """Raise AlgebraError when the depth-m family of ``fs`` would pass MAX_FAMILY_TERMS.

    The bound sum prod C(e+m, m) over the terms is taken first; only past the
    budget is the exact count taken.  A split of e of weight w is a partition
    of w into at most e parts (as many as into parts of size at most e), so
    a term counts the products of those numbers with weights summing to at
    most m, by convolution.
    """
    bound = 0
    for f in fs.polys:
        for mono in f.terms:
            term = 1
            for _, e in mono:
                term *= comb(e + m, m)
            bound += term
    if bound <= MAX_FAMILY_TERMS:
        return
    exps = [tuple(sorted(e for _, e in mono)) for f in fs.polys for mono in f.terms]
    rows: dict[int, list[int]] = {}
    for e in {e for t in exps for e in t}:
        row = rows[e] = [1] + [0] * m
        for part in range(1, e + 1):
            for w in range(part, m + 1):
                row[w] += row[w - part]
    counts: dict[tuple[int, ...], int] = {}
    for t in set(exps):
        acc = rows[t[0]]
        for e in t[1:]:
            acc = [sum(acc[v] * rows[e][w - v] for v in range(w + 1)) for w in range(m + 1)]
        counts[t] = sum(acc)
    total = sum(counts[t] for t in exps)
    if total > MAX_FAMILY_TERMS:
        raise AlgebraError(f"the family of {fs.algebra.label}<{m}> would have {total} terms, "
                           f"past the budget of {MAX_FAMILY_TERMS}")


def build_family(fs: InvariantSet, m: int) -> InvariantFamily:
    """The expansion of ``fs`` on ``fs.algebra``<m>; a family as ``fs`` is not checked again.

    The empty set expands to the empty family.  A family past
    ``MAX_FAMILY_TERMS`` is refused before anything is expanded.
    """
    Lm = takiff(fs.algebra, m)
    _refuse_past_budget(fs, m)
    jets = [_expand(f, m, Lm.basis) for f in fs.polys]
    return InvariantFamily(algebra=Lm, base=fs,
                           polys=tuple(F[j] for j in range(m + 1) for F in jets))


def family_rank_at(fam: InvariantFamily, flat: DualPoint) -> int:
    """Rank of the (m+1)l x (m+1)n family Jacobian at a point of L<m>.

    The Jacobian is block triangular with diagonal J_f(xi_m), so the base
    block at the top component, the last n coordinates, is ranked first:
    the l base gradients there, or, when the base is itself a family, its
    own rank at xi_m, so an iterated family reaches its first base at the
    deepest top.  Rank l gives (m+1)l with no member gradient; below it
    every member is ranked.
    """
    base, vals = fam.base, check_point(fam.algebra, flat)
    top = vals[fam.depth * base.algebra.dim:]
    if isinstance(base, InvariantFamily):
        top_rank = family_rank_at(base, top)
    else:
        top_rank = linalg.rank([f.gradient_at(top) for f in base.polys])
    if top_rank == fam.l:
        return (fam.depth + 1) * fam.l
    return linalg.rank([F.gradient_at(vals) for F in fam.polys])


def block_triangle_rank(fam: InvariantFamily, top_rank: int) -> int | None:
    """rank K(xi) on fam.algebra from rank K(xi_m) = ``top_rank`` alone, or None.

    Precondition: the family is invariant on L<m> and independent at one
    point of L<m>, which `verify` certifies once per step.  The (m+1)l
    gradients at that point lie in ker K there, so ind L<m> >= (m+1)l and
    no rank on L<m> exceeds (m+1)(n-l); the block triangle with diagonal
    K(xi_m) bounds rank K(xi) below by (m+1) top_rank.  So the rank is
    exactly (m+1)(n-l) where top_rank is n-l; elsewhere only the Kirillov
    matrix of L<m> knows it, and the answer is None.
    """
    regular = fam.base.algebra.dim - fam.l
    return (fam.depth + 1) * regular if top_rank == regular else None
