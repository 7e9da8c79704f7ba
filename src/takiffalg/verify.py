"""Theorem-level verification runs over truncated current algebras.

Each verifier assembles a Report whose checks, in a fixed order, witness one
structural fact apiece: Jacobi on the constructed algebra (certified from its
base, see `_jacobi_check`), exact invariance of the expanded family, the
unipotent-ideal invariant witness, the index and magic-number formulas,
degree bookkeeping, Jacobian full-rank on the independence locus, and the
two transfer equivalences between a graded point and its top component.

Failures never raise; they become FAIL entries carrying a concrete witness
(a basis triple, a point, or the offending bracket).  The invariance and
ideal checks are certificates from the base, as Jacobi is (see
`_invariance_checks`).  Since {b@g, x@k} = [b, x]@(g+k), or 0 past grade
m, the expansion Phi(b) = sum_s eps^s b@(m-s) satisfies

    {Phi(f), x@k} = eps^k Phi({f, x})   mod eps^(m+1)

for every f and x, with no Jacobi hypothesis, so every member F_i^j is an
invariant of L<m> exactly when f_i is an invariant of L.  Only the base
invariants are bracketed, symbolically, against the basis of L; a base
defect forms the one bracket on L<m> that each FAIL names.  In
`verify_multi_current` each level's family is the next level's invariant
set as it stands, and its `first_defect` is read off the first base, so
every level brackets only the first base.  The certificate rests on
`raistauvel.build_family` computing the jet expansion, as the Jacobi
certificate rests on `takiff` computing the truncated bracket;
`raistauvel.InvariantFamily` refuses members that break the expansion's
degrees, weights or derivative identity, so a broken expansion raises
AlgebraError instead of writing a report.

One step certificate gates every shortcut.  Every family satisfies the
derivative identity dF_i^j/d(b@(m-j)) = (df_i/db)(xi_m) and the triangular
supports, so its Jacobian is block triangular with diagonal J_f(xi_m):
"xi in Omega(L<m>*) iff xi_m in Omega(L*)" at every point.  So
`omega-transfer` PASSes whenever there is a family, and
`jacobian-rank-on-omega` takes its witness rank over the one top that
``fs.omega_point`` draws in Omega, the step's one Omega decision (on a
family, from the first base at the deepest top).
When `invariance` passes and that search finds a point, the step is
certified: ``fs`` and its family are invariants independent at one point.
An uncertified step certifies the empty set, l = 0 in every bound: it is
invariant and independent everywhere, and its family is empty on the same
L<m>.  `liealg.index` takes the set and the family, whose ceilings are
n - l and (m+1)(n - l), and ranks each trial down the family chain
(`raistauvel.InvariantFamily.kirillov_rank_at`); the family ranks the
regularity samples, its base their tops, and gives `_zero_top_rank_bound`'s
m(n - l) at a top with K(xi_m) = 0.  A set ranks through a commuting half
Z of the basis where its algebra has one with 2(dim - |Z|) = dim - l, as
sl_n x V^n and the Heisenberg algebras do: only the block K(xi)[S][Z] is
built, and its full row rank gives rank K(xi) = 2|S| (see `liealg`).
Every route gives the exact rank.  The Omega search runs before the index
trials, so its time is charged to `index-formula` in the human output.

Each regularity sample is one coordinate list, the flat point of L<m>
(the basis is grade-major), and ranks its top component, the list's last
n entries, once: rank K(xi_m) decides the right side and feeds the block
triangle, which proves only "xi_m regular => xi regular"; the converse is
still sampled.  A sample ranks L<m> only where neither the zero-top bound
nor the block triangle decides it.  The step reads `takiff`'s deferred
bracket table only through an L<m> rank that neither decides (such a
sample or index trial), a base that fails Jacobi or a FAIL witness
bracket, so a certified step whose samples need no such rank builds none.
"""

from __future__ import annotations

from math import comb

from . import liealg, raistauvel, sampling
from .liealg import InvariantSet, LieAlgebra
from .polyring import Polynomial
from .report import FAIL, PASS, SKIPPED, Check, Report
from .takiff import graded_name

__all__ = [
    "verify_main_theorem",
    "verify_multi_current",
    "wonderful_diagnostic",
    "DEFAULT_TRANSFER_SAMPLES",
]

DEFAULT_TRANSFER_SAMPLES = 100

_REF_JACOBI = "Jacobi identity for the truncated-current bracket"
_REF_INVARIANCE = "every expansion coefficient is a symmetric invariant"
_REF_IDEAL = ("top-grade coordinates and higher expansion coefficients are "
              "invariants of the nilpotent ideal")
_REF_INDEX = "ind q<m> = (m+1) ind q"
_REF_MAGIC = "b(q<m>) = (m+1) b(q)"
_REF_DEGREES = "deg F_i^j = deg f_i; degree sum scales to (m+1) b(q)"
_REF_JACRANK = "family differentials are independent wherever xi_m is"
_REF_OMEGA = "xi in Omega(q<m>*) iff xi_m in Omega(q*)"
_REF_REGULAR = "xi regular in q<m>* iff xi_m regular in q*"


def _poly_str(p: Polynomial, limit: int = 400) -> str:
    s = str(p)
    return s if len(s) <= limit else s[:limit] + " ..."


def _jacobi_check(L: LieAlgebra, Lm: LieAlgebra, base_holds: bool | None) -> Check:
    """Jacobi on Lm = takiff(L, m), certified from the base L.

    [x@a, [y@b, z@c]] = [x, [y, z]]@(a+b+c), or 0 past grade m, so every
    Jacobi sum of L<m> is a Jacobi sum of L placed in one grade, and L<m>
    satisfies Jacobi exactly when L does.  ``base_holds`` is the verdict on
    L when the caller knows it (the previous level of
    `verify_multi_current`); None validates L here.  When L passes, the
    PASS is the one `liealg.validate(Lm)` would write: its witness counts
    the comb(dim L<m>, 3) basis triples of L<m> that the identity covers.
    When L fails, `liealg.validate(Lm)` runs, so the witness names the
    first violating triples of L<m>.
    """
    if base_holds is None:
        base_holds = liealg.validate(L).checks[0].status == PASS
    if base_holds:
        status = PASS
        witness = {"triples_checked": comb(Lm.dim, 3), "violation_count": 0,
                   "violations": []}
    else:
        sub = liealg.validate(Lm).checks[0]
        status, witness = sub.status, sub.witness
    return Check(name="jacobi", status=status, paper_ref=_REF_JACOBI, witness=witness)


def _invariance_checks(fs: InvariantSet, fam: raistauvel.InvariantFamily,
                       Lm: LieAlgebra) -> tuple[Check, Check]:
    """`invariance` and `ideal-invariants` on Lm = takiff(L, m), certified from the base.

    {F_i^j, x@k} = [eps^(j-k)] Phi({f_i, x}) for j >= k, and 0 for j < k,
    so one base defect (i, x), the first over the invariants and then the
    basis of L, decides both checks.  Without one, each PASS is the one
    bracketing every member on L<m> would give: its witness counts the
    (m+1)l members, or the n top coordinates b@m (which commute with the
    ideal by construction) and the ml members F_i^j, j >= 1, with the mn
    elements of the ideal.  With one, F_i^0 with x@0 is the first nonzero
    bracket of the members, eps-power first, against the basis of L<m>,
    grade 0 first: F_i'^0 is an invariant exactly when f_i' is.  F_i^1
    with x@1 is the first against the ideal, which starts at grade 1, after
    the top coordinates.  Only those two brackets are formed on L<m>, and
    the base defect is ``fs.first_defect()``, from the first base of a chain.
    """
    m, n = Lm.grading.depth, Lm.grading.base_dim
    defect = fs.first_defect()
    if not len(fs):
        invariance = Check(name="invariance", status=SKIPPED, paper_ref=_REF_INVARIANCE,
                           witness={"note": "no invariants supplied"})
    elif defect is None:
        invariance = Check(name="invariance", status=PASS, paper_ref=_REF_INVARIANCE,
                           witness={"mode": "symbolic", "members": (m + 1) * fam.l})
    else:
        i, x = defect
        x0 = graded_name(x, 0)
        invariance = _bracket_failure(Lm, "invariance", _REF_INVARIANCE, fam.member(i, 0),
                                      x0, {"member": [i, 0], "basis_element": x0})
    if defect is None:
        ideal = Check(name="ideal-invariants", status=PASS, paper_ref=_REF_IDEAL,
                      witness={"mode": "symbolic", "generators": n + m * fam.l,
                               "ideal_size": m * n})
    else:
        i, x = defect
        x1 = graded_name(x, 1)
        ideal = _bracket_failure(Lm, "ideal-invariants", _REF_IDEAL, fam.member(i, 1),
                                 x1, {"generator": f"F_{i}^1", "ideal_element": x1})
    return invariance, ideal


def _bracket_failure(Lm: LieAlgebra, name: str, paper_ref: str, F: Polynomial,
                     element: str, witness: dict) -> Check:
    """A FAIL whose witness gains the nonzero Poisson bracket of F with ``element``."""
    _, bracket = liealg.bracket_defect_against(Lm, F, [Lm.index_of(element)])
    return Check(name=name, status=FAIL, paper_ref=paper_ref,
                 witness={**witness, "poisson_bracket": _poly_str(bracket)})


def verify_main_theorem(L: LieAlgebra, fs: InvariantSet, m: int,
                        trials: int = liealg.DEFAULT_TRIALS, seed: int = 0,
                        transfer_samples: int = DEFAULT_TRANSFER_SAMPLES,
                        eval_samples: int | None = None) -> Report:
    """Full structural verification of one truncation step L -> L<m>.

    ``eval_samples`` is still accepted but no longer has any effect: the
    invariance and ideal checks are symbolic at every size.  A ``trials``
    or ``transfer_samples`` below 1 raises ValueError before any work.
    """
    return _verify_step(L, fs, m, trials, seed, transfer_samples)[0]


def _verify_step(L: LieAlgebra, fs: InvariantSet, m: int, trials: int,
                 seed: int, transfer_samples: int, base_jacobi: bool | None = None,
                 ) -> tuple[Report, raistauvel.InvariantFamily]:
    """The report of one truncation step, with the family, whose algebra is L<m>.

    ``base_jacobi`` is the Jacobi verdict on L when it is known, else None
    (see `_jacobi_check`).  It is the only fact a level takes from the one
    before: invariance and the Kirillov ranks are read off the family chain
    of ``fs``, but the chain says nothing of Jacobi, and validating L afresh
    would sum every Jacobi triple of each level's base again.
    """
    if trials < 1:
        raise ValueError(f"the rank estimate needs at least one trial, got {trials}")
    if transfer_samples < 1:
        raise ValueError(f"the transfer checks need at least one sample, got {transfer_samples}")
    if not fs.algebra.structure_equal(L):
        raise liealg.AlgebraError("invariant set belongs to a different algebra")
    fam = raistauvel.build_family(fs, m)
    Lm = fam.algebra
    rep = Report(label=f"verify:{L.label}<{m}>")

    jacobi = _jacobi_check(L, Lm, base_jacobi)
    rep.add(jacobi)
    invariance, ideal = _invariance_checks(fs, fam, Lm)
    rep.add(invariance)
    rep.add(ideal)

    # invariants independent at one point: the step certificate
    omega = fs.omega_point(seed)
    cert = fam if invariance.status == PASS and omega is not None else \
        raistauvel.InvariantFamily(algebra=Lm, polys=(), base=InvariantSet(algebra=L, polys=()))
    idx_base = liealg.index(L, trials=trials, seed=seed, certified=cert.base)
    idx_tak = liealg.index(Lm, trials=trials, seed=seed, certified=cert)
    rep.add(Check(name="index-formula",
                  status=PASS if idx_tak == (m + 1) * idx_base else FAIL,
                  paper_ref=_REF_INDEX,
                  witness={"base_index": idx_base, "takiff_index": idx_tak,
                           "factor": m + 1},
                  seed=seed))

    b_base = liealg.magic_from_index(L, idx_base)
    b_tak = liealg.magic_from_index(Lm, idx_tak)
    rep.add(Check(name="magic-number",
                  status=PASS if b_tak == (m + 1) * b_base else FAIL,
                  paper_ref=_REF_MAGIC,
                  witness={"base_magic": b_base, "takiff_magic": b_tak,
                           "factor": m + 1},
                  seed=seed))

    if not len(fs):
        rep.add(Check(name="degree-sum", status=SKIPPED, paper_ref=_REF_DEGREES,
                      witness={"note": "no invariants supplied"}))
    else:
        # deg F_i^j = deg f_i, enforced when the family is built
        base_sum = sum(fs.degrees())
        witness = {"base_degree_sum": base_sum, "family_degree_sum": sum(fam.degrees()),
                   "factor": m + 1, "base_magic": b_base}
        if base_sum == b_base:
            witness["scales_to_takiff_magic"] = True
        elif base_sum < b_base:
            witness["note"] = (f"codim-2 diagnostic: sum deg f_i = {base_sum}"
                               f" < b(q) = {b_base}")
        rep.add(Check(name="degree-sum", status=PASS, paper_ref=_REF_DEGREES,
                      witness=witness))

    if not len(fs):
        for name, ref in (("jacobian-rank-on-omega", _REF_JACRANK),
                          ("omega-transfer", _REF_OMEGA)):
            rep.add(Check(name=name, status=SKIPPED, paper_ref=ref,
                          witness={"note": "no invariants supplied"}))
    else:
        rep.add(_jacobian_rank_check(fam, omega, seed))
        rep.add(Check(name="omega-transfer", status=PASS, paper_ref=_REF_OMEGA,
                      witness={"mode": "derivative-identity"}))

    rep.add(_regularity_transfer_check(L, Lm, cert, idx_base, idx_tak, transfer_samples, seed))
    return rep, fam


def _jacobian_rank_check(fam: raistauvel.InvariantFamily, top: list | None,
                         seed: int) -> Check:
    """Full family rank wherever xi_m is in Omega: a certificate by the derivative identity.

    The family Jacobian is block triangular with diagonal J_f(xi_m), so its
    rank is (m+1)l exactly where xi_m is in Omega.  ``top`` is the base's
    `omega_point`, or None.  `raistauvel.family_rank_at` at the point with
    that top and zero lower components reads only the base block there,
    full by construction, and returns (m+1)l: there is no FAIL to find.  The
    point gives the depth-(m-1) family its rank ml for `_zero_top_rank_bound`.
    """
    if top is None:
        return Check(name="jacobian-rank-on-omega", status=FAIL, paper_ref=_REF_JACRANK,
                     witness={"error": "no point with independent "
                              "differentials found in 50 draws"},
                     seed=seed)
    rank = raistauvel.family_rank_at(fam, [0] * (fam.depth * len(top)) + top)
    return Check(name="jacobian-rank-on-omega", status=PASS, paper_ref=_REF_JACRANK,
                 witness={"mode": "derivative-identity", "rank": rank},
                 seed=seed)


def _zero_top_rank_bound(Lm: LieAlgebra, certified: raistauvel.InvariantFamily) -> int:
    """A bound on rank K(xi) on L<m> = takiff(L, m) wherever K(xi_m) = 0.

    The entry of the Kirillov matrix of L<m> at (x@i, y@j) is
    <xi_{i+j}, [x, y]> for i + j <= m and 0 beyond, so where K(xi_m) = 0 the
    rows and columns of grade m vanish and the rest is the Kirillov matrix
    of L<m-1> at xi' = (xi_0, ..., xi_{m-1}).  So rank K(xi) <= mn: linear
    algebra on takiff(L, m) alone, which holds at every level of
    `verify_multi_current`.

    ``certified`` (the step's family when it holds the step certificate,
    else the empty family, l = 0) sharpens the bound to m(n - l) with
    nothing built.  Renaming every b@g to b@(g-1) carries the members F_i^j
    with j <= m-1 onto the depth-(m-1) family, and, for k <= m-1, the
    bracket {F', x@k} in L<m-1> onto {F, x@k} in L<m>.  So the depth-(m-1)
    family is invariant and satisfies the identity too, and the Omega point
    gives it rank ml.  Then ind L<m-1> >= ml, and rank K(xi) <= m(n - l)
    wherever K(xi_m) = 0.
    """
    return Lm.dim - Lm.grading.base_dim - Lm.grading.depth * certified.l


def _regularity_transfer_check(L: LieAlgebra, Lm: LieAlgebra,
                               fam: raistauvel.InvariantFamily,
                               idx_base: int, idx_tak: int,
                               samples: int, seed: int) -> Check:
    """Sampled agreement of "xi regular in L<m>*" with "xi_m regular in L*".

    Sample t draws one coordinate list of (m+1)n integers from the stream
    ``sampling.rng(seed, TAG_REGULARITY, t)``: grade-major, so it is the
    flat point of L<m>, its last n entries are the top xi_m, and it holds
    what m+1 component draws of n would hold, in the same order.  Odd t
    zeroes the top; the top is drawn last, so the lower components are the
    ones a draw of 0..m-1 alone gives.  ``fam`` is the step's certified
    family, empty when the step certifies the empty set.  rank K(xi_m) is
    taken once per sample, by ``fam.base.kirillov_rank_at``, and a zero top
    has rank 0.  At rank 0 the left side is False without a matrix when
    `_zero_top_rank_bound` is below dim L<m> - ind L<m>.  When ind L < n
    the right side is False too, whatever the lower components, so the odd
    samples draw no stream; every sample's stream is private, so the even
    samples draw what they drew before.  Where ind L = n the zero top is
    regular in L but not in L<m>, and the odd samples are drawn as usual,
    so a FAIL names the same sample and point.  Every other sample ranks L<m> by ``fam.kirillov_rank_over``,
    the block triangle first, at the list itself.  Only the first
    disagreement, the FAIL witness, is split into named components.
    """
    m, n = Lm.grading.depth, L.dim
    regular = Lm.dim - idx_tak
    regular_base = n - idx_base
    bound_decides = _zero_top_rank_bound(Lm, fam) < regular
    zero_tops_agree = bound_decides and regular_base != 0
    streams = sampling.streams(seed, sampling.TAG_REGULARITY)
    yes = 0
    for t in range(samples):
        if t % 2 and zero_tops_agree:
            continue
        vals = sampling.uniform_ints(streams(t), Lm.dim, sampling.DEFAULT_BOUND)
        if t % 2:
            vals[m * n:] = [0] * n
        top = vals[m * n:]
        top_rank = fam.base.kirillov_rank_at(top) if any(top) else 0
        top_regular = top_rank == regular_base
        if not top_rank and bound_decides:
            takiff_regular = False
        else:
            takiff_regular = fam.kirillov_rank_over(vals, top_rank) == regular
        if takiff_regular != top_regular:
            point = [dict(zip(L.basis, map(str, vals[j * n:(j + 1) * n])))
                     for j in range(m + 1)]
            return Check(name="regularity-transfer", status=FAIL, paper_ref=_REF_REGULAR,
                         witness={"sample": t, "takiff_regular": takiff_regular,
                                  "top_component_regular": top_regular,
                                  "point": point},
                         seed=seed)
        yes += top_regular
    return Check(name="regularity-transfer", status=PASS, paper_ref=_REF_REGULAR,
                 witness={"samples": samples, "agreements": samples,
                          "regular_cases": yes, "singular_cases": samples - yes},
                 seed=seed)


def verify_multi_current(L: LieAlgebra, fs: InvariantSet, degrees,
                         trials: int = liealg.DEFAULT_TRIALS, seed: int = 0,
                         transfer_samples: int = DEFAULT_TRANSFER_SAMPLES) -> Report:
    """Verify an iterated truncation one level at a time.

    Each level's expanded family is the next level's base invariant set,
    unconverted; a single-entry degree list therefore reduces exactly to
    verify_main_theorem.  The next level's base is this level's L<m>, so it
    takes this level's Jacobi verdict; invariance and the Kirillov ranks
    are read off the family chain at each level.  Every fact is exact, so
    the report is the one each level would write deciding it afresh.  A
    ``trials`` or ``transfer_samples`` below 1 raises ValueError before any
    work.
    """
    degrees = list(degrees)
    if not degrees:
        raise ValueError("degree list must not be empty")
    if any(d < 1 for d in degrees):
        raise ValueError("all truncation orders must be >= 1")
    if len(degrees) == 1:
        return verify_main_theorem(L, fs, degrees[0], trials=trials, seed=seed,
                                   transfer_samples=transfer_samples)
    label = f"verify:{L.label}<{','.join(str(d) for d in degrees)}>"
    rep = Report(label=label)
    # the next base is this level's L<m> with its family: the Jacobi
    # verdict carries over
    cur_L, cur_fs, cur_jacobi = L, fs, None
    expected = len(fs)
    for level, mdeg in enumerate(degrees, start=1):
        sub, cur_fs = _verify_step(cur_L, cur_fs, mdeg, trials, seed, transfer_samples,
                                   cur_jacobi)
        cur_L = cur_fs.algebra
        cur_jacobi = sub.checks[0].status == PASS
        rep.extend_prefixed(f"level{level}:", sub.checks)
        expected *= mdeg + 1
    rep.add(Check(name="family-count",
                  status=PASS if len(cur_fs) == expected else FAIL,
                  paper_ref="the iterated family has prod (m_i + 1) * l members",
                  witness={"count": len(cur_fs), "expected": expected,
                           "algebra_dim": cur_L.dim}))
    return rep


def wonderful_diagnostic(L: LieAlgebra, fs: InvariantSet, seed: int = 0) -> Report:
    """Count and degree-sum criteria for a wonderful algebra; diagnostic only.

    A failed degree-sum criterion with sum < b(q) refutes the codimension-2
    property (under codim-2 the degree sum of basic invariants is at least
    b(q)); the diagnostic never claims that any codimension property holds.
    The index takes `liealg.DEFAULT_TRIALS` trials; when ``fs`` has no
    invariance defect and an Omega point, `liealg.index` takes it as its
    certified set, as `verify` does, else the empty set: the estimate is
    the same.
    """
    if not fs.algebra.structure_equal(L):
        raise liealg.AlgebraError("invariant set belongs to a different algebra")
    rep = Report(label=f"wonderful:{L.label}")
    certified = fs
    if fs.first_defect() is not None or fs.omega_point(seed) is None:
        certified = InvariantSet(algebra=L, polys=())
    idx = liealg.index(L, seed=seed, certified=certified)
    rep.add(Check(name="invariant-count-vs-index",
                  status=PASS if len(fs) == idx else FAIL,
                  paper_ref="a full basic system has ind q members",
                  witness={"count": len(fs), "index": idx},
                  seed=seed))
    magic = liealg.magic_from_index(L, idx)
    total = sum(fs.degrees())
    witness = {"degree_sum": total, "magic": magic,
               "criterion_iii_holds": total == magic,
               "codim2_refuted": total < magic}
    if total < magic:
        witness["note"] = f"codim-2 refuted: {total} < {magic}"
    rep.add(Check(name="criterion-iii-degree-sum",
                  status=PASS if total == magic else FAIL,
                  paper_ref="sum deg f_i = b(q)",
                  witness=witness, seed=seed))
    return rep

