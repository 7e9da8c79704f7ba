"""Theorem-level verification runs over truncated current algebras.

Each verifier assembles a Report whose checks, in a fixed order, witness one
structural fact apiece: Jacobi on the constructed algebra, exact invariance of
the expanded family, the unipotent-ideal invariant witness, the index and
magic-number formulas, degree bookkeeping, Jacobian full-rank on the
independence locus, and the two transfer equivalences between a graded point
and its top component.

Failures never raise; they become FAIL entries carrying a concrete witness
(a basis triple, a point, or the offending bracket).  The invariance and
ideal checks are exact at every size: each generator's Poisson bracket with
each target basis element is formed symbolically, so their PASS is a
certificate, not evidence at sampled points.  When the step's Jacobi check
passes, the targets are a generating set (`takiff.generating_targets`):
{x : {f, x} = 0} is then a Lie subalgebra, so f commutes with all of L<m>,
or with all of the ideal, once it commutes with the generators.  When Jacobi
fails, every basis (or ideal) element is a target.  A FAIL names the first
target, in basis order, among those bracketed.

The family side of the two omega checks comes from the base side.  Once
`raistauvel.derivative_identity_defect` finds no defect, the family
Jacobian is block triangular with diagonal J_f(xi_m), so its rank is full
exactly where `omega_test` holds at xi_m: `jacobian-rank-on-omega` searches
its 20 points on the base and ranks the family Jacobian only at the first,
and `omega-transfer` evaluates `omega_test` once per sample.  A defect FAILs
both checks and names the member and variable.  When invariance also
passes, the L<m> index trials and the regularity samples whose top
component is regular and in Omega take their rank from
`raistauvel.takiff_kirillov_rank` without building the (m+1)n-wide
Kirillov matrix; every other point is ranked from its matrix.  Both routes
give the exact rank, so every status, index and witness is the same.
Only the direction "xi_m regular => xi regular" follows from the block
triangle; the converse is still sampled.
"""

from __future__ import annotations

import time
from typing import Sequence

from . import liealg, raistauvel, sampling
from .liealg import InvariantSet, IndexEstimateError, LieAlgebra
from .polyring import Polynomial
from .report import FAIL, PASS, SKIPPED, Check, Report
from .takiff import flatten_point, generating_targets, nilpotent_ideal, takiff

__all__ = [
    "verify_main_theorem",
    "verify_multi_current",
    "wonderful_diagnostic",
    "DEFAULT_TRIALS",
    "DEFAULT_TRANSFER_SAMPLES",
]

DEFAULT_TRIALS = 5
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


def _point_witness(point) -> dict:
    return {k: str(v) for k, v in point.items()}


def _jacobi_check(Lm: LieAlgebra) -> Check:
    t0 = time.perf_counter()
    sub = liealg.validate(Lm).checks[0]
    return Check(name="jacobi", status=sub.status, paper_ref=_REF_JACOBI,
                 witness=sub.witness, elapsed=time.perf_counter() - t0)


def _bracket_check(Lm: LieAlgebra, name: str, paper_ref: str,
                   generators: list[tuple[object, Polynomial]],
                   targets: Sequence[int], keys: tuple[str, str],
                   counts: dict) -> Check:
    """Bracket every generator against every target basis element exactly.

    The first nonzero Poisson bracket is the FAIL witness, under the keys
    (generator key, target key); a PASS records ``counts``.
    """
    t0 = time.perf_counter()
    gen_key, target_key = keys
    for label, g in generators:
        defect = liealg.bracket_defect_against(Lm, g, targets)
        if defect is not None:
            elt, bracket = defect
            return Check(name=name, status=FAIL, paper_ref=paper_ref,
                         witness={gen_key: label, target_key: elt,
                                  "poisson_bracket": _poly_str(bracket)},
                         elapsed=time.perf_counter() - t0)
    return Check(name=name, status=PASS, paper_ref=paper_ref,
                 witness={"mode": "symbolic", **counts},
                 elapsed=time.perf_counter() - t0)


def verify_main_theorem(L: LieAlgebra, fs: InvariantSet, m: int,
                        trials: int = DEFAULT_TRIALS, seed: int = 0,
                        transfer_samples: int = DEFAULT_TRANSFER_SAMPLES,
                        eval_samples: int | None = None) -> Report:
    """Full structural verification of one truncation step L -> L<m>.

    ``eval_samples`` is still accepted but no longer has any effect: the
    invariance and ideal checks are symbolic at every size.  A
    ``transfer_samples`` below 1 raises ValueError.
    """
    return _verify_step(L, fs, m, trials, seed, transfer_samples)[0]


def _verify_step(L: LieAlgebra, fs: InvariantSet, m: int, trials: int,
                 seed: int, transfer_samples: int,
                 ) -> tuple[Report, LieAlgebra, raistauvel.InvariantFamily | None]:
    """The report of one truncation step, with the algebra and family it built."""
    if transfer_samples < 1:
        raise ValueError(f"the transfer checks need at least one sample, got {transfer_samples}")
    if not fs.algebra.structure_equal(L):
        raise liealg.AlgebraError("invariant set belongs to a different algebra")
    fam = raistauvel.build_family(L, m, fs) if len(fs) else None
    Lm = fam.takiff_algebra if fam is not None else takiff(L, m)
    rep = Report(label=f"verify:{L.label}<{m}>")

    jacobi = _jacobi_check(Lm)
    rep.add(jacobi)
    ideal = [Lm.index_of(b) for b in nilpotent_ideal(Lm)]
    # {x : {f, x} = 0} is a subalgebra when Jacobi holds, so a generating set
    # of L<m> (of the ideal) certifies what every basis element would
    if jacobi.status == PASS:
        invariance_targets, ideal_targets = generating_targets(Lm)
    else:
        invariance_targets, ideal_targets = range(Lm.dim), ideal

    if fam is None:
        invariance = Check(name="invariance", status=SKIPPED, paper_ref=_REF_INVARIANCE,
                           witness={"note": "no invariants supplied"})
    else:
        members = [([i, j], F) for i, j, F in fam.members()]
        invariance = _bracket_check(Lm, "invariance", _REF_INVARIANCE, members,
                                    invariance_targets, ("member", "basis_element"),
                                    {"members": len(members)})
    rep.add(invariance)

    generators: list[tuple[object, Polynomial]] = [
        (b, Lm.variable(b)) for b in Lm.basis if Lm.grading.grade_of[b] == m]
    if fam is not None:
        generators += [(f"F_{i}^{j}", F) for i, j, F in fam.members() if j >= 1]
    rep.add(_bracket_check(Lm, "ideal-invariants", _REF_IDEAL, generators, ideal_targets,
                           ("generator", "ideal_element"),
                           {"generators": len(generators), "ideal_size": len(ideal)}))

    identity = raistauvel.derivative_identity_defect(fam) if fam is not None else None
    rank_at = liealg.kirillov_rank_at
    if fam is not None and invariance.status == PASS and identity is None:
        # the block triangles give the exact rank where the top is regular in Omega
        def rank_at(_, flat):
            return raistauvel.takiff_kirillov_rank(fam, flat)

    t0 = time.perf_counter()
    idx_base = liealg.index(L, trials=trials, seed=seed)
    idx_tak = liealg.index(Lm, trials=trials, seed=seed, rank=rank_at)
    rep.add(Check(name="index-formula",
                  status=PASS if idx_tak == (m + 1) * idx_base else FAIL,
                  paper_ref=_REF_INDEX,
                  witness={"base_index": idx_base, "takiff_index": idx_tak,
                           "factor": m + 1},
                  seed=seed, elapsed=time.perf_counter() - t0))

    t0 = time.perf_counter()
    try:
        b_base = liealg.magic_from_index(L, idx_base)
        b_tak = liealg.magic_from_index(Lm, idx_tak)
        rep.add(Check(name="magic-number",
                      status=PASS if b_tak == (m + 1) * b_base else FAIL,
                      paper_ref=_REF_MAGIC,
                      witness={"base_magic": b_base, "takiff_magic": b_tak,
                               "factor": m + 1},
                      seed=seed, elapsed=time.perf_counter() - t0))
    except IndexEstimateError as e:
        b_base = None
        rep.add(Check(name="magic-number", status=FAIL, paper_ref=_REF_MAGIC,
                      witness={"error": str(e)}, seed=seed,
                      elapsed=time.perf_counter() - t0))

    if fam is None:
        rep.add(Check(name="degree-sum", status=SKIPPED, paper_ref=_REF_DEGREES,
                      witness={"note": "no invariants supplied"}))
    else:
        t0 = time.perf_counter()
        base_sum = sum(fs.degrees())
        fam_sum = sum(F.degree() for _, _, F in fam.members())
        witness = {"base_degree_sum": base_sum, "family_degree_sum": fam_sum,
                   "factor": m + 1, "base_magic": b_base}
        status = PASS if fam_sum == (m + 1) * base_sum else FAIL
        if b_base is not None:
            if base_sum == b_base:
                witness["scales_to_takiff_magic"] = fam_sum == (m + 1) * b_base
            elif base_sum < b_base:
                witness["note"] = (f"codim-2 diagnostic: sum deg f_i = {base_sum}"
                                   f" < b(q) = {b_base}")
        rep.add(Check(name="degree-sum", status=status, paper_ref=_REF_DEGREES,
                      witness=witness, elapsed=time.perf_counter() - t0))

    if fam is None:
        for name, ref in (("jacobian-rank-on-omega", _REF_JACRANK),
                          ("omega-transfer", _REF_OMEGA)):
            rep.add(Check(name=name, status=SKIPPED, paper_ref=ref,
                          witness={"note": "no invariants supplied"}))
    else:
        rep.add(_jacobian_rank_check(L, fs, fam, identity, seed))
        rep.add(_omega_transfer_check(L, fs, fam, identity, transfer_samples, seed))

    rep.add(_regularity_transfer_check(L, Lm, idx_base, idx_tak, rank_at,
                                       transfer_samples, seed))
    return rep, Lm, fam


def _identity_failure(name: str, paper_ref: str, identity: tuple[int, int, str],
                      seed: int, t0: float) -> Check:
    i, j, variable = identity
    return Check(name=name, status=FAIL, paper_ref=paper_ref,
                 witness={"error": "dF_i^j/d(b@(m-j)) differs from df_i/db at grade m",
                          "member": [i, j], "variable": variable},
                 seed=seed, elapsed=time.perf_counter() - t0)


def _jacobian_rank_check(L: LieAlgebra, fs: InvariantSet,
                         fam: raistauvel.InvariantFamily,
                         identity: tuple[int, int, str] | None, seed: int,
                         points: int = 20) -> Check:
    """Full family rank wherever xi_m is in Omega, by the derivative identity.

    Each of the points draws a top component in Omega; the family Jacobian
    is ranked only at the first point, as a concrete witness.
    """
    t0 = time.perf_counter()
    if identity is not None:
        return _identity_failure("jacobian-rank-on-omega", _REF_JACRANK, identity, seed, t0)
    m = fam.depth
    want = (m + 1) * fam.l
    for t in range(points):
        r = sampling.rng(seed, sampling.TAG_OMEGA, 0, t)
        top = None
        for _ in range(50):
            cand = sampling.random_coords(L.basis, r)
            if liealg.omega_test(fs, cand):
                top = cand
                break
        if top is None:
            return Check(name="jacobian-rank-on-omega", status=FAIL,
                         paper_ref=_REF_JACRANK,
                         witness={"error": "no point with independent "
                                  "differentials found in 50 draws"},
                         seed=seed, elapsed=time.perf_counter() - t0)
        if t:
            continue
        comps = sampling.random_components(L.basis, m, r)
        comps[m] = top
        flat = flatten_point(fam.takiff_algebra, comps)
        rank = raistauvel.family_rank_at(fam, flat)
        if rank != want:
            return Check(name="jacobian-rank-on-omega", status=FAIL,
                         paper_ref=_REF_JACRANK,
                         witness={"total_rank": rank, "expected": want,
                                  "point": _point_witness(flat)},
                         seed=seed, elapsed=time.perf_counter() - t0)
    return Check(name="jacobian-rank-on-omega", status=PASS, paper_ref=_REF_JACRANK,
                 witness={"points": points, "rank": want},
                 seed=seed, elapsed=time.perf_counter() - t0)


def _transfer_check(name: str, paper_ref: str, L: LieAlgebra, m: int,
                    samples: int, seed: int, stream: tuple[int, ...],
                    sides, keys: tuple[str, str, str, str]) -> Check:
    """Sampled agreement of two yes/no sides of a transfer equivalence.

    Sample t mixes random components, with the top one zeroed for odd t, and
    draws from ``sampling.rng(seed, *stream, t)``; ``sides(comps)`` returns
    (lhs, rhs).  ``keys`` names the lhs and rhs in a FAIL witness, then the
    PASS counts of samples where both sides hold and where neither does.  The
    first disagreement is the FAIL witness.
    """
    t0 = time.perf_counter()
    lhs_key, rhs_key, yes_key, no_key = keys
    yes = 0
    for t in range(samples):
        comps = sampling.random_components(L.basis, m, sampling.rng(seed, *stream, t))
        if t % 2:
            comps[m] = {b: 0 for b in L.basis}
        lhs, rhs = sides(comps)
        if lhs != rhs:
            return Check(name=name, status=FAIL, paper_ref=paper_ref,
                         witness={"sample": t, lhs_key: lhs, rhs_key: rhs,
                                  "point": [_point_witness(c) for c in comps]},
                         seed=seed, elapsed=time.perf_counter() - t0)
        yes += lhs
    return Check(name=name, status=PASS, paper_ref=paper_ref,
                 witness={"samples": samples, "agreements": samples,
                          yes_key: yes, no_key: samples - yes},
                 seed=seed, elapsed=time.perf_counter() - t0)


def _omega_transfer_check(L: LieAlgebra, fs: InvariantSet,
                          fam: raistauvel.InvariantFamily,
                          identity: tuple[int, int, str] | None,
                          samples: int, seed: int) -> Check:
    if identity is not None:
        return _identity_failure("omega-transfer", _REF_OMEGA, identity, seed,
                                 time.perf_counter())
    m = fam.depth

    def sides(comps):
        # full family rank at xi iff omega_test at xi_m, by the derivative identity
        independent = liealg.omega_test(fs, comps[m])
        return independent, independent

    return _transfer_check(
        "omega-transfer", _REF_OMEGA, L, m, samples, seed, (sampling.TAG_OMEGA, 1),
        sides, ("family_rank_full", "top_component_independent",
                "full_rank_cases", "degenerate_cases"))


def _regularity_transfer_check(L: LieAlgebra, Lm: LieAlgebra, idx_base: int,
                               idx_tak: int, rank_at: liealg.RankFunction,
                               samples: int, seed: int) -> Check:
    m = Lm.grading.depth
    return _transfer_check(
        "regularity-transfer", _REF_REGULAR, L, m, samples, seed,
        (sampling.TAG_REGULARITY,),
        lambda comps: (rank_at(Lm, flatten_point(Lm, comps)) == Lm.dim - idx_tak,
                       liealg.is_regular(L, comps[m], idx_base)),
        ("takiff_regular", "top_component_regular", "regular_cases", "singular_cases"))


def verify_multi_current(L: LieAlgebra, fs: InvariantSet, degrees,
                         trials: int = DEFAULT_TRIALS, seed: int = 0,
                         transfer_samples: int = DEFAULT_TRANSFER_SAMPLES,
                         eval_samples: int | None = None) -> Report:
    """Verify an iterated truncation one level at a time.

    Each level's expanded family becomes the next level's base invariant set;
    a single-entry degree list therefore reduces exactly to
    verify_main_theorem.  ``eval_samples`` no longer has any effect, and a
    ``transfer_samples`` below 1 raises ValueError.
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
    cur_L, cur_fs = L, fs
    expected = len(fs)
    for level, mdeg in enumerate(degrees, start=1):
        sub, cur_L, fam = _verify_step(cur_L, cur_fs, mdeg, trials, seed,
                                       transfer_samples)
        rep.extend_prefixed(f"level{level}:", sub.checks)
        expected *= mdeg + 1
        cur_fs = (fam.invariant_set(claimed_index=expected) if fam is not None
                  else InvariantSet(algebra=cur_L, polys=()))
    rep.add(Check(name="family-count",
                  status=PASS if len(cur_fs) == expected else FAIL,
                  paper_ref="the iterated family has prod (m_i + 1) * l members",
                  witness={"count": len(cur_fs), "expected": expected,
                           "algebra_dim": cur_L.dim}))
    return rep


def wonderful_diagnostic(L: LieAlgebra, fs: InvariantSet,
                         trials: int = DEFAULT_TRIALS, seed: int = 0) -> Report:
    """Count and degree-sum criteria for a wonderful algebra; diagnostic only.

    A failed degree-sum criterion with sum < b(q) refutes the codimension-2
    property (under codim-2 the degree sum of basic invariants is at least
    b(q)); the diagnostic never claims that any codimension property holds.
    """
    rep = Report(label=f"wonderful:{L.label}")
    t0 = time.perf_counter()
    idx = liealg.index(L, trials=trials, seed=seed)
    rep.add(Check(name="invariant-count-vs-index",
                  status=PASS if len(fs) == idx else FAIL,
                  paper_ref="a full basic system has ind q members",
                  witness={"count": len(fs), "index": idx},
                  seed=seed, elapsed=time.perf_counter() - t0))
    t0 = time.perf_counter()
    try:
        magic = liealg.magic_from_index(L, idx)
    except IndexEstimateError as e:
        rep.add(Check(name="criterion-iii-degree-sum", status=FAIL,
                      paper_ref="sum deg f_i = b(q)",
                      witness={"error": str(e)},
                      seed=seed, elapsed=time.perf_counter() - t0))
        return rep
    total = sum(fs.degrees())
    witness = {"degree_sum": total, "magic": magic,
               "criterion_iii_holds": total == magic,
               "codim2_refuted": total < magic}
    if total < magic:
        witness["note"] = f"codim-2 refuted: {total} < {magic}"
    rep.add(Check(name="criterion-iii-degree-sum",
                  status=PASS if total == magic else FAIL,
                  paper_ref="sum deg f_i = b(q)",
                  witness=witness, seed=seed,
                  elapsed=time.perf_counter() - t0))
    return rep

