"""Finite-homology invariants of integer complexes.

A bounded complex of finitely generated free abelian groups has finite
homology exactly when every Betti number vanishes.  This module sizes
such complexes three ways: the order of the total homology group, the
least positive multiple of the identity that bounds, and the position
of that order relative to a chosen pair of primes.  It also certifies
one rigidity fact about towers: a tower that is constant from level 1
on admits no nonzero morphism into a tower whose level 1 is zero.
"""

from __future__ import annotations

from math import lcm, prod
from typing import TYPE_CHECKING

from ._record import record
from .chains import ChainComplex, GradedMap, find_null_homotopy, homology, is_acyclic
from .exact_linalg import QQ, ShapeMismatch, _is_prime

if TYPE_CHECKING:
    from .ladder import D0Complex


def _require_integers(c: ChainComplex) -> None:
    if c.ring.kind != "Z":
        raise ValueError("order invariants are defined for integer complexes only")


# ---------------------------------------------------------------------------
# Order of homology


@record
class OrderReport:
    """Cardinality of the total homology, when it is finite.

    finite is true exactly when every Betti number vanishes; order is
    the product of all torsion invariant factors across degrees and is
    None otherwise.  An order of 1 means the complex is acyclic.
    """

    finite: bool
    order: int | None


def _finite_torsion(c: ChainComplex):
    """Torsion of every degree from one homology table; None if infinite."""
    summaries = homology(c).values()
    if any(s.betti for s in summaries):
        return None
    return [t for s in summaries for t in s.torsion]


def homology_order(c: ChainComplex) -> OrderReport:
    """Order of the homology of an integer complex, or not finite."""
    _require_integers(c)
    torsion = _finite_torsion(c)
    if torsion is None:
        return OrderReport(False, None)
    return OrderReport(True, prod(torsion))


# ---------------------------------------------------------------------------
# Annihilator exponent


@record
class AnnihilatorReport:
    """Least N >= 1 with N times the identity null-homotopic.

    exponent is None when homology is infinite, since a null-homotopy
    for N times the identity forces N to kill every homology group and
    nothing positive kills a free summand.  witness solves dH == N id
    when exponent is set.
    """

    exponent: int | None
    witness: GradedMap | None


def annihilator_exponent(c: ChainComplex) -> AnnihilatorReport:
    """Least multiple of the identity that bounds, with one exact solve.

    A bounded complex of finitely generated free abelian groups splits
    into elementary pieces: Z in one degree, and Z --t--> Z with t != 0.
    With finite homology only the second kind occurs, and on such a
    piece N times the identity bounds exactly when t divides N, with
    homotopy N / t.  So N id bounds exactly when N is a multiple of the
    homology exponent e, the least common multiple of the t, and the
    answer is e with the witness solved for e id.
    """
    _require_integers(c)
    torsion = _finite_torsion(c)
    if torsion is None:
        return AnnihilatorReport(None, None)
    e = lcm(*torsion)
    witness = find_null_homotopy(GradedMap.identity(c).scale(e))
    if witness is None:
        raise AssertionError("the homology exponent times the identity does not bound")
    return AnnihilatorReport(e, witness)


# ---------------------------------------------------------------------------
# Order classes relative to a pair of primes


@record
class OrderClassReport:
    """Placement of a finite homology order against two primes.

    label is one of in_A (order a positive power of p), in_B (order a
    positive power of q), intersection (order 1, the acyclic case), or
    neither.  Infinite homology is reported as neither with finite
    False and order None.
    """

    label: str
    finite: bool
    order: int | None


def _prime_power_residue(order: int, p: int) -> int:
    while order % p == 0:
        order //= p
    return order


def classify_order_class(c: ChainComplex, p: int, q: int) -> OrderClassReport:
    """Sort a complex by the prime support of its homology order."""
    _require_integers(c)
    if p == q:
        raise ValueError("the two primes must be distinct")
    if not _is_prime(p) or not _is_prime(q):
        raise ValueError("order classes need prime moduli")
    report = homology_order(c)
    if not report.finite:
        return OrderClassReport("neither", False, None)
    order = report.order
    if order == 1:
        return OrderClassReport("intersection", True, 1)
    if _prime_power_residue(order, p) == 1:
        return OrderClassReport("in_A", True, order)
    if _prime_power_residue(order, q) == 1:
        return OrderClassReport("in_B", True, order)
    return OrderClassReport("neither", True, order)


# ---------------------------------------------------------------------------
# Rational acyclicity


def rational_acyclicity(c: ChainComplex) -> bool:
    """Whether the complex becomes acyclic after tensoring with Q."""
    _require_integers(c)
    ranks = dict(c.ranks)
    diffs = {n: c.diff(n).to_ring(QQ) for n in ranks}
    return is_acyclic(ChainComplex.build(QQ, ranks, diffs))


# ---------------------------------------------------------------------------
# Vanishing morphism spaces between the two standard shapes


@record
class HomVanishingReport:
    """Certificate that a tower morphism space is zero.

    variables counts the entries of a general degree-0 tower morphism
    and constraint_rank is the rank of the linear system they satisfy;
    the space vanishes exactly when the two numbers agree, which is
    what dimension 0 records.
    """

    vanishes: bool
    dimension: int
    variables: int
    constraint_rank: int


def hom_vanishing_F_to_G(x: D0Complex, y: D0Complex) -> HomVanishingReport:
    """Show no nonzero morphism leaves a constant tower for a delayed one.

    x must be constant with identity ascents from level 1 on and y must
    have the zero complex at level 1.  Any morphism then vanishes at
    level 1 and the identity ascents push that vanishing up the tower,
    so the exact kernel computation must come back zero dimensional;
    a nonzero answer is reported as a broken invariant.
    """
    from .ladder import morphism_space

    if x.bimodule != y.bimodule:
        raise ShapeMismatch("towers must share the bimodule")
    if x.top_index != y.top_index:
        raise ShapeMismatch("towers must have the same length")
    for i in range(1, x.top_index):
        if x.lambda_map(i) != GradedMap.identity(x.level(i)):
            raise ValueError(
                "first tower must be constant with identity ascents from level 1"
            )
    if y.level(1).total_rank != 0:
        raise ValueError("second tower must have the zero complex at level 1")
    space = morphism_space(x, y)
    variables = 0
    for i in range(x.top_index + 1):
        src, tgt = x.level(i), y.level(i)
        for n in src.degrees():
            variables += src.rank(n) * tgt.rank(n)
    if space.dimension != 0:
        raise AssertionError("morphism space between the two shapes failed to vanish")
    return HomVanishingReport(True, 0, variables, variables)
