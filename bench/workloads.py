"""Seeded workloads for the chainbench benchmark.

A builder turns a seed into a list of operations.  An operation is one
public library call, or one CLI invocation, together with a checker
that compares the output with an answer known from the input's
construction, or that re-checks the certificate the call returned.
Inputs come from the public ``chainbench.fuzz`` generators; nothing
from ``tests/`` is imported.

Library modules are imported inside the builders, not at module level,
so that the benchmark can time ``import chainbench`` as part of its
set-up and repeat that set-up from a clean import.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from math import lcm, prod
from typing import Any, Callable

WORKLOADS = ("homology", "contraction", "towers", "cli")

# Total-rank buckets of the scaling rows, each listed once per group of
# inputs.  Input sizes are fixed per workload, so ops_per_s compares like
# with like across commits.  A workload's latencies cluster by rank with
# wide gaps between clusters; a quantile that fell at the edge of a
# cluster would jump with small shifts between them.  Each rank is
# therefore listed as often as it takes for the median and the 90th
# percentile to lie well inside one cluster.  For homology the median
# lies in rank 16 and the 90th percentile among the 30x30 Smith forms;
# for contraction the median lies in rank 8 over Z and the 90th
# percentile in rank 24.
HOMOLOGY_RANKS = (8, 8, 8, 16, 16, 38, 80)
# The cost of homology at rank 80 over Z, Q and Z/4 varies with the seed
# by up to twice its lowest value, and a 40x40 Smith form by 1.7 times;
# a 30x30 Smith form of a dense random matrix varies by a tenth.  So
# those six costliest operations are the top of the cycle (one rank-80
# input per ring; Z/5 is cheap and keeps three) and ten 30x30 Smith
# forms lie below them, around the 90th percentile.
HOMOLOGY_TOP_INSTANCES = {"Z": 1, "Q": 1, "Z/4": 1, "Z/5": 3}
SMITH_SIZES = (10, 20) + (30,) * 10 + (40, 40)
# Over Q and Z/4 the cost of one rank-24 contraction varies with the seed
# by up to twice its median (entry growth in the exact solve); over Z by
# a few percent.  Z alone carries rank 24, so the slowest operations are
# one steady kind and ops_per_s stays steady.  Z alone carries rank 8
# too: rank 8 over Q and Z/4 costs about twice as much as over Z, and
# with all three the median fell on the step between them.
CONTRACTION_RANKS = {
    "Z": (4, 4, 8, 8, 8, 8, 8, 8, 16, 24, 24, 24, 24),
    "Q": (4, 4, 16),
    "Z/4": (4, 4, 16),
}
# Distinct inputs per ring and bucket.  One input's cost varies with the
# seed by a sixth or more; averaging over several steadies the figures.
HOMOLOGY_INSTANCES = 3
CONTRACTION_INSTANCES = 6
# Instance groups of the towers workload, each of the four criterion shapes.
TOWER_GROUPS = 12
SCALING_RANKS = tuple(sorted(set(HOMOLOGY_RANKS) | set(CONTRACTION_RANKS["Z"])))


@dataclass
class Op:
    """One verified unit of work.

    call runs the library (or the CLI) and returns its output;
    check(output, expect) says whether that output is right.  bucket is
    the input's total-rank bucket for the scaling rows, or None.
    """

    name: str
    call: Callable[[], Any]
    check: Callable[[Any, Any], bool]
    expect: Any = None
    bucket: int | None = None
    argv: list | None = None

    def verify(self, result) -> bool:
        return bool(self.check(result, self.expect))


def build(workload: str, seed: int, workdir: str | None = None) -> list:
    """Operations of one workload cycle, generated from the seed alone."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("homology", "contraction"):
        ops = _homology_ops(rng) if workload == "homology" else _contraction_ops(rng)
        # Built in rank order, the operations of one rank would run in
        # one burst of a few milliseconds and all meet the host at one
        # speed.  These operations are independent, so a seeded shuffle
        # spreads each rank over the whole cycle.
        rng.shuffle(ops)
        return ops
    if workload == "towers":
        return _towers_ops(rng)
    if workload == "cli":
        if workdir is None:
            raise ValueError("the cli workload needs a directory for its payload files")
        return _cli_ops(rng, workdir)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Input generators built from chainbench.fuzz


def _combine(ring, summaries):
    """Homology of a direct sum from the homology of its summands."""
    from chainbench.chains import HomologySummary
    from chainbench.fuzz import invariant_factors_of_cyclics

    modulus = ring.modulus if ring.kind == "Zmod" else None
    betti = sum(s.betti for s in summaries)
    cyclics = [t for s in summaries for t in s.torsion] if ring.kind != "Q" else []
    return HomologySummary(betti, invariant_factors_of_cyclics(cyclics), modulus)


def atom(rng, ring, kind, top):
    """One fuzz.random_complex atom of a given kind, moved to top degree `top`.

    kind is "unit" (a contractible Z --1--> Z), "free" (one generator
    with zero boundary), "pair" (Z --m--> Z for the generator's random
    multiplier m) or an int t for the integer torsion atom Z --t--> Z.
    Draws repeat until one matches.  Returns the complex and its
    homology table.
    """
    from chainbench.chains import shift_unsigned
    from chainbench.fuzz import random_complex

    while True:
        got = random_complex(rng, ring, max_atoms=1, degree_span=0, force_acyclic=kind == "unit")
        c, h = got.complex, got.expected
        if (
            kind == "unit"
            or (kind == "free" and c.total_rank == 1)
            or (kind == "pair" and c.total_rank == 2)
            or (isinstance(kind, int) and h.get(-1) is not None and h[-1].torsion == (kind,)
                and h[0].is_trivial())
        ):
            return shift_unsigned(c, top), {n + top: s for n, s in h.items()}


def conjugated_sum(rng, ring, atoms, steps_per_rank):
    """Direct sum of atoms, conjugated in every degree; homology is the atoms' sum.

    Each degree is conjugated by a fuzz.random_unimodular matrix with
    steps_per_rank elementary steps per generator, which fills the
    boundaries without moving homology.  A rational complex is built as
    an integer one tensored with Q, whose homology is the integer
    homology without its torsion, so the atoms of a Q complex are over Z.
    """
    from chainbench.chains import ChainComplex, direct_sum
    from chainbench.exact_linalg import ZZ, inverse
    from chainbench.fuzz import random_unimodular

    base = atoms[0][0].ring
    plain = direct_sum(*[c for c, _ in atoms]).complex
    ranks = dict(plain.ranks)
    basis = {n: random_unimodular(rng, ZZ, r, steps=steps_per_rank * r) for n, r in ranks.items()}
    inv = {n: inverse(u).to_ring(base) for n, u in basis.items()}
    basis = {n: u.to_ring(base) for n, u in basis.items()}
    diffs = {
        n: (basis[n - 1] @ plain.diff(n) @ inv[n]).to_ring(ring) for n in ranks if n - 1 in ranks
    }
    mixed = ChainComplex.build(ring, ranks, diffs)
    expected = {
        n: _combine(ring, [h[n] for _, h in atoms if n in h]) for n in mixed.degrees()
    }
    return mixed, expected


def base_ring(ring):
    from chainbench.exact_linalg import ZZ

    return ZZ if ring.kind == "Q" else ring


# Atom kinds of mixed_complex, in turn: a fixed share of each keeps the
# rank in every degree, and so the work, nearly the same for every seed.
MIXED_KINDS = ("pair", "free", "pair", "unit")


def mixed_complex(rng, ring, total_rank, steps_per_rank):
    """Atoms with tops 0 and 1 up to total_rank (or one more), conjugated."""
    atoms, rank = [], 0
    while rank < total_rank:
        i = len(atoms)
        atoms.append(atom(rng, base_ring(ring), MIXED_KINDS[i % 4], (i // 4) % 2))
        rank += atoms[-1][0].total_rank
    return conjugated_sum(rng, ring, atoms, steps_per_rank)


def shaped_complex(rng, ring, units, frees=0, span=4):
    """units contractible atoms and frees free ones, spread over tops 0..span-1.

    The rank in every degree is fixed by the counts, so the size of the
    Kronecker system solved for a contraction is the same for every seed.
    """
    base = base_ring(ring)
    atoms = [atom(rng, base, "unit", i % span) for i in range(units)]
    atoms += [atom(rng, base, "free", (2 * i) % span) for i in range(frees)]
    return conjugated_sum(rng, ring, atoms, 1)


# Cyclic summands of the torsion complexes handed to annihilator_exponent.
# Fixing them fixes the homology exponent e = 12, and with it the number
# of divisors of e^2 the search tries before it finds e.
ANNIHILATOR_CYCLICS = ((4, 6), (2, 3, 4, 6))


def torsion_complex(rng, cyclics):
    """Integer complex with homology the sum of Z/t for t in cyclics; returns it and the exponent."""
    from chainbench.exact_linalg import ZZ

    atoms = [atom(rng, ZZ, t, i % 2) for i, t in enumerate(cyclics)]
    return conjugated_sum(rng, ZZ, atoms, 2)[0], lcm(*cyclics)


def _table(summaries):
    return {n: (s.betti, tuple(s.torsion)) for n, s in summaries.items()}


def check_homology(result, expect) -> bool:
    """A homology table equals the construction's, degree by degree."""
    return _table(result) == expect


def _smith_contract(a):
    def check(snf, _expect) -> bool:
        from chainbench.exact_linalg import Matrix

        ring = a.ring
        if snf.d != snf.p @ a @ snf.q:
            return False
        if snf.p @ snf.pinv != Matrix.identity(ring, a.rows):
            return False
        if snf.q @ snf.qinv != Matrix.identity(ring, a.cols):
            return False
        d = snf.d.entries
        diag = [d[i][i] for i in range(min(a.rows, a.cols))]
        off = any(d[i][j] for i in range(a.rows) for j in range(a.cols) if i != j)
        chain = all(x >= 0 for x in diag) and all(
            (y == 0) if x == 0 else (y % x == 0) for x, y in zip(diag, diag[1:])
        )
        return not off and chain

    return check


def check_contraction(k, c) -> bool:
    """dk == identity: k is a contraction of c."""
    from chainbench.chains import GradedMap

    return k is not None and k.degree == 1 and k.leibniz() == GradedMap.identity(c)


def check_null_homotopy(h, f) -> bool:
    return h is not None and h.degree == f.degree + 1 and h.leibniz() == f


def check_annihilator(report, expect) -> bool:
    """The witness bounds N id, and e | N | e^2 for the homology exponent e."""
    from chainbench.chains import GradedMap

    c, e = expect
    n = report.exponent
    if n is None or report.witness is None or n % e or (e * e) % n:
        return False
    return report.witness.leibniz() == GradedMap.identity(c).scale(n)


# ---------------------------------------------------------------------------
# homology: exact_linalg under Smith forms, kernels and solves


def _homology_ops(rng) -> list:
    from chainbench import chains, exact_linalg
    from chainbench.exact_linalg import QQ, ZZ, Zmod
    from chainbench.fuzz import random_matrix

    ops = []
    for ring in (ZZ, QQ, Zmod(4), Zmod(5)):
        for target in HOMOLOGY_RANKS:
            top = target == max(HOMOLOGY_RANKS)
            for _ in range(HOMOLOGY_TOP_INSTANCES[str(ring)] if top else HOMOLOGY_INSTANCES):
                c, expected = mixed_complex(rng, ring, target, 4)
                ops.append(
                    Op(f"homology[{ring}]", lambda c=c: chains.homology(c), check_homology,
                       _table(expected), target)
                )
    for size in SMITH_SIZES:
        a = random_matrix(rng, ZZ, size, size, bound=9)
        ops.append(Op(f"smith[{size}]", lambda a=a: exact_linalg.smith_normal_form(a), _smith_contract(a)))
    return ops


# ---------------------------------------------------------------------------
# contraction: the Kronecker Leibniz system and its exact solve


def _contraction_ops(rng) -> list:
    from chainbench import chains, orders
    from chainbench.exact_linalg import QQ, ZZ, Zmod
    from chainbench.fuzz import random_null_homotopic

    ops = []
    rings = (ZZ, QQ, Zmod(4))
    for ring in rings:
        for target in CONTRACTION_RANKS[str(ring)] * CONTRACTION_INSTANCES:
            c, _ = shaped_complex(rng, ring, target // 2)
            ops.append(
                Op(f"find_contraction[{ring}]", lambda c=c: chains.find_contraction(c),
                   check_contraction, c, target)
            )
        for target in (8, 16):
            c, _ = shaped_complex(rng, ring, target // 2 - 1, frees=2)
            ops.append(
                Op(f"find_contraction_none[{ring}]", lambda c=c: chains.find_contraction(c),
                   lambda k, _: k is None, None, target)
            )
        for half in (2, 4, 8):
            src, _ = shaped_complex(rng, ring, half // 2 - 1, frees=2)
            tgt, _ = shaped_complex(rng, ring, half // 2 - 1, frees=2)
            f, _ = random_null_homotopic(rng, src, tgt, 0)
            ops.append(
                Op(f"find_null_homotopy[{ring}]", lambda f=f: chains.find_null_homotopy(f),
                   check_null_homotopy, f, 2 * half)
            )
    for cyclics in ANNIHILATOR_CYCLICS:
        c, e = torsion_complex(rng, cyclics)
        ops.append(
            Op("annihilator_exponent", lambda c=c: orders.annihilator_exponent(c),
               check_annihilator, (c, e), c.total_rank)
        )
    return ops


# ---------------------------------------------------------------------------
# towers: ladder, splittings and the diagrams tensor functions


def bn_oracle(flags, n) -> bool:
    """Level i of a generated ladder is acyclic iff all fresh pieces up to i are."""
    return all(flags[:n])


def an_oracle(flags, ms) -> bool:
    """Kernel ascent m is an equivalence iff fresh m+1 and all levels below m are acyclic."""
    return all(flags[m] and all(flags[: m - 1]) for m in ms)


def _twisted_pair(rng, ring, kernel_rank):
    """A fully acyclic probe ladder and a twisted kernel tower of the same shape.

    The kernel complex has a fixed total rank, which fixes the rank of
    every tower level; the splitting derivation's cost grows fast with it.
    """
    from chainbench.fuzz import random_kernel_tower, random_reduced_ladder

    kernel, _ = shaped_complex(rng, ring, kernel_rank // 2, frees=kernel_rank % 2, span=2)
    tower = random_kernel_tower(
        rng, ring, n_levels=3, twist=True, scramble=True, kernel=kernel
    )
    ladder = random_reduced_ladder(
        rng, ring, n_levels=3, acyclic_levels={1, 2, 3}, degree_span=1
    )
    return ladder.complex, tower.complex


def check_splittings(s, _expect) -> bool:
    """Split exactness of the probe and target splittings, level by level."""
    from chainbench.chains import GradedMap

    a, b = s.probe, s.target
    for n in range(s.top_index):
        lam = a.lambda_map(n)
        if s.u_map(n) @ lam != GradedMap.identity(lam.source):
            return False
        if s.pi_map(n + 1) @ s.v_map(n + 1) != GradedMap.identity(s.quotient(n + 1)):
            return False
    for n in range(1, s.top_index + 1):
        beta = b.alpha_map(n)
        if s.theta_map(n) @ s.j_map(n) != GradedMap.identity(s.kernel):
            return False
        if beta @ s.sigma_map(n) != GradedMap.identity(beta.target):
            return False
        if (s.j_map(n) @ s.theta_map(n)) + (s.sigma_map(n) @ beta) != GradedMap.identity(b.level(n)):
            return False
    return True


def _towers_ops(rng) -> list:
    from chainbench import diagrams, ladder, splittings
    from chainbench.exact_linalg import QQ, ZZ, Zmod
    from chainbench.fuzz import random_graded_map, random_reduced_ladder
    from chainbench.ladder import d0_zero_morphism

    ops = []
    rings = (ZZ, QQ, Zmod(3))
    for group in range(TOWER_GROUPS):
        ring = rings[group % 3]
        pattern = LADDER_PATTERNS[group % len(LADDER_PATTERNS)]

        # Criterion 4 shape: unit probe hom complexes see descent kernels.
        # Which fresh pieces are acyclic sets every level's rank, so the
        # patterns are fixed per group and only the entries vary by seed.
        lad = random_reduced_ladder(rng, ring, acyclic_levels=pattern)
        c, flags = lad.complex, lad.fresh_acyclic
        for m in (1, 2, 3):
            ops.append(Op("hom_complex", lambda c=c, m=m: ladder.hom_complex(ladder.test_object("g_m", m, 3, c.bimodule), c),
                          _check_unit_probe))
        ops.append(Op("check_bn_local", lambda c=c: ladder.check_bn_local(c, 3),
                      lambda rep, want: rep.holds == want and rep.kernel_route == want,
                      bn_oracle(flags, 3)))

        # Criterion 5 shape: kernel sequences and the range locality routes.
        lad = random_reduced_ladder(rng, ring, acyclic_levels=LADDER_PATTERNS[-1 - group % len(LADDER_PATTERNS)])
        c, flags = lad.complex, lad.fresh_acyclic
        for m in (1, 2, 3):
            ops.append(Op("kernel_complex", lambda c=c, m=m: ladder.kernel_complex(c, m),
                          _check_kernel, (c, m)))
        for n in (1, 2):
            for bound, ms in (("inclusive", range(1, n + 1)), ("strict", range(1, n))):
                ops.append(Op("check_an_local",
                              lambda c=c, n=n, bound=bound: ladder.check_an_local(c, n, bound),
                              lambda rep, want: rep.holds == want and rep.square_holds == want,
                              an_oracle(flags, ms)))

        # Criterion 6 shape: splitting calculus on a twisted pair.  The
        # later operations read the splitting data the first one derived.
        # Over Z and Q, derive_splittings spends its time in one Kronecker
        # contraction of the total space whose cost varies forty-fold
        # between seeds; that solve is the contraction workload's
        # subject, so here the pair lives over Z/3.
        a, b = _twisted_pair(rng, Zmod(3), 3)
        ctx = {}
        fseed = rng.randrange(2**32)

        def derive(a=a, b=b, ctx=ctx, fseed=fseed):
            ctx.clear()
            ctx["s"] = splittings.derive_splittings(a, b)
            sp = ctx["s"]
            ctx["f"] = random_graded_map(random.Random(fseed), sp.total.complex, sp.kernel, 1, 2)
            return ctx["s"]

        def delta(ctx=ctx):
            ctx["cycle"] = splittings.delta_differential(ctx["s"], ctx["f"])
            return ctx["cycle"]

        ops.append(Op("derive_splittings", derive, check_splittings))
        for p in range(2):
            ops.append(Op("t_differential_holds",
                          lambda ctx=ctx, p=p: splittings.t_differential_holds(ctx["s"], p),
                          lambda held, _: held is True))
        ops.append(Op("delta_differential", delta,
                      lambda cyc, ctx: splittings.delta_differential(ctx["s"], cyc).is_zero(), ctx))
        ops.append(Op("invert_homotopy",
                      lambda ctx=ctx: splittings.invert_homotopy(ctx["s"], ctx["s"].total, ctx["cycle"]),
                      lambda h, ctx: splittings.delta_differential(ctx["s"], h) == ctx["cycle"], ctx))

        # Criterion 7 shape: morphism spaces and factorisations.
        d, c = factor_towers(rng)
        mctx = {}

        def space(d=d, c=c, ctx=mctx, pick=group):
            ctx.clear()
            ms = ladder.morphism_space(d, c)
            ctx["f"] = ms.basis[pick % ms.dimension] if ms.dimension else d0_zero_morphism(d, c)
            return ms

        ops.append(Op("morphism_space", space, _check_morphism_space))
        ops.append(Op("factor_through_acyclic",
                      lambda ctx=mctx: ladder.factor_through_acyclic(ctx["f"], 1),
                      _check_factorization, mctx))

        # Nilpotency of a strictly lowering loop, read off its composites.
        x = loop_of_rank(rng, ring, 3)
        ops.append(Op("nilpotency_degree", lambda x=x: diagrams.nilpotency_degree(x, 6),
                      _check_nilpotency, x))
    return ops


def factor_towers(rng):
    """A source tower with a Moore summand and a contractible target, both over Z."""
    from chainbench.chains import ChainComplex
    from chainbench.diagrams import Bimodule
    from chainbench.exact_linalg import ZZ, Matrix
    from chainbench.fuzz import random_reduced_ladder
    from chainbench.ladder import constant_tower, d0_direct_sum

    moore = ChainComplex.build(ZZ, {0: 1, 1: 1}, {1: Matrix.from_rows(ZZ, [[2]])})
    lad_d = random_reduced_ladder(rng, ZZ, n_levels=2, acyclic_levels={1, 2}, degree_span=1)
    lad_c = random_reduced_ladder(rng, ZZ, n_levels=2, acyclic_levels={1, 2}, degree_span=1)
    return d0_direct_sum(lad_d.complex, constant_tower(moore, 2, Bimodule(ZZ, 1))), lad_c.complex


# Acyclic fresh pieces of the generated ladders, one pattern per group:
# every verdict of the locality checks occurs.
LADDER_PATTERNS = ({1, 2, 3}, {1, 2}, {2, 3}, {1, 3}, {1}, {3})


def loop_of_rank(rng, ring, rank):
    """A strictly lowering fuzz loop on a complex of the given rank."""
    from chainbench.fuzz import random_single_degree_loop

    while True:
        x = random_single_degree_loop(rng, ring, s_rank=2, max_rank=rank, lowering=True)
        if x.complex_at("v").total_rank == rank:
            return x


def _check_unit_probe(hc, _expect) -> bool:
    from chainbench.chains import GradedMap

    return (
        hc.to_kernel @ hc.from_kernel == GradedMap.identity(hc.kernel.complex)
        and hc.from_kernel @ hc.to_kernel == GradedMap.identity(hc.complex)
    )


def _check_kernel(k, expect) -> bool:
    """A chain-map inclusion onto the kernel of a split descent."""
    c, m = expect
    alpha = c.alpha_map(m)
    level = c.level(m)
    if not k.inclusion.is_chain_map() or not (alpha @ k.inclusion).is_zero():
        return False
    return all(
        k.complex.rank(n) == level.rank(n) - alpha.target.rank(n) for n in level.degrees()
    )


def _check_morphism_space(ms, _expect) -> bool:
    return ms.dimension == len(ms.basis) and all(
        g.leibniz().is_zero() for f in ms.basis for g in f.components
    )


def _check_factorization(fac, ctx) -> bool:
    from chainbench.chains import GradedMap

    f = ctx["f"]
    for i, k in enumerate(fac.contractions):
        if k is None or k.leibniz() != GradedMap.identity(fac.mid.level(i)):
            return False
    return all(
        fac.right.component(i) @ fac.left.component(i) == f.component(i)
        for i in range(f.source.top_index + 1)
    )


def _check_nilpotency(n, x) -> bool:
    """Every composite of length n+1 vanishes and, for n > 0, some of length n does not."""
    from chainbench.diagrams import composable_paths, path_composite

    if n is None:
        return False
    longer = composable_paths(x.diagram, n + 1)
    if not all(path_composite(x, p).map.is_zero() for p in longer):
        return False
    if n == 0:
        return True
    return any(not path_composite(x, p).map.is_zero() for p in composable_paths(x.diagram, n))


# ---------------------------------------------------------------------------
# cli: process start-up, import chainbench.cli and serialize


def _cli_ops(rng, workdir) -> list:
    from chainbench.exact_linalg import ZZ, Zmod
    from chainbench.fuzz import random_reduced_ladder
    from chainbench.ladder import d0_zero_morphism, morphism_space
    from chainbench.serialize import (
        dump_complex,
        dump_d0complex,
        dump_d0morphism,
        dump_dcomplex,
        dump_scenario,
        dumps,
    )

    def write(name, payload):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(dumps(payload))
        return path

    small, expected = mixed_complex(rng, ZZ, 8, 4)
    cyclics = ANNIHILATOR_CYCLICS[0]
    torsion, exponent = torsion_complex(rng, cyclics)
    # Over a prime field homology is one cheap elimination per degree,
    # so parsing and validating the large file is a visible share.
    large, lexp = mixed_complex(rng, Zmod(5), 200, 1)
    loop = loop_of_rank(rng, ZZ, 3)
    lad = random_reduced_ladder(rng, ZZ, acyclic_levels=LADDER_PATTERNS[1])
    flags = lad.fresh_acyclic
    pair_a, pair_b = _twisted_pair(rng, Zmod(3), 3)
    d, c = factor_towers(rng)
    ms = morphism_space(d, c)
    f = ms.basis[0] if ms.dimension else d0_zero_morphism(d, c)

    files = {
        "small": write("small.json", dump_complex(small)),
        "torsion": write("torsion.json", dump_complex(torsion)),
        "large": write("large.json", dump_complex(large)),
        "loop": write("loop.json", dump_dcomplex(loop)),
        "ladder": write("ladder.json", dump_d0complex(lad.complex)),
        "morphism": write("morphism.json", dump_d0morphism(f)),
        "scenario": write("scenario.json", dump_scenario(pair_a, pair_b)),
    }

    def verdict(ok):
        return {"exit": 0 if ok else 1, "verdict": "pass" if ok else "fail"}

    an_n = lad.complex.top_index - 1
    specs = [
        (["homology", files["small"]], {**verdict(True), "homology": _cli_homology(expected)}),
        (["order", files["torsion"]], {**verdict(True), "order": str(prod(cyclics))}),
        (["annihilator", files["torsion"]], {**verdict(True), "divides": exponent}),
        (["q-acyclic", files["torsion"]], verdict(True)),
        (["nilpotency", files["loop"]], verdict(True)),
        (["verify", files["ladder"]], {**verdict(True), "kind": "d0complex"}),
        (["bn-local", files["ladder"]], verdict(bn_oracle(flags, lad.complex.top_index))),
        (["an-local", files["ladder"]], verdict(an_oracle(flags, range(1, an_n + 1)))),
        (["factor", files["morphism"], "--n", "1"], verdict(True)),
        (["tp-check", files["scenario"]], verdict(True)),
    ]
    large_specs = [
        (["homology", files["large"]], {**verdict(True), "homology": _cli_homology(lexp)}),
        (["verify", files["large"]], {**verdict(True), "kind": "complex"}),
    ]
    # Every small invocation costs about one interpreter start-up; each
    # runs twice and each large one once, so that small invocations make
    # up most of the cycle and the median latency lies well inside them
    # rather than near the edge between small and large costs.
    ops = [_cli_op(argv + ["--json"], expect) for argv, expect in specs * 2]
    ops += [_cli_op(argv + ["--json"], expect, "large") for argv, expect in large_specs]
    return ops


def _cli_homology(expected) -> dict:
    """The nontrivial part of a homology table, as `homology --json` reports it."""
    return {
        str(n): (str(s.betti), [str(t) for t in s.torsion])
        for n, s in sorted(expected.items())
        if not s.is_trivial()
    }


def check_cli(result, expect) -> bool:
    """Exit code, JSON verdict and the verb's key result field."""
    code, out = result
    try:
        report = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return False
    if code != expect["exit"] or report.get("verdict") != expect["verdict"]:
        return False
    if report.get("exit") != str(code):
        return False
    if "homology" in expect:
        got = {n: (e["betti"], e["torsion"]) for n, e in report.get("homology", {}).items()}
        if got != expect["homology"]:
            return False
    if "order" in expect and report.get("order") != expect["order"]:
        return False
    if "kind" in expect and report.get("kind") != expect["kind"]:
        return False
    if "divides" in expect:
        e, n = expect["divides"], int(report.get("exponent", "0"))
        if n <= 0 or n % e or (e * e) % n:
            return False
    return True


def cli_child(argv):
    """One `python -m chainbench` child process; returns (exit code, stdout)."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    done = subprocess.run(
        [sys.executable, "-m", "chainbench", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return done.returncode, done.stdout


def cli_in_process(argv):
    """The same invocation through chainbench.cli.main, for the traced pass."""
    from chainbench import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_op(argv, expect, size="small") -> Op:
    return Op(f"cli {argv[0]} [{size}]", lambda: cli_child(argv), check_cli, expect, argv=argv)
