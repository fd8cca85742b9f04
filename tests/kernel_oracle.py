"""The solve routes against kernel bases, kept as test oracles.

The functions below are the library's earlier versions, kept verbatim.
Each finds coordinates in a kernel basis it has just built by solving
against it with solve_linear, which eliminates [k | v] all over again:
kernel_complex for the boundary induced on a descent kernel,
kernel_lambda for the induced ascent, _evaluate_unit_slot for the unit
slot of a probe family, and is_homology_equivalence for the induced
map on cycles and the boundaries in the cycle basis.
split_with_complement inverts [a | comp] with inverse, a third
elimination after the retraction and the complement.  The library now
reads every such coordinate through the left inverse that comes with
each kernel basis, and takes the projection of split_with_complement
from it; the tests require the results to agree exactly.  The
KernelData made here carries no left inverses, so it is the library's
value class with only its two fields.  coordinates is the product
route of exact_linalg._coordinates over every ring, x = l @ v checked
by k @ x == v in full, which the library keeps for Z and composite Z/m
only.
"""

from __future__ import annotations

from chainbench.chains import (
    _TRIVIAL,
    ChainComplex,
    GradedMap,
    _composite,
    _require_chain_map,
    homology,
)
from chainbench.exact_linalg import Matrix, _is_onto, inverse, is_split_injection, kernel_basis, solve_linear
from chainbench.ladder import D0Complex, KernelData


def coordinates(k: Matrix, l: Matrix, v: Matrix, what: str) -> Matrix:
    """The only x with k @ x == v, l @ v as l @ k == 1; AssertionError(what)
    when v leaves the span of k, where solve_linear(k, v) gives None."""
    x = l @ v
    if k @ x != v:
        raise AssertionError(what)
    return x


def kernel_complex(c: D0Complex, m: int) -> KernelData:
    """Kernel of alpha_m with the boundary induced from level m.

    The boundary of level m preserves the kernel because alpha_m is a
    chain map, so each boundary block is solved exactly in the kernel
    bases.  Over the integers the bases are saturated, which keeps the
    induced boundary integral.  Given a checked chain map alpha_m and
    injective bases, d^2 == 0 and the inclusion follow, unchecked.
    """
    if not 1 <= m <= c.top_index:
        raise ValueError(f"no descent at level {m}")
    a = c.alpha_map(m)
    b = c.level(m)
    bases = {n: kernel_basis(a.block(n)) for n in b.degrees()}
    ranks = {n: k.cols for n, k in bases.items()}
    diffs = {}
    for n in b.degrees():
        kn = bases[n]
        km = bases.get(n - 1)
        if kn.cols == 0 or km is None or km.cols == 0:
            continue
        sol = solve_linear(km, b.diff(n) @ kn)
        if sol is None:
            raise AssertionError("boundary escaped the descent kernel")
        diffs[n] = sol
    kc = ChainComplex.build(b.ring, ranks, diffs, validate=False)
    return KernelData(kc, GradedMap.build(kc, b, 0, {n: k for n, k in bases.items() if k.cols}))


def kernel_lambda(c: D0Complex, m: int, source: KernelData = None, target: KernelData = None) -> GradedMap:
    """Chain map induced by ascent m between adjacent descent kernels; it
    relies on the checked ascent and the injective kernel inclusions."""
    if not 1 <= m <= c.top_index - 1:
        raise ValueError(f"no adjacent kernels at level {m}")
    src = source if source is not None else kernel_complex(c, m)
    tgt = target if target is not None else kernel_complex(c, m + 1)
    lam = c.lambda_map(m)
    blocks = {}
    for n in src.complex.degrees():
        sol = solve_linear(tgt.inclusion.block(n), lam.block(n) @ src.inclusion.block(n))
        if sol is None:
            raise AssertionError("ascent escaped the next descent kernel")
        blocks[n] = sol
    return GradedMap.build(src.complex, tgt.complex, 0, blocks)


def _evaluate_unit_slot(sys_q, kq, kernel, q, m):
    """Degree-q families kq read at the unit slot ("f", m, 0), in kernel coordinates."""
    x = solve_linear(kernel.inclusion.block(q), sys_q.slice_rows(kq, ("f", m, 0)))
    if x is None:
        raise AssertionError("unit evaluation escaped the descent kernel")
    return x


def split_with_complement(a: Matrix):
    """Splitting data for a split injection a.

    Returns (r, comp, proj) with

        r @ a == identity            (retraction, compatible with comp)
        a @ r + comp @ proj == identity
        proj @ comp == identity
        r @ comp == 0 and proj @ a == 0

    so the columns of comp complete the image of a to a basis.  Returns
    None when a is not a split injection.
    """
    r0 = is_split_injection(a)
    if r0 is None:
        return None
    comp = kernel_basis(r0)
    t = a.hstack(comp)
    tinv = inverse(t)
    if tinv is None:
        raise AssertionError("image plus complement failed to span")
    r = tinv.rows_slice(0, a.cols)
    proj = tinv.rows_slice(a.cols, t.cols)
    return r, comp, proj


def is_homology_equivalence(f: GradedMap) -> bool:
    """Decide whether a chain map induces isomorphisms on all homology.

    Works degree by degree: the homology modules must agree, and the
    induced map must be surjective; finitely generated modules over Z
    or a field admit no proper surjective self-maps, so the two checks
    together give bijectivity.  Composite moduli are rejected.
    """
    _require_chain_map(f, degree=0, what="map")
    ring = f.source.ring
    if _composite(ring):
        raise ValueError("homology equivalence over composite Z/m is not supported")
    src, tgt = f.source, f.target
    hsrc, htgt = homology(src), homology(tgt)
    for n in sorted(set(hsrc) | set(htgt)):
        hs, ht = hsrc.get(n, _TRIVIAL), htgt.get(n, _TRIVIAL)
        if (hs.betti, hs.torsion) != (ht.betti, ht.torsion):
            return False
        if ht.is_trivial():
            continue
        ks = kernel_basis(src.diff(n))
        kt = kernel_basis(tgt.diff(n))
        induced = solve_linear(kt, f.block(n) @ ks)
        if induced is None:
            raise AssertionError("cycles were not carried into cycles")
        bt = solve_linear(kt, tgt.diff(n + 1))
        if bt is None:
            raise AssertionError("boundaries escaped the cycle lattice")
        if not _is_onto(induced.hstack(bt)):
            return False
    return True
