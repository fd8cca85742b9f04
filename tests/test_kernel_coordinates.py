"""Kernel coordinates against the solves they replace.

exact_linalg._kernel returns each kernel basis k together with a left
inverse l from the same elimination, and _coordinates reads x = l @ v,
checked by k @ x == v, where the library used to solve against k.
Derandomized property tests compare it with solve_linear by repr over
Z, Q, Z/5, Z/2, Z/18446744073709551557 and the composite Z/4, Z/6 and
Z/12, empty kernels and empty shapes included: v inside the span gives
the same x, and v outside it raises where the solve returns None.
Over a field _coordinates reads x off v's rows at the free columns and
checks only the pivot rows; it is also compared, by repr and by the
AssertionError text, with kernel_oracle.coordinates, the product route
x = l @ v checked in full.  split_with_complement,
kernel_complex, kernel_lambda, the unit-slot read and
is_homology_equivalence are compared with the solve routes kept in
kernel_oracle.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import kernel_oracle
from chainbench.chains import GradedMap, is_homology_equivalence
from chainbench.exact_linalg import (
    QQ,
    ZZ,
    Matrix,
    NonFreeKernel,
    Zmod,
    _coordinates,
    _kernel,
    kernel_basis,
    solve_linear,
    split_with_complement,
)
from chainbench.fuzz import random_chain_map, random_complex, random_matrix, random_reduced_ladder, random_unimodular
from chainbench.ladder import KernelData, _compat_conditions, _family_system, kernel_complex, kernel_lambda
from chainbench.ladder import test_object as probe

RINGS = (ZZ, QQ, Zmod(5), Zmod(4), Zmod(6), Zmod(12), Zmod(2), Zmod(18446744073709551557))
SHAPES = ((0, 0), (0, 3), (3, 0), (1, 1), (2, 4), (4, 2), (3, 3), (5, 4))
SEEDS = st.integers(0, 2 ** 32)
PROPERTY = settings(max_examples=40, deadline=None, database=None, derandomize=True)


def _outcome(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except (ValueError, AssertionError) as err:
        return f"{type(err).__name__}: {err}"


def _kernel_input(rng, ring, rows, cols) -> Matrix:
    """A random matrix, or a product through a narrow middle, whose
    kernel is then large; over Z/m its entries may share m's factors."""
    if rows and cols and rng.random() < 0.5:
        middle = rng.randint(0, min(rows, cols))
        return random_matrix(rng, ring, rows, middle) @ random_matrix(rng, ring, middle, cols)
    return random_matrix(rng, ring, rows, cols)


@PROPERTY
@given(SEEDS)
def test_coordinates_match_the_solve(seed):
    rng = random.Random(seed)
    inside = outside = 0
    for ring, (rows, cols) in itertools.product(RINGS, SHAPES):
        a = _kernel_input(rng, ring, rows, cols)
        try:
            k, l = _kernel(a)
        except NonFreeKernel:
            continue
        assert a @ k == Matrix.zero(ring, rows, k.cols) and l @ k == Matrix.identity(ring, k.cols), a
        width = rng.randint(0, 3)
        for v in (
            k @ random_matrix(rng, ring, k.cols, width),
            random_matrix(rng, ring, cols, width),
            Matrix.zero(ring, cols, width),
        ):
            want = solve_linear(k, v)
            if want is None:
                outside += 1
                with pytest.raises(AssertionError, match="^left the span$"):
                    _coordinates(k, l, v, "left the span")
            else:
                inside += 1
                assert repr(_coordinates(k, l, v, "left the span")) == repr(want), (k, v)
    assert inside and outside


@PROPERTY
@given(SEEDS)
def test_coordinates_match_the_product_route(seed):
    """Over a field x is read off v's rows at the free columns and only
    the pivot rows are checked; the result and the AssertionError text
    must equal kernel_oracle.coordinates, x = l @ v checked in full."""
    rng = random.Random(seed)
    fields = {"inside": 0, "outside": 0}
    for ring, (rows, cols) in itertools.product(RINGS, SHAPES):
        a = _kernel_input(rng, ring, rows, cols)
        try:
            k, l = _kernel(a)
        except NonFreeKernel:
            continue
        width = rng.randint(0, 3)
        near = k @ random_matrix(rng, ring, k.cols, width)
        if near.rows and near.cols and rng.random() < 0.5:
            # Off the span in a single entry, a pivot row or a free one.
            i, j = rng.randrange(near.rows), rng.randrange(near.cols)
            grid = [list(r) for r in near.entries]
            grid[i][j] = ring.normalize(grid[i][j] + 1)
            near = Matrix.from_rows(ring, grid)
        for v in (k @ random_matrix(rng, ring, k.cols, width), near, random_matrix(rng, ring, cols, width)):
            got = _outcome(_coordinates, k, l, v, "left the span")
            assert got == _outcome(kernel_oracle.coordinates, k, l, v, "left the span"), (k, v)
            if ring.is_field():
                fields["outside" if got.startswith("AssertionError") else "inside"] += 1
    assert min(fields.values()) > 0, fields


def _injections(rng, ring):
    """Split injections from unimodular columns, 0-column ones included,
    and matrices that mostly are not, of every shape in SHAPES."""
    for n in (0, 1, 3, 4):
        u = random_unimodular(rng, ring, n, steps=8)
        for j in range(n + 1):
            yield u.cols_slice(0, j)
    for rows, cols in SHAPES:
        yield _kernel_input(rng, ring, rows, cols)


@PROPERTY
@given(SEEDS)
def test_split_with_complement_matches_the_inverse(seed):
    rng = random.Random(seed)
    split = 0
    for ring in RINGS:
        for a in _injections(rng, ring):
            got = _outcome(split_with_complement, a)
            assert got == _outcome(kernel_oracle.split_with_complement, a), a
            split += got != "None"
    assert split


@PROPERTY
@given(SEEDS)
def test_homology_equivalence_matches_the_solve(seed):
    rng = random.Random(seed)
    for ring in RINGS:
        src = random_complex(rng, ring, max_atoms=3, degree_span=2).complex
        tgt = random_complex(rng, ring, max_atoms=3, degree_span=2).complex
        maps = [GradedMap.identity(src)]
        if ring.modulus is None or ring.is_field():
            maps += [random_chain_map(rng, src, tgt), random_chain_map(rng, src, src)]
        for f in maps:
            assert _outcome(is_homology_equivalence, f) == _outcome(kernel_oracle.is_homology_equivalence, f), f


def _towers(seed):
    for index, ring in enumerate(RINGS):
        yield random_reduced_ladder(random.Random(seed + index), ring).complex


@PROPERTY
@given(SEEDS)
def test_descent_kernels_match_the_solve(seed):
    for c in _towers(seed):
        kernels = {m: kernel_complex(c, m) for m in range(1, c.top_index + 1)}
        for m, kernel in kernels.items():
            assert repr(kernel) == repr(kernel_oracle.kernel_complex(c, m))
        for m in range(1, c.top_index):
            got = repr(kernel_lambda(c, m, kernels[m], kernels[m + 1]))
            assert got == repr(kernel_oracle.kernel_lambda(c, m)) == repr(kernel_lambda(c, m))


def test_unit_slot_read_matches_the_solve():
    """The g_m probe's unit slot, read through the descent kernel's left
    inverses, against _evaluate_unit_slot's solve."""
    compared = 0
    for c in _towers(8100):
        for m in range(1, c.top_index + 1):
            d = probe("g_m", m, c.top_index, c.bimodule)
            kernel = kernel_complex(c, m)
            for q in range(-3, 4):
                sys_q = _family_system(d, c, q, _compat_conditions)
                kq = kernel_basis(sys_q.matrix())
                if not kq.cols:
                    continue
                unit = sys_q.slice_rows(kq, ("f", m, 0))
                got = kernel.coordinates(q, unit, "unit evaluation escaped the descent kernel")
                assert repr(got) == repr(kernel_oracle._evaluate_unit_slot(sys_q, kq, kernel, q, m))
                compared += 1
    assert compared > 20


def test_kernel_coordinates_outside_the_level_and_by_hand():
    c = random_reduced_ladder(random.Random(8200), ZZ).complex
    kernel = kernel_complex(c, 2)
    level = c.level(2)
    outside = min(level.degrees()) - 1
    empty = Matrix.zero(ZZ, 0, 2)
    assert repr(kernel.coordinates(outside, empty, "x")) == repr(solve_linear(kernel.inclusion.block(outside), empty))
    n = next(n for n in level.degrees() if kernel.complex.rank(n) < level.rank(n))
    with pytest.raises(AssertionError, match="^left the kernel$"):
        kernel.coordinates(n, Matrix.identity(ZZ, level.rank(n)), "left the kernel")
    by_hand = KernelData(kernel.complex, kernel.inclusion)
    assert by_hand == kernel and repr(by_hand) == repr(kernel) and hash(by_hand) == hash(kernel)
    with pytest.raises(ValueError, match="kernel_complex"):
        by_hand.coordinates(n, Matrix.identity(ZZ, level.rank(n)), "x")
