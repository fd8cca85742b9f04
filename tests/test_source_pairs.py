"""The Smith worker's cached source pairs against snf_oracle.StepwiseSnfWorker.

A run of row steps from one pivot row reuses the nonzero (column,
entry) pairs of that row, and a run of column steps those of the
source row of q_t.  The oracle worker finds the nonzero positions of
its source row again on every step.  With it in place of
exact_linalg._SnfWorker the library runs the same step sequence, so
every result must be equal by repr: the Smith data, the invariant
factors, solves over Z with carried columns and kernels over Z, and
the solves and kernels over composite Z/m that _diagonalize_mod runs
on the same worker.  The worker-level test interleaves runs of row
steps from one source with every step that changes a cached row, so a
cache left stale by any of them changes some entry.
"""

import random

import pytest

import snf_oracle
from chainbench import exact_linalg
from chainbench.exact_linalg import QQ, ZZ, Matrix, NonFreeKernel, Zmod, invariant_factors
from chainbench.exact_linalg import kernel_basis, smith_normal_form, solve_linear
from chainbench.fuzz import random_matrix

RINGS = {"Z": ZZ, "Q": QQ, "Z/7": Zmod(7)}


def _inputs(ring):
    """(label, matrix) for each shape, entries bounded by 9."""
    rng = random.Random(20261020)
    return [
        ("30x30", random_matrix(rng, ring, 30, 30, bound=9)),
        ("40x40", random_matrix(rng, ring, 40, 40, bound=9)),
        ("30x30 of rank 29", random_matrix(rng, ring, 30, 29, bound=9) @ random_matrix(rng, ring, 29, 30, bound=9)),
        ("20x35", random_matrix(rng, ring, 20, 35, bound=9)),
        ("35x20", random_matrix(rng, ring, 35, 20, bound=9)),
    ]


def _stepwise(monkeypatch, fn, *args):
    """repr of fn(*args) with the oracle worker in place of the library's."""
    with monkeypatch.context() as patch:
        patch.setattr(exact_linalg, "_SnfWorker", snf_oracle.StepwiseSnfWorker)
        return _outcome(fn, *args)


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except NonFreeKernel as err:
        return f"NonFreeKernel: {err}"


@pytest.mark.parametrize("label", sorted(RINGS))
def test_smith_data_match_the_stepwise_worker(label, monkeypatch):
    for shape, a in _inputs(RINGS[label]):
        for fn in (smith_normal_form, invariant_factors):
            assert _outcome(fn, a) == _stepwise(monkeypatch, fn, a), (shape, fn.__name__)


@pytest.mark.parametrize("ring", (ZZ, Zmod(12)), ids=str)
def test_solves_and_kernels_match_the_stepwise_worker(ring, monkeypatch):
    """Over Z through _smith, over composite Z/m through _diagonalize_mod;
    b has a solvable column, a drawn column and a zero column."""
    rng = random.Random(7)
    for shape, a in _inputs(ring):
        x = random_matrix(rng, ring, a.cols, 1, bound=9)
        b = (a @ x).hstack(random_matrix(rng, ring, a.rows, 1, bound=9)).hstack(Matrix.zero(ring, a.rows, 1))
        for fn, args in ((solve_linear, (a, b)), (solve_linear, (a, a @ x)), (kernel_basis, (a,))):
            assert _outcome(fn, *args) == _stepwise(monkeypatch, fn, *args), (shape, fn.__name__)


def _state(w):
    return repr((w.rows, w.q_t, w.qinv, w.steps))


@pytest.mark.parametrize("label", sorted(RINGS))
def test_every_change_to_a_cached_row_clears_it(label, monkeypatch):
    """Each run of steps from one source is long enough to build its
    pairs before the step that changes the source row: nine rows leave
    room for runs of _PAIRS_MIN_RUN steps, and the third and fourth step
    of every run read the pairs."""
    ring = RINGS[label]
    a = random_matrix(random.Random(3), ring, 9, 9, bound=9)
    unit = ring.invert(ring.normalize(3)) if ring.is_field() else None
    sweep = [("add_row", i, 0, ring.normalize(c)) for i, c in ((1, 2), (2, -3), (3, 5), (4, 1))]
    sweep_2 = [("add_row", i, 2, ring.normalize(c)) for i, c in ((3, 4), (4, -1), (5, 3), (6, 2))]
    col_sweep = [("add_col", j, 0, ring.normalize(c)) for j, c in ((1, -2), (2, 3), (3, 4), (4, -1))]
    parts = [
        sweep,
        [("add_row", 0, 4, ring.one)],  # the divisibility step, into the cached row
        sweep,
        col_sweep,  # changes column j of row 0 as well
        sweep,
        [("add_col", 0, 5, ring.normalize(2))],  # into the cached row of q_t
        col_sweep,
        sweep_2,
        [("add_row", 1, 2, ring.normalize(-2))],  # upward from the cached row, from column 1 on
        sweep,
        [("swap_rows", 0, 2)],
        sweep,
        [("swap_cols", 0, 1)],
        sweep,
        col_sweep,
        sweep,
        [("scale_row", 0, unit) if unit is not None else ("negate_row", 0)],
        sweep,
    ]
    reads = []
    run_step = exact_linalg._run_step

    def counting(x, y, c, m, start, pairs):
        if pairs is not None:
            reads.append(c)
        return run_step(x, y, c, m, start, pairs)

    monkeypatch.setattr(exact_linalg, "_run_step", counting)
    lib = exact_linalg._SnfWorker(a)
    oracle = snf_oracle.StepwiseSnfWorker(a)
    for n, (name, *args) in enumerate(step for part in parts for step in part):
        getattr(lib, name)(*args)
        getattr(oracle, name)(*args)
        assert _state(lib) == _state(oracle), (n, name, args)
    assert len(reads) == 2 * sum(len(part) == 4 for part in parts)
