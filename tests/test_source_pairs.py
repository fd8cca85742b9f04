"""The Smith worker's sweeps against snf_oracle.StepwiseSnfWorker.

A long sweep, the row steps from one pivot row or the column steps
from one row of q_t, finds its source's nonzero (position, entry)
pairs once and hands them to each step.  The oracle worker ignores
them and finds the nonzero positions of its source row again on every
step.  With it in place of exact_linalg._SnfWorker the library runs
the same step sequence, so every result must be equal by repr: the
Smith data, the invariant factors, solves over Z with carried columns
and kernels over Z, and the solves and kernels over composite Z/m that
_diagonalize_mod runs on the same worker.  The worker-level test runs
sweeps just below, at and just above the length from which pairs are
found, between the steps that change their source; the counting tests
check that _smith finds pairs once per long sweep, _diagonalize_mod
once more after each Euclid swap of its source, and neither for a
short sweep.
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


WORKER_RINGS = {**RINGS, "Z/12": Zmod(12)}
LONG = exact_linalg._SWEEP_PAIRS


def _sweeps(w, ring, n):
    """Steps (name, *args) on w: for each sweep length in LONG - 1, LONG
    and LONG + 1, the row and the column sweep from the row t that has
    that many rows and columns after it, each followed by one step that
    changes its source.  A sweep's pairs are found from w as it starts,
    and only when it is long, as _smith does."""
    for targets in (LONG - 1, LONG, LONG + 1):
        t = n - 1 - targets
        unit = ("negate_row", t) if ring == ZZ else ("scale_row", t, ring.normalize(5))
        for change in (("add_row", t, n - 1, ring.one), ("swap_rows", t, t + 1), ("swap_cols", t, t + 1), unit):
            pairs = exact_linalg._pairs(w.rows[t], t) if targets > LONG else None
            for i in range(t + 1, n):
                yield ("add_row", i, t, ring.normalize(2 * (i % 3) - 3), pairs)
            pairs = exact_linalg._pairs(w.q_t[t]) if targets > LONG else None
            for j in range(t + 1, n):
                yield ("add_col", j, t, ring.normalize(3 - 2 * (j % 3)), pairs)
            yield change


@pytest.mark.parametrize("label", sorted(WORKER_RINGS))
def test_sweeps_with_and_without_pairs_match_the_stepwise_worker(label):
    """The changes between sweeps are the divisibility step add_row(t,
    n - 1, 1) into the source, swap_rows, swap_cols, and negate_row over
    Z or scale_row by the unit 5 elsewhere."""
    ring = WORKER_RINGS[label]
    for n in (9, 12):
        a = random_matrix(random.Random(n), ring, n, n, bound=9)
        lib = exact_linalg._SnfWorker(a)
        oracle = snf_oracle.StepwiseSnfWorker(a)
        for k, (name, *args) in enumerate(_sweeps(lib, ring, n)):
            getattr(lib, name)(*args)
            getattr(oracle, name)(*args)
            assert _state(lib) == _state(oracle), (n, k, name, args[:3])


def _counted_pairs(patch):
    """Patch exact_linalg._pairs to log (row, start) of each call; return the log."""
    calls = []
    pairs = exact_linalg._pairs

    def counting(y, start=0):
        calls.append((y, start))
        return pairs(y, start)

    patch.setattr(exact_linalg, "_pairs", counting)
    return calls


@pytest.mark.parametrize("label", sorted(RINGS))
def test_smith_finds_pairs_once_per_long_sweep(label, monkeypatch):
    """On the lower triangle of ones every position t takes one pass
    with its pivot in place, and both its sweeps have n - t - 1
    targets, so each input has sweeps of LONG - 1, LONG and LONG + 1
    targets.  Only the long ones find pairs: from d[t] for the row
    steps and, when q is kept, from q_t[t] for the column steps."""
    ring = RINGS[label]
    for n in (9, 12):
        a = Matrix.from_rows(ring, [[int(j <= i) for j in range(n)] for i in range(n)])
        for keep in (exact_linalg.TRANSFORMS, ()):
            want = _stepwise(monkeypatch, lambda: exact_linalg._smith(a, keep).result())
            with monkeypatch.context() as patch:
                calls = _counted_pairs(patch)
                w = exact_linalg._smith(a, keep)
            sources = []
            for t in range(n - 1 - LONG):
                sources.append((w.rows[t], t))
                if keep:
                    sources.append((w.q_t[t], 0))
            assert [(id(y), start) for y, start in calls] == [(id(y), start) for y, start in sources], (n, keep)
            assert repr(w.result()) == want, (n, keep)


class _LoggedWorker(exact_linalg._SnfWorker):
    """The library worker, logging each swap and step as (name, i, j)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = []

    def swap_rows(self, i, j):
        self.log.append(("swap_rows", i, j))
        super().swap_rows(i, j)

    def swap_cols(self, i, j):
        self.log.append(("swap_cols", i, j))
        super().swap_cols(i, j)

    def add_row(self, i, j, c, pairs=None):
        self.log.append(("add_row", i, j))
        super().add_row(i, j, c, pairs)

    def add_col(self, j, i, c, pairs=None):
        self.log.append(("add_col", j, i))
        super().add_col(j, i, c, pairs)


def test_diagonalize_mod_finds_pairs_again_after_each_euclid_swap(monkeypatch):
    """Over Z/12, 2s on the diagonal with 3s just below or just above
    it need Euclid swaps in long and in short sweeps.  A pass at t
    begins with swap_rows(t, .) and swap_cols(t, .) back to back and
    runs a column and a row sweep, each of n - t - 1 targets; a Euclid
    swap is a swap_rows(t, i) right after add_row(i, t), or a
    swap_cols(t, j) right after add_col(j, t).  A long sweep finds its
    pairs as it starts and again after each of its Euclid swaps."""
    ring = Zmod(12)
    euclid_in_long = set()
    for n in (9, 12):
        for off in (1, -1):
            a = Matrix.from_rows(ring, [[2 if i == j else 3 if i - j == off else 0 for j in range(n)] for i in range(n)])
            oracle = snf_oracle.StepwiseSnfWorker(a, ("q", "qinv"))
            pivots = exact_linalg._diagonalize_mod(oracle)
            w = _LoggedWorker(a, ("q", "qinv"))
            with monkeypatch.context() as patch:
                calls = _counted_pairs(patch)
                assert exact_linalg._diagonalize_mod(w) == pivots
            assert _state(w) == _state(oracle), (n, off)
            want = 0
            for before, (name, t, other) in zip(w.log, w.log[1:]):
                long = n - t - 1 > LONG
                if name == "swap_cols" and before[:2] == ("swap_rows", t):
                    want += 2 * long
                elif before == ({"swap_rows": "add_row", "swap_cols": "add_col"}.get(name), other, t):
                    euclid_in_long.add(long)
                    want += long
            assert len(calls) == want, (n, off)
    assert euclid_in_long == {True, False}
