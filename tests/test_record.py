"""The record decorator against dataclasses.dataclass(frozen=True).

Each sample class is made twice from one namespace, once with record
and once with the frozen dataclass as the oracle, and every outcome
must agree: which calls construct and which raise TypeError, the
__post_init__ calls, repr, == and != (equal, unequal and
different-class operands), hash, and AttributeError on assignment and
deletion.  The value classes with hand-written constructors must take
their fields by position and keyword in annotation order; among them
are direct sums whose slot maps are built on first read, both before
and after that read.
"""

import dataclasses
from functools import cached_property
from itertools import combinations

import pytest

from chainbench._record import record
from chainbench.chains import ChainComplex, DirectSumData, GradedMap, HomologySummary, direct_sum
from chainbench.diagrams import Bimodule
from chainbench.exact_linalg import QQ, ZZ, Matrix, Ring, Zmod, smith_normal_form

NAMES = ("alpha", "beta", "gamma", "delta", "eps")
VALUES = (3, "x", (1, (2,)), None, -7)
OTHER = (4, "y", (), 0, 7)
CASES = [(n, k, post) for n in range(1, 6) for k in range(n + 1) for post in (False, True)]


def twin(n, n_defaults, post_init, body=None):
    """The same class body under record and under the frozen dataclass."""
    names = NAMES[:n]
    made = []
    for decorate in (record, dataclasses.dataclass(frozen=True)):
        calls = []
        ns = {"__annotations__": {name: "object" for name in names}, "calls": calls}
        ns.update({name: ("default", name) for name in names[n - n_defaults:]})
        if post_init:
            def __post_init__(self, names=names):
                values = tuple(getattr(self, name) for name in names)
                if values[0] == "bad":
                    raise ValueError(f"bad first field in {values!r}")
                self.calls.append(values)
            ns["__post_init__"] = __post_init__
        ns.update(body or {})
        made.append(decorate(type(f"Sample{n}", (), ns)))
    return made


def outcome(cls, args, kwargs):
    try:
        got = cls(*args, **kwargs)
    except TypeError:
        return "TypeError"
    except ValueError as err:
        return ("ValueError", str(err))
    return ("made", repr(got), hash(got), tuple(cls.calls))


def call_shapes(n):
    """Positional prefixes, keyword subsets, and unknown or repeated keywords."""
    names = NAMES[:n]
    for k in range(n + 2):
        args = (VALUES + ("extra",))[:k]
        rest = names[k:]
        for size in range(len(rest) + 1):
            for chosen in combinations(rest, size):
                kwargs = {name: OTHER[NAMES.index(name)] for name in chosen}
                yield args, kwargs
                yield args, {**kwargs, "unknown": 1}
                if k:
                    yield args, {**kwargs, names[0]: "again"}
    yield ("bad",) + VALUES[1:n], {}


@pytest.mark.parametrize("n, n_defaults, post_init", CASES)
def test_construction_matches_frozen_dataclass(n, n_defaults, post_init):
    mine, oracle = twin(n, n_defaults, post_init)
    for args, kwargs in call_shapes(n):
        assert outcome(mine, args, kwargs) == outcome(oracle, args, kwargs), (args, kwargs)


@pytest.mark.parametrize("n, n_defaults, post_init", CASES)
def test_equality_hash_and_repr_match_frozen_dataclass(n, n_defaults, post_init):
    pairs = []
    for cls, stranger in zip(twin(n, n_defaults, post_init), twin(n, n_defaults, post_init)):
        x, y, z = cls(*VALUES[:n]), cls(*VALUES[:n]), cls(*OTHER[:n])
        w = stranger(*VALUES[:n])
        pairs.append((
            repr(x), repr(z), hash(x), hash(z),
            x == y, x != y, x == z, x != z, x == w, x != w, w == x,
            x == VALUES[:n], x.__eq__(w) is NotImplemented, x.__eq__(VALUES[:n]) is NotImplemented,
        ))
    assert pairs[0] == pairs[1]


@pytest.mark.parametrize("n, n_defaults, post_init", CASES)
def test_fields_are_frozen_like_frozen_dataclass(n, n_defaults, post_init):
    for cls in twin(n, n_defaults, post_init):
        x = cls(*VALUES[:n])
        for action in (
            lambda: setattr(x, NAMES[0], 1),
            lambda: setattr(x, "unknown", 1),
            lambda: delattr(x, NAMES[n - 1]),
        ):
            with pytest.raises(AttributeError):
                action()
        assert repr(x) == repr(cls(*VALUES[:n]))


def test_methods_in_the_class_body_win_and_cached_property_works():
    body = {
        "__repr__": lambda self: "mine",
        "__eq__": lambda self, other: True,
        "twice": cached_property(lambda self: (self.alpha, self.alpha)),
    }
    mine, oracle = twin(2, 0, False, body)
    for cls in (mine, oracle):
        x = cls(1, 2)
        assert repr(x) == "mine" and x == 0
        assert x.twice == (1, 1) and "twice" in vars(x)
        assert hash(x) == hash((1, 2))


def _hand_written():
    """One instance of every value class whose constructor is written by hand."""
    z2 = Matrix.from_rows(ZZ, [[2, 4], [6, 8]])
    c = ChainComplex.build(ZZ, {0: 2, 1: 2}, {1: z2})
    summed = direct_sum(c, c)
    lazy, read = direct_sum(c, summed.complex), direct_sum(summed.complex, c)
    read.inclusions
    return [
        Ring("Zmod", 6), Ring("Z"), QQ,
        z2, Matrix.from_rows(QQ, [[1, 2]]), Matrix.zero(Zmod(5), 0, 3),
        c, GradedMap.identity(c), HomologySummary(1, (2,)), HomologySummary(0, (), 4),
        smith_normal_form(z2), Bimodule(ZZ, 3), Bimodule(Zmod(4), 2, (1, 5)),
        DirectSumData(summed.complex, summed.inclusions, summed.projections), lazy, read,
    ]


@pytest.mark.parametrize("value", _hand_written(), ids=lambda v: type(v).__name__)
def test_hand_written_constructors_follow_the_annotations(value):
    cls = type(value)
    names = tuple(cls.__annotations__)
    assert cls.__init__.__code__.co_varnames[1:len(names) + 1] == names
    fields = {name: getattr(value, name) for name in names}
    assert cls(**fields) == value
    assert cls(*fields.values()) == value
    assert hash(cls(**fields)) == hash(value) == hash(tuple(fields.values()))
    if cls is not Matrix:
        shown = ", ".join(f"{name}={v!r}" for name, v in fields.items())
        assert repr(value) == f"{cls.__qualname__}({shown})"
    with pytest.raises(AttributeError):
        setattr(value, names[0], None)
    with pytest.raises(AttributeError):
        delattr(value, names[-1])
    assert value.__eq__(tuple(fields.values())) is NotImplemented


def test_ring_equality_is_by_value():
    assert Ring("Zmod", 6) == Zmod(6) and Ring("Zmod", 6) != Zmod(7) and ZZ != QQ
    assert ZZ == ZZ and not (ZZ != Ring("Z"))
    assert {Zmod(6): 1}[Ring("Zmod", 6)] == 1
