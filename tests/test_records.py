"""The record behaviour that caches, comparisons and sets rely on.

Every record is a `scalar.Record`.  Records that validate their input
refuse bad input on construction; the others bind positional values,
then named ones, then their defaults, and refuse a missing, unknown or
repeated field.  Equality asks for the exact class and the compared
fields, so a point never equals a hyperplane and no record equals the
tuple of its fields.  The hash is that of the tuple of compared fields,
which keeps set iteration order and cache keys fixed.  A record refuses
assignment once built.
"""

import importlib
import pkgutil
from fractions import Fraction as F
from itertools import takewhile

import pytest

import freecert
from freecert.dynamics import ContractionCert, ProximalCert, Verdict
from freecert.projective import Ball, HNbhd, ProjHyperplane, ProjPoint, ProjSet, ball, set_disjoint
from freecert.rootiso import Interval
from freecert.scalar import ARCH, DisjointVerdict, Place, Record
from freecert.synthesis import Budgets
from freecert.tree import AmalgamData, BassSerreTree, FiniteGroup, ShadowSet, TreeAut, TreeError


def _cyclic(n: int) -> FiniteGroup:
    return FiniteGroup(tuple(tuple((i + j) % n for j in range(n)) for i in range(n)))


def _amalgam(order_b: int) -> AmalgamData:
    """Z/2 * Z/order_b over the trivial group."""
    return AmalgamData(_cyclic(2), _cyclic(order_b), _cyclic(1), (0,), (0,))


@pytest.mark.parametrize(
    "build",
    [
        lambda: Place("p-adic", 4),
        lambda: Place("p-adic"),
        lambda: Place("archimedean", 5),
        lambda: Place("real"),
        lambda: Interval(2, 1),
        lambda: Ball(ProjPoint((1, 0)), 2),
        lambda: HNbhd(ProjHyperplane((1, 0)), 0),
        lambda: ProjSet(()),
        lambda: ProjPoint((0, 0)),
    ],
)
def test_validating_records_refuse_bad_input(build):
    with pytest.raises(ValueError):
        build()


def test_shadow_set_refuses_a_degenerate_or_distant_edge():
    tree = BassSerreTree(_amalgam(3))
    a = tree.base_vertex("A")
    with pytest.raises(TreeError, match="degenerate"):
        ShadowSet(tree, a, a)
    with pytest.raises(TreeError, match="not adjacent"):
        ShadowSet(tree, a, ("A", (("A", 1),)))


def test_point_and_hyperplane_with_the_same_coordinates_differ():
    p, h = ProjPoint((1, 2)), ProjHyperplane((1, 2))
    assert p != h and not p == h
    assert len({p, h}) == 2


def test_tree_auts_differing_only_in_amalgam_are_equal():
    x, y = TreeAut(_amalgam(3), (("A", 1),), 0), TreeAut(_amalgam(4), (("A", 1),), 0)
    assert x.amalgam != y.amalgam
    assert x == y and hash(x) == hash(y)
    assert repr(x) == repr(y)


# Each cache-key record, built by a function so that two calls give equal
# but distinct records, with the fields its equality compares.
CACHE_KEYS = {
    "Place": (lambda: Place("p-adic", 5), ("kind", "prime")),
    "Interval": (lambda: Interval(F(1, 3), F(1, 2)), ("lo", "hi")),
    "ProjPoint": (lambda: ProjPoint((2, 4)), ("coords",)),
    "ProjHyperplane": (lambda: ProjHyperplane((F(1, 2), 1)), ("coords",)),
    "Ball": (lambda: Ball(ProjPoint((1, 1)), F(1, 4)), ("center", "radius_sq")),
    "HNbhd": (lambda: HNbhd(ProjHyperplane((0, 1)), F(1, 9)), ("plane", "radius_sq")),
    "ProjSet": (lambda: ProjSet([Ball(ProjPoint((1, 0)), F(1, 4)), HNbhd(ProjHyperplane((1, 0)), F(1, 4))]), ("components",)),
    "TreeAut": (lambda: TreeAut(_amalgam(3), (("A", 1), ("B", 2)), 0), ("syllables", "tail")),
}


@pytest.mark.parametrize("name", sorted(CACHE_KEYS))
def test_cache_key_records_compare_and_hash_by_their_fields(name):
    build, names = CACHE_KEYS[name]
    x, y = build(), build()
    fields = tuple(getattr(x, n) for n in names)
    assert x is not y and x == y and not x != y
    assert hash(x) == hash(y) == hash(fields)
    assert x != fields and fields != x
    assert len({x, y}) == 1


@pytest.mark.parametrize("name", sorted(CACHE_KEYS))
def test_cache_key_records_refuse_assignment(name):
    build, names = CACHE_KEYS[name]
    x = build()
    fields = tuple(getattr(x, n) for n in names)
    for n in names:
        with pytest.raises(AttributeError):
            setattr(x, n, None)
        with pytest.raises(AttributeError):
            delattr(x, n)
    assert tuple(getattr(x, n) for n in names) == fields


# Records that carry values without validating them, each with the values
# of all its fields in field order.
VALUE_RECORDS = {
    "Verdict": (Verdict, ("no", None, ProjPoint((1, 0)), None)),
    "ContractionCert": (ContractionCert, (F(1, 4), ProjPoint((1, 0)), ProjHyperplane((0, 1)), F(0), F(0), F(1, 16), F(1, 9))),
    "ProximalCert": (ProximalCert, (F(1, 4), None, None, None, None)),
    "Budgets": (Budgets, (2, 16, 1, 2, 6, 10, 12, 12, 8)),
}


@pytest.mark.parametrize("name", sorted(VALUE_RECORDS))
def test_value_records_bind_by_position_and_by_name(name):
    cls, values = VALUE_RECORDS[name]
    x = cls(*values)
    assert tuple(getattr(x, f) for f in cls._fields) == values
    assert cls(**dict(zip(cls._fields, values))) == x
    assert cls(*values[:2], **dict(zip(cls._fields[2:], values[2:]))) == x
    assert hash(x) == hash(values)


@pytest.mark.parametrize("name", sorted(VALUE_RECORDS))
def test_value_records_compare_by_exact_class(name):
    cls, values = VALUE_RECORDS[name]

    class Sub(cls):
        __slots__ = ()

    assert Sub._fields == cls._fields
    assert cls(*values) != Sub(*values) and cls(*values) != values


@pytest.mark.parametrize("name", sorted(VALUE_RECORDS))
def test_value_records_refuse_assignment(name):
    cls, values = VALUE_RECORDS[name]
    x = cls(*values)
    for f in cls._fields:
        with pytest.raises(AttributeError):
            setattr(x, f, None)
        with pytest.raises(AttributeError):
            delattr(x, f)
    assert tuple(getattr(x, f) for f in cls._fields) == values


@pytest.mark.parametrize("name", sorted(VALUE_RECORDS))
def test_value_records_refuse_an_unknown_or_repeated_field(name):
    cls, values = VALUE_RECORDS[name]
    with pytest.raises(TypeError, match="unknown or repeated field 'colour'"):
        cls(*values, colour=1)
    with pytest.raises(TypeError, match=f"unknown or repeated field '{cls._fields[0]}'"):
        cls(*values, **{cls._fields[0]: values[0]})
    with pytest.raises(TypeError, match=f"takes {len(values)} fields"):
        cls(*values, None)


def test_value_records_fill_in_defaults_and_refuse_a_missing_field():
    assert Verdict("unknown") == Verdict("unknown", None, None, None)
    assert Verdict("yes", refutes=None, cert=1) == Verdict("yes", 1, None, None)
    assert ProximalCert(F(1, 4), None, None, None) == ProximalCert(F(1, 4), None, None, None, None)
    assert Budgets() == Budgets(*VALUE_RECORDS["Budgets"][1])
    assert Budgets(nest_max=2).nest_max == 2 and Budgets(nest_max=2).m_max == 12
    cls, values = VALUE_RECORDS["ContractionCert"]
    with pytest.raises(TypeError, match="missing the field 'image_radius_sq'"):
        cls(*values[:-1])
    with pytest.raises(TypeError, match="missing the field 'kind'"):
        Verdict(cert=None)
    with pytest.raises(TypeError, match="missing the field 'fixed_plane_dual'"):
        ProximalCert(F(1, 4), None, None)


def test_both_disjointness_tests_answer_with_one_verdict_record():
    far = set_disjoint(ball(ProjPoint((1, 0)), F(1, 16)), ball(ProjPoint((0, 1)), F(1, 16)), ARCH)
    tree = BassSerreTree(_amalgam(3))
    a = tree.base_vertex("A")
    b = tree.neighbors(a)[0]
    assert far == ShadowSet(tree, a, b).disjoint_from(ShadowSet(tree, b, a)) == DisjointVerdict("disjoint", None)
    assert ShadowSet(tree, a, b).disjoint_from(ShadowSet(tree, a, b)).kind == "overlap"


def _defaulted_records() -> list[type]:
    """Every `Record` subclass in the package with a default, by name."""
    for info in pkgutil.iter_modules(freecert.__path__):
        importlib.import_module(f"freecert.{info.name}")
    found, todo = [], [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("freecert.") and sub._defaults:
                found.append(sub)
    return sorted(found, key=lambda c: c.__name__)


def test_records_bind_trailing_defaults_the_same_both_ways():
    """Positional values that leave only trailing defaulted fields out
    take those defaults; the constructor and `_bind` give the same fields
    for every such count, and a count that leaves a field without a
    default out still refuses."""
    records = _defaulted_records()
    assert {"Budgets", "DisjointVerdict", "ProximalCert", "Verdict"} <= {c.__name__ for c in records}
    for cls in records:
        assert cls.__init__ is Record.__init__
        fields = cls._fields
        given = len(fields) - len(list(takewhile(cls._defaults.__contains__, reversed(fields))))
        assert all(name in cls._defaults for name in fields[given:])
        assert given == 0 or fields[given - 1] not in cls._defaults
        values = tuple(object() for _ in fields)
        for m in range(given, len(fields) + 1):
            x = cls(*values[:m])
            assert tuple(getattr(x, f) for f in fields) == cls._bind(values[:m], {}) == values[:m] + tuple(cls._defaults[f] for f in fields[m:])
        if given:
            with pytest.raises(TypeError, match=f"missing the field '{fields[given - 1]}'"):
                cls(*values[: given - 1])
