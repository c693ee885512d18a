"""The value types' contract: construction, equality, hashing, repr, immutability,
pickling and copying of Embedding, SearchBudget, TopologySpec and
CompatibilityReport.

The repr strings are pinned literally, in the ``Name(field=value, ...)``
form, so a change of representation cannot alter them unnoticed.
"""

import copy
import math
import pickle
import re
from fractions import Fraction

import pytest

from topocompat import InvalidParameter
from topocompat.compat import CompatibilityReport
from topocompat.embedding import Embedding, SearchBudget
from topocompat.topologies import TopologySpec

H3 = TopologySpec("hypercube", 3)
H3_STAR_REPR = (
    "CompatibilityReport(system=TopologySpec(kind='hypercube', parameter=3), "
    "task_kind='star', reach=2, order_n=8, potential_p=7)"
)


def _report(**changes):
    fields = dict(system=H3, task_kind="star", reach=2, order_n=8, potential_p=7)
    fields.update(changes)
    return CompatibilityReport(**fields)


# (instance, an equal instance built another way, an unequal instance, repr)
CASES = {
    "embedding": (
        Embedding((0, 2, 1)),
        Embedding(mapping=(0, 2, 1)),
        Embedding((0, 1, 2)),
        "Embedding(mapping=(0, 2, 1))",
    ),
    "budget": (
        SearchBudget(8, 100, 1.5),
        SearchBudget(max_host_order=8, max_nodes=100, time_limit=1.5),
        SearchBudget(8, 100, 2.5),
        "SearchBudget(max_host_order=8, max_nodes=100, time_limit=1.5)",
    ),
    "default budget": (
        SearchBudget(),
        SearchBudget(64, 10**8, 60.0),
        SearchBudget(max_nodes=7),
        "SearchBudget(max_host_order=64, max_nodes=100000000, time_limit=60.0)",
    ),
    "spec": (
        TopologySpec("ring", 5),
        TopologySpec(kind="ring", parameter=5),
        TopologySpec("ring", 6),
        "TopologySpec(kind='ring', parameter=5)",
    ),
    "file spec": (
        TopologySpec("file", "a.edges"),
        TopologySpec(kind="file", parameter="a.edges"),
        TopologySpec("file", "b.edges"),
        "TopologySpec(kind='file', parameter='a.edges')",
    ),
    "bare spec": (
        TopologySpec("hypercube"),
        TopologySpec(kind="hypercube", parameter=None),
        TopologySpec("star"),
        "TopologySpec(kind='hypercube', parameter=None)",
    ),
    "report": (
        CompatibilityReport(H3, "star", 2, 8, 7),
        _report(),
        _report(reach=3),
        H3_STAR_REPR,
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def test_equal_instances_compare_and_hash_equal(case):
    value, same, _, _ = case
    assert value == same and not value != same
    assert hash(value) == hash(same)
    assert len({value, same}) == 1


def test_unequal_instances_compare_unequal(case):
    value, _, other, _ = case
    assert value != other and not value == other


def test_repr_is_pinned(case):
    value, same, _, text = case
    assert repr(value) == text
    assert repr(same) == text


def test_assignment_and_deletion_raise(case):
    value, same, _, _ = case
    name = next(iter(vars(value)))
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        setattr(value, "extra", 1)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert value == same


def test_pickle_round_trip(case):
    value = case[0]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is type(value)
        assert back == value and hash(back) == hash(value) and repr(back) == repr(value)


def test_copy_round_trip(case):
    value = case[0]
    for back in (copy.copy(value), copy.deepcopy(value)):
        assert type(back) is type(value)
        assert back == value and hash(back) == hash(value) and repr(back) == repr(value)


def test_other_types_are_never_equal():
    spec = TopologySpec("ring", 5)
    assert Embedding((1,)) != (1,)
    assert spec != ("ring", 5)
    assert SearchBudget() != TopologySpec("ring", 5)
    assert Embedding(()).__eq__(()) is NotImplemented

    class Spec(TopologySpec):
        pass

    assert Spec("ring", 5) != spec and spec != Spec("ring", 5)
    assert Spec("ring", 5) == Spec("ring", 5)


def test_fields_read_back():
    e = Embedding((3, 1))
    assert e.mapping == (3, 1) and len(e) == 2
    b = SearchBudget(max_nodes=9)
    assert (b.max_host_order, b.max_nodes, b.time_limit) == (64, 9, 60.0)
    spec = TopologySpec("file")
    assert (spec.kind, spec.parameter) == ("file", None)
    r = CompatibilityReport(H3, "star", 2, 8, 7)
    assert (r.system, r.task_kind, r.reach, r.order_n, r.potential_p) == (H3, "star", 2, 8, 7)
    assert r.index_exact == Fraction(7, 8) and r.index_text == "0.8750"
    assert r.size_label == 3


def test_fields_are_the_constructor_parameters():
    # nothing derived is stored: the index is read off p and n, and a file's path
    # is its spec's parameter
    assert TopologySpec._fields == ("kind", "parameter")
    assert CompatibilityReport._fields == ("system", "task_kind", "reach", "order_n",
                                           "potential_p")
    r = CompatibilityReport(H3, "star", 2, 8, 7)
    assert r.index_exact == Fraction(7, 8)
    assert vars(r).keys() == set(CompatibilityReport._fields)


def test_spec_str_is_the_cli_syntax():
    assert str(TopologySpec("ring", 5)) == "ring:5"
    assert str(TopologySpec("file", "a.edges")) == "file:a.edges"


# caps that operator.index refuses: both kernels count nodes in integers
NON_INTEGER_CAPS = [("max_host_order", 8.5), ("max_nodes", 2.0), ("max_nodes", "2")]


@pytest.mark.parametrize("field,bad", [
    (field, bad) for field in ("max_host_order", "max_nodes", "time_limit") for bad in (0, -1)
] + [("time_limit", math.nan), ("time_limit", math.inf), ("time_limit", -math.inf)]
  + NON_INTEGER_CAPS)
def test_budget_rejects_non_positive_or_non_finite(field, bad):
    message = (f"search budget {field} must be an integer, got {bad!r}"
               if (field, bad) in NON_INTEGER_CAPS
               else "search budget fields must be strictly positive and finite")
    with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}$"):
        SearchBudget(**{field: bad})


@pytest.mark.parametrize("field", ["max_host_order", "max_nodes"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_budget_rejects_non_finite_caps(field, bad):
    # a nan cap compares False against every order and count, so it would
    # switch its check off rather than raise
    with pytest.raises(InvalidParameter, match="^search budget fields must be strictly positive and finite$"):
        SearchBudget(**{field: bad})
