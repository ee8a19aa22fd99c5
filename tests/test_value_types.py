"""The value types every layer hashes: ``ObjectID`` and ``Flow``.

Each is a tuple of its fields.  Their hashes decide the iteration order of
every set and dict they key, and with it the simulated schedule, so each
must hash as the plain tuple of its fields (which is also what a frozen
dataclass hashes), keep its ``repr`` and stay immutable.  No simulation
runs here.
"""

import pytest

from repro.net.flowsched import DEFAULT_FLOW, Flow, FlowClass
from repro.store import ObjectID

VALUES = [
    ObjectID("x"),
    Flow("get:x->n1", FlowClass.REDUCE_PARTIAL),
    DEFAULT_FLOW,
]


@pytest.mark.parametrize("value", VALUES, ids=lambda value: type(value).__name__)
def test_hash_is_the_hash_of_the_field_tuple(value):
    fields = tuple(getattr(value, name) for name in type(value)._fields)
    assert hash(value) == hash(fields)
    assert value == fields


def test_object_ids_sort_by_key_and_print_as_it():
    keys = ["obj-10", "obj-2", "a/b", "obj-1"]
    assert [str(oid) for oid in sorted(map(ObjectID, keys))] == sorted(keys)
    assert str(ObjectID("k")) == f"{ObjectID('k')}" == "k"
    assert ObjectID.of("k") == ObjectID("k")
    assert ObjectID("k").derived("p") == ObjectID("k/p")


def test_repr_names_the_type_and_its_fields():
    assert repr(ObjectID("x")) == "ObjectID(key='x')"
    assert repr(DEFAULT_FLOW) == "Flow(flow_id='untagged', flow_class=<FlowClass.BULK: 2>)"
    assert Flow("f") == Flow("f", FlowClass.BULK)


@pytest.mark.parametrize("value", VALUES, ids=lambda value: type(value).__name__)
def test_fields_cannot_be_assigned(value):
    with pytest.raises(AttributeError):
        setattr(value, type(value)._fields[0], "other")
