"""Tests for the object model: ObjectID, ObjectValue, ReduceOp."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.net.cluster import Cluster
from repro.store import ObjectID, ObjectValue, ReduceOp


def test_object_id_identity_and_ordering():
    a = ObjectID.of("alpha")
    b = ObjectID.of("alpha")
    c = ObjectID.of("beta")
    assert a == b
    assert hash(a) == hash(b)
    assert a != c
    assert a < c
    assert str(a) == "alpha"


@pytest.mark.parametrize("interleaved", [False, True])
def test_object_id_unique_is_monotonic_and_distinct(interleaved):
    cluster, other = Cluster(num_nodes=1), Cluster(num_nodes=1)
    ids, other_ids = [], []
    for _ in range(100):
        ids.append(ObjectID.unique(cluster, "x"))
        if interleaved:
            other_ids.append(ObjectID.unique(other, "x"))
    assert len(set(ids)) == 100
    # Each cluster mints from its own counter, so a second cluster minting
    # in between neither shifts this sequence nor is shifted by it.
    assert ids == [ObjectID.of(f"x-{n}") for n in range(100)]
    assert other_ids == (ids if interleaved else [])


def test_object_id_derived():
    base = ObjectID.of("target")
    derived = base.derived("partial-1")
    assert derived.key == "target/partial-1"
    assert derived != base


def test_object_value_from_array_and_size_override():
    array = np.ones(10, dtype=np.float32)
    value = ObjectValue.from_array(array)
    assert value.size == array.nbytes
    big = ObjectValue.from_array(array, logical_size=1 << 30)
    assert big.size == 1 << 30
    assert np.allclose(big.as_array(), array)


def test_object_value_from_bytes_and_of_size():
    value = ObjectValue.from_bytes(b"hello")
    assert value.size == 5
    assert value.as_array().tobytes() == b"hello"
    sized = ObjectValue.of_size(123)
    assert sized.size == 123
    assert sized.payload is None
    with pytest.raises(ValueError):
        sized.as_array()
    with pytest.raises(ValueError):
        ObjectValue(size=-1)


def test_object_value_copy_is_independent():
    array = np.arange(4, dtype=np.float64)
    value = ObjectValue.from_array(array)
    clone = value.copy()
    clone.as_array()[0] = 99
    assert value.as_array()[0] == 0


def test_reduce_op_combinations():
    a = np.array([1.0, 5.0])
    b = np.array([3.0, 2.0])
    assert np.allclose(ReduceOp.SUM.combine(a, b), [4.0, 7.0])
    assert np.allclose(ReduceOp.MIN.combine(a, b), [1.0, 2.0])
    assert np.allclose(ReduceOp.MAX.combine(a, b), [3.0, 5.0])
    assert np.allclose(ReduceOp.PROD.combine(a, b), [3.0, 10.0])


def test_reduce_op_reads_bytes_as_uint8_like_as_array():
    """Two bytes payloads combine like their uint8 views (``as_array``),
    not as byte strings: SUM does not concatenate, MIN/MAX/PROD do not raise."""
    left, right = b"\x01\x05\xff", b"\x03\x02\x02"
    views = [ObjectValue.from_bytes(data).as_array() for data in (left, right)]
    for op in ReduceOp:
        result = op.combine(left, right)
        expected = op.combine(*views)
        assert result.dtype == np.uint8
        assert np.array_equal(result, expected)
    assert ReduceOp.SUM.combine(left, right).tolist() == [4, 7, 1]


def test_reduce_op_none_is_identity():
    a = np.array([1.0, 2.0])
    assert np.allclose(ReduceOp.SUM.combine(None, a), a)
    assert np.allclose(ReduceOp.SUM.combine(a, None), a)
    assert ReduceOp.SUM.combine_many([]) is None
    assert np.allclose(ReduceOp.SUM.combine_many([None, a, None]), a)


arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=8),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


@settings(max_examples=60, deadline=None)
@given(a=arrays, op=st.sampled_from(list(ReduceOp)))
def test_reduce_op_identity_property(a, op):
    """Property: combining with None leaves the payload unchanged."""
    assert np.allclose(op.combine(None, a), a)
    assert np.allclose(op.combine(a, None), a)


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=1, max_size=6
    ),
    op=st.sampled_from([ReduceOp.SUM, ReduceOp.MIN, ReduceOp.MAX]),
)
def test_reduce_op_is_order_insensitive(values, op):
    """Property: the reduce operators are commutative/associative over any order."""
    arrays_list = [np.array([value]) for value in values]
    forward = op.combine_many(arrays_list)
    backward = op.combine_many(list(reversed(arrays_list)))
    assert np.allclose(forward, backward)
