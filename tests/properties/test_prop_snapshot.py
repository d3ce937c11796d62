"""Property-based tests for the canonical snapshot encoding.

Over arbitrary nests of the plain containers a system is made of,
snapshots restore to an equal value, are a byte fixed-point, and do
not depend on the order a set's items were inserted in.
"""

from hypothesis import given, settings, strategies as st

from repro.simnet.snapshot import restore_system, snapshot_system

_atoms = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.text(max_size=6),
    st.binary(max_size=6),
)

#: What may sit inside a set or key a dict.
hashables = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(tuple),
        st.frozensets(inner, max_size=4),
    ),
    max_leaves=8,
)

values = st.recursive(
    hashables,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(hashables, inner, max_size=4),
        st.sets(hashables, max_size=5),
    ),
    max_leaves=12,
)


class TestSnapshotRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(values)
    def test_restore_is_equal_and_blob_is_a_fixed_point(self, value):
        blob = snapshot_system(value)
        restored = restore_system(blob)
        assert restored == value
        assert type(restored) is type(value)
        assert snapshot_system(restored) == blob

    @settings(max_examples=100, deadline=None)
    @given(st.lists(hashables, max_size=8, unique=True), st.randoms(use_true_random=False))
    def test_insertion_order_never_reaches_the_blob(self, items, rng):
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert snapshot_system(set(items)) == snapshot_system(set(shuffled))
        assert snapshot_system(frozenset(items)) == snapshot_system(frozenset(shuffled))
