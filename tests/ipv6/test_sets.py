"""Tests for the vectorized AddressSet container."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ipv6.address import IPv6Address
from repro.ipv6.sets import (
    AddressSet,
    BucketTable,
    first_occurrence_positions,
    pack_rows,
    split_train_test,
    unpack_rows,
)

ADDRESS_INTS = st.integers(min_value=0, max_value=(1 << 128) - 1)


class TestConstruction:
    def test_from_strings(self):
        s = AddressSet.from_strings(["2001:db8::1", "2001:db8::2"])
        assert len(s) == 2 and s.width == 32

    def test_from_ints_full_width(self):
        s = AddressSet.from_ints([1, 2])
        assert s.column(32).tolist() == [1, 2]

    def test_from_ints_truncating_keeps_top(self):
        value = IPv6Address("2001:db8::1").value
        s = AddressSet.from_ints([value], width=16)
        assert list(s.hex_rows()) == ["20010db800000000"]

    def test_from_ints_already_truncated(self):
        s = AddressSet.from_ints([0x20010DB8], width=8, already_truncated=True)
        assert list(s.hex_rows()) == ["20010db8"]

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            AddressSet.from_ints([1 << 32], width=8, already_truncated=True)

    def test_negative_rejected_with_clear_error(self):
        with pytest.raises(ValueError, match="negative address value"):
            AddressSet.from_ints([-1])
        with pytest.raises(ValueError, match="negative address value"):
            AddressSet.from_ints([0, -7], width=8, already_truncated=True)

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            AddressSet.from_ints([1], width=0)
        with pytest.raises(ValueError):
            AddressSet.from_ints([1], width=33)

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            AddressSet(np.full((2, 4), 16, dtype=np.uint8))
        with pytest.raises(ValueError):
            AddressSet(np.zeros(4, dtype=np.uint8))

    def test_empty(self):
        s = AddressSet.empty(width=16)
        assert len(s) == 0 and s.width == 16

    def test_matrix_is_read_only(self):
        s = AddressSet.from_ints([1, 2])
        with pytest.raises(ValueError):
            s.matrix[0, 0] = 5


class TestAccessors:
    def test_column_indexing(self, tiny_set):
        # Fig. 3: last character takes 'c' twice and 'f' thrice.
        last = tiny_set.column(32).tolist()
        assert last.count(0xC) == 2 and last.count(0xF) == 3

    def test_column_out_of_range(self, tiny_set):
        with pytest.raises(IndexError):
            tiny_set.column(0)
        with pytest.raises(IndexError):
            tiny_set.column(33)

    def test_segment_values_narrow(self, tiny_set):
        values = tiny_set.segment_values(12, 16)
        assert int(values[0]) == 0x11111
        assert int(values[2]) == 0x31C13

    def test_segment_values_full_width_uint64(self):
        s = AddressSet.from_ints([0xFFFFFFFFFFFFFFFF], width=16,
                                 already_truncated=True)
        values = s.segment_values(1, 16)
        assert values.dtype == np.uint64
        assert int(values[0]) == 0xFFFFFFFFFFFFFFFF

    def test_segment_values_wider_than_64_bits(self):
        s = AddressSet.from_strings(["2001:db8::1"])
        values = s.segment_values(1, 32)
        assert values.dtype == object
        assert values[0] == IPv6Address("2001:db8::1").value

    def test_segment_values_bad_range(self, tiny_set):
        with pytest.raises(IndexError):
            tiny_set.segment_values(5, 4)
        with pytest.raises(IndexError):
            tiny_set.segment_values(0, 4)

    def test_row_int_and_addresses(self):
        s = AddressSet.from_strings(["2001:db8::1"])
        assert s.row_int(0) == IPv6Address("2001:db8::1").value
        assert s.addresses() == [IPv6Address("2001:db8::1")]

    def test_addresses_pad_narrow_width(self):
        s = AddressSet.from_ints([0x20010DB8], width=8, already_truncated=True)
        assert s.addresses() == [IPv6Address("2001:db8::")]

    def test_hex_rows(self, tiny_set):
        rows = list(tiny_set.hex_rows())
        assert rows[0] == "20010db840011111000000000000111c"


class TestOperations:
    def test_unique(self, tiny_set):
        assert len(tiny_set.unique()) == 4  # one duplicate in Fig. 3

    def test_sample_without_replacement(self, tiny_set, rng):
        sample = tiny_set.sample(3, rng)
        assert len(sample) == 3

    def test_sample_too_large(self, tiny_set, rng):
        with pytest.raises(ValueError):
            tiny_set.sample(10, rng)

    def test_truncate(self, tiny_set):
        t = tiny_set.truncate(8)
        assert t.width == 8
        assert set(t.hex_rows()) == {"20010db8"}

    def test_truncate_bad_width(self, tiny_set):
        with pytest.raises(ValueError):
            tiny_set.truncate(33)

    def test_concat(self):
        a = AddressSet.from_ints([1])
        b = AddressSet.from_ints([2])
        assert len(a.concat(b)) == 2

    def test_concat_width_mismatch(self):
        a = AddressSet.from_ints([1], width=8)
        b = AddressSet.from_ints([2], width=16)
        with pytest.raises(ValueError):
            a.concat(b)

    def test_take(self, tiny_set):
        taken = tiny_set.take([0, 2])
        assert len(taken) == 2
        assert list(taken.hex_rows())[1].endswith("200c")

    def test_equality(self):
        assert AddressSet.from_ints([1, 2]) == AddressSet.from_ints([1, 2])
        assert AddressSet.from_ints([1]) != AddressSet.from_ints([2])

    def test_split_train_test(self, rng):
        s = AddressSet.from_ints(list(range(100)))
        train, test = split_train_test(s, 30, rng)
        assert len(train) == 30 and len(test) == 70
        assert set(train.to_ints()) | set(test.to_ints()) == set(range(100))

    def test_split_train_test_too_big(self, rng):
        s = AddressSet.from_ints([1, 2])
        with pytest.raises(ValueError):
            split_train_test(s, 2, rng)


class TestVectorizedEquivalence:
    """The numpy fast paths must match the obvious per-row reference."""

    @settings(max_examples=50)
    @given(st.lists(ADDRESS_INTS, min_size=1, max_size=30))
    def test_to_ints_matches_per_row_reference(self, values):
        s = AddressSet.from_ints(values)
        reference = []
        for row in range(len(s)):
            value = 0
            for nybble in s.matrix[row]:
                value = (value << 4) | int(nybble)
            reference.append(value)
        assert s.to_ints() == reference
        assert [s.row_int(r) for r in range(len(s))] == reference

    @settings(max_examples=50)
    @given(st.lists(ADDRESS_INTS, min_size=1, max_size=30))
    def test_hex_rows_matches_format_reference(self, values):
        s = AddressSet.from_ints(values)
        assert list(s.hex_rows()) == [format(v, "032x") for v in values]

    @settings(max_examples=50)
    @given(
        st.lists(st.integers(0, 2**40), min_size=0, max_size=30),
        st.lists(st.integers(0, 2**40), min_size=0, max_size=30),
        st.integers(1, 32),
    )
    def test_contains_rows_matches_set_reference(self, mine, theirs, width):
        a = AddressSet.from_ints([v % (1 << (4 * width)) for v in mine],
                                 width=width, already_truncated=True)
        b = AddressSet.from_ints([v % (1 << (4 * width)) for v in theirs],
                                 width=width, already_truncated=True)
        members = set(a.to_ints())
        expected = [v in members for v in b.to_ints()]
        assert a.contains_rows(b).tolist() == expected

    def test_contains_rows_width_mismatch(self):
        a = AddressSet.from_ints([1], width=8, already_truncated=True)
        b = AddressSet.from_ints([1], width=16, already_truncated=True)
        with pytest.raises(ValueError):
            a.contains_rows(b)

    @settings(max_examples=50)
    @given(st.lists(ADDRESS_INTS, min_size=1, max_size=30), st.integers(1, 32))
    def test_pack_rows_preserves_row_identity(self, values, width):
        s = AddressSet.from_ints(values, width=width)
        words = pack_rows(s.matrix)
        assert words.shape == (len(s), (width + 15) // 16)
        # Packed equality must coincide with row equality.
        ints = s.to_ints()
        for i in range(len(s)):
            for j in range(len(s)):
                assert (ints[i] == ints[j]) == bool(
                    np.all(words[i] == words[j])
                )

    @settings(max_examples=50)
    @given(st.lists(ADDRESS_INTS, min_size=0, max_size=30), st.integers(1, 32))
    def test_unpack_rows_inverts_pack_rows(self, values, width):
        """unpack_rows is the exact inverse of pack_rows — the fused
        generation path relies on it to materialize nybble matrices
        only for the rows it keeps."""
        s = AddressSet.from_ints(values, width=width)
        matrix = unpack_rows(pack_rows(s.matrix), width)
        assert matrix.shape == s.matrix.shape
        assert matrix.dtype == s.matrix.dtype
        assert np.array_equal(matrix, s.matrix)
        assert matrix.flags["C_CONTIGUOUS"]

    @settings(max_examples=50)
    @given(
        st.lists(st.integers(0, 30), min_size=0, max_size=60),
        st.lists(st.integers(0, 30), min_size=0, max_size=10),
    )
    def test_first_occurrence_matches_python_reference(self, stream, exclude):
        s = AddressSet.from_ints(stream, width=4, already_truncated=True)
        e = AddressSet.from_ints(exclude, width=4, already_truncated=True)
        positions = first_occurrence_positions(
            s.packed_rows(), e.packed_rows()
        )
        seen = set(exclude)
        expected = []
        for position, value in enumerate(stream):
            if value not in seen:
                seen.add(value)
                expected.append(position)
        assert positions.tolist() == expected


class TestRoundTrips:
    @settings(max_examples=50)
    @given(st.lists(ADDRESS_INTS, min_size=1, max_size=20))
    def test_ints_round_trip(self, values):
        s = AddressSet.from_ints(values)
        assert s.to_ints() == values

    @settings(max_examples=50)
    @given(st.lists(ADDRESS_INTS, min_size=1, max_size=20))
    def test_segment_values_recompose(self, values):
        s = AddressSet.from_ints(values)
        top = s.segment_values(1, 16)
        bottom = s.segment_values(17, 32)
        for original, high, low in zip(values, top, bottom):
            assert (int(high) << 64) | int(low) == original


class TestArrayPrimitives:
    """The packed-word primitives the array-native scan layer rides on."""

    def test_from_words_round_trip(self):
        values = [0x20010DB8_0001_0000 | i for i in range(100)]
        words = np.array(values, dtype=np.uint64)
        built = AddressSet.from_words(words, width=16)
        assert built.to_ints() == values
        assert built == AddressSet.from_ints(
            values, width=16, already_truncated=True
        )

    def test_from_words_narrow_widths(self):
        built = AddressSet.from_words(np.array([0x1234, 0xF], dtype=np.uint64), 4)
        assert built.to_ints() == [0x1234, 0xF]
        assert built.width == 4

    def test_from_words_validation(self):
        with pytest.raises(ValueError):
            AddressSet.from_words(np.array([0x12345], dtype=np.uint64), 4)
        with pytest.raises(ValueError):
            AddressSet.from_words(np.array([1], dtype=np.uint64), 17)
        with pytest.raises(ValueError):
            AddressSet.from_words(np.array([[1]], dtype=np.uint64), 4)

    def test_from_words_empty(self):
        built = AddressSet.from_words(np.array([], dtype=np.uint64), 16)
        assert len(built) == 0 and built.width == 16

    @pytest.mark.parametrize("width", [32, 20, 16, 8])
    def test_value_words_match_row_ints(self, width):
        generator = np.random.default_rng(7)
        values = [
            int(v) >> (4 * (32 - width))
            for v in generator.integers(0, 1 << 63, size=50)
        ] + [0, (1 << (4 * width)) - 1]
        rows = AddressSet.from_ints(values, width=width, already_truncated=True)
        low, high = rows.value_words()
        rebuilt = [(int(hi) << 64) | int(lo) for lo, hi in zip(low, high)]
        assert rebuilt == [rows.row_int(i) for i in range(len(rows))]

    @pytest.mark.parametrize("width", [32, 24, 16])
    def test_prefixes64_matches_scalar_reference(self, width):
        generator = np.random.default_rng(13)
        values = [
            int(v) >> (4 * (32 - width))
            for v in generator.integers(0, 1 << 62, size=200)
        ]
        rows = AddressSet.from_ints(values, width=width, already_truncated=True)
        shift = 4 * (width - 16)
        reference = sorted({v >> shift for v in values})
        assert [int(p) for p in rows.prefixes64()] == reference

    def test_prefixes64_rejects_narrow(self):
        with pytest.raises(ValueError):
            AddressSet.from_ints([1], width=8, already_truncated=True).prefixes64()

    def test_prefixes64_empty(self):
        assert AddressSet.empty(32).prefixes64().tolist() == []

    def test_contains_rows_repeated_queries_use_cache(self):
        base = AddressSet.from_ints([10, 20, 30])
        hits = base.contains_rows(AddressSet.from_ints([20, 99]))
        assert hits.tolist() == [True, False]
        # Second query hits the cached sorted view; results unchanged.
        again = base.contains_rows(AddressSet.from_ints([10, 30, 40]))
        assert again.tolist() == [True, True, False]


class TestMatchRows:
    def test_positions_point_at_equal_rows(self):
        base = AddressSet.from_ints([(7 << 64) | i for i in (5, 9, 2, 5)])
        query = AddressSet.from_ints(
            [(7 << 64) | 2, (7 << 64) | 5, 123, (7 << 64) | 9]
        )
        positions = base.match_rows(query)
        assert positions[2] == -1
        for q, p in zip(range(len(query)), positions):
            if p >= 0:
                assert base.matrix[p].tolist() == query.matrix[q].tolist()
        # Duplicate rows in base: the first occurrence wins.
        assert positions[1] == 0

    def test_empty_sides(self):
        base = AddressSet.from_ints([1, 2])
        assert base.match_rows(AddressSet.empty(32)).tolist() == []
        assert AddressSet.empty(32).match_rows(base).tolist() == [-1, -1]

    def test_rank_fallback_index_equivalent(self):
        generator = np.random.default_rng(21)
        values = [int(v) for v in generator.integers(0, 1 << 60, size=300)]
        base = AddressSet.from_ints(values + values[:50])
        query = AddressSet.from_ints(
            values[::3] + [int(v) for v in generator.integers(0, 1 << 60, size=100)]
        )
        fast = base.match_rows(query)
        # The sorted reference path must agree with the bucket table.
        assert base._match_rows_sorted(query).tolist() == fast.tolist()
        # Force the collision-proof rank-composition index and re-match.
        from repro.ipv6.sets import first_occurrence_positions, pack_rows

        words = pack_rows(base.matrix)
        distinct = first_occurrence_positions(words)
        forced = AddressSet(base.matrix)
        forced._sorted_index = AddressSet._build_rank_index(
            words[distinct], distinct
        )
        assert forced._match_rows_sorted(query).tolist() == fast.tolist()
        assert forced.contains_rows(query).tolist() == (fast >= 0).tolist()

    def test_rank_fallback_single_word(self):
        values = [3, 9, 27, 81, 9]
        base = AddressSet.from_ints(values, width=16, already_truncated=True)
        query = AddressSet.from_ints(
            [9, 4, 81], width=16, already_truncated=True
        )
        from repro.ipv6.sets import first_occurrence_positions, pack_rows

        words = pack_rows(base.matrix)
        distinct = first_occurrence_positions(words)
        forced = AddressSet(base.matrix)
        forced._sorted_index = AddressSet._build_rank_index(
            words[distinct], distinct
        )
        assert forced._match_rows_sorted(query).tolist() == [1, -1, 3]

    def test_from_words_rejects_negative_and_float(self):
        with pytest.raises(ValueError):
            AddressSet.from_words(np.array([-1], dtype=np.int64), 16)
        with pytest.raises(ValueError):
            AddressSet.from_words(np.array([1.5]), 16)
        # Signed but non-negative is fine.
        built = AddressSet.from_words(np.array([7, 9], dtype=np.int64), 4)
        assert built.to_ints() == [7, 9]


def rows_from_values(values, word_count=2):
    """Packed rows whose identity is the scalar value: word 0 mimics a
    clustered /64 prefix, the remaining words the IID."""
    values = np.asarray(values, dtype=np.uint64)
    words = np.empty((len(values), word_count), dtype=np.uint64)
    words[:, 0] = np.uint64(0x20010DB8 << 32) + (values >> np.uint64(3))
    for column in range(1, word_count):
        words[:, column] = values
    return words


def stored_row_set(table):
    return {tuple(map(int, row)) for row in table.stored_words()}


def oracle_insert(seen, words, limit=None):
    """First-occurrence Python-set insert: the fresh mask, admitting at
    most ``limit`` fresh rows."""
    fresh = []
    admitted = 0
    for row in words:
        key = tuple(map(int, row))
        admit = key not in seen and (limit is None or admitted < limit)
        fresh.append(admit)
        if admit:
            seen.add(key)
            admitted += 1
    return fresh


class TestBucketTableOracle:
    """:class:`BucketTable` against a first-occurrence Python-set
    oracle, over mixed batch schedules (empty, single-row, large)."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 120), min_size=0, max_size=40),
            min_size=1,
            max_size=12,
        ),
        st.integers(1, 3),
    )
    def test_fresh_masks_match_oracle(self, batches, word_count):
        table = BucketTable(word_count)
        seen = set()
        offered = 0
        for batch in batches:
            words = rows_from_values(batch, word_count)
            expected = oracle_insert(seen, words)
            assert table.insert(words).tolist() == expected
            offered += len(batch)
        assert len(table) == len(seen)
        assert table.rows_offered == offered
        assert stored_row_set(table) == seen

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 120), min_size=1, max_size=80),
        st.lists(st.integers(0, 160), min_size=1, max_size=40),
    )
    def test_lookup_ids_are_stream_positions(self, stream, probes):
        table = BucketTable(2)
        table.insert(rows_from_values(stream))
        first_seen = {}
        for position, value in enumerate(stream):
            first_seen.setdefault(int(value), position)
        probe_words = rows_from_values(probes)
        expected = [first_seen.get(int(v), -1) for v in probes]
        assert table.lookup(probe_words).tolist() == expected
        assert table.contains(probe_words).tolist() == [
            e >= 0 for e in expected
        ]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 60), min_size=1, max_size=80),
        st.integers(0, 20),
        st.integers(0, 40),
    )
    def test_limited_insert_matches_oracle(self, batch, limit, preload):
        table = BucketTable(2)
        pre = rows_from_values(np.arange(preload) * 3)
        table.insert(pre)
        seen = stored_row_set(table)
        words = rows_from_values(batch)
        expected = oracle_insert(seen, words, limit=limit)
        mask = table.insert_packed(words, limit=limit)
        assert mask.tolist() == expected
        assert int(mask.sum()) <= limit
        assert len(table) == len(seen)
        assert table.rows_offered == preload + len(batch)
        assert stored_row_set(table) == seen
        # Admitted rows carry their true stream positions; rows the
        # limit turned away are absent.
        ids = table.lookup(words)
        for position, (row, admitted) in enumerate(zip(words, mask)):
            if admitted:
                assert ids[position] == preload + position
            elif tuple(map(int, row)) not in seen:
                assert ids[position] == -1

    def test_reversible_insert_round_trip(self):
        table = BucketTable(2)
        table.insert(rows_from_values([1, 2, 3]))
        mark_rows, mark_offered = len(table), table.rows_offered
        before = stored_row_set(table)
        fresh = table.insert_reversible(rows_from_values([2, 10, 11]))
        assert fresh.tolist() == [False, True, True]
        table.revert_insert()
        assert len(table) == mark_rows
        assert table.rows_offered == mark_offered
        assert stored_row_set(table) == before
        assert not table.contains(rows_from_values([10, 11])).any()
        with pytest.raises(RuntimeError):
            table.revert_insert()

    def test_plain_insert_invalidates_revert(self):
        table = BucketTable(2)
        table.insert_reversible(rows_from_values([1, 2]))
        table.insert(rows_from_values([3]))
        with pytest.raises(RuntimeError):
            table.revert_insert()
