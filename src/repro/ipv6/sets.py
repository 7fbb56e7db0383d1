"""The vectorized address-set container the analysis pipeline runs on.

Entropy/IP's analyses (Section 4) are column-oriented: per-nybble entropy,
segment extraction, and value mining all look at the *i-th hex character
across all addresses*.  :class:`AddressSet` therefore stores a set of
addresses as an ``(n, width)`` numpy ``uint8`` matrix of nybble values,
exactly the fixed-width representation of Fig. 3.

``width`` is 32 nybbles for full addresses, but any smaller width is
supported — the prefix-prediction mode of Section 5.6 runs the identical
pipeline on 16-nybble (/64) rows.

Whole-row set algebra runs on packed ``uint64`` words (:func:`pack_rows`):
:class:`BucketTable` is the open-addressing membership index behind both
generation dedup and batch membership
(:meth:`AddressSet.match_rows`/:meth:`~AddressSet.contains_rows`), and
:meth:`AddressSet.prefixes64`/:meth:`~AddressSet.value_words` feed the
scan layer's /64 accounting and keyed-hash oracles — the whole §5.5
scoring path never materializes a per-row Python integer.
:func:`first_occurrence_positions` remains as the sort-based dedup
reference, and the sorted searchsorted index survives as
:meth:`AddressSet._match_rows_sorted` so the perf harness can measure
the bucket table against it on identical batches.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.ipv6.address import IPv6Address, NYBBLES_PER_ADDRESS

_HEX = "0123456789abcdef"

# ASCII code → nybble value lookup table (255 = invalid).
_ASCII_TO_NYBBLE = np.full(256, 255, dtype=np.uint8)
for _i, _c in enumerate(_HEX):
    _ASCII_TO_NYBBLE[ord(_c)] = _i
    _ASCII_TO_NYBBLE[ord(_c.upper())] = _i

# Nybble value → ASCII hex code (the inverse table).
_NYBBLE_TO_ASCII = np.frombuffer(_HEX.encode("ascii"), dtype=np.uint8).copy()


def _mix64(values: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 finalizer (wrapping uint64 arithmetic)."""
    values = values + np.uint64(0x9E3779B97F4A7C15)
    values = (values ^ (values >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    values = (values ^ (values >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return values ^ (values >> np.uint64(31))


def _mix_words(words: np.ndarray) -> np.ndarray:
    """Fold an ``(n, k)`` packed-row matrix into one well-mixed uint64
    per row (SplitMix64 chained across the word columns)."""
    mixed = np.zeros(len(words), dtype=np.uint64)
    for j in range(words.shape[1]):
        mixed = _mix64(words[:, j] ^ mixed)
    return mixed


def pack_rows(matrix: np.ndarray) -> np.ndarray:
    """Pack an ``(n, width)`` nybble matrix into ``(n, ceil(width/16))``
    big-endian ``uint64`` words.

    Two rows are equal iff their packed words are equal (narrow widths
    are zero-padded on the right), so whole-row set algebra can run on
    a couple of integer columns instead of ``width`` bytes.
    """
    m = np.ascontiguousarray(matrix, dtype=np.uint8)
    n, width = m.shape
    word_count = max((width + 15) // 16, 1)
    padded_width = word_count * 16
    if padded_width != width:
        padded = np.zeros((n, padded_width), dtype=np.uint8)
        padded[:, :width] = m
    else:
        padded = m
    byte_image = (padded[:, 0::2] << 4) | padded[:, 1::2]
    return (
        np.ascontiguousarray(byte_image).view(">u8").astype(np.uint64)
    )


def unpack_rows(words: np.ndarray, width: int) -> np.ndarray:
    """Exact inverse of :func:`pack_rows`: ``(n, ceil(width/16))``
    big-endian ``uint64`` words back into an ``(n, width)`` nybble
    matrix.

    Because :func:`pack_rows` zero-pads narrow widths on the right,
    ``unpack_rows(pack_rows(m), m.shape[1]) == m`` bit for bit.  This
    is what lets the fused generation path work purely on packed words
    and materialize the nybble matrix once, for the kept rows only.
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if words.ndim != 2:
        raise ValueError(f"expected 2-D packed words, got {words.ndim}-D")
    n, word_count = words.shape
    if not 1 <= width <= 16 * word_count:
        raise ValueError(
            f"width {width} does not fit {word_count} packed words"
        )
    byte_image = words.astype(">u8").view(np.uint8).reshape(n, 8 * word_count)
    nybbles = np.empty((n, 16 * word_count), dtype=np.uint8)
    nybbles[:, 0::2] = byte_image >> 4
    nybbles[:, 1::2] = byte_image & 0x0F
    return np.ascontiguousarray(nybbles[:, :width])


def in_sorted(sorted_values: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Boolean membership of ``values`` in a sorted 1-D array.

    One ``searchsorted`` per call — the binary-search primitive behind
    the campaign's incremental /64 accounting, where the haystack is a
    running sorted-unique uint64 array.
    """
    values = np.asarray(values)
    if len(sorted_values) == 0 or len(values) == 0:
        return np.zeros(len(values), dtype=bool)
    at = np.minimum(
        np.searchsorted(sorted_values, values), len(sorted_values) - 1
    )
    return sorted_values[at] == values


def merge_sorted_unique(base: np.ndarray, fresh: np.ndarray) -> np.ndarray:
    """Merge sorted-distinct ``fresh`` values into sorted-distinct
    ``base``; ``fresh`` must be disjoint from ``base`` (filter with
    :func:`in_sorted` first).

    One ``searchsorted`` + one ``np.insert`` — O(len(base) +
    len(fresh)) per call, so a campaign that folds each round's new
    /64 prefixes into a running array never re-sorts its history.
    """
    if fresh.size == 0:
        return base
    if base.size == 0:
        return fresh
    return np.insert(base, np.searchsorted(base, fresh), fresh)


def first_occurrence_positions(
    words: np.ndarray, exclude_words: Optional[np.ndarray] = None
) -> np.ndarray:
    """Positions of the first occurrence of each distinct row, ascending.

    ``words`` is an ``(n, k)`` packed-row matrix (see :func:`pack_rows`);
    rows whose value also appears in ``exclude_words`` are suppressed
    entirely.  One ``lexsort`` + adjacent comparison — the vectorized
    heart of generation dedup.
    """
    n = len(words)
    if n == 0:
        return np.empty(0, dtype=np.intp)
    offset = 0
    if exclude_words is not None and len(exclude_words):
        offset = len(exclude_words)
        words = np.vstack([exclude_words, words])
    # Sort by row value only: lexsort is stable, so rows within an
    # equal-value run keep input order — excluded rows (stacked first)
    # and then earlier stream rows win their runs without needing a
    # tie-breaking key.
    if words.shape[1] == 1:
        order = np.argsort(words[:, 0], kind="stable")
    else:
        order = np.lexsort(
            tuple(words[:, j] for j in range(words.shape[1] - 1, -1, -1))
        )
    sorted_words = words[order]
    run_start = np.empty(len(order), dtype=bool)
    run_start[0] = True
    np.any(sorted_words[1:] != sorted_words[:-1], axis=1, out=run_start[1:])
    winners = order[run_start]
    winners = winners[winners >= offset] - offset
    mask = np.zeros(n, dtype=bool)
    mask[winners] = True
    return np.flatnonzero(mask)


class BucketTable:
    """Growable open-addressing membership index over packed rows.

    The random-access floor of a sorted ``searchsorted`` membership
    probe is ~log2(n) dependent cache misses per query; an open-address
    table needs ~1-2 independent gathers at load factor <= 1/2.  Rows
    are keyed by their SplitMix64-mixed fold (:func:`_mix_words`),
    probed linearly in a power-of-two slot array, and every key match
    is verified against the actual packed words — so two *distinct*
    rows whose 64-bit folds collide simply occupy adjacent slots and
    both remain individually findable (the probe walks past a
    word-mismatched key instead of stopping).  Exactness never depends
    on the fold being collision-free.

    The table is growable: :meth:`insert` accepts batches, suppresses
    rows already present (first occurrence wins), and doubles the slot
    array whenever the load factor would pass 1/2.  That makes it both
    the one-shot index behind :meth:`AddressSet.match_rows` and the
    incrementally-fed dedup set of the generation loop, which inserts
    one candidate batch per round against everything kept so far.

    :meth:`insert_packed` is the first-class incremental API a
    long-lived table (a campaign's combined exclusion+dedup index)
    runs on: batch insert returning the fresh-row mask, an optional
    ``limit`` on how many fresh rows a batch may admit (the rest are
    rolled back exactly, so a generation round that overshoots its
    target never pollutes the persistent state), and the
    :attr:`rows_stored`/:attr:`rows_offered` snapshot counters.
    Growth rehashes from the stored columns only — source matrices
    that were folded in are never re-read.

    All operations are vectorized over batches; nothing on the probe
    path touches per-row Python.
    """

    __slots__ = (
        "_word_count",
        "_size",
        "_mask",
        "_slots",
        "_claim",
        "_mixed",
        "_words",
        "_ids",
        "_count",
        "_offered",
        "_undo_slots",
        "_undo_grew",
        "_undo_armed",
        "_revert_mark",
    )

    #: Smallest slot-array size (keeps the empty table cheap while
    #: avoiding degenerate single-slot probing).
    _MIN_SIZE = 16

    #: Slot array stays at least this many times larger than the
    #: stored-row count (reciprocal of the maximum load factor).
    _LOAD_NUM = 2

    def __init__(self, word_count: int, capacity: int = 0):
        if word_count < 1:
            raise ValueError(f"word_count must be positive, got {word_count}")
        self._word_count = word_count
        size = self._MIN_SIZE
        while size < self._LOAD_NUM * capacity:
            size *= 2
        self._size = size
        self._mask = np.uint64(size - 1)
        self._slots = np.full(size, -1, dtype=np.int32)
        # Scratch buffer for batched first-occurrence slot claiming;
        # only the entries touched by an insert round are ever written
        # and they are reset immediately after, so the buffer is
        # allocated once per growth instead of once per batch.
        self._claim = np.full(size, -1, dtype=np.int64)
        # Stored-row columns (amortized-doubling appends).
        self._mixed = np.empty(size // 2, dtype=np.uint64)
        self._words = np.empty((size // 2, word_count), dtype=np.uint64)
        self._ids = np.empty(size // 2, dtype=np.int64)
        self._count = 0
        self._offered = 0
        # Per-insert undo log (slot indices written, growth flag) —
        # what makes the bounded :meth:`insert_packed` able to roll an
        # over-admitting batch back exactly.  Slot indices are only
        # recorded while armed (the ``insert_packed(limit=...)`` path):
        # an unarmed bulk insert — e.g. seeding a million-row
        # membership index — must not pin its won-slot arrays for the
        # table's lifetime.
        self._undo_slots: List[np.ndarray] = []
        self._undo_grew = False
        self._undo_armed = False
        # (count, offered) snapshot of the last insert_reversible call;
        # None whenever no reversible batch is outstanding.
        self._revert_mark = None

    def __len__(self) -> int:
        """Number of distinct rows stored."""
        return self._count

    @property
    def word_count(self) -> int:
        """Packed words per stored row."""
        return self._word_count

    @property
    def rows_stored(self) -> int:
        """Snapshot count of distinct rows stored (same as ``len``)."""
        return self._count

    @property
    def rows_offered(self) -> int:
        """Snapshot count of rows ever offered, duplicates included."""
        return self._offered

    @property
    def slot_count(self) -> int:
        """Current size of the (power-of-two) slot array."""
        return self._size

    def stored_words(self) -> np.ndarray:
        """Read-only view of the distinct stored rows, insertion order.

        A ``(rows_stored, word_count)`` packed-row matrix.  Rehash and
        rollback both rebuild from these columns, never from any source
        matrix, so the view is always the table's complete truth.
        """
        view = self._words[: self._count]
        view.setflags(write=False)
        return view

    def state_digest(self) -> str:
        """Order-independent sha256 over the stored row *set*.

        Rows are hashed in canonical (lexicographic) order, not stored
        order: the physical append order depends on how the same rows
        were batched (probe-round resolution appends collided rows
        later), but every membership-relevant behavior — ``contains``,
        dedup on insert, ``len`` — depends only on the set.  Two tables
        with equal digests therefore behave identically, which is
        exactly what a checkpoint round-trip needs to verify.
        """
        import hashlib

        words = self._words[: self._count]
        if len(words):
            words = words[np.lexsort(words.T[::-1])]
        return hashlib.sha256(
            np.ascontiguousarray(words).tobytes()
        ).hexdigest()

    def reserve(self, capacity: int) -> None:
        """Grow hook: pre-size slot and storage arrays for ``capacity``
        stored rows, so subsequent inserts up to that point never
        rehash mid-batch.  Growing past current sizes rehashes once,
        now; shrinking is never performed."""
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self._ensure_slots(capacity)
        self._ensure_storage(capacity)

    def _ensure_slots(self, total_rows: int) -> bool:
        """Grow the slot array until ``total_rows`` stored rows fit at
        the load-factor bound, rehashing stored rows into the new
        array.  Returns True when a growth (and therefore a rehash)
        happened — callers holding probe positions must restart from
        the home slots.

        The insert loop calls this lazily with the count of rows that
        actually reached an empty slot, not the raw batch size: a
        duplicate-heavy batch (the saturated generation regime) mostly
        lands on its equal rows' occupied slots and must not balloon
        the table.
        """
        if self._LOAD_NUM * total_rows <= self._size:
            return False
        size = self._size
        while self._LOAD_NUM * total_rows > size:
            size *= 2
        self._size = size
        self._mask = np.uint64(size - 1)
        self._slots = np.full(size, -1, dtype=np.int32)
        self._claim = np.full(size, -1, dtype=np.int64)
        if self._count:
            self._place_all(self._mixed[: self._count])
        return True

    def _ensure_storage(self, total_rows: int) -> None:
        """Amortized-doubling growth of the stored-row columns; sized
        by rows actually appended, independently of the slot array."""
        if total_rows <= len(self._mixed):
            return
        grown = max(2 * len(self._mixed), total_rows, 8)
        mixed = np.empty(grown, dtype=np.uint64)
        words = np.empty((grown, self._word_count), dtype=np.uint64)
        ids = np.empty(grown, dtype=np.int64)
        mixed[: self._count] = self._mixed[: self._count]
        words[: self._count] = self._words[: self._count]
        ids[: self._count] = self._ids[: self._count]
        self._mixed, self._words, self._ids = mixed, words, ids

    def _place_all(self, mixed: np.ndarray) -> None:
        """Rehash: place already-distinct stored rows by storage id."""
        step = np.int64(self._size - 1)
        pending = np.arange(len(mixed), dtype=np.int64)
        probe = (mixed & self._mask).astype(np.int64)
        claim = self._claim
        first_round = True
        while pending.size:
            if first_round:
                # A rehash always starts from an all-empty slot array.
                empty = np.ones(pending.size, dtype=bool)
                first_round = False
            else:
                at = self._slots[probe]
                empty = at < 0
            e_pos = np.flatnonzero(empty)
            placed = np.zeros(pending.size, dtype=bool)
            if e_pos.size:
                slots_e = probe[e_pos]
                rows_e = pending[e_pos]
                # Reversed write: with duplicate slots the final value
                # is the earliest row, i.e. first occurrence wins.
                claim[slots_e[::-1]] = rows_e[::-1]
                winners = claim[slots_e] == rows_e
                self._slots[slots_e[winners]] = rows_e[winners].astype(
                    np.int32
                )
                claim[slots_e] = -1
                placed[e_pos[winners]] = True
            keep = ~placed
            # Every unplaced row advances: occupied slots were simply
            # skipped, and claim losers just watched a *distinct* row
            # (rehash inserts no duplicates) take their slot.
            pending = pending[keep]
            probe = (probe[keep] + 1) & step

    def _append(
        self, words: np.ndarray, mixed: np.ndarray, ids: np.ndarray
    ) -> np.ndarray:
        """Append stored rows; return their storage indices."""
        start = self._count
        stop = start + len(words)
        self._ensure_storage(stop)
        self._words[start:stop] = words
        self._mixed[start:stop] = mixed
        self._ids[start:stop] = ids
        self._count = stop
        return np.arange(start, stop, dtype=np.int64)

    def insert(
        self, words: np.ndarray, ids: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Insert a batch of packed rows; return the "fresh" mask.

        ``words`` is an ``(m, word_count)`` :func:`pack_rows` matrix.
        Rows already present in the table — or duplicated earlier in
        this same batch — are suppressed; the returned boolean mask
        marks the rows that were actually added (the first occurrence
        of each new distinct row, in batch order).  ``ids`` optionally
        assigns the external identifier :meth:`lookup` reports for each
        row (defaults to the running count of rows ever offered, i.e.
        the stream position).
        """
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if words.ndim != 2 or words.shape[1] != self._word_count:
            raise ValueError(
                f"expected (m, {self._word_count}) packed rows, "
                f"got shape {words.shape}"
            )
        m = len(words)
        fresh = np.zeros(m, dtype=bool)
        if ids is None:
            ids = np.arange(self._offered, self._offered + m, dtype=np.int64)
        else:
            ids = np.ascontiguousarray(ids, dtype=np.int64)
            if ids.shape != (m,):
                raise ValueError("ids must be one per inserted row")
        self._offered += m
        self._undo_slots = []
        self._undo_grew = False
        # Any outstanding reversible batch is superseded: reverting it
        # after further inserts would corrupt the probe topology.
        self._revert_mark = None
        if m == 0:
            return fresh
        mixed = _mix_words(words)
        step = np.int64(self._size - 1)
        pending = np.arange(m, dtype=np.int64)
        probe = (mixed & self._mask).astype(np.int64)
        claim = self._claim
        while pending.size:
            if self._count == 0:
                # Empty table: every slot is free, so skip the gather
                # and the occupied branch entirely.
                empty = np.ones(pending.size, dtype=bool)
                at = None
            else:
                at = self._slots[probe]
                empty = at < 0
            e_pos = np.flatnonzero(empty)
            # Grow lazily, sized by rows that actually reached an empty
            # slot this round (an upper bound on this round's appends).
            if e_pos.size and self._ensure_slots(self._count + e_pos.size):
                # The slot array was rebuilt: every computed probe is
                # stale.  Restart the round from the home slots.
                self._undo_grew = True
                step = np.int64(self._size - 1)
                claim = self._claim
                probe = (mixed[pending] & self._mask).astype(np.int64)
                continue
            resolved = np.zeros(pending.size, dtype=bool)
            if e_pos.size:
                slots_e = probe[e_pos]
                rows_e = pending[e_pos]
                # First-occurrence claim: pending stays ascending, so a
                # reversed fancy write leaves the earliest row in each
                # contested slot.
                claim[slots_e[::-1]] = rows_e[::-1]
                claimed = claim[slots_e]
                winners = claimed == rows_e
                win_rows = rows_e[winners]
                storage = self._append(
                    words[win_rows], mixed[win_rows], ids[win_rows]
                )
                won_slots = slots_e[winners]
                self._slots[won_slots] = storage.astype(np.int32)
                if self._undo_armed:
                    self._undo_slots.append(won_slots)
                claim[slots_e] = -1
                fresh[win_rows] = True
                resolved[e_pos[winners]] = True
                # Claim losers compare against their slot's new
                # occupant — the winner — right now instead of burning
                # a whole extra round on it: duplicate-heavy batches
                # (the generation loop's steady state) resolve almost
                # entirely in one pass.
                loser = ~winners
                if loser.any():
                    l_pos = e_pos[loser]
                    l_rows = rows_e[loser]
                    w_rows = claimed[loser]
                    same_key = mixed[l_rows] == mixed[w_rows]
                    dup_l = np.zeros(l_pos.size, dtype=bool)
                    if same_key.any():
                        dup_l[same_key] = (
                            words[l_rows[same_key]] == words[w_rows[same_key]]
                        ).all(axis=1)
                    resolved[l_pos[dup_l]] = True
                    advance_l = l_pos[~dup_l]
                    probe[advance_l] = (probe[advance_l] + 1) & step
            o_pos = np.flatnonzero(~empty)
            if o_pos.size:
                stored = at[o_pos]
                rows_o = pending[o_pos]
                key_eq = self._mixed[stored] == mixed[rows_o]
                duplicate = np.zeros(o_pos.size, dtype=bool)
                if key_eq.any():
                    cand = stored[key_eq]
                    rows_eq = rows_o[key_eq]
                    duplicate[key_eq] = (
                        self._words[cand] == words[rows_eq]
                    ).all(axis=1)
                resolved[o_pos[duplicate]] = True
                mismatch = o_pos[~duplicate]
                probe[mismatch] = (probe[mismatch] + 1) & step
            keep = ~resolved
            pending = pending[keep]
            probe = probe[keep]
        return fresh

    def insert_reversible(
        self, words: np.ndarray, ids: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """:meth:`insert` whose whole batch can still be undone.

        The insert runs with the undo log armed, and until the next
        mutating call the batch can be removed *exactly* with
        :meth:`revert_insert` — how a capacity-capped
        :meth:`GenerationSession.observe
        <repro.core.model.GenerationSession.observe>` rejects an over-cap
        batch without partially mutating the table.
        """
        count_mark, offered_mark = self._count, self._offered
        self._undo_armed = True
        try:
            fresh = self.insert(words, ids)
        finally:
            self._undo_armed = False
        self._revert_mark = (count_mark, offered_mark)
        return fresh

    def revert_insert(self) -> None:
        """Undo the outstanding :meth:`insert_reversible` batch exactly.

        Raises ``RuntimeError`` when no reversible batch is outstanding
        (never called, already reverted, or superseded by a later
        mutating insert — reverting across later inserts would corrupt
        the probe topology, so the mark is invalidated instead).
        """
        if self._revert_mark is None:
            raise RuntimeError("no reversible insert batch outstanding")
        count_mark, offered_mark = self._revert_mark
        self._revert_mark = None
        self._rollback(count_mark, offered_mark)

    def commit_insert(self) -> None:
        """Keep the outstanding reversible batch and drop its undo
        state, so the won-slot arrays are not pinned for the table's
        lifetime.  A no-op when nothing is outstanding."""
        self._revert_mark = None
        self._undo_slots = []
        self._undo_grew = False

    def insert_packed(
        self,
        words: np.ndarray,
        ids: Optional[np.ndarray] = None,
        limit: Optional[int] = None,
    ) -> np.ndarray:
        """:meth:`insert` with an optional cap on admitted fresh rows.

        With ``limit=None`` this is exactly :meth:`insert`.  With a
        limit, at most the first ``limit`` fresh rows (in batch order)
        are admitted; any further fresh rows are rolled back exactly —
        their slots are released (or, if the batch triggered a growth,
        the slot array is rebuilt from the surviving stored rows), so
        the table ends in the precise state of having only ever seen
        the admitted rows.  This is what lets a persistent campaign
        session feed a whole oversampled generation batch through the
        table without the overshoot beyond the round's target becoming
        permanently excluded.

        ``rows_offered`` counts the full batch either way; admitted
        rows keep their true stream positions as default ids.
        """
        if limit is None:
            return self.insert(words, ids)
        if limit < 0:
            raise ValueError(f"limit must be non-negative, got {limit}")
        count_mark = self._count
        offered_mark = self._offered
        fresh = self.insert_reversible(words, ids)
        if self._count - count_mark <= limit:
            self.commit_insert()
            return fresh
        self.revert_insert()
        positions = np.flatnonzero(fresh)[:limit]
        if ids is None:
            admit_ids = offered_mark + positions
        else:
            admit_ids = np.ascontiguousarray(ids, dtype=np.int64)[positions]
        limited = np.zeros(len(fresh), dtype=bool)
        if positions.size:
            # Re-admitting only previously-fresh rows: every one lands
            # as fresh again, so the admitted set is exact.
            self.insert(words[positions], ids=admit_ids)
            limited[positions] = True
        self._offered = offered_mark + len(words)
        return limited

    def _rollback(self, count_mark: int, offered_mark: int) -> None:
        """Undo the most recent :meth:`insert` call entirely.

        Safe because older entries never probe *past* slots that were
        still empty when they were placed: releasing every slot the
        rolled-back batch claimed restores the exact pre-insert probe
        topology.  If the batch grew (and therefore rehashed) the slot
        array, the array is rebuilt from the surviving stored rows
        instead — stored columns are never re-read from any source
        matrix.
        """
        if self._undo_grew:
            self._slots.fill(-1)
            if count_mark:
                self._place_all(self._mixed[:count_mark])
        else:
            for written in self._undo_slots:
                self._slots[written] = -1
        self._count = count_mark
        self._offered = offered_mark
        self._undo_slots = []
        self._undo_grew = False

    def lookup(self, words: np.ndarray) -> np.ndarray:
        """External id of each queried row, or -1 when absent.

        One ``~1-2``-gather linear probe per query row; every key hit
        is word-verified, so the answer is exact even across fold
        collisions.
        """
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if words.ndim != 2 or words.shape[1] != self._word_count:
            raise ValueError(
                f"expected (m, {self._word_count}) packed rows, "
                f"got shape {words.shape}"
            )
        m = len(words)
        out = np.full(m, -1, dtype=np.int64)
        if m == 0 or self._count == 0:
            return out
        mixed = _mix_words(words)
        step = np.int64(self._size - 1)
        # First probe, unrolled over the whole batch: at load <= 1/2
        # the overwhelming majority of queries resolve here (hit or
        # empty-slot miss), so this iteration runs without any
        # pending-row indirection.  Only the leftovers — occupied slots
        # whose row failed verification — enter the general loop.
        probe = (mixed & self._mask).astype(np.int64)
        at = self._slots[probe]
        o_pos = np.flatnonzero(at >= 0)
        if o_pos.size == 0:
            return out
        stored = at[o_pos]
        key_eq = self._mixed[stored] == mixed[o_pos]
        match = np.zeros(o_pos.size, dtype=bool)
        if key_eq.any():
            cand = stored[key_eq]
            match[key_eq] = (
                self._words[cand] == words[o_pos[key_eq]]
            ).all(axis=1)
        hit = o_pos[match]
        out[hit] = self._ids[stored[match]]
        pending = o_pos[~match]
        probe = (probe[pending] + 1) & step
        while pending.size:
            at = self._slots[probe]
            empty = at < 0  # empty slot: definitive miss
            resolved = empty.copy()
            o_pos = np.flatnonzero(~empty)
            if o_pos.size:
                stored = at[o_pos]
                rows_o = pending[o_pos]
                key_eq = self._mixed[stored] == mixed[rows_o]
                match = np.zeros(o_pos.size, dtype=bool)
                if key_eq.any():
                    cand = stored[key_eq]
                    rows_eq = rows_o[key_eq]
                    match[key_eq] = (
                        self._words[cand] == words[rows_eq]
                    ).all(axis=1)
                hit = o_pos[match]
                out[pending[hit]] = self._ids[stored[match]]
                resolved[hit] = True
                mismatch = o_pos[~match]
                probe[mismatch] = (probe[mismatch] + 1) & step
            keep = ~resolved
            pending = pending[keep]
            probe = probe[keep]
        return out

    def contains(self, words: np.ndarray) -> np.ndarray:
        """Boolean membership mask (thin wrapper over :meth:`lookup`)."""
        return self.lookup(words) >= 0


class AddressSet:
    """An immutable set (with multiplicity) of fixed-width nybble rows.

    >>> s = AddressSet.from_strings(["2001:db8::1", "2001:db8::2"])
    >>> len(s), s.width
    (2, 32)
    >>> s.column(32).tolist()
    [1, 2]
    """

    __slots__ = (
        "_matrix",
        "_member_index",
        "_sorted_index",
        "_packed",
        "__weakref__",
    )

    def __init__(self, matrix: np.ndarray):
        matrix = np.ascontiguousarray(matrix, dtype=np.uint8)
        if matrix.ndim != 2:
            raise ValueError(f"expected 2-D nybble matrix, got {matrix.ndim}-D")
        if matrix.size and matrix.max() > 0xF:
            raise ValueError("nybble matrix contains values > 0xf")
        self._matrix = matrix
        self._matrix.setflags(write=False)
        self._member_index: Optional[BucketTable] = None
        self._sorted_index = None
        self._packed: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_addresses(
        cls, addresses: Iterable[Union[IPv6Address, int]], width: int = NYBBLES_PER_ADDRESS
    ) -> "AddressSet":
        """Build from address objects or 128-bit integers.

        When ``width < 32``, the *top* ``width`` nybbles are kept (so a
        width of 16 keeps the /64 network identifier, as §5.6 needs).
        """
        values = [int(a) for a in addresses]
        return cls.from_ints(values, width=width)

    @classmethod
    def from_ints(
        cls,
        values: Sequence[int],
        width: int = NYBBLES_PER_ADDRESS,
        already_truncated: bool = False,
    ) -> "AddressSet":
        """Build from 128-bit integers (or ``width``-nybble integers).

        ``already_truncated`` marks ``values`` as ``width``-nybble
        integers rather than full 128-bit addresses to shift down.
        """
        if not 1 <= width <= NYBBLES_PER_ADDRESS:
            raise ValueError(f"width out of range: {width}")
        values = list(values)
        shift = 0 if already_truncated else 4 * (NYBBLES_PER_ADDRESS - width)
        # Left-align every value to 128 bits and go through one flat byte
        # buffer: the nybble split is then a vectorized shift/mask rather
        # than a per-value hex format() + string join.
        top_shift = 4 * (NYBBLES_PER_ADDRESS - width)
        buffer = bytearray(16 * len(values))
        for i, v in enumerate(values):
            if v < 0:
                raise ValueError(f"negative address value at index {i}: {v}")
            try:
                buffer[16 * i : 16 * (i + 1)] = ((v >> shift) << top_shift).to_bytes(
                    16, "big"
                )
            except OverflowError:
                raise ValueError(
                    f"value at index {i} does not fit in the requested width"
                ) from None
        flat = np.frombuffer(bytes(buffer), dtype=np.uint8).reshape(len(values), 16)
        nybbles = np.empty((len(values), NYBBLES_PER_ADDRESS), dtype=np.uint8)
        nybbles[:, 0::2] = flat >> 4
        nybbles[:, 1::2] = flat & 0x0F
        return cls(nybbles[:, :width])

    @classmethod
    def from_words(cls, words: np.ndarray, width: int) -> "AddressSet":
        """Build from an array of ``width``-nybble integer values.

        The vectorized inverse of :meth:`segment_values` over whole rows:
        each ``uint64`` word becomes one row of ``width`` nybbles via
        shift/mask, with no per-value Python.  ``width`` must be at most
        16 nybbles (values must fit in one 64-bit word) — wider rows
        come from :meth:`from_ints` or a nybble matrix directly.
        """
        if not 1 <= width <= 16:
            raise ValueError(f"from_words needs 1 <= width <= 16, got {width}")
        words = np.asarray(words)
        if words.dtype.kind not in "ui":
            raise ValueError(f"expected integer words, got dtype {words.dtype}")
        if words.dtype.kind == "i" and words.size and words.min() < 0:
            raise ValueError("negative address values are not representable")
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if words.ndim != 1:
            raise ValueError(f"expected 1-D word array, got {words.ndim}-D")
        if width < 16 and words.size and words.max() >> np.uint64(4 * width):
            raise ValueError("word does not fit in the requested width")
        nybbles = np.empty((len(words), width), dtype=np.uint8)
        for i in range(width):
            shift = np.uint64(4 * (width - 1 - i))
            nybbles[:, i] = (words >> shift) & np.uint64(0xF)
        return cls(nybbles)

    @classmethod
    def from_strings(
        cls, texts: Iterable[str], width: int = NYBBLES_PER_ADDRESS
    ) -> "AddressSet":
        """Build from address strings in any supported text form."""
        return cls.from_addresses((IPv6Address(t) for t in texts), width=width)

    @classmethod
    def empty(cls, width: int = NYBBLES_PER_ADDRESS) -> "AddressSet":
        """An empty set of the given width."""
        return cls(np.empty((0, width), dtype=np.uint8))

    @classmethod
    def _with_packed(cls, matrix: np.ndarray, packed: np.ndarray) -> "AddressSet":
        """Internal: build a set whose packed words are already known.

        Lets producers that computed :func:`pack_rows` anyway (the
        generation dedup) hand the words over, so downstream membership
        and exclusion never re-pack.  ``packed`` must be the exact
        :func:`pack_rows` image of ``matrix`` — not validated.
        """
        built = cls(matrix)
        packed = np.ascontiguousarray(packed, dtype=np.uint64)
        packed.setflags(write=False)
        built._packed = packed
        return built

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def matrix(self) -> np.ndarray:
        """The read-only ``(n, width)`` nybble matrix."""
        return self._matrix

    @property
    def width(self) -> int:
        """Number of nybbles per row (32 for full addresses)."""
        return self._matrix.shape[1]

    def __len__(self) -> int:
        return self._matrix.shape[0]

    def column(self, position: int) -> np.ndarray:
        """Values of the 1-indexed nybble ``position`` across the set."""
        if not 1 <= position <= self.width:
            raise IndexError(f"nybble position out of range: {position}")
        return self._matrix[:, position - 1]

    def segment_values(self, first: int, last: int) -> np.ndarray:
        """Integer value of nybbles ``first``..``last`` (1-indexed,
        inclusive) for every row.

        Returns ``uint64`` when the segment fits in 64 bits (i.e. at most
        16 nybbles — always true given the hard /32 and /64 segmentation
        cuts), otherwise a Python-object array.
        """
        if not 1 <= first <= last <= self.width:
            raise IndexError(f"invalid segment range: ({first}, {last})")
        nybble_count = last - first + 1
        block = self._matrix[:, first - 1 : last]
        if nybble_count <= 16:
            values = np.zeros(len(self), dtype=np.uint64)
            for i in range(nybble_count):
                values = (values << np.uint64(4)) | block[:, i].astype(np.uint64)
            return values
        result = np.empty(len(self), dtype=object)
        for row in range(len(self)):
            value = 0
            for nybble in block[row]:
                value = (value << 4) | int(nybble)
            result[row] = value
        return result

    def value_words(self) -> "tuple[np.ndarray, np.ndarray]":
        """Each row's integer value as ``(low, high)`` uint64 word arrays.

        ``value == (high << 64) | low`` for the ``width``-nybble row
        integer (the :meth:`row_int` value, not the left-aligned packed
        word) — the split the keyed-hash oracles consume.  For widths of
        at most 16 nybbles ``high`` is all zeros.  The common widths (32
        full / ≤16 prefix mode) read straight off the packed words.
        """
        if self.width == 32:
            packed = self.packed_rows()
            return packed[:, 1].copy(), packed[:, 0].copy()
        if self.width <= 16:
            # The single packed word is the value left-aligned to 16
            # nybbles; shift it back down.
            shift = np.uint64(4 * (16 - self.width))
            low = self.packed_rows()[:, 0] >> shift
            return low, np.zeros(len(self), dtype=np.uint64)
        high = self.segment_values(1, self.width - 16)
        low = self.segment_values(self.width - 15, self.width)
        return low, high

    def prefixes64(self) -> np.ndarray:
        """Sorted distinct /64 identifiers covering the rows, as uint64.

        The /64 network identifier of a ``width``-nybble row is its top
        16 nybbles (``value >> 4*(width-16)``); computing it is one
        column slice + pack, never per-row Python.  Width-16 sets are
        already /64 identifiers and return their own distinct values —
        which is what keeps "new /64s" accounting width-consistent
        between full-address (§5.5) and prefix-mode (§5.6) runs.
        """
        if self.width < 16:
            raise ValueError("rows narrower than 64 bits have no /64 prefix")
        return np.unique(pack_rows(self._matrix[:, :16]).ravel())

    def _hex_text(self) -> str:
        """All rows as one concatenated hex string (vectorized)."""
        return _NYBBLE_TO_ASCII[self._matrix].tobytes().decode("ascii")

    def row_int(self, row: int) -> int:
        """The ``width``-nybble integer value of one row."""
        ascii_row = _NYBBLE_TO_ASCII[self._matrix[row]]
        return int(ascii_row.tobytes().decode("ascii"), 16)

    def to_ints(self) -> List[int]:
        """All rows as ``width``-nybble integers.

        Goes nybble matrix → one hex string → per-row ``int(_, 16)``,
        which keeps all character work vectorized in numpy and the
        integer parse in C.
        """
        text = self._hex_text()
        width = self.width
        return [
            int(text[start : start + width], 16)
            for start in range(0, width * len(self), width)
        ]

    def addresses(self) -> List[IPv6Address]:
        """Rows as full addresses (zero-padded on the right if width<32)."""
        pad = 4 * (NYBBLES_PER_ADDRESS - self.width)
        return [IPv6Address(v << pad) for v in self.to_ints()]

    def hex_rows(self) -> Iterator[str]:
        """Rows as fixed-width hex strings (the Fig. 3 representation)."""
        text = self._hex_text()
        width = self.width
        for start in range(0, width * len(self), width):
            yield text[start : start + width]

    # ------------------------------------------------------------------
    # set operations
    # ------------------------------------------------------------------

    def unique(self) -> "AddressSet":
        """Distinct rows (order not preserved; sorted lexicographically)."""
        return AddressSet(np.unique(self._matrix, axis=0))

    def packed_rows(self) -> np.ndarray:
        """Rows packed into ``(n, ceil(width/16))`` uint64 words.

        Cached (the matrix is immutable), so a candidate batch screened
        by several oracles pays the packing exactly once.
        """
        if self._packed is None:
            self._packed = pack_rows(self._matrix)
            self._packed.setflags(write=False)
        return self._packed

    def _membership_index(self) -> BucketTable:
        """Cached :class:`BucketTable` behind :meth:`match_rows`.

        Every row is inserted with its own position as the external id;
        duplicate rows are suppressed on insert with the first
        occurrence winning, so a lookup reports the first position of
        an equal row — exact across fold collisions, because the table
        word-verifies every key match.  The matrix is immutable, so the
        index is built exactly once however many batches are screened
        against it.
        """
        if self._member_index is None:
            words = self.packed_rows()
            table = BucketTable(words.shape[1], capacity=len(words))
            table.insert(words)
            self._member_index = table
        return self._member_index

    def _sorted_membership_index(self):
        """The PR-2 sorted searchsorted index, kept as the reference
        implementation the perf harness benchmarks the bucket table
        against (and as an independent oracle for equivalence tests).

        Distinct rows are folded into one well-mixed uint64 each
        (:func:`_mix_words` over the packed words) and sorted, so a
        batch lookup is a single uint64 ``searchsorted`` followed by a
        packed-word equality check.  If the fold ever collides on two
        *distinct* rows (probability ~n²/2⁶⁵, and a collision would
        make ``searchsorted`` miss one of them), the index falls back
        to *rank composition*: each word column ranked against its
        sorted uniques, the (rank0, rank1) pair packed into one uint64
        and sorted — three ``searchsorted`` passes, still no per-row
        Python.
        """
        if self._sorted_index is None:
            words = self.packed_rows()
            distinct = first_occurrence_positions(words)
            uwords = words[distinct]
            mixed = _mix_words(uwords)
            order = np.argsort(mixed, kind="stable")
            mixed_sorted = mixed[order]
            if np.any(mixed_sorted[1:] == mixed_sorted[:-1]):
                self._sorted_index = self._build_rank_index(uwords, distinct)
            else:
                self._sorted_index = (
                    "mixed",
                    mixed_sorted,
                    uwords[order],
                    distinct[order],
                )
        return self._sorted_index

    @staticmethod
    def _build_rank_index(uwords: np.ndarray, distinct: np.ndarray):
        """Collision-proof fallback index (see :meth:`_membership_index`)."""
        if uwords.shape[1] == 1:
            order = np.argsort(uwords[:, 0], kind="stable")
            return ("ranks", uwords[order, 0], None, None, distinct[order])
        unique0, rank0 = np.unique(uwords[:, 0], return_inverse=True)
        unique1, rank1 = np.unique(uwords[:, 1], return_inverse=True)
        pairs = (rank0.astype(np.uint64) << np.uint64(32)) | rank1.astype(
            np.uint64
        )
        order = np.argsort(pairs, kind="stable")
        return ("ranks", pairs[order], unique0, unique1, distinct[order])

    def match_rows(self, other: "AddressSet") -> np.ndarray:
        """For each row of ``other``, the position of an equal row in
        self, or -1 when absent.

        The workhorse of oracle scoring: the returned positions let a
        caller gather per-member precomputed values (e.g. responder
        verdicts) in one indexed load.  Runs as a vectorized ~1-2-probe
        open-addressing lookup over the cached
        :meth:`_membership_index` bucket table — no per-address Python,
        and no log-factor binary search.  When self has duplicate rows,
        the first occurrence's position is reported.
        """
        if other.width != self.width:
            raise ValueError("cannot test membership across different widths")
        if len(self) == 0 or len(other) == 0:
            return np.full(len(other), -1, dtype=np.intp)
        return self._membership_index().lookup(other.packed_rows()).astype(
            np.intp, copy=False
        )

    def match_words(self, words: np.ndarray) -> np.ndarray:
        """:meth:`match_rows` against pre-packed query rows.

        ``words`` is a :func:`pack_rows` matrix (or a row slice of
        one); row-sharded scorers use this to probe chunks of a large
        batch without materializing a sub-:class:`AddressSet` per
        chunk.
        """
        if len(self) == 0 or len(words) == 0:
            return np.full(len(words), -1, dtype=np.intp)
        return self._membership_index().lookup(words).astype(
            np.intp, copy=False
        )

    def _match_rows_sorted(self, other: "AddressSet") -> np.ndarray:
        """:meth:`match_rows` on the PR-2 sorted searchsorted index.

        Same contract and results as :meth:`match_rows`; kept so the
        perf harness can time the bucket table against the binary
        search it replaced, and as an independent implementation for
        equivalence tests.
        """
        if other.width != self.width:
            raise ValueError("cannot test membership across different widths")
        out = np.full(len(other), -1, dtype=np.intp)
        if len(self) == 0 or len(other) == 0:
            return out
        index = self._sorted_membership_index()
        query = other.packed_rows()
        if index[0] == "mixed":
            _, mixed_sorted, words_sorted, rows_sorted = index
            qmix = _mix_words(query)
            at = np.minimum(
                np.searchsorted(mixed_sorted, qmix), len(mixed_sorted) - 1
            )
            hit = mixed_sorted[at] == qmix
            # Verify words: a non-member may collide with a member's fold.
            hit &= (words_sorted[at] == query).all(axis=1)
        else:
            _, keys_sorted, unique0, unique1, rows_sorted = index
            if query.shape[1] == 1:
                qkeys = query[:, 0]
                hit = np.ones(len(query), dtype=bool)
            else:
                word0, word1 = query[:, 0], query[:, 1]
                at0 = np.minimum(
                    np.searchsorted(unique0, word0), len(unique0) - 1
                )
                at1 = np.minimum(
                    np.searchsorted(unique1, word1), len(unique1) - 1
                )
                hit = (unique0[at0] == word0) & (unique1[at1] == word1)
                qkeys = (at0.astype(np.uint64) << np.uint64(32)) | at1.astype(
                    np.uint64
                )
            at = np.minimum(np.searchsorted(keys_sorted, qkeys), len(keys_sorted) - 1)
            hit &= keys_sorted[at] == qkeys
        out[hit] = rows_sorted[at[hit]]
        return out

    def contains_rows(self, other: "AddressSet") -> np.ndarray:
        """Vectorized membership: which rows of ``other`` appear in self.

        Returns a boolean array of ``len(other)``; thin wrapper over
        :meth:`match_rows`, so screening a candidate batch against a
        fixed set (training, population) is O((n + m) log n) uint64
        ``searchsorted`` work — no per-address Python, no bytewise
        comparisons.
        """
        if other.width != self.width:
            raise ValueError("cannot test membership across different widths")
        if len(self) == 0 or len(other) == 0:
            return np.zeros(len(other), dtype=bool)
        return self.match_rows(other) >= 0

    def sample(self, k: int, rng: np.random.Generator) -> "AddressSet":
        """Uniform sample of ``k`` rows without replacement."""
        if k > len(self):
            raise ValueError(f"cannot sample {k} of {len(self)} rows")
        index = rng.choice(len(self), size=k, replace=False)
        return AddressSet(self._matrix[np.sort(index)])

    def truncate(self, width: int) -> "AddressSet":
        """Keep only the top ``width`` nybbles of each row."""
        if not 1 <= width <= self.width:
            raise ValueError(f"cannot truncate width {self.width} to {width}")
        return AddressSet(self._matrix[:, :width])

    def concat(self, other: "AddressSet") -> "AddressSet":
        """Concatenate two sets of equal width (keeps duplicates)."""
        if other.width != self.width:
            raise ValueError("cannot concat sets of different widths")
        return AddressSet(np.vstack([self._matrix, other._matrix]))

    def take(self, indices: Sequence[int]) -> "AddressSet":
        """Select rows by position."""
        return AddressSet(self._matrix[np.asarray(indices, dtype=np.intp)])

    def __iter__(self) -> Iterator[IPv6Address]:
        return iter(self.addresses())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AddressSet):
            return self._matrix.shape == other._matrix.shape and bool(
                np.all(self._matrix == other._matrix)
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"AddressSet(n={len(self)}, width={self.width})"


def split_train_test(
    address_set: AddressSet, train_size: int, rng: np.random.Generator
) -> "tuple[AddressSet, AddressSet]":
    """Random train/test split, as used throughout Section 5.5."""
    n = len(address_set)
    if train_size >= n:
        raise ValueError(f"train size {train_size} >= set size {n}")
    order = rng.permutation(n)
    train = address_set.take(order[:train_size])
    test = address_set.take(order[train_size:])
    return train, test
