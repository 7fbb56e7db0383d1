"""The sharded §5.5 drivers: parallel generation and row-sharded scoring.

:func:`sharded_generate_set` is the parallel counterpart of
:meth:`repro.core.model.AddressModel.generate_set`.  Each oversampling
round is split into ``shards`` fixed sub-draws; every shard samples and
decodes with its own ``SeedSequence``-spawned RNG stream, and the shard
outputs are merged *in shard order* into the same growing
:class:`~repro.ipv6.sets.BucketTable` dedup the serial loop uses.  The
decomposition (shard count, shard sizes, shard streams) is a pure
function of the caller's RNG and ``shards`` — workers only decide how
many shards run concurrently — so ``workers=N`` output is bit-identical
to ``workers=1`` at the same seed.

Zero-size shards (a batch smaller than ``shards``) are never
dispatched: skipping an empty shard is output-neutral because each
shard's RNG stream is independent and an empty shard contributes no
rows — and the shard task itself short-circuits ``size == 0`` to
correctly-shaped empty arrays without touching its RNG, so the path is
explicitly safe on both the fused and the two-step route.

:func:`sharded_map_rows` is the scoring-side helper: it splits a row
range into contiguous chunks and runs a pure per-chunk function across
the pool, concatenating in order.  Oracle masks are pure per-row
functions, so this is trivially exact for any worker count.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exec.pool import WorkerPool
from repro.exec.sharding import (
    derive_seed_sequence,
    shard_bounds,
    shard_sizes,
)
from repro.faults import fault_point
from repro.ipv6.sets import AddressSet

#: Default shard count per generation round.  Part of the determinism
#: contract: changing ``shards`` changes which RNG stream draws which
#: row (and therefore the output); changing ``workers`` never does.
DEFAULT_SHARDS = 8

#: Row count below which sharded scoring is not worth the thread
#: handoff; the chunk function runs inline instead.
MIN_ROWS_PER_SHARD = 4096


def _empty_shard(width: int, fused: bool):
    """The well-shaped result of a zero-size shard (no RNG consumed)."""
    words = np.zeros((0, (width + 15) // 16), dtype=np.uint64)
    if fused:
        return None, words
    return np.zeros((0, width), dtype=np.uint8), words


def sharded_generate_set(
    model,
    n: int,
    rng: np.random.Generator,
    evidence=None,
    exclude=None,
    max_batches: int = 64,
    workers: int = 1,
    shards: Optional[int] = None,
    state=None,
    fused: Optional[bool] = None,
) -> AddressSet:
    """Generate ``n`` distinct candidate rows across a worker pool.

    See :meth:`repro.core.model.AddressModel.generate_set` for the
    contract; this is the engine behind its ``workers=``/``shards=``
    parameters.  Both paths run the one shared round loop
    (:func:`~repro.core.model.run_generation_rounds`) — identical
    oversampling policy, saturation guard and first-occurrence
    semantics — and differ only in how each batch is drawn.  ``state``
    (a persistent :class:`~repro.core.model.GenerationSession`) is
    shared with the serial path: shard outputs merge into the session
    in shard order on the caller's thread, so worker count still never
    changes the output or the session's final contents.  A session also
    owns the pool: repeated calls against one session reuse one
    long-lived executor per ``workers`` count instead of re-spawning
    threads per call (the session's ``close`` releases them); stateless
    calls own a pool for the call and close it on the way out.

    ``fused`` follows the serial path's semantics: by default each
    shard runs :func:`~repro.bayes.sampling.sample_packed` against its
    own spawned stream when the encoder has a fused plan and there is
    no evidence (each shard's fused draw is bit-identical to its
    two-step draw, so the merged output — and the ``workers=N`` ≡
    ``workers=1`` promise — is unchanged); ``fused=False`` forces the
    two-step reference in every shard.
    """
    from repro.bayes.sampling import sample_packed
    from repro.core.model import run_generation_rounds

    if n < 0:
        raise ValueError("n must be non-negative")
    shards = DEFAULT_SHARDS if shards is None else int(shards)
    if shards < 1:
        raise ValueError("shards must be positive")
    resolved = model.normalize_evidence(evidence) if evidence else None
    plan = (
        model.encoder.fused_plan()
        if fused is not False and not resolved
        else None
    )
    width = model.encoder.width
    seed_sequence = derive_seed_sequence(rng)
    if state is not None and hasattr(state, "get_pool"):
        pool = state.get_pool(workers)
        owns_pool = False
    else:
        pool = WorkerPool(workers)
        owns_pool = True

    def draw_shard(task):
        """One shard's draw; ``call_index``/``shard_index`` identify
        the shard deterministically for the ``pool.shard`` fault site,
        regardless of which worker runs it."""
        size, child, call_index, shard_index = task
        fault_point("pool.shard", call=call_index, shard=shard_index)
        if size == 0:
            return _empty_shard(width, plan is not None)
        shard_rng = np.random.default_rng(child)
        if plan is not None:
            return None, sample_packed(model.network, plan, size, shard_rng)
        codes = model.sample_codes(size, shard_rng, resolved)
        decoded = model.encoder.decode_to_set(codes, shard_rng, validate=False)
        return decoded.matrix, decoded.packed_rows()

    call_count = 0

    def draw(batch_size: int) -> "tuple[np.ndarray, np.ndarray]":
        nonlocal call_count
        call_index = call_count
        call_count += 1
        sizes = shard_sizes(batch_size, shards)
        children = seed_sequence.spawn(shards)
        # Empty shards are skipped, not dispatched: their streams are
        # independent and they contribute zero rows, so the merged
        # output is unchanged — and no worker ever sees size == 0.
        tasks = [
            (int(size), child, call_index, shard_index)
            for shard_index, (size, child) in enumerate(zip(sizes, children))
            if size > 0
        ]
        if not tasks:
            return _empty_shard(width, plan is not None)
        parts = pool.map(draw_shard, tasks)
        words = np.vstack([part[1] for part in parts])
        if plan is not None:
            return None, words
        matrix = np.vstack([part[0] for part in parts])
        return matrix, words

    try:
        return run_generation_rounds(
            width,
            n,
            draw,
            exclude=exclude,
            max_batches=max_batches,
            constrained=bool(evidence),
            state=state,
        )
    finally:
        if owns_pool:
            pool.close()


def sharded_map_rows(
    fn,
    n_rows: int,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
):
    """Run ``fn(start, stop)`` over contiguous row chunks; concatenate.

    ``fn`` must be a pure function of its row range returning a 1-D or
    2-D array of ``stop - start`` rows (an oracle mask, match
    positions, ...).  With one worker — or too few rows to be worth
    the handoff — the single full-range call runs inline, so serial
    callers pay nothing.
    """
    pool = WorkerPool(workers)
    if shards is None:
        shards = pool.workers
    if (
        pool.workers <= 1
        or shards <= 1
        or n_rows < 2 * MIN_ROWS_PER_SHARD
    ):
        return fn(0, n_rows)
    try:
        bounds = shard_bounds(n_rows, shards)
        parts = pool.map(lambda span: fn(span[0], span[1]), bounds)
        return np.concatenate(parts)
    finally:
        pool.close()
