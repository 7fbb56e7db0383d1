"""Traced stand-ins for the program's composite calls.

Each function here reproduces one public composite call from the
public calls it is built of, with a span around each layer, so a traced
pass can attribute time per layer.  Outputs are bit-identical to the
composite call; the traced and untraced passes compare them.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bayes.sampling import sample_packed
from repro.bayes.structure import StructureConfig
from repro.core.encoding import AddressEncoder
from repro.core.mining import MiningConfig, mine_segments
from repro.core.model import AddressModel, GenerationSession, run_generation_rounds
from repro.core.pipeline import EntropyIP
from repro.core.segmentation import (
    SegmentationConfig,
    boundaries_from_entropy,
    segments_from_boundaries,
)
from repro.ipv6.sets import AddressSet, BucketTable, unpack_rows
from repro.stats.entropy import nybble_entropies

from common import Trace


def staged_fit(address_set: AddressSet, trace: Trace) -> EntropyIP:
    """``EntropyIP.fit`` (default configs) split into its four layers."""
    with trace.span("fit.entropy"):
        entropies = nybble_entropies(address_set)
    with trace.span("fit.segment"):
        starts = boundaries_from_entropy(entropies, SegmentationConfig())
        segments = segments_from_boundaries(starts, address_set.width)
    with trace.span("fit.mine"):
        mined = mine_segments(address_set, segments, MiningConfig())
        encoder = AddressEncoder(mined)
    with trace.span("fit.structure"):
        model = AddressModel.fit(address_set, encoder, StructureConfig())
    trace.count("fit.rows", len(address_set))
    return EntropyIP(address_set, entropies, segments, mined, model)


def traced_generate(
    model: AddressModel,
    n: int,
    rng: np.random.Generator,
    session: GenerationSession,
    trace: Trace,
) -> AddressSet:
    """Serial ``model.generate_set(n, rng, state=session)``, traced.

    Drives ``run_generation_rounds`` with a timed draw, then replays the
    drawn batches through a fresh ``BucketTable`` holding the session's
    prior rows and through ``unpack_rows``, timing each.  The replay
    spans become children of the ``gen`` span, so the loop's self time
    is its wall time minus draw, insert and unpack.  That self time is
    small, so a replay that runs a few percent slower than the loop did
    (host noise, colder caches) can make it read slightly negative.
    Returns the rows the real loop produced; the replay must keep the
    same number of rows (``trace.replay_mismatch`` counts when not).
    """
    plan = model.encoder.fused_plan()
    width = model.encoder.width
    batches = []

    def draw(batch_size: int):
        with trace.span("sampling.draw"):
            if plan is not None:
                matrix = None
                words = sample_packed(model.network, plan, batch_size, rng)
            else:
                codes = model.sample_codes(batch_size, rng)
                batch = model.encoder.decode_to_set(codes, rng, validate=False)
                matrix, words = batch.matrix, batch.packed_rows()
        trace.count("sampling.rows_drawn", batch_size)
        trace.count("gen.rounds")
        batches.append((words, matrix is None))
        return matrix, words

    replay_start = time.perf_counter()
    prior = np.array(session.table.stored_words(), dtype=np.uint64, copy=True)
    table = BucketTable((width + 15) // 16, capacity=max(session.capacity, len(prior)))
    table.insert_packed(prior)
    trace.count("trace.replay_s", time.perf_counter() - replay_start)

    with trace.span("gen") as gen_span:
        out = run_generation_rounds(width, n, draw, state=session)

    replay_start = time.perf_counter()
    kept = 0
    for words, fused in batches:
        start = time.perf_counter()
        fresh = table.insert_packed(words, limit=n - kept)
        trace.add("sets.insert", start, time.perf_counter(), gen_span)
        new = int(np.count_nonzero(fresh))
        trace.count("sets.rows_inserted", len(words))
        trace.count("sets.rows_fresh", new)
        if new and fused:
            start = time.perf_counter()
            unpack_rows(words[fresh], width)
            trace.add("sets.unpack", start, time.perf_counter(), gen_span)
        kept += new
    trace.count("trace.replay_s", time.perf_counter() - replay_start)
    trace.count("trace.replay_mismatch", int(kept != len(out)))
    return out
