"""Serial runtime: every shard pipeline runs inline, in arrival order.

This is the default and the reference semantics: with ``max_batch=1``
the engine is packet-for-packet equivalent to the fused monolith
(labels, counters, CDB size series — the staged-equivalence suite
proves it), because every ordering decision the monolith made is
reproduced exactly:

* :meth:`bind` installs **one shared micro-batcher and one shared fold
  accumulator across all shard pipelines** — the monolith had exactly
  one of each, so its size/delay/close triggers counted ready flows
  and deferred chunks globally, not per shard;
* the delay-due check runs before the packet touches its shard, a
  FIN/RST drains the (shared) queue into one classify call, and drained
  batches classify in push order — readiness order, never re-sorted;
* timeout expirations merge across shards and freeze in global
  first-arrival (``seq``) order, which is the order the monolith's
  flush used (and what keeps random-skip draws aligned);
* each classify batch folds its deferred chunks in a single vectorized
  call spanning shards, then labels apply through
  ``engine.classify_apply`` per ready flow, so the shard-global CDB
  purge trigger fires at the same insert index.
"""

from __future__ import annotations

from repro.engine.batcher import FoldBatcher, MicroBatcher
from repro.runtime.base import register

__all__ = ["SerialRuntime"]


class SerialRuntime:
    """Inline, single-threaded execution of the shard pipelines."""

    name = "serial"

    def __init__(self) -> None:
        self._engine = None
        self._batcher: "MicroBatcher | None" = None
        self._folds: "FoldBatcher | None" = None

    def bind(self, engine) -> None:
        self._engine = engine
        config = engine.engine_config
        # One global batcher/fold accumulator, aliased into every
        # pipeline: shard-crossing triggers (a size trigger counting
        # flows from any shard, a close draining everything queued)
        # then fall out of the pipelines' own push/drain calls.
        self._batcher = MicroBatcher(
            max_batch=config.max_batch, max_delay=config.max_delay
        )
        self._folds = FoldBatcher(config.fold_batch)
        for pipeline in engine.pipelines:
            pipeline.batcher = self._batcher
            pipeline.fold_batcher = self._folds

    def bind_metrics(self, registry) -> None:
        """Bind the shared micro-batcher's instruments."""
        self._batcher.bind_metrics(registry)

    def batchers(self) -> list:
        """The micro-batchers holding queued ready flows (just the one)."""
        return [self._batcher]

    def _classify(self, batch, now: float) -> dict:
        """Fold a drained batch's deferred chunks, then classify-apply.

        The fold spans shards in one vectorized call (the monolith's
        cadence), resolved through the table's global pending lookup.
        """
        if not batch:
            return {}
        engine = self._engine
        engine.pipelines[0].fold_for(batch, engine.table.pending_get)
        return engine.classify_apply(batch, now)

    def dispatch(self, packet, flow_id: bytes, now: float, is_close: bool):
        engine = self._engine
        pipelines = engine.pipelines
        # The packet clock advanced: drain if the oldest queued flow has
        # waited past the latency bound, before this packet is handled.
        # The batcher is shared, so any pipeline's poll sees all shards.
        due = pipelines[0].poll_due(now)
        if due:
            self._classify(due, now)

        pipeline = pipelines[engine.shard_index(flow_id)]
        result = pipeline.ingest(packet, flow_id, now, is_close)
        if pipeline.outbox:
            engine.drain_outbox(pipeline)
        if result.label is not None:
            return result.label
        if result.ready:
            return self._classify(list(result.ready), now).get(flow_id)
        return None

    def flush(self, now: float) -> int:
        engine = self._engine
        pipelines = engine.pipelines
        due = pipelines[0].poll_due(now)
        if due:
            self._classify(due, now)
        expired = []
        for pipeline in pipelines:
            expired.extend(pipeline.pop_expired(now))
        # Freeze in global first-arrival order, matching the monolith's
        # expiry sort (keeps any random-skip draws aligned).
        expired.sort(key=lambda item: item[1].seq)
        for flow_id, pending in expired:
            pipeline = pipelines[engine.shard_index(flow_id)]
            batch = pipeline.make_ready(flow_id, pending, now, force=False)
            if batch:
                self._classify(batch, now)
        self._classify(pipelines[0].drain(reason="timeout"), now)
        return len(expired)

    def finish(self, now: float) -> None:
        engine = self._engine
        pipelines = engine.pipelines
        self._classify(pipelines[0].drain(reason="final"), now)
        for flow_id, pending in engine.table.pending_items():
            if pending.queued:
                continue
            pipeline = pipelines[engine.shard_index(flow_id)]
            batch = pipeline.make_ready(flow_id, pending, now, force=False)
            if batch:
                self._classify(batch, now)
        self._classify(pipelines[0].drain(reason="final"), now)

    def purge(self, now: float) -> None:
        """Run the shard-global CDB inactivity sweep inline."""
        self._engine.table.purge_inactive(now)

    def close(self) -> None:
        """Nothing to release: execution is inline."""


register("serial", lambda config: SerialRuntime())
