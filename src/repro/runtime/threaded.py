"""Thread runtime: per-shard worker affinity under a classify coordinator.

Execution model:

* **Workers** — ``num_workers`` daemon threads; shard ``s`` is pinned
  to worker ``s % num_workers``, so every shard's state keeps exactly
  one writer and the fill path needs no locks. Each worker drains a
  bounded ingress :class:`queue.Queue`; a full queue blocks the
  dispatching thread — that is the backpressure (the engine never
  buffers unboundedly ahead of a slow shard).
* **Coordinator** — runs on whatever thread calls the engine (there is
  no extra thread to fight over the GIL with). It merges the workers'
  ``ReadyFlow`` drains into cross-shard micro-batches and runs the
  batched finalize + predict kernels, which release the GIL inside
  numpy — the parallelism payoff. Labels go *back* to the owning
  worker as apply messages, so CDB/pending mutation stays
  single-writer, and sink fan-out happens only on the coordinator, in
  one serialized stream.

Where the GIL does and does not bite: pure-Python ingest bookkeeping
serializes across workers, but the numpy fold kernels (incremental
extractor) and the finalize/predict kernels run with the GIL released,
so fold work parallelizes across shards while classification
parallelizes against ingest. See DESIGN.md "Execution runtime".

Determinism: per-flow labels match the serial runtime because every
flow's window freezes from the same folded bytes (``freeze_on_ready``)
and classification batches only change *when* the model runs, not what
it sees. Event *order* (sink streams, CDB hit counts for racing
packets, purge sweep timing) is timing-dependent; the CI smoke
therefore diffs the per-flow label map and the CDB insert/removal
counters, not event traces. The random-skip defense draws from one RNG
in readiness order, which no longer exists across threads — configs
with ``random_skip_max > 0`` are rejected at bind time.
"""

from __future__ import annotations

import os
import queue
import threading

from repro.engine.batcher import MicroBatcher
from repro.runtime.base import register

__all__ = ["ThreadRuntime"]


def _by_seq(ready) -> int:
    return ready.seq


class ThreadRuntime:
    """Per-shard worker threads + a merging classify coordinator."""

    name = "thread"

    def __init__(self, num_workers: int = 0, queue_depth: int = 1024) -> None:
        if num_workers < 0:
            raise ValueError(f"num_workers must be >= 0, got {num_workers}")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.num_workers = num_workers
        self.queue_depth = queue_depth
        self._engine = None
        self._threads: list[threading.Thread] = []
        self._inqs: list[queue.Queue] = []
        self._outq: "queue.SimpleQueue | None" = None
        self._cbatcher: "MicroBatcher | None" = None
        self._applies_outstanding = 0

    # -- lifecycle -----------------------------------------------------------

    def bind(self, engine) -> None:
        if engine.config.random_skip_max:
            raise ValueError(
                "random_skip_max requires the serial runtime: the defense "
                "draws from one RNG in readiness order, which worker "
                "threads cannot preserve"
            )
        self._engine = engine
        shards = len(engine.pipelines)
        workers = self.num_workers or min(shards, os.cpu_count() or 1)
        self._nworkers = max(1, min(workers, shards))
        for pipeline in engine.pipelines:
            # Freeze streaming windows at readiness so the state objects
            # handed to the coordinator stop mutating (see shard.py).
            pipeline.freeze_on_ready = True
            # Pass-through shard batchers: every ready flow leaves its
            # worker immediately and the coordinator's batcher does the
            # real (cross-shard) micro-batching — one level of batching,
            # same max_batch/max_delay knobs as the serial runtime.
            pipeline.batcher = MicroBatcher(max_batch=1, max_delay=0.0)
        self._inqs = [
            queue.Queue(maxsize=self.queue_depth) for _ in range(self._nworkers)
        ]
        self._outq = queue.SimpleQueue()
        self._cbatcher = MicroBatcher(
            max_batch=engine.engine_config.max_batch,
            max_delay=engine.engine_config.max_delay,
        )
        self._threads = [
            threading.Thread(
                target=self._worker_main,
                args=(index,),
                name=f"iustitia-shard-worker-{index}",
                daemon=True,
            )
            for index in range(self._nworkers)
        ]
        for thread in self._threads:
            thread.start()

    def bind_metrics(self, registry) -> None:
        """Bind the coordinator batcher's instruments.

        The per-shard pass-through batchers stay unbound — they drain on
        every push, so their samples would only bury the real batching
        signal.
        """
        self._cbatcher.bind_metrics(registry)

    def batchers(self) -> list:
        """Micro-batchers that can hold queued ready flows."""
        return [self._cbatcher]

    def close(self) -> None:
        if not self._threads:
            return
        for inq in self._inqs:
            inq.put(("stop",))
        for thread in self._threads:
            thread.join(timeout=10.0)
        self._threads = []

    def _worker_for(self, shard_index: int) -> queue.Queue:
        return self._inqs[shard_index % self._nworkers]

    # -- worker side ---------------------------------------------------------

    def _worker_main(self, windex: int) -> None:
        inq = self._inqs[windex]
        outq = self._outq
        try:
            while True:
                msg = inq.get()
                op = msg[0]
                if op == "pkt":
                    _, pipeline, packet, flow_id, now, is_close = msg
                    result = pipeline.ingest(packet, flow_id, now, is_close)
                    if pipeline.outbox:
                        events = pipeline.outbox
                        pipeline.outbox = []
                        outq.put(("fwd", events))
                    if result.ready or result.urgent:
                        # An urgent empty result still matters: a FIN on
                        # an already-queued flow must drain the
                        # coordinator's batch now, not at the next tick.
                        outq.put(("ready", list(result.ready), result.urgent))
                elif op == "apply":
                    _, pipeline, items, now = msg
                    applied = []
                    for ready, label in items:
                        out = pipeline.apply(ready, label, now)
                        if out is not None:
                            applied.append(out)
                    outq.put(("applied", len(items), applied))
                elif op == "flush":
                    _, pipeline, now = msg
                    ready = pipeline.flush(now)
                    if ready:
                        # Timeout-expired flows must not wait for a batch
                        # to fill — urgent, like the monolith's timeout
                        # drain.
                        outq.put(("ready", ready, True))
                elif op == "final":
                    _, pipeline, now = msg
                    ready = pipeline.final_drain(now)
                    if ready:
                        outq.put(("ready", ready, True))
                elif op == "purge":
                    _, pipeline, now = msg
                    pipeline.shard.cdb.purge_inactive(now)
                elif op == "barrier":
                    msg[1].set()
                elif op == "stop":
                    return
        except BaseException as exc:  # surface worker death to the caller
            outq.put(("error", exc))

    # -- coordinator side ----------------------------------------------------

    def dispatch(self, packet, flow_id: bytes, now: float, is_close: bool):
        engine = self._engine
        shard_index = engine.shard_index(flow_id)
        pipeline = engine.pipelines[shard_index]
        self._worker_for(shard_index).put(
            ("pkt", pipeline, packet, flow_id, now, is_close)
        )
        self._service(now)
        return None

    def flush(self, now: float) -> int:
        for pipeline in self._engine.pipelines:
            self._worker_for(pipeline.index).put(("flush", pipeline, now))
        self._service(now)
        return 0

    def finish(self, now: float) -> None:
        for pipeline in self._engine.pipelines:
            self._worker_for(pipeline.index).put(("final", pipeline, now))
        while True:
            self._barrier()
            self._service(now)
            batch = self._cbatcher.drain(reason="final")
            if batch:
                self._dispatch_classify(batch, now)
                continue
            if self._applies_outstanding == 0 and self._outq.empty():
                return

    def _barrier(self) -> None:
        """Block until every worker has drained its ingress queue."""
        events = []
        for inq in self._inqs:
            event = threading.Event()
            events.append(event)
            inq.put(("barrier", event))
        for event in events:
            event.wait()

    def _service(self, now: float) -> None:
        """Drain coordinator work without blocking: merge, classify, emit."""
        engine = self._engine
        outq = self._outq
        cbatcher = self._cbatcher
        while True:
            try:
                msg = outq.get_nowait()
            except queue.Empty:
                break
            op = msg[0]
            if op == "ready":
                _, ready_list, urgent = msg
                for ready in ready_list:
                    batch = cbatcher.push(ready, now)
                    if batch:
                        self._dispatch_classify(batch, now)
                if urgent:
                    batch = cbatcher.drain(reason="close")
                    if batch:
                        self._dispatch_classify(batch, now)
            elif op == "applied":
                _, count, applied = msg
                self._applies_outstanding -= count
                for outcome, packets in applied:
                    engine.emit(outcome, packets)
            elif op == "fwd":
                for label, packet in msg[1]:
                    engine.emit_packet(label, packet)
            elif op == "error":
                raise msg[1]
        if cbatcher.due(now):
            batch = cbatcher.drain(reason="delay")
            if batch:
                self._dispatch_classify(batch, now)

    def _dispatch_classify(self, batch, now: float) -> None:
        """Classify a merged batch and route labels to shard owners."""
        engine = self._engine
        batch.sort(key=_by_seq)
        labels = engine.classify_labels(batch, now)
        by_shard: dict[int, list] = {}
        for ready, label in zip(batch, labels):
            by_shard.setdefault(ready.shard, []).append((ready, label))
        for shard_index, items in by_shard.items():
            pipeline = engine.pipelines[shard_index]
            self._applies_outstanding += len(items)
            self._worker_for(shard_index).put(("apply", pipeline, items, now))
        engine.note_inserts(len(batch), now)

    def purge(self, now: float) -> None:
        """Run the CDB inactivity sweep on each shard's own worker."""
        for pipeline in self._engine.pipelines:
            self._worker_for(pipeline.index).put(("purge", pipeline, now))


register(
    "thread",
    lambda config: ThreadRuntime(
        num_workers=config.num_workers or 0, queue_depth=config.queue_depth
    ),
)
