"""Process runtime: shared-nothing per-shard worker processes.

On CPython the per-packet ingest path holds the GIL, so worker
*threads* cannot run shards in parallel. This runtime sidesteps the GIL
the way the paper's line-rate deployments (and ITCM/FastFlow-style
per-core pipeline replication) do: **worker processes** that each own a
disjoint set of shards outright — pending buffers, CDB partition,
deadline wheel, fold state — with a narrow byte-frame boundary between
them and the coordinator.

Execution model:

* **Workers** — ``num_workers`` daemon *processes*; shard ``s`` is owned
  by worker ``s % num_workers``. Each worker runs a full private
  :class:`~repro.engine.engine.StagedEngine` under the serial runtime
  (massive reuse: batching, folding, readiness, timeouts and final
  drains are exactly the proven serial semantics, just restricted to
  the worker's shards). The classifier is shipped **once** at worker
  start as its ``save_model`` JSON payload; per packet, nothing is
  pickled — packets cross the boundary as batched
  ``(seq, ts, flags, flow_id, len, payload)`` byte frames over bounded
  ``multiprocessing`` queues. Each worker's ingress queue holds at most
  ``queue_depth`` messages: frames of up to ``_FRAME_PACKETS`` packets
  plus control messages (flush, final, purge, barrier, metrics, stop).
  A full queue blocks dispatch: that is the backpressure.
* **Coordinator** — routes packets, forwards CDB-hit packets from its
  own **mirror** of the CDB (rebuilt from worker events, so lookups
  never cross a process), and merges the workers' compact result frames
  — classify outcomes, CDB insert/remove events, cumulative counter
  frames — at *barrier points* (every ``flush``/``finish``). Outcomes
  are emitted in global arrival-``seq`` order, so sink order, counters,
  and the CDB size series are deterministic run to run and the per-flow
  label map and CDB counters are provably equal to the serial runtime
  (see DESIGN.md "Process runtime" for the argument).

Worker death is detected via queue sentinels and process liveness and
surfaced as a ``RuntimeError`` naming the worker, with a clean,
idempotent :meth:`ProcessRuntime.close` (no orphaned processes).

Determinism caveats (documented, tested): outcomes emit at barriers, so
the *attribution* of a packet that races its flow's classification
(buffered-with-outcome vs forwarded-on-hit) can differ from serial even
though every packet still reaches the same per-label sink stream; and
the CDB inactivity sweep triggered by ``purge_trigger_flows`` runs
barrier-aligned rather than at the exact triggering insert.
Configurations that need one global readiness-order RNG
(``random_skip_max``) or per-classification randomness (estimation) are
rejected at bind time, as is a non-registry extractor spec (workers
must rebuild the extractor by name).
"""

from __future__ import annotations

import multiprocessing
import os
import queue as stdqueue
import struct
import time
import traceback
from operator import attrgetter

from repro.runtime.base import register

__all__ = ["ProcessRuntime"]

#: Per-packet ingress frame header: global seq (u64), packet-clock
#: timestamp (f64), flags (bit 0 = FIN/RST close), the 20-byte SHA-1
#: flow ID, and the payload length that follows.
_PKT_HEAD = struct.Struct("<QdB20sI")

#: Packets batched per ingress frame (one queue hop amortizes ~64 packets).
_FRAME_PACKETS = 64

#: Metric families owned by the coordinator: its engine levels these
#: from mirrored shard stats / the mirrored CDB / its own dispatch
#: counters, so loading the workers' copies too would double-count.
_COORDINATOR_METRICS = frozenset(
    {
        "engine_classifications_total",
        "engine_cdb_hits_total",
        "engine_unclassifiable_total",
        "engine_reclassifications_total",
        "extractor_fold_seconds_total",
        "extractor_folds_total",
        "cdb_flows",
        "cdb_record_bytes",
        "engine_packets_total",
        "engine_payload_bytes_total",
    }
)


class _FramePacket:
    """Worker-side stand-in for a packet: the pipeline reads ``.payload``.

    ``key`` is the ``(flow ID, packet seq)`` pair a new flow's outcome
    carries back to the coordinator.
    """

    __slots__ = ("payload", "key")

    def __init__(self, payload, key) -> None:
        self.payload = payload
        self.key = key


def _recording_cdb(purge_coefficient: float, harness):
    """A CDB partition that journals every mutation into the harness.

    Imported lazily (class built per call) so this module stays
    importable before ``repro.core`` finishes initializing.
    """
    from repro.core.cdb import ClassificationDatabase

    class _RecordingCdb(ClassificationDatabase):
        def insert(self, flow_id, label, now):
            super().insert(flow_id, label, now)
            harness.events.append(("+", flow_id, int(label), now))

        def remove(self, flow_id, reason="fin"):
            present = super().remove(flow_id, reason=reason)
            if present:
                harness.events.append(("-", flow_id, reason))
            return present

        def purge_inactive(self, now):
            before = list(self._records)
            removed = super().purge_inactive(now)
            if removed:
                records = self._records
                events = harness.events
                for flow_id in before:
                    if flow_id not in records:
                        events.append(("-", flow_id, "inactive"))
            return removed

    return _RecordingCdb(
        purge_coefficient=purge_coefficient, purge_trigger_flows=0
    )


class _WorkerHarness:
    """One worker's private engine plus the event journal around it.

    The inner engine is a full ``StagedEngine`` (all shards, same
    global shard indices) on the serial runtime; only this worker's
    owned shards ever receive packets, so the shared serial batcher
    micro-batches across exactly the worker's shard subset. Pending
    ``seq`` values are overridden to the coordinator-shipped global
    packet sequence, which is what makes per-worker drain order (and
    the coordinator's merged emission order) line up with serial.
    """

    def __init__(self, shard_indices, config, model_payload) -> None:
        from repro.engine.engine import StagedEngine
        from repro.engine.sinks import CallbackSink
        from repro.ml.persistence import classifier_from_dict

        self.events: list = []
        self.current_seq = -1
        self.shard_indices = list(shard_indices)
        classifier = classifier_from_dict(model_payload)
        self.engine = StagedEngine(
            classifier,
            config,
            sinks=[CallbackSink(on_classified=self._on_classified)],
        )
        owned = set(self.shard_indices)
        for pipeline in self.engine.pipelines:
            # The coordinator ships each packet's global arrival index;
            # minting from it keeps pending.seq globally ordered.
            pipeline._next_seq = self._mint_seq
            pipeline.key_of = attrgetter("key")
            if pipeline.index in owned:
                pipeline.shard.cdb = _recording_cdb(
                    config.pipeline.purge_coefficient, self
                )
                pipeline.on_drop = self._on_drop

    def _mint_seq(self) -> int:
        return self.current_seq

    def _on_classified(self, outcome, packets) -> None:
        flow_id, gen_seq = outcome.key
        self.events.append(
            (
                "o",
                flow_id,
                gen_seq,
                self.current_seq,
                int(outcome.label),
                outcome.classified_at,
                outcome.buffering_delay,
                outcome.buffered_bytes,
                outcome.stripped_protocol,
            )
        )

    def _on_drop(self, flow_id, pending) -> None:
        self.events.append(("x", flow_id, pending.seq, self.current_seq))

    def run_frames(self, frame: bytes) -> None:
        """Decode one ingress frame and dispatch its packets in order."""
        head = _PKT_HEAD
        head_size = head.size
        view = memoryview(frame)
        dispatch = self.engine.runtime.dispatch
        offset = 0
        end = len(frame)
        while offset < end:
            seq, ts, flags, flow_id, length = head.unpack_from(frame, offset)
            offset += head_size
            payload = view[offset : offset + length]
            offset += length
            self.current_seq = seq
            dispatch(
                _FramePacket(payload, (flow_id, seq)), flow_id, ts,
                bool(flags & 1),
            )

    def take_events(self) -> list:
        events = self.events
        self.events = []  # never mutate a list already queued for pickling
        return events

    def stats_frame(self) -> list:
        """Cumulative per-owned-shard counters (idempotent to re-apply)."""
        from repro.core.labels import ALL_NATURES

        frame = []
        for index in self.shard_indices:
            pipeline = self.engine.pipelines[index]
            stats = pipeline.stats
            frame.append(
                (
                    index,
                    stats.cdb_hits,
                    stats.classifications,
                    stats.unclassifiable,
                    stats.fin_removals,
                    stats.reclassifications,
                    tuple(stats.per_class[nature] for nature in ALL_NATURES),
                    pipeline.fold_seconds,
                    pipeline.fold_calls,
                )
            )
        return frame

    def dump_metrics(self):
        registry = self.engine.metrics
        return registry.dump_state() if registry is not None else None


def _worker_main(
    windex, shard_indices, config, model_payload, inq, outq
) -> None:
    """Worker process entry point (module-level: spawn-compatible)."""
    try:
        harness = _WorkerHarness(shard_indices, config, model_payload)

        def post_events(force=False):
            if harness.events or force:
                outq.put(
                    ("res", windex, harness.take_events(),
                     harness.stats_frame())
                )

        runtime = harness.engine.runtime
        table = harness.engine.table
        while True:
            msg = inq.get()
            op = msg[0]
            if op == "frames":
                harness.run_frames(msg[1])
            elif op == "flush":
                runtime.flush(msg[1])
            elif op == "final":
                runtime.finish(msg[1])
            elif op == "purge":
                table.purge_inactive(msg[1])
            elif op == "barrier":
                post_events(force=True)
                outq.put(("ack", windex, msg[1]))
                continue
            elif op == "metrics":
                post_events()
                outq.put(("metrics", windex, harness.dump_metrics()))
                continue
            elif op == "stop":
                return
            post_events()
    except BaseException:  # surface worker death to the coordinator
        try:
            outq.put(("err", windex, traceback.format_exc()))
        except Exception:
            pass


class ProcessRuntime:
    """Shared-nothing worker processes + a seq-merging coordinator."""

    name = "process"

    def __init__(self, num_workers: int = 0, queue_depth: int = 1024) -> None:
        if num_workers < 0:
            raise ValueError(f"num_workers must be >= 0, got {num_workers}")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.num_workers = num_workers
        self.queue_depth = queue_depth
        self._engine = None
        self._nworkers = 0
        self._procs: list = []
        self._inqs: list = []
        self._outq = None
        self._closed = False
        self._seq = 0
        self._bid = 0
        self._acks: dict = {}
        self._resbuf: list = []
        #: fid -> [(pkt_seq, packet), ...] buffered while the flow's
        #: label is unknown to the coordinator mirror.
        self._flows: dict = {}
        #: fid -> canonical key bytes of the flow's last dispatched
        #: packet; the outcome's FlowKey is built from them on emit.
        self._keys: dict = {}
        self._framebufs: list = []
        self._framecounts: list = []
        self._registry = None
        self._mirrors: list = []
        self._metric_dumps: dict = {}
        self._metric_round: set = set()

    # -- lifecycle -----------------------------------------------------------

    def bind(self, engine) -> None:
        from dataclasses import replace

        from repro.ml.persistence import classifier_to_dict

        if engine.config.random_skip_max:
            raise ValueError(
                "random_skip_max requires the serial runtime: the defense "
                "draws from one RNG in readiness order, which worker "
                "processes cannot preserve"
            )
        if engine.classifier.estimator is not None:
            raise ValueError(
                "estimation requires the serial runtime: worker processes "
                "rebuild the classifier from its serialized form, and the "
                "(delta, epsilon) estimator's per-process RNG draws would "
                "diverge from the serial run"
            )
        config = engine.engine_config
        if not isinstance(config.extractor, str):
            raise ValueError(
                "the process runtime needs a registry-named extractor "
                "('batch' / 'incremental'): a factory callable cannot be "
                "rebuilt inside worker processes"
            )
        self._engine = engine
        shards = len(engine.pipelines)
        workers = self.num_workers or min(shards, os.cpu_count() or 1)
        self._nworkers = max(1, min(workers, shards))
        self._shard_worker = [s % self._nworkers for s in range(shards)]
        # Workers keep the global shard layout (same flow -> shard map)
        # and run plain serial semantics over their owned subset; purge
        # stays coordinator-triggered (note_inserts), never shard-local.
        worker_config = replace(
            config,
            runtime="serial",
            num_workers=None,
            pipeline=replace(config.pipeline, purge_trigger_flows=0),
        )
        model_payload = classifier_to_dict(engine.classifier)
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._inqs = [
            ctx.Queue(maxsize=self.queue_depth)
            for _ in range(self._nworkers)
        ]
        self._outq = ctx.Queue()
        owned = [
            [s for s in range(shards) if s % self._nworkers == w]
            for w in range(self._nworkers)
        ]
        self._procs = [
            ctx.Process(
                target=_worker_main,
                args=(
                    w, owned[w], worker_config, model_payload,
                    self._inqs[w], self._outq,
                ),
                name=f"iustitia-shard-worker-{w}",
                daemon=True,
            )
            for w in range(self._nworkers)
        ]
        for proc in self._procs:
            proc.start()
        self._framebufs = [bytearray() for _ in range(self._nworkers)]
        self._framecounts = [0] * self._nworkers

    def bind_metrics(self, registry) -> None:
        """Mirror worker registries into per-worker children at scrape.

        Workers dump their full registry state on demand; each dump is
        loaded (SET semantics — cumulative values overwrite) into a
        dedicated child of the coordinator registry, minus the families
        the coordinator already levels itself (mirrored stats, mirrored
        CDB, dispatch counters), which would otherwise double-count.
        """
        self._registry = registry
        self._mirrors = [registry.child() for _ in range(self._nworkers)]
        registry.add_collector(self._refresh_metrics)

    def batchers(self) -> list:
        """Micro-batching happens inside the workers; nothing to view."""
        return []

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if not self._procs:
            return
        try:
            if self._registry is not None:
                # Post-close scrapes (CLI --metrics) read the mirrors'
                # last loaded state; capture it while workers still live.
                self._capture_metrics()
        except Exception:
            pass  # teardown must proceed even when a worker already died
        for windex in range(self._nworkers):
            self._post_stop(windex)
        for proc in self._procs:
            proc.join(timeout=5.0)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for inq in self._inqs:
            inq.close()
            inq.cancel_join_thread()
        if self._outq is not None:
            self._outq.close()
            self._outq.cancel_join_thread()
        self._procs = []
        self._inqs = []
        self._outq = None

    def _post_stop(self, windex: int) -> None:
        """Deliver ("stop",) without blocking forever on a full queue."""
        proc = self._procs[windex]
        inq = self._inqs[windex]
        deadline = time.monotonic() + 5.0
        while proc.is_alive() and time.monotonic() < deadline:
            try:
                inq.put(("stop",), timeout=0.2)
                return
            except stdqueue.Full:
                continue  # terminate() below is the fallback

    # -- coordinator plumbing ------------------------------------------------

    def _post(self, windex: int, msg) -> None:
        """Bounded-queue put: block with backpressure, watch for death."""
        inq = self._inqs[windex]
        while True:
            try:
                inq.put(msg, timeout=0.2)
                return
            except stdqueue.Full:
                self._drain_events()
                self._check_alive()

    def _flush_frames(self, windex: int) -> None:
        buf = self._framebufs[windex]
        if not buf:
            return
        self._framebufs[windex] = bytearray()
        self._framecounts[windex] = 0
        self._post(windex, ("frames", bytes(buf)))

    def _broadcast(self, msg) -> None:
        for windex in range(self._nworkers):
            self._flush_frames(windex)
            self._post(windex, msg)

    def _handle(self, msg) -> None:
        op = msg[0]
        if op == "res":
            # State application is deferred to the next barrier merge:
            # applying mid-dispatch would make mirror-label visibility
            # (and thus sink order) depend on IPC timing.
            self._resbuf.append(msg)
        elif op == "ack":
            self._acks.setdefault(msg[2], set()).add(msg[1])
        elif op == "metrics":
            self._metric_dumps[msg[1]] = msg[2]
            self._metric_round.add(msg[1])
        elif op == "err":
            raise RuntimeError(
                f"process-runtime worker {msg[1]} died:\n{msg[2]}"
            )

    def _drain_events(self) -> None:
        outq = self._outq
        while True:
            try:
                msg = outq.get_nowait()
            except stdqueue.Empty:
                return
            self._handle(msg)

    def _check_alive(self) -> None:
        for windex, proc in enumerate(self._procs):
            if not proc.is_alive():
                self._drain_events()  # a pending ("err", ...) beats exitcode
                raise RuntimeError(
                    f"process-runtime worker {windex} exited with code "
                    f"{proc.exitcode} without reporting an error"
                )

    def _pump(self) -> None:
        """Block for one worker message, with liveness checks."""
        while True:
            try:
                msg = self._outq.get(timeout=0.2)
            except stdqueue.Empty:
                self._check_alive()
                continue
            self._handle(msg)
            return

    def _barrier(self, now: float) -> None:
        bid = self._bid
        self._bid += 1
        for windex in range(self._nworkers):
            self._flush_frames(windex)
            self._post(windex, ("barrier", bid))
        while len(self._acks.get(bid, ())) < self._nworkers:
            self._pump()
        self._acks.pop(bid, None)
        self._merge(now)

    # -- merge (the result-frame surface) ------------------------------------

    def _merge(self, now: float) -> None:
        """Apply buffered result frames; emit outcomes in global seq order.

        Phase A replays each worker's CDB events in its own order (flows
        are shard-affine, so per-flow order is exact) and levels the
        mirrored shard counters. Phase B sorts classify outcomes by the
        pending's global creation seq and emits them — together with the
        coordinator-buffered packets of that generation — through the
        engine's sink fan-out, counting each toward the purge trigger.
        """
        from repro.core.labels import FlowNature

        engine = self._engine
        frames, self._resbuf = self._resbuf, []
        outcomes = []
        for _op, _windex, events, stats_frame in frames:
            for event in events:
                tag = event[0]
                if tag == "o":
                    outcomes.append(event)
                elif tag == "+":
                    engine.mirror_cdb_insert(
                        event[1], FlowNature(event[2]), event[3]
                    )
                elif tag == "-":
                    engine.mirror_cdb_remove(event[1], event[2])
                else:  # "x": unclassifiable drop
                    self._drop_flow(event[1], event[2], event[3])
            engine.mirror_shard_stats(stats_frame)
        outcomes.sort(key=lambda event: event[2])
        for event in outcomes:
            self._emit_outcome(event)
        # Flows whose label just became visible: forward their straggler
        # packets (serial's CDB-hit path) and retire the buffer entry.
        if self._flows:
            lookup = engine.table.lookup
            done = [
                (fid, label)
                for fid in self._flows
                if (label := lookup(fid)) is not None
            ]
            for fid, label in done:
                for _seq, packet in self._flows.pop(fid):
                    engine.emit_packet(label, packet)

    def _drop_flow(self, flow_id, gen_seq: int, upto: int) -> None:
        """Discard the buffered packets of a dropped (unclassifiable) gen."""
        entry = self._flows.get(flow_id)
        if entry is None:
            return
        kept = [(s, p) for s, p in entry if s < gen_seq or s > upto]
        if kept:
            self._flows[flow_id] = kept
        else:
            del self._flows[flow_id]

    def _emit_outcome(self, event) -> None:
        from repro.core.labels import FlowNature
        from repro.engine.types import ClassifiedFlow
        from repro.net.flow import FlowKey

        (_tag, flow_id, gen_seq, upto, label_int, classified_at,
         delay, buffered_bytes, protocol) = event
        engine = self._engine
        taken = []
        entry = self._flows.pop(flow_id, None)
        if entry is not None:
            left = []
            for item in entry:
                if gen_seq <= item[0] <= upto:
                    taken.append(item[1])
                elif item[0] > upto:
                    left.append(item)
            if left:
                self._flows[flow_id] = left
        outcome = ClassifiedFlow(
            key=FlowKey.from_bytes(self._keys[flow_id]),
            label=FlowNature(label_int),
            classified_at=classified_at,
            buffering_delay=delay,
            buffered_bytes=buffered_bytes,
            stripped_protocol=protocol,
        )
        engine.emit(outcome, taken)
        engine.note_inserts(1, classified_at)

    # -- Runtime protocol ----------------------------------------------------

    def dispatch(self, packet, flow_id: bytes, now: float, is_close: bool):
        engine = self._engine
        self._keys[flow_id] = packet.key_bytes
        record = engine.table.record_of(flow_id)
        if record is not None and (
            engine.config.reclassify_interval
            and record.age(now) > engine.config.reclassify_interval
        ):
            # The owning worker is about to reclassify this flow; treat
            # it as unknown here (its "-"/reclassified event follows).
            record = None
        label = record.label if record is not None else None
        payload = packet.payload
        seq = self._seq
        self._seq = seq + 1
        windex = self._shard_worker[engine.shard_index(flow_id)]
        buf = self._framebufs[windex]
        buf += _PKT_HEAD.pack(
            seq, now, 1 if is_close else 0, flow_id, len(payload)
        )
        if payload:
            buf += payload
        self._framecounts[windex] += 1
        if self._framecounts[windex] >= _FRAME_PACKETS:
            self._flush_frames(windex)
        if label is not None:
            if payload:
                engine.emit_packet(label, packet)
        elif payload:
            self._flows.setdefault(flow_id, []).append((seq, packet))
        else:
            self._flows.setdefault(flow_id, [])
        self._drain_events()
        return label

    def flush(self, now: float) -> int:
        self._broadcast(("flush", now))
        self._barrier(now)
        return 0

    def finish(self, now: float) -> None:
        self._broadcast(("final", now))
        self._barrier(now)
        # Anything still buffered belongs to dropped (unclassifiable)
        # flows — serial discards their packets too.
        self._flows.clear()

    def purge(self, now: float) -> None:
        """Run the CDB inactivity sweep inside every worker."""
        self._broadcast(("purge", now))

    # -- metrics -------------------------------------------------------------

    def _refresh_metrics(self) -> None:
        if self._closed or not self._procs:
            return  # mirrors keep the state captured at close()
        self._capture_metrics()

    def _capture_metrics(self) -> None:
        self._metric_round = set()
        self._broadcast(("metrics",))
        while len(self._metric_round) < self._nworkers:
            self._pump()
        for windex, mirror in enumerate(self._mirrors):
            state = self._metric_dumps.get(windex)
            if state:
                mirror.load_state(state, skip=_COORDINATOR_METRICS)


register(
    "process",
    lambda config: ProcessRuntime(
        num_workers=config.num_workers or 0, queue_depth=config.queue_depth
    ),
)
