"""The traced run: where a workload's wall-clock goes, layer by layer.

Spans are timed from here, around calls into each layer's public objects
on one engine instance (instance attributes shadow the methods the engine
and its runtime call); nothing in the program is changed. A span's *self*
time is its duration minus its child spans. The self-times of the layers
in :data:`LAYER_SPANS` plus ``trace.unattributed_s`` (the
engine's ``process_source`` loop and this benchmark's iterator) add up to
the traced wall-clock, and the run fails when the layers cover less than
:data:`MIN_COVERAGE` of it.

The traced passes use the serial runtime on every workload, alternating
with untraced serial passes (for the tracing overhead and the serial
baseline) and process-runtime passes with 2 workers (for the
``runtime.process.*`` metrics). Flow identity and pending-flow memory are
measured in passes of their own.
"""

from __future__ import annotations

import gc
import resource
import statistics
import tracemalloc
from dataclasses import replace
from time import perf_counter

from repro.net.flow import FlowKey
from repro.net.hashing import flow_hash
from repro.net.pcap import iter_pcap, read_pcap

from perfbench.measure import CONFIGS, RssProbe, open_engine, process, run_pass
#: The traced run fails below this share of wall-clock attributed to layers.
MIN_COVERAGE = 0.90

#: The layer self-time metrics, each with the spans whose self time it
#: sums. Together with ``trace.unattributed_s`` they partition the traced
#: wall-clock. ``engine.shard.self_s`` is the runtime's dispatch minus its
#: fold, classify and sink children: CDB lookup, pending insert, buffering
#: and readiness.
LAYER_SPANS = {
    "net.pcap.decode_s": ("net.pcap.decode",),
    "engine.process_packet.self_s": ("engine.process_packet",),
    "engine.shard.self_s": ("runtime.dispatch",),
    "runtime.flush.self_s": ("runtime.flush",),
    "runtime.finish.self_s": ("runtime.finish",),
    "engine.classify.self_s": ("engine.classify",),
    "core.extract.fold_s": ("core.extract.fold",),
    "core.extract.finalize_s": ("core.extract.finalize",),
    "ml.predict_s": ("ml.predict",),
    "engine.sinks.emit_s": ("engine.sinks.emit_flow", "engine.sinks.emit_packet"),
}

#: Fewest rounds of (untraced serial, traced serial, process) passes; more
#: run while the requested seconds last.
MIN_ROUNDS = 2


class Spans:
    """Aggregated span tree: per name, self seconds, total seconds, calls, units."""

    def __init__(self) -> None:
        #: Child-time accumulators of the open spans; [0] is the root.
        self.stack = [0.0]
        self.acc: dict = {}
        self.pending_peak = 0

    def _acc(self, name: str) -> list:
        return self.acc.setdefault(name, [0.0, 0.0, 0, 0])

    def wrap(self, obj, attr: str, name: str, units=None, before=None) -> None:
        """Replace ``obj.attr`` with a timed call; ``units(args)`` counts work."""
        fn = getattr(obj, attr)
        acc = self._acc(name)
        stack = self.stack

        def traced(*args, **kwargs):
            if before is not None:
                before()
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                acc[0] += elapsed - stack.pop()
                acc[1] += elapsed
                acc[2] += 1
                if units is not None:
                    acc[3] += units(args)
                stack[-1] += elapsed

        setattr(obj, attr, traced)

    def decode(self, source):
        """Iterate ``source``, timing each ``next()`` as the decode span."""
        acc = self._acc("net.pcap.decode")
        stack = self.stack
        records = iter(source)
        while True:
            start = perf_counter()
            packet = next(records, None)
            elapsed = perf_counter() - start
            acc[0] += elapsed
            acc[1] += elapsed
            acc[2] += 1
            stack[-1] += elapsed
            if packet is None:
                return
            yield packet

    def instrument(self, engine, stream) -> None:
        """Wrap every layer boundary of a serial-runtime engine."""
        runtime = engine.runtime
        table = engine.table

        def sample_pending():
            self.pending_peak = max(self.pending_peak, table.pending_count)

        stream.decode = self.decode
        self.wrap(engine, "process_packet", "engine.process_packet")
        self.wrap(runtime, "dispatch", "runtime.dispatch")
        self.wrap(runtime, "flush", "runtime.flush", before=sample_pending)
        self.wrap(runtime, "finish", "runtime.finish", before=sample_pending)
        self.wrap(engine, "classify_apply", "engine.classify",
                  units=lambda args: len(args[0]))
        self.wrap(engine.extractor, "fold", "core.extract.fold")
        for pipeline in engine.pipelines:
            self.wrap(pipeline, "fold_for", "core.extract.fold")
        self.wrap(engine.extractor, "finalize", "core.extract.finalize")
        self.wrap(engine.classifier, "predict_vectors", "ml.predict",
                  units=lambda args: len(args[0]))
        self.wrap(engine, "emit", "engine.sinks.emit_flow")
        self.wrap(engine, "emit_packet", "engine.sinks.emit_packet")

    def total_s(self, name: str) -> float:
        return self.acc.get(name, (0.0, 0.0))[1]

    def calls(self, name: str) -> int:
        return self.acc.get(name, (0.0, 0.0, 0))[2]

    def units(self, name: str) -> int:
        return self.acc.get(name, (0.0, 0.0, 0, 0))[3]

    def layer(self, metric: str) -> "tuple[float, int]":
        """Self seconds and calls of one :data:`LAYER_SPANS` layer."""
        names = LAYER_SPANS[metric]
        return (
            sum(self.acc.get(n, (0.0,))[0] for n in names),
            sum(self.calls(n) for n in names),
        )


def key_hash_us_per_packet(capture) -> float:
    """``FlowKey.of_packet`` + ``flow_hash`` per packet, on decoded packets."""
    packets = read_pcap(capture)
    of_packet = FlowKey.of_packet
    times = []
    for _ in range(3):
        start = perf_counter()
        for packet in packets:
            flow_hash(of_packet(packet))
        times.append(perf_counter() - start)
    return statistics.median(times) / len(packets) * 1e6


def resident_bytes_per_pending_flow(inputs, config) -> "tuple[float, int]":
    """Traced-heap bytes per pending flow, with every flow kept pending.

    Feeds each flow's first packet (FIN/RST-free), its payload cut below
    ``b`` so no window fills, and never flushes: every flow stays pending.
    The packets are decoded inside the traced region, as in a real stream,
    so what the engine retains of them counts.
    """
    firsts = []
    seen = set()
    for n, packet in enumerate(iter_pcap(inputs.capture)):
        key = packet.five_tuple
        if key not in seen:
            seen.add(key)
            if not (packet.is_tcp and (packet.transport.fin or packet.transport.rst)):
                firsts.append(n)
    del seen
    engine = open_engine(inputs.model, config, [])
    keep = engine.config.buffer_size - 1
    firsts.append(-1)
    try:
        gc.collect()
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        k = 0
        for n, packet in enumerate(iter_pcap(inputs.capture)):
            if n == firsts[k]:
                k += 1
                engine.process_packet(replace(packet, payload=packet.payload[:keep]))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.stop()
        pending = engine.table.pending_count
    finally:
        engine.close()
    return held / max(pending, 1), pending


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _registry(engine) -> dict:
    engine.metrics.collect()
    return engine.metrics.snapshot()


def _labelled(family, label: str) -> float:
    """Value of ``family`` (a registry snapshot entry) at ``label``."""
    if not isinstance(family, dict):
        return 0.0
    return sum(v for k, v in family.items() if label in k)


def traced_run(workload: str, inputs, reference, seconds: float, log) -> dict:
    config = CONFIGS[workload]
    rss = RssProbe()
    untraced, traced, procs = [], [], []
    deadline = perf_counter() + seconds
    try:
        while len(traced) < MIN_ROUNDS or perf_counter() < deadline:
            untraced.append(run_pass(inputs, reference, config, rss))
            spans = Spans()
            result = run_pass(
                inputs, reference, config, rss,
                instrument=spans.instrument, keep=True,
            )
            traced.append((spans, result))
            coordinator, workers = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
            result = run_pass(inputs, reference, process(config), rss)
            procs.append(
                (
                    result,
                    _cpu(resource.RUSAGE_SELF) - coordinator,
                    _cpu(resource.RUSAGE_CHILDREN) - workers,
                )
            )
    finally:
        rss.close()

    gate_ok = True
    for spans, result in traced:
        attributed = sum(spans.layer(m)[0] for m in LAYER_SPANS)
        # Self-times partition the time under the top-level spans exactly,
        # and that time lies inside the pass; anything else is a span that
        # closed on the wrong parent.
        if (
            len(spans.stack) != 1
            or abs(attributed - spans.stack[0]) > 1e-6 * result.wall_s
            or attributed > result.wall_s
        ):
            log("FAIL: layer self-times do not add up to the traced time")
            gate_ok = False
        if attributed < MIN_COVERAGE * result.wall_s:
            log(f"FAIL: layers cover {attributed / result.wall_s:.1%} of the traced wall-clock")
            gate_ok = False

    spans, median_pass = sorted(traced, key=lambda item: item[1].wall_s)[len(traced) // 2]
    wall = median_pass.wall_s
    layers = {metric: spans.layer(metric) for metric in LAYER_SPANS}
    attributed = sum(seconds for seconds, _ in layers.values())
    engine = median_pass.engine
    stats = engine.stats
    registry = _registry(engine)
    state_bytes = registry.get("engine_flow_state_bytes", {})
    drains = registry.get("batcher_drains_total", {})
    batches = spans.calls("engine.classify")
    untraced_wall = statistics.median(p.wall_s for p in untraced)
    process_wall = statistics.median(p.wall_s for p, _, _ in procs)
    resident, pending = resident_bytes_per_pending_flow(inputs, config)
    decode_stats = median_pass.decode_stats

    metrics = {name: (seconds, "s") for name, (seconds, _) in layers.items()}
    metrics.update(
        {
            "net.pcap.records": (decode_stats.records, "count"),
            "net.pcap.bytes_read": (decode_stats.bytes, "B"),
            "net.flow.key_hash_us_per_pkt": (key_hash_us_per_packet(inputs.capture), "us"),
            "runtime.dispatch_s": (spans.total_s("runtime.dispatch"), "s"),
            "runtime.flush_s": (spans.total_s("runtime.flush"), "s"),
            "runtime.finish_s": (spans.total_s("runtime.finish"), "s"),
            "engine.flow_table.cdb_hit_ratio": (stats.cdb_hits / stats.packets, "ratio"),
            "engine.flow_table.new_flows": (stats.classifications + stats.unclassifiable, "count"),
            "engine.flow_table.unclassifiable": (stats.unclassifiable, "count"),
            "engine.flow_table.pending_peak": (spans.pending_peak, "count"),
            "engine.flow_table.resident_bytes_per_pending_flow": (resident, "B"),
            "engine.flow_table.modeled_bytes_per_flow": (state_bytes.get("mean", 0.0), "B"),
            "engine.deadlines.expirations": (registry.get("wheel_expirations_total", 0.0), "count"),
            "engine.batcher.batches": (batches, "count"),
            "engine.batcher.fill_ratio": (
                spans.units("engine.classify") / max(batches, 1) / engine.engine_config.max_batch,
                "ratio",
            ),
            "ml.predict_rows": (spans.units("ml.predict"), "count"),
            "engine.sinks.flows": (spans.calls("engine.sinks.emit_flow"), "count"),
            "engine.sinks.packets_forwarded": (spans.calls("engine.sinks.emit_packet"), "count"),
            "runtime.process.coordinator_cpu_s": (statistics.median(c for _, c, _ in procs), "s"),
            "runtime.process.worker_cpu_s": (statistics.median(w for _, _, w in procs), "s"),
            "runtime.process.vs_serial": (untraced_wall / process_wall, "x"),
            "trace.wall_s": (wall, "s"),
            "trace.unattributed_s": (wall - attributed, "s"),
            "trace.coverage": (attributed / wall, "ratio"),
            "trace.overhead_ratio": (wall / untraced_wall, "ratio"),
        }
    )
    for reason in ("size", "delay", "close", "timeout", "final"):
        metrics[f"engine.batcher.drains.{reason}"] = (
            _labelled(drains, f'reason="{reason}"'), "count"
        )

    log(f"{workload}: traced serial pass {wall:.3f} s (untraced {untraced_wall:.3f} s, "
        f"process runtime {process_wall:.3f} s); {pending} flows in the pending-memory probe")
    log(f"  {'layer (self time)':34} {'seconds':>9} {'share':>7} {'calls':>8}")
    for name, (seconds, calls) in layers.items():
        log(f"  {name:34} {seconds:9.4f} {seconds / wall:7.1%} {calls:8d}")
    log(f"  {'trace.unattributed_s':34} {wall - attributed:9.4f} {(wall - attributed) / wall:7.1%}")
    return {
        "passes": untraced + [p for _, p in traced] + [p for p, _, _ in procs],
        "metrics": metrics,
        "gate_ok": gate_ok,
    }

