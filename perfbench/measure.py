"""Closed-loop, as-fast-as-possible passes of a capture through the engine.

One pass is what a user runs: ``load_model`` + ``open_engine`` (set-up),
then ``engine.process_source(PcapFileSource(capture))`` until every label
is out. A run repeats passes, each on a fresh engine in this one process
(no extra threads), for the requested number of seconds. The first pass
warms up; the rest are timed, every time scaled by :class:`Timeline` speed
probes to what a reference CPU, uncontended, would have taken. Every pass
is checked against the engine-independent reference
(:mod:`perfbench.reference`).
"""

from __future__ import annotations

import gc
import hashlib
import multiprocessing
import os
import statistics
import struct
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from time import perf_counter

import repro
from repro.engine.sinks import ResultSink

#: Engine configuration of each workload.
CONFIGS = {
    "gateway": repro.EngineConfig(),
    "flood": repro.EngineConfig(),
}

#: Extra set-ups (open + close, no stream) before the passes, so set-up
#: time is a median over many samples even when passes are few.
EXTRA_SETUPS = 40

#: While streaming, look at the clock every this many packets, and pause
#: (to read resident memory and, in a timed pass, to probe the CPU's
#: speed) once this many seconds have passed since the last pause.
TICK_PACKETS = 32
PAUSE_EVERY_S = 0.01

#: Steps of the speed probe's loop.
PROBE_STEPS = 150
_PROBE_BYTES = bytes(range(256)) * 8

#: The probe loop's time on an uncontended vCPU of the machine the
#: benchmark was tuned on (Intel Xeon at 2.1 GHz, 2 vCPUs, CPython 3.11):
#: reported times are scaled to a CPU running the probe this fast.
REFERENCE_PROBE_S = 0.15e-3

#: A probe slower than this multiple of the run's fastest one was
#: interrupted (a preemption, a page fault), not slowed; it counts as
#: this slow.
SLOWEST = 2.5

_PAGE = os.sysconf("SC_PAGE_SIZE")


def process(config: repro.EngineConfig) -> repro.EngineConfig:
    return replace(config, runtime="process", num_workers=2)


class RssProbe:
    """Resident memory of this process (and its live worker children)."""

    def __init__(self) -> None:
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)

    def close(self) -> None:
        os.close(self._fd)

    def self_bytes(self) -> int:
        return int(os.pread(self._fd, 128, 0).split()[1]) * _PAGE

    @staticmethod
    def children_kb(field_name: str) -> dict:
        """``{pid: VmRSS/VmHWM kB}`` of this process's live children."""
        out = {}
        for child in multiprocessing.active_children():
            try:
                with open(f"/proc/{child.pid}/status", encoding="ascii") as handle:
                    for line in handle:
                        if line.startswith(field_name):
                            out[child.pid] = int(line.split()[1])
                            break
            except OSError:
                continue
        return out


class Timeline:
    """Speed probes interleaved with a measurement, to correct for CPU contention.

    On a shared virtual machine each vCPU keeps switching, many times a
    second, between full speed and about 1.6x slower (a co-tenant on the
    same physical core), the share of time spent slow drifts over minutes,
    and full speed itself differs by some 10% from one minute to the next.
    That drift, not the program, made most of the run-to-run spread of the
    wall-clock metrics. A probe times a fixed loop of the engine's
    per-packet kind of work (dict update, SHA-1, struct unpack) in a pause
    between packets; the mean probe time over :data:`REFERENCE_PROBE_S`
    (:meth:`slowdown`) is how much slower than the reference CPU the
    machine ran meanwhile, and a timed measurement is divided by it. A
    short span is divided by the probes around it
    (:meth:`corrected_spans`). The pauses themselves are left out of the
    measurement (:meth:`busy_s`).
    """

    def __init__(self) -> None:
        self.starts: list = []  # when each pause began
        self.ends: list = []  # and ended
        self.probe_s: list = []  # how long its probe loop took
        self.packets: list = []  # packets yielded before it

    def pause(self, packets: int, start: "float | None" = None) -> None:
        """Probe the CPU now; ``start`` is when the pause began, if earlier."""
        sha1 = hashlib.sha1
        unpack = struct.unpack_from
        data = _PROBE_BYTES
        table: dict = {}
        gc.disable()
        begin = perf_counter()
        for i in range(PROBE_STEPS):
            key = (i & 63, (i * 7) & 255, 6)
            table[key] = table.get(key, 0) + 1
            sha1(data[i:i + 20]).digest()
            unpack("!HHI", data, i)
        end = perf_counter()
        gc.enable()
        self.starts.append(begin if start is None else start)
        self.ends.append(end)
        self.probe_s.append(end - begin)
        self.packets.append(packets)

    def busy_s(self) -> float:
        """Seconds from the first pause to the last, the pauses between left out."""
        inner = zip(self.starts[1:-1], self.ends[1:-1])
        return self.starts[-1] - self.ends[0] - sum(end - start for start, end in inner)

    def slowdown(self, cap: float) -> float:
        """Mean probe time (each at most ``cap``) over the reference."""
        return statistics.fmean(min(s, cap) for s in self.probe_s) / REFERENCE_PROBE_S

    def corrected_spans(self, spans, cap: float) -> list:
        """Each ``(start, end)`` span, pauses left out, over its local slowdown.

        A span (a label's latency, mostly a few milliseconds) is divided by
        the mean of the probes inside it and the nearest one on each side:
        the CPU's speed while it ran, not over the whole pass.
        """
        paused, probed = [0.0], [0.0]
        for start, end, probe in zip(self.starts, self.ends, self.probe_s):
            paused.append(paused[-1] + end - start)
            probed.append(probed[-1] + min(probe, cap))
        out = []
        for start, end in spans:
            # Interval i (after pause i) holds start, interval j holds end;
            # pauses i+1..j lie inside the span, i and j+1 around it.
            i = bisect_right(self.ends, start) - 1
            j = bisect_right(self.ends, end) - 1
            slowdown = (probed[j + 2] - probed[i]) / (j + 2 - i) / REFERENCE_PROBE_S
            out.append((end - start - (paused[j + 1] - paused[i + 1])) / slowdown)
        return out


class LabelTap(ResultSink):
    """Records each flow's first label and when the sink received it."""

    def __init__(self, reference) -> None:
        self._index = reference.index
        n = len(reference)
        self.first: list = [None] * n
        self.at: list = [0.0] * n
        self.unknown = 0

    def on_flow_classified(self, outcome, packets) -> None:
        now = perf_counter()
        i = self._index.get(outcome.key)
        if i is None:
            self.unknown += 1
        elif self.first[i] is None:
            self.first[i] = outcome.label
            self.at[i] = now


class TapStream:
    """The packet iterator handed to ``process_source``.

    Stamps the wall-clock at which each trigger packet (one completing a
    flow's first window) is yielded, counts offered packets, and pauses
    every :data:`PAUSE_EVERY_S` to sample resident memory and, given a
    ``timeline``, to probe the CPU's speed. The traced run sets ``decode``
    to a callable wrapping the underlying iterator, to time decode.
    """

    def __init__(self, source, reference, rss: RssProbe, timeline=None) -> None:
        self.source = source
        self.trigger_packets = reference.trigger_packets
        self.trigger_flows = reference.trigger_flows
        self.yielded_at = [0.0] * len(reference)
        self.rss = rss
        self.timeline = timeline
        self.decode = None
        self.offered = 0
        self.peak_rss = 0

    def __iter__(self):
        packets = self.trigger_packets
        flows = self.trigger_flows
        stamps = self.yielded_at
        rss = self.rss
        timeline = self.timeline
        k = 0
        due = packets[0] if packets else -1
        peak = rss.self_bytes()
        n = 0
        pause_at = perf_counter() + PAUSE_EVERY_S
        inner = iter(self.source) if self.decode is None else self.decode(self.source)
        try:
            for packet in inner:
                if not n % TICK_PACKETS:
                    now = perf_counter()
                    if now >= pause_at:
                        peak = max(peak, rss.self_bytes())
                        if timeline is not None:
                            timeline.pause(n, now)
                        pause_at = perf_counter() + PAUSE_EVERY_S
                if n == due:
                    stamps[flows[k]] = perf_counter()
                    k += 1
                    due = packets[k] if k < len(packets) else -1
                n += 1
                yield packet
        finally:
            self.offered = n
            self.peak_rss = max(peak, rss.self_bytes())


@dataclass
class PassResult:
    wall_s: float
    offered: int
    packets: int
    classifications: int
    failed: int
    mismatches: int
    #: (trigger packet yielded, first label at the sink) per labelled flow.
    label_spans: list = field(default_factory=list)
    #: Pauses around the set-up, and through the stream (timed passes).
    setup_timeline: object = None
    timeline: object = None
    rss_growth_bytes: int = 0
    decode_stats: object = None
    engine: object = None


def open_engine(model_path, config, sinks):
    """Set-up as a user pays it: load, open, and wait until it is ready.

    The empty flush makes the process runtime answer a barrier, so the
    engine is known to accept packets (workers started) when it returns.
    """
    classifier = repro.load_model(model_path)
    engine = repro.open_engine(classifier, config, sink=sinks)
    engine.flush_timeouts(0.0)
    return engine


def time_setup(model_path, config) -> Timeline:
    """One set-up between two probes (its time is interval 0)."""
    gc.collect()
    timeline = Timeline()
    timeline.pause(0)
    engine = open_engine(model_path, config, [])
    timeline.pause(0)
    engine.close()
    return timeline


def run_pass(
    inputs, reference, config, rss: RssProbe, *, timed=False, instrument=None, keep=False
):
    """One pass; ``instrument(engine, stream)`` may wrap layers first.

    A ``timed`` pass probes the CPU around its set-up and through its
    stream (:class:`Timeline`).
    """
    tap = LabelTap(reference)
    gc.collect()
    setup_timeline = timeline = None
    if timed:
        setup_timeline, timeline = Timeline(), Timeline()
        setup_timeline.pause(0)
    engine = open_engine(inputs.model, config, [tap])
    if timed:
        setup_timeline.pause(0)
    try:
        base_self = rss.self_bytes()
        base_workers = rss.children_kb("VmRSS:")
        source = repro.PcapFileSource(inputs.capture)
        stream = TapStream(source, reference, rss, timeline)
        if instrument is not None:
            instrument(engine, stream)
        policy = repro.ErrorPolicy("degrade")
        with source:
            if timed:
                timeline.pause(0)
            start = perf_counter()
            stats = engine.process_source(stream, on_error=policy)
            wall = perf_counter() - start
            if timed:
                timeline.pause(stream.offered)
        peak_self = max(stream.peak_rss, rss.self_bytes())
        peak_workers = rss.children_kb("VmHWM:")
    finally:
        engine.close()
    growth = peak_self - base_self + 1024 * sum(
        peak_workers.get(pid, kb) - kb for pid, kb in base_workers.items()
    )
    offered = stream.offered
    lost = abs(offered - stats.packets)
    label_spans = [
        (stream.yielded_at[flow], tap.at[flow])
        for flow in reference.trigger_flows
        if tap.first[flow] is not None
    ]
    return PassResult(
        wall_s=wall,
        offered=offered,
        packets=stats.packets,
        classifications=stats.classifications,
        failed=policy.errors + max(0, lost - policy.errors),
        mismatches=reference.mismatches(tap.first, tap.unknown),
        label_spans=label_spans,
        setup_timeline=setup_timeline,
        timeline=timeline,
        rss_growth_bytes=growth,
        decode_stats=source.stats,
        engine=engine if keep else None,
    )


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(workload: str, inputs, reference, seconds: float, log) -> dict:
    """The untraced run: every end-to-end metric of one workload."""
    config = CONFIGS[workload]
    rss = RssProbe()
    try:
        deadline = perf_counter() + seconds
        # The first pass runs before anything else has used the heap, so
        # its memory growth is what a fresh process pays; later passes
        # reuse memory the first one freed and would read near zero. It
        # also warms up, and is not timed.
        passes = [run_pass(inputs, reference, config, rss, timed=True)]
        setups = [time_setup(inputs.model, config) for _ in range(EXTRA_SETUPS)]
        while len(passes) < 2 or perf_counter() < deadline:
            passes.append(run_pass(inputs, reference, config, rss, timed=True))
    finally:
        rss.close()
    timed = passes[1:]
    setups += [p.setup_timeline for p in passes]
    cap = SLOWEST * min(s for line in setups + [p.timeline for p in timed] for s in line.probe_s)

    # Every time below is divided by how much slower than the reference CPU
    # the machine ran meanwhile (Timeline); pauses are left out.
    setup_s = [line.busy_s() / line.slowdown(cap) for line in setups]
    slowdowns = [p.timeline.slowdown(cap) for p in timed]
    busy = [p.timeline.busy_s() / k for p, k in zip(timed, slowdowns)]
    pkts = [p.offered / s for p, s in zip(timed, busy)]
    flows = [p.classifications / s for p, s in zip(timed, busy)]
    per_pass = [p.timeline.corrected_spans(p.label_spans, cap) for p in timed]
    latencies = [seconds for spans in per_pass for seconds in spans]
    growth = passes[0].rss_growth_bytes / 2**20
    log(
        f"{workload}: {len(timed)} timed passes of {passes[0].offered} packets and "
        f"{passes[0].classifications} labels after a warm-up pass; "
        f"{len(latencies)} packet-triggered labels "
        f"({reference.count('timeout')} timeout- and {reference.count('end')} "
        f"end-of-stream-labelled flows a pass excluded); {len(setup_s)} set-ups"
    )
    log(
        f"  probe {statistics.median(s for p in timed for s in p.timeline.probe_s) * 1e3:.4f} ms"
        f" (median), {REFERENCE_PROBE_S * 1e3:.3f} ms on the reference CPU; per pass:"
    )
    for p, k, spans in zip(timed, slowdowns, per_pass):
        log(
            f"    slowdown {k:.3f}  wall-clock {p.offered / p.wall_s:9.1f} pkt/s"
            f"  corrected {p.offered * k / p.timeline.busy_s():9.1f} pkt/s"
            f"  latency p50 {percentile(spans, 50) * 1e3:.3f} ms"
            f"  p99 {percentile(spans, 99) * 1e3:.3f} ms"
        )
    log(f"  first-pass rss growth: {growth:.2f} MB")
    metrics = {
        "pkts_per_s": (statistics.median(pkts), "1/s"),
        "flows_per_s": (statistics.median(flows), "1/s"),
        "label_latency_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "label_latency_p99_ms": (percentile(latencies, 99) * 1e3, "ms"),
        "rss_growth_mb": (growth, "MB"),
        "setup_s": (statistics.median(setup_s), "s"),
    }
    return {
        "passes": passes,
        "metrics": metrics,
    }
