"""Engine-independent reference labels for a capture.

Each flow's *first* label is recomputed from the capture alone, without
the engine: the flow's window is its payloads concatenated up to and
including the packet that brings it to ``b`` bytes or carries FIN/RST.
A window also ends when the flow goes quiet past ``buffer_timeout`` (as
seen at the packet-clock flush ticks ``process_source`` makes every
``sample_interval`` seconds) and at the end of the stream. A window ends
as ``strip_app_header(...)[:b]``; one shorter than the feature set's
widest width is unclassifiable and the flow starts a new window with its
next packet. The first classifiable window of each flow goes through
``classifier.classify_buffers`` in one call.

The same pass records which packet completed each flow's first window
(its *trigger*), which is where label latency is measured from. Flows
first labelled by timeout or end of stream have no trigger.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.headers import strip_app_header
from repro.net.flow import FlowKey
from repro.net.pcap import iter_pcap

#: How a flow's first label came about.
HOW_PACKET, HOW_TIMEOUT, HOW_END, HOW_NONE = "packet", "timeout", "end", "none"


class _Window:
    __slots__ = ("chunks", "raw", "last_ts")

    def __init__(self) -> None:
        self.chunks: list = []
        self.raw = 0
        self.last_ts = 0.0


def build_reference(
    pcap_path,
    classifier,
    *,
    buffer_size: int,
    buffer_timeout: float,
    strip_known_headers: bool,
    sample_interval: float = 1.0,
) -> dict:
    """First-label reference of every flow in ``pcap_path`` (JSON-ready)."""
    min_window = classifier.feature_set.max_width
    order: list[FlowKey] = []
    index: dict[FlowKey, int] = {}
    open_windows: dict[int, _Window] = {}
    windows: dict[int, bytes] = {}  # flow -> its first classifiable window
    how: dict[int, str] = {}
    trigger: dict[int, int] = {}

    def close_window(flow: int, window: _Window, reason: str, n: int) -> bool:
        """End ``flow``'s window; True when it was classifiable."""
        raw = b"".join(window.chunks)
        if strip_known_headers:
            raw = strip_app_header(raw)[1]
        candidate = raw[:buffer_size]
        if len(candidate) < min_window:
            return False
        windows[flow] = candidate
        how[flow] = reason
        if reason == HOW_PACKET:
            trigger[flow] = n
        return True

    next_sample = None
    last_tick = float("-inf")
    for n, packet in enumerate(iter_pcap(pcap_path)):
        now = packet.timestamp
        key = FlowKey.of_packet(packet)
        flow = index.get(key)
        if flow is None:
            flow = index[key] = len(order)
            order.append(key)
        if flow not in windows:
            window = open_windows.get(flow)
            if window is not None and last_tick > window.last_ts + buffer_timeout:
                # A flush tick since the window's last packet found it
                # past its deadline: it was labelled (or dropped) then.
                del open_windows[flow]
                if not close_window(flow, window, HOW_TIMEOUT, n):
                    window = None
            if flow not in windows:
                if window is None:
                    window = open_windows[flow] = _Window()
                payload = packet.payload
                if payload:
                    window.chunks.append(bytes(payload))
                    window.raw += len(payload)
                window.last_ts = now
                closing = packet.is_tcp and (
                    packet.transport.fin or packet.transport.rst
                )
                if window.raw >= buffer_size or closing:
                    del open_windows[flow]
                    close_window(flow, window, HOW_PACKET, n)
        # process_source's packet-clock sampler: flush after this packet.
        if next_sample is None:
            next_sample = now + sample_interval
        while now >= next_sample:
            last_tick = now
            next_sample += sample_interval
    for flow, window in open_windows.items():
        expired = last_tick > window.last_ts + buffer_timeout
        close_window(flow, window, HOW_TIMEOUT if expired else HOW_END, -1)

    labelled = sorted(windows)
    predicted = classifier.classify_buffers([windows[f] for f in labelled])
    labels = [-1] * len(order)
    for flow, label in zip(labelled, predicted):
        labels[flow] = int(label)
    return {
        "keys": [
            [k.src, k.src_port, k.dst, k.dst_port, k.protocol] for k in order
        ],
        "labels": labels,
        "how": [how.get(flow, HOW_NONE) for flow in range(len(order))],
        "trigger": [trigger.get(flow, -1) for flow in range(len(order))],
    }


class Reference:
    """A loaded reference: flow index, expected first labels, triggers."""

    def __init__(self, data: dict) -> None:
        self.keys = [FlowKey(*fields) for fields in data["keys"]]
        self.index = {key: i for i, key in enumerate(self.keys)}
        self.labels = list(data["labels"])
        self.how = list(data["how"])
        trig = [
            (packet, flow)
            for flow, packet in enumerate(data["trigger"])
            if packet >= 0
        ]
        trig.sort()
        #: Packet indices (ascending) that complete a flow's first window,
        #: and the flow each one completes.
        self.trigger_packets = [packet for packet, _ in trig]
        self.trigger_flows = [flow for _, flow in trig]

    @classmethod
    def load(cls, path: "str | Path") -> "Reference":
        with open(path, encoding="utf-8") as handle:
            return cls(json.load(handle))

    def __len__(self) -> int:
        return len(self.keys)

    def count(self, how: str) -> int:
        return sum(1 for value in self.how if value == how)

    def mismatches(self, first_labels: list, unknown: int) -> int:
        """Flows whose first engine label differs from the reference.

        ``first_labels[i]`` is the engine's first label of flow ``i`` (None
        when it never labelled it); ``unknown`` counts labels the engine
        gave flows absent from the capture.
        """
        bad = unknown
        for expected, got in zip(self.labels, first_labels):
            if (got is None and expected != -1) or (
                got is not None and int(got) != expected
            ):
                bad += 1
        return bad
