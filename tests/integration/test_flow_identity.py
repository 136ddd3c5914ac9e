"""Flow IDs from decoded captures are the ones the string path computes.

A generated trace goes through a pcap file and the raw-header decoder
into the serial and process runtimes. Every CDB key left behind must be
byte-identical to ``flow_hash(FlowKey.of_packet(p))`` of some packet of
the in-memory trace, every outcome's ``FlowKey`` must hash to a flow
the trace holds, and the process runtime's packet frames keep their
``<QdB20sI>`` layout (seq, timestamp, FIN flag, 20-byte flow ID,
payload length).
"""

import pytest

from repro.core.config import EngineConfig, IustitiaConfig
from repro.engine.engine import StagedEngine
from repro.ingest import PcapFileSource
from repro.net.flow import FlowKey
from repro.net.hashing import flow_hash
from repro.net.pcap import write_pcap
from repro.runtime import process


@pytest.fixture(scope="module")
def trace_pcap(tmp_path_factory, small_trace):
    path = tmp_path_factory.mktemp("identity") / "trace.pcap"
    write_pcap(path, small_trace.packets)
    return path


@pytest.fixture(scope="module")
def expected_ids(small_trace):
    """Flow IDs of the eagerly built packets, via FlowKey strings."""
    return {flow_hash(FlowKey.of_packet(p)) for p in small_trace.packets}


def _run(classifier, path, **knobs):
    config = EngineConfig(
        max_batch=8, pipeline=IustitiaConfig(buffer_size=32), **knobs
    )
    engine = StagedEngine(classifier, config)
    with engine:
        with PcapFileSource(path) as source:
            stats = engine.process_source(source)
    return engine, stats


def _cdb_keys(engine, candidates) -> set:
    """The CDB's keys, given that they are all among ``candidates``."""
    keys = {fid for fid in candidates if fid in engine.table}
    assert len(keys) == len(engine.table), "CDB holds an unexpected flow ID"
    return keys


class TestDecodedFlowIds:
    @pytest.mark.parametrize("runtime", ["serial", "process"])
    def test_cdb_keys_match_string_path(
        self, trained_cart, trace_pcap, expected_ids, runtime
    ):
        knobs = {"runtime": runtime}
        if runtime == "process":
            knobs["num_workers"] = 2
        engine, stats = _run(trained_cart, trace_pcap, **knobs)
        keys = _cdb_keys(engine, expected_ids)
        assert keys
        assert stats.classified
        assert {flow_hash(c.key) for c in stats.classified} <= expected_ids
        assert all(isinstance(c.key, FlowKey) for c in stats.classified)

    def test_serial_and_process_leave_identical_cdb_keys(
        self, trained_cart, trace_pcap, expected_ids
    ):
        serial, serial_stats = _run(trained_cart, trace_pcap)
        proc, proc_stats = _run(
            trained_cart, trace_pcap, runtime="process", num_workers=2
        )
        assert _cdb_keys(proc, expected_ids) == _cdb_keys(serial, expected_ids)
        assert {c.key: c.label for c in proc_stats.classified} == {
            c.key: c.label for c in serial_stats.classified
        }

    def test_process_frame_layout_unchanged(self):
        assert process._PKT_HEAD.format == "<QdB20sI"
        assert process._PKT_HEAD.size == 8 + 8 + 1 + 20 + 4
