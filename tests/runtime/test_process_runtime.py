"""ProcessRuntime: shared-nothing worker processes vs the serial runtime.

The contract under test (DESIGN.md "Process runtime"): per-flow label
map and CDB lifetime counters equal the serial runtime at any
``max_batch`` for both extractors; at ``max_batch=1`` the per-shard
counters, cdb-hit totals, and CDB size series match exactly; outcome
*order* is run-to-run deterministic (merged by global seq at barriers)
though not serial-identical. Worker death surfaces as ``RuntimeError``
and ``close()`` leaves no child processes behind.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.core.config import EngineConfig, IustitiaConfig
from repro.engine import (
    EngineClosedError,
    QueueSink,
    StagedEngine,
    StatsSink,
)
from repro.runtime import ProcessRuntime


def _label_map(stats):
    return {c.key: c.label for c in stats.classified}


def _cdb_counters(engine):
    """Per-shard CDB lifetime counters, in shard order."""
    return [
        (
            shard.cdb.total_inserted,
            shard.cdb.total_removed_fin,
            shard.cdb.total_removed_inactive,
            shard.cdb.total_removed_reclassified,
        )
        for shard in engine.table.shards
    ]


def _config(extractor="batch", **staging):
    pipeline = IustitiaConfig(
        buffer_size=32, strip_known_headers=(extractor == "batch")
    )
    return EngineConfig(extractor=extractor, pipeline=pipeline, **staging)


class TestProcessSerialEquivalence:
    """Labels and CDB lifetime counters match serial, both extractors."""

    @pytest.mark.parametrize("model", ["trained_cart", "trained_svm"])
    @pytest.mark.parametrize("extractor", ["batch", "incremental"])
    def test_labels_and_cdb_counters_match_serial(
        self, request, model, small_trace, extractor
    ):
        classifier = request.getfixturevalue(model)
        serial = StagedEngine(classifier, _config(extractor, max_batch=8))
        serial_stats = serial.process_trace(small_trace)
        engine = StagedEngine(
            classifier,
            _config(extractor, max_batch=8, runtime="process", num_workers=4),
        )
        with engine:
            stats = engine.process_trace(small_trace)
        assert _label_map(stats) == _label_map(serial_stats)
        assert _cdb_counters(engine) == _cdb_counters(serial)
        assert stats.per_class == serial_stats.per_class
        assert stats.classifications == serial_stats.classifications
        assert stats.unclassifiable == serial_stats.unclassifiable
        assert stats.fin_removals == serial_stats.fin_removals

    @pytest.mark.parametrize("extractor", ["batch", "incremental"])
    def test_sync_equality_at_max_batch_one(
        self, trained_cart, small_trace, extractor
    ):
        """max_batch=1 removes batch-timing skew: exact counter parity."""
        serial = StagedEngine(trained_cart, _config(extractor, max_batch=1))
        serial_stats = serial.process_trace(small_trace, sample_interval=1.0)
        engine = StagedEngine(
            trained_cart,
            _config(extractor, max_batch=1, runtime="process", num_workers=4),
        )
        with engine:
            stats = engine.process_trace(small_trace, sample_interval=1.0)
        assert _label_map(stats) == _label_map(serial_stats)
        assert stats.cdb_hits == serial_stats.cdb_hits
        assert stats.packets == serial_stats.packets
        assert _cdb_counters(engine) == _cdb_counters(serial)
        assert stats.cdb_size_series == serial_stats.cdb_size_series

    def test_sink_order_is_run_to_run_deterministic(
        self, trained_cart, small_trace
    ):
        def run():
            engine = StagedEngine(
                trained_cart,
                _config(max_batch=8, runtime="process", num_workers=4),
                sinks=[StatsSink(), QueueSink()],
            )
            with engine:
                stats = engine.process_trace(small_trace)
                queues = {
                    nature: list(queue)
                    for nature, queue in engine.sinks[1].queues.items()
                }
            order = [c.key for c in stats.classified]
            return order, queues, _cdb_counters(engine)

        assert run() == run()

    def test_backpressure_queue_depth_one(self, trained_cart, small_trace):
        """A 1-deep ingress queue blocks dispatch but never corrupts."""
        serial_stats = StagedEngine(
            trained_cart, _config(max_batch=8)
        ).process_trace(small_trace)
        engine = StagedEngine(
            trained_cart,
            _config(
                max_batch=8, runtime="process", num_workers=2, queue_depth=1
            ),
        )
        with engine:
            stats = engine.process_trace(small_trace)
        assert _label_map(stats) == _label_map(serial_stats)


class TestWorkerCrash:
    def test_killed_worker_raises_and_close_leaves_no_children(
        self, trained_cart, small_trace
    ):
        engine = StagedEngine(
            trained_cart, _config(runtime="process", num_workers=2)
        )
        runtime = engine.runtime
        assert isinstance(runtime, ProcessRuntime)
        workers = list(runtime._procs)
        os.kill(workers[0].pid, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        with pytest.raises(RuntimeError, match="process-runtime worker 0"):
            while time.monotonic() < deadline:
                for packet in small_trace.packets:
                    engine.process_packet(packet)
                engine.flush_timeouts(small_trace.packets[-1].timestamp)
            raise AssertionError("worker death never surfaced")
        engine.close()
        for proc in workers:
            assert not proc.is_alive()
        assert runtime._procs == []
        assert not any(
            child in workers for child in multiprocessing.active_children()
        )

    def test_close_after_crash_is_clean_and_idempotent(self, trained_cart):
        engine = StagedEngine(
            trained_cart, _config(runtime="process", num_workers=2)
        )
        os.kill(engine.runtime._procs[1].pid, signal.SIGKILL)
        engine.close()
        engine.close()
        assert engine.runtime._procs == []


class TestLifecycle:
    def test_close_is_idempotent_and_engine_becomes_readonly(
        self, trained_cart, small_trace
    ):
        engine = StagedEngine(
            trained_cart, _config(runtime="process", num_workers=2)
        )
        with engine:
            stats = engine.process_trace(small_trace)
        engine.close()  # second close: no-op
        assert stats.classifications > 0
        assert engine.stats.classifications == stats.classifications
        with pytest.raises(EngineClosedError, match="closed"):
            engine.process_packet(small_trace.packets[0])
        with pytest.raises(EngineClosedError):
            engine.flush_timeouts(0.0)

    def test_double_finish_raises(self, trained_cart, small_trace):
        with StagedEngine(
            trained_cart, _config(runtime="process", num_workers=2)
        ) as engine:
            engine.process_trace(small_trace)  # ends with finish()
            with pytest.raises(EngineClosedError, match="finish"):
                engine.finish(small_trace.packets[-1].timestamp)
            # Processing another packet re-arms finish().
            engine.process_packet(small_trace.packets[0])
            engine.finish(small_trace.packets[-1].timestamp + 60.0)

    def test_close_flushes_sinks(self, trained_cart, small_trace):
        class FlushingSink:
            def __init__(self):
                self.flushed = 0

            def on_flow_classified(self, outcome, packets):
                pass

            def on_packet(self, label, packet):
                pass

            def flush(self):
                self.flushed += 1

        sink = FlushingSink()
        engine = StagedEngine(
            trained_cart,
            _config(runtime="process", num_workers=2),
            sinks=[sink],
        )
        with engine:
            engine.process_trace(small_trace)
        assert sink.flushed == 1

    def test_metrics_readable_after_close(self, trained_cart, small_trace):
        engine = StagedEngine(
            trained_cart, _config(runtime="process", num_workers=2)
        )
        with engine:
            engine.process_trace(small_trace)
        snap = engine.metrics.snapshot()
        assert sum(snap["engine_classifications_total"].values()) > 0
        assert sum(snap["engine_packets_total"].values()) == len(
            small_trace.packets
        )


class TestBindRejections:
    def test_rejects_random_skip(self, trained_cart):
        config = EngineConfig(
            runtime="process",
            pipeline=IustitiaConfig(buffer_size=32, random_skip_max=16),
        )
        with pytest.raises(ValueError, match="random_skip_max"):
            StagedEngine(trained_cart, config)

    def test_rejects_estimation(self, small_corpus):
        from repro.core.classifier import IustitiaClassifier
        from repro.core.estimation import EntropyEstimator
        from repro.core.features import PHI_SVM_PRIME

        classifier = IustitiaClassifier(
            model="cart",
            buffer_size=32,
            estimator=EntropyEstimator(
                epsilon=0.25, delta=0.75, buffer_size=32,
                features=PHI_SVM_PRIME,
            ),
        ).fit_corpus(small_corpus)
        with pytest.raises(ValueError, match="estimation"):
            StagedEngine(classifier, EngineConfig(runtime="process"))

    def test_rejects_factory_extractor(self, trained_cart):
        from repro.core.extract import EXTRACTORS

        factory = EXTRACTORS["batch"]
        with pytest.raises(ValueError, match="registry-named extractor"):
            StagedEngine(
                trained_cart,
                EngineConfig(runtime="process", extractor=factory),
            )
