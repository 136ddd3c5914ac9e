"""Unit tests for the execution-runtime layer (repro.runtime)."""

from types import SimpleNamespace

import pytest

from repro.core.config import EngineConfig
from repro.engine import StagedEngine
from repro.runtime import (
    RUNTIMES,
    ProcessRuntime,
    SerialRuntime,
    available,
    make_runtime,
    register,
)


def _spec(runtime, num_workers=0, queue_depth=1024):
    """A minimal EngineConfig stand-in for make_runtime."""
    return SimpleNamespace(
        runtime=runtime, num_workers=num_workers, queue_depth=queue_depth
    )


class TestMakeRuntime:
    def test_builtin_names_resolve(self):
        assert isinstance(make_runtime(_spec("serial")), SerialRuntime)
        assert isinstance(make_runtime(_spec("process")), ProcessRuntime)

    def test_registry_covers_builtin_names(self):
        assert set(RUNTIMES) == {"serial", "process"}
        assert available() == ("process", "serial")

    def test_unknown_name_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown runtime 'fiber'"):
            make_runtime(_spec("fiber"))

    def test_non_callable_spec_raises_type_error(self):
        with pytest.raises(TypeError, match="registry name or a factory"):
            make_runtime(_spec(42))

    def test_process_factory_forwards_config_knobs(self):
        # make_runtime does not bind, so no worker process starts.
        runtime = make_runtime(_spec("process", num_workers=3, queue_depth=7))
        assert runtime.num_workers == 3
        assert runtime.queue_depth == 7

    def test_custom_factory_callable(self):
        seen = {}

        def factory(engine_config):
            seen["config"] = engine_config
            return SerialRuntime()

        spec = _spec(factory)
        runtime = make_runtime(spec)
        assert isinstance(runtime, SerialRuntime)
        assert seen["config"] is spec


class TestRegisterApi:
    """repro.runtime.register / available — the third-party entry point."""

    def test_registered_name_resolves_and_lists(self):
        factory = lambda engine_config: SerialRuntime()  # noqa: E731
        register("fiber", factory)
        try:
            assert "fiber" in available()
            assert isinstance(make_runtime(_spec("fiber")), SerialRuntime)
            # EngineConfig validation resolves through the same registry.
            assert EngineConfig(runtime="fiber").runtime == "fiber"
        finally:
            RUNTIMES.pop("fiber", None)

    def test_reregister_same_factory_is_idempotent(self):
        factory = lambda engine_config: SerialRuntime()  # noqa: E731
        register("fiber", factory)
        try:
            register("fiber", factory)
        finally:
            RUNTIMES.pop("fiber", None)

    def test_shadowing_a_registered_name_is_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register("serial", lambda engine_config: SerialRuntime())

    def test_invalid_name_or_factory_rejected(self):
        with pytest.raises(ValueError, match="non-empty string"):
            register("", lambda engine_config: SerialRuntime())
        with pytest.raises(TypeError, match="callable"):
            register("fiber2", "not-a-factory")

    def test_unknown_name_error_lists_available(self):
        with pytest.raises(ValueError, match="process, serial"):
            make_runtime(_spec("fiber"))


class TestEngineIntegration:
    def test_custom_factory_through_engine_config(self, trained_svm):
        calls = []

        def factory(engine_config):
            calls.append(engine_config)
            return SerialRuntime()

        engine_config = EngineConfig(runtime=factory)
        engine = StagedEngine(trained_svm, engine_config)
        assert isinstance(engine.runtime, SerialRuntime)
        assert calls == [engine_config]

    def test_engine_batcher_view_tracks_runtime_batchers(self, trained_svm):
        serial = StagedEngine(trained_svm)
        assert list(serial.batcher._parts) == serial.runtime.batchers()
        assert len(serial.runtime.batchers()) == 1

    def test_serial_runtime_close_is_noop(self, trained_svm):
        engine = StagedEngine(trained_svm)
        engine.close()
        engine.close()
