"""Execution runtimes: how an engine's shard pipelines are driven.

The staged engine's state was split along shard boundaries
(:class:`repro.engine.shard.ShardPipeline`); a *runtime* decides who
executes each pipeline and when:

* :class:`SerialRuntime` (default) drives every shard inline on the
  calling thread, in arrival order — packet-for-packet equivalent to
  the fused engine (proven by the staged-equivalence suite);
* :class:`ProcessRuntime` replicates whole shard pipelines into
  shared-nothing worker *processes* (pending buffers, CDB partition,
  deadline wheel, and fold state all live worker-side) and merges
  compact result frames by global arrival seq, escaping the GIL
  entirely at the cost of a byte-frame IPC boundary.

There is no thread runtime: on a GIL build the per-packet ingest path
serializes, and worker threads measured below serial throughput (see
DESIGN.md "Execution runtime"). A free-threaded build can add one as a
single module that calls :func:`register`.

Selection goes through the **runtime registry**: built-ins register
themselves on import, :func:`register` adds third-party runtimes with
no engine edits, :func:`available` lists what this process can run, and
``EngineConfig(runtime=<name>)`` resolves through :func:`make_runtime`.
A callable ``(engine_config) -> Runtime`` is also accepted directly as
the ``runtime`` field. :data:`RUNTIMES` aliases the live registry
mapping.
"""

from repro.runtime import base as _base
from repro.runtime.base import Runtime, available, make_runtime, register
from repro.runtime.process import ProcessRuntime
from repro.runtime.serial import SerialRuntime

__all__ = [
    "RUNTIMES",
    "ProcessRuntime",
    "Runtime",
    "SerialRuntime",
    "available",
    "make_runtime",
    "register",
]

#: Live name → factory registry (importing a runtime module registers
#: it here; see :func:`repro.runtime.register`).
RUNTIMES = _base._REGISTRY
