"""Benchmark inputs: the model, each workload's capture and its reference.

Everything is generated once and cached under :data:`CACHE`, keyed
by the generator parameters (and the seed, for captures). Each artifact
has a manifest holding its SHA-256, checked before every use; a missing
or mismatching artifact is rebuilt by running this module in a child
process, so that generation never runs inside (or leaves garbage in) the
measuring process.

* The model is the library default: ``repro.train`` (SVM-RBF over
  phi'_SVM, b=32) on ``repro.build_corpus(per_class=80, seed=2009)``,
  the ``iustitia train`` defaults.
* ``gateway``: the default ``generate_gateway_trace()`` (seed 2009) is
  generated once; the workload seed re-keys every flow's addresses and
  source port, which changes flow hashes, shard placement and table
  layout while keeping the trace's payloads, sizes and timing.
* ``flood`` draws payloads from a fixed pool of corpus-generator content
  (text, binary, encrypted) and everything else (flow keys, sizes,
  offsets, timing) from the seed.

Run ``python3 -m perfbench.inputs --workload W --seed S`` (with ``src``
and the repository root on ``PYTHONPATH``) to build one workload's inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".perfbench_cache"

#: Bump when a generator below changes what it writes for the same key.
INPUT_VERSION = 1

MODEL_PARAMS = {"model": "svm", "buffer_size": 32, "per_class": 80, "seed": 2009}

#: Content pool for flood payloads: files per nature, bytes per file.
POOL_PARAMS = {"files": 64, "size": 4096, "seed": 2009}

SCALES = {
    "full": {
        "gateway": {},  # GatewayTraceConfig defaults: 2,000 flows
        "flood": {"flows": 30000, "span": 30.0, "payload": [16, 48]},
    },
    "tiny": {
        "gateway": {"n_flows": 40},
        "flood": {"flows": 600, "span": 30.0, "payload": [16, 48]},
    },
}

#: Class mix of generated flows (text, binary, encrypted), as in the
#: gateway trace generator.
NATURE_WEIGHTS = (0.35, 0.45, 0.20)


class Inputs(NamedTuple):
    model: Path
    capture: Path
    reference: Path


def _key(params: dict) -> str:
    blob = json.dumps({"v": INPUT_VERSION, **params}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class _Artifact(NamedTuple):
    path: Path
    params: dict

    @property
    def manifest(self) -> Path:
        return self.path.with_name(self.path.name + ".sha256.json")

    def digest(self) -> "str | None":
        """The recorded digest when the file matches it, else None."""
        try:
            recorded = json.loads(self.manifest.read_text())["sha256"]
        except (OSError, ValueError, KeyError):
            return None
        if not self.path.is_file() or sha256_of(self.path) != recorded:
            return None
        return recorded

    def build(self, write) -> str:
        """Write the artifact through ``write(tmp_path)``; record its digest."""
        tmp = self.path.with_name(self.path.name + ".tmp")
        write(tmp)
        os.replace(tmp, self.path)
        digest = sha256_of(self.path)
        self.manifest.write_text(
            json.dumps({"sha256": digest, "params": self.params}, indent=1)
        )
        return digest


def _artifacts(workload: str, seed: int, scale: str) -> dict:
    """Every artifact one workload run needs, keyed by role."""
    gen = SCALES[scale][workload]
    model = _Artifact(CACHE / f"model-{_key(MODEL_PARAMS)}.json", MODEL_PARAMS)
    out = {"model": model}
    if workload == "gateway":
        base_params = {"gateway": gen}
        out["base"] = _Artifact(
            CACHE / f"gateway-base-{_key(base_params)}.pcap", base_params
        )
    else:
        out["pool"] = _Artifact(CACHE / f"pool-{_key(POOL_PARAMS)}.bin", POOL_PARAMS)
    cap_params = {"workload": workload, "seed": seed, "gen": gen}
    out["capture"] = _Artifact(
        CACHE / f"{workload}-s{seed}-{_key(cap_params)}.pcap", cap_params
    )
    return out


def _reference_artifact(capture: _Artifact, model_digest: str, capture_digest: str):
    params = {"model": model_digest, "capture": capture_digest}
    return _Artifact(
        capture.path.with_name(f"{capture.path.stem}-ref-{_key(params)}.json"),
        params,
    )


def ensure_inputs(workload: str, seed: int, scale: str = "full") -> Inputs:
    """Digest-checked paths of a run's inputs, building what is missing."""
    for attempt in range(2):
        arts = _artifacts(workload, seed, scale)
        model_digest = arts["model"].digest()
        capture_digest = arts["capture"].digest()
        if model_digest and capture_digest:
            ref = _reference_artifact(arts["capture"], model_digest, capture_digest)
            if ref.digest():
                return Inputs(arts["model"].path, arts["capture"].path, ref.path)
        if attempt:
            break
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        subprocess.run(
            [
                sys.executable, "-m", "perfbench.inputs",
                "--workload", workload, "--seed", str(seed),
                "--scale", scale,
            ],
            check=True, env=env, cwd=ROOT, stdout=sys.stderr,
        )
    raise RuntimeError(f"inputs for {workload} seed {seed} failed their digest check")


# -- generation (runs in the child process) ---------------------------------


def _build_model(path: Path) -> None:
    import repro

    corpus = repro.build_corpus(
        per_class=MODEL_PARAMS["per_class"], seed=MODEL_PARAMS["seed"]
    )
    classifier = repro.train(
        corpus, model=MODEL_PARAMS["model"], buffer_size=MODEL_PARAMS["buffer_size"]
    )
    repro.save_model(classifier, path)


def _build_pool(path: Path) -> None:
    from repro.data.binarygen import generate_binary_file
    from repro.data.cryptogen import generate_encrypted_file
    from repro.data.textgen import generate_text_file

    rng = np.random.default_rng(POOL_PARAMS["seed"])
    size = POOL_PARAMS["size"]
    with open(path, "wb") as handle:
        for generate in (generate_text_file, generate_binary_file, generate_encrypted_file):
            for _ in range(POOL_PARAMS["files"]):
                data = generate(size, rng)
                handle.write(data[:size].ljust(size, b"\0"))


def _load_pool(path: Path) -> np.ndarray:
    """(nature, file, byte) array of pool content."""
    flat = np.frombuffer(path.read_bytes(), dtype=np.uint8)
    return flat.reshape(3, POOL_PARAMS["files"], POOL_PARAMS["size"])


def _build_gateway_base(path: Path, gen: dict) -> None:
    from repro.net.pcap import write_pcap
    from repro.net.tracegen import GatewayTraceConfig, generate_gateway_trace

    trace = generate_gateway_trace(GatewayTraceConfig(**gen))
    write_pcap(path, trace.packets)


class _KeyMinter:
    """Seeded, collision-free 5-tuples in the gateway trace's address plan."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.used: set = set()

    def address(self, inside: bool) -> str:
        a, b, c = (int(v) for v in self.rng.integers(0, 256, size=3))
        c = max(c, 1) if c < 255 else 254
        return f"10.{a}.{b}.{c}" if inside else f"192.168.{b}.{c}"

    def mint(self, src_inside: bool, dst_port: int, protocol: int):
        while True:
            src = self.address(src_inside)
            dst = self.address(not src_inside)
            sport = int(self.rng.integers(1024, 65536))
            key = (src, sport, dst, dst_port, protocol)
            if key not in self.used:
                self.used.add(key)
                return key


def _build_gateway(path: Path, base: Path, seed: int) -> None:
    from repro.net.pcap import iter_pcap, write_pcap

    minter = _KeyMinter(np.random.default_rng(seed))
    remap: dict = {}

    def rekeyed():
        for packet in iter_pcap(base):
            old = packet.five_tuple
            new = remap.get(old)
            if new is None:
                new = remap[old] = minter.mint(
                    old[0].startswith("10."), old[3], old[4]
                )
            src, sport, dst, dport, _ = new
            yield replace(
                packet,
                ip=replace(packet.ip, src=src, dst=dst),
                transport=replace(packet.transport, src_port=sport, dst_port=dport),
            )

    write_pcap(path, rekeyed())


def _payload(pool, rng, nature: int, length: int) -> bytes:
    """``length`` bytes of one pool file from a random offset (wrapping)."""
    data = pool[nature, int(rng.integers(0, pool.shape[1]))]
    start = int(rng.integers(0, data.size))
    reps = -(-(start + length) // data.size)
    return np.tile(data, reps)[start : start + length].tobytes()


def _build_flood(path: Path, pool: np.ndarray, seed: int, gen: dict) -> None:
    from repro.net.packet import PROTO_UDP, Ipv4Header, Packet, UdpHeader
    from repro.net.pcap import write_pcap

    rng = np.random.default_rng(seed)
    minter = _KeyMinter(rng)
    n = gen["flows"]
    times = np.sort(rng.uniform(0.0, gen["span"], size=n))
    natures = rng.choice(3, size=n, p=NATURE_WEIGHTS)
    low, high = gen["payload"]
    packets = []
    for ts, nature in zip(times, natures):
        src, sport, dst, dport, proto = minter.mint(
            bool(rng.random() < 0.5), int(rng.integers(1024, 65536)), PROTO_UDP
        )
        payload = _payload(pool, rng, int(nature), int(rng.integers(low, high)))
        packets.append(
            Packet(
                ip=Ipv4Header(src=src, dst=dst, protocol=proto),
                transport=UdpHeader(
                    src_port=sport, dst_port=dport,
                    length=UdpHeader.HEADER_LEN + len(payload),
                ),
                payload=payload,
                timestamp=float(ts),
            )
        )
    write_pcap(path, packets)


def _build_reference(path: Path, capture: Path, model: Path) -> None:
    import repro

    from perfbench.reference import build_reference

    pipeline = repro.EngineConfig().pipeline
    if pipeline.header_threshold or pipeline.random_skip_max:
        raise ValueError("the reference rule assumes no threshold or random skip")
    data = build_reference(
        capture,
        repro.load_model(model),
        buffer_size=pipeline.buffer_size,
        buffer_timeout=pipeline.buffer_timeout,
        strip_known_headers=pipeline.strip_known_headers,
    )
    path.write_text(json.dumps(data))


def build_missing(workload: str, seed: int, scale: str) -> None:
    CACHE.mkdir(parents=True, exist_ok=True)
    # The seed-independent inputs of every workload are built together, so
    # the slow ones (the gateway trace, ~2 minutes) land in whichever run
    # comes first and no later run pays for them.
    builders = {
        "model": _build_model,
        "pool": _build_pool,
        "base": lambda p: _build_gateway_base(p, SCALES[scale]["gateway"]),
    }
    for other in SCALES[scale]:
        for role, art in _artifacts(other, seed, scale).items():
            if role in builders and not art.digest():
                art.build(builders[role])
    arts = _artifacts(workload, seed, scale)
    gen = SCALES[scale][workload]
    model_digest = arts["model"].digest()
    if workload == "gateway":
        base = arts["base"]

        def write_capture(p):
            _build_gateway(p, base.path, seed)
    else:
        pool = _load_pool(arts["pool"].path)

        def write_capture(p):
            _build_flood(p, pool, seed, gen)

    capture = arts["capture"]
    capture_digest = capture.digest() or capture.build(write_capture)
    ref = _reference_artifact(capture, model_digest, capture_digest)
    ref.digest() or ref.build(
        lambda p: _build_reference(p, capture.path, arts["model"].path)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SCALES["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full", choices=sorted(SCALES))
    args = parser.parse_args(argv)
    build_missing(args.workload, args.seed, args.scale)
    return 0


if __name__ == "__main__":
    sys.exit(main())
