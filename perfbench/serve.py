"""The ``serve`` workload: a closed loop over the framed socket frontend.

The seed draws ``POPULATIONS`` independent tenant populations (traffic
seeds ``seed * POPULATIONS + i``).  One population's template library
sets most of its upload sizes, so a single population makes a run's
numbers depend on the seed's luck; averaging over several keeps runs of
different seeds comparable.

Set-up synthesizes one population's :class:`~repro.service.traffic.TrafficModel`
stream, encodes every request frame in stream order, and starts the
frontend in its own process (``serve_server.py``) on a Unix socket.  The
timed pass is one client process on one connection sending each frame
after the previous response arrived.  Every pass gets a fresh server,
so every pass is also one set-up sample; passes cycle through the
populations.

Gate: no request fails, and every pass's meter digest equals the
digest of the in-process simulator (:func:`repro.service.simulate.simulate`)
for the same config.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time

from common import (
    SERVE_ROUNDS,
    SERVE_TENANTS,
    PassResult,
    Workload,
    ratio,
    serve_config,
    work_dir,
)
from serve_server import meter_digest

HERE = os.path.dirname(os.path.abspath(__file__))
POPULATIONS = 8
SERVER_TIMEOUT_S = 120.0
READY_TIMEOUT_S = 60.0


class ServeWorkload(Workload):
    name = "serve"
    reuse_state = False
    in_process = False
    input_sets = POPULATIONS

    def __init__(self, seed: int):
        super().__init__(seed)
        self._servers = 0

    def config(self, population: int):
        return serve_config(self.seed * POPULATIONS + population)

    def setup(self, traced: bool, index: int):
        from repro.service import protocol as wire
        from repro.service.traffic import UPLOAD, TrafficConfig, TrafficModel

        population = index
        # The simulator derives the same TrafficConfig from the same
        # ServiceConfig defaults; the gate's digest proves they agree.
        traffic = TrafficConfig(tenants=SERVE_TENANTS, rounds=SERVE_ROUNDS)
        model = TrafficModel(seed=self.config(population).seed, config=traffic)
        frames = []
        for request in model.requests():
            if request.kind == UPLOAD:
                frame = wire.encode_frame(
                    wire.UPLOAD_BATCH,
                    wire.upload_payload(
                        request.tenant, request.round, request.label, request.backup
                    ),
                )
                frames.append((len(request.backup), frame))
            else:
                frame = wire.encode_frame(
                    wire.RESTORE,
                    wire.restore_payload(request.tenant, request.restore_label),
                )
                frames.append((None, frame))
        return {
            "population": population,
            "frames": frames,
            **self._launch(traced, population),
        }

    def _launch(self, traced: bool, population: int) -> dict:
        base = os.path.join(
            work_dir(), f"serve-seed{self.seed}-{os.getpid()}-{self._servers}"
        )
        paths = {"socket": base + ".sock", "out": base + ".json"}
        for path in paths.values():
            if os.path.exists(path):
                os.unlink(path)
        command = [
            sys.executable,
            os.path.join(HERE, "serve_server.py"),
            "--socket", paths["socket"],
            "--seed", str(self.config(population).seed),
            "--trace", "1" if traced else "0",
            "--out", paths["out"],
        ]
        self._servers += 1
        process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([process.stdout], [], [], READY_TIMEOUT_S)
        line = process.stdout.readline() if ready else ""
        state = {"process": process, **paths}
        if line.strip() != "ready":
            self.close(state)
            raise RuntimeError(f"serve server did not start: {line!r}")
        return state

    def close(self, state) -> None:
        process = state["process"]
        if process.poll() is None:
            process.kill()
        process.wait()
        process.stdout.close()
        if os.path.exists(state["socket"]):
            os.unlink(state["socket"])

    def run_pass(self, state, tracer, input_set: int) -> PassResult:
        from repro.service import protocol as wire
        from repro.service.loadgen import FrontendClient

        perf = time.perf_counter
        upload_ms: list[float] = []
        latencies: list[float] = []
        failed = 0
        chunks = 0
        client = FrontendClient(("unix", state["socket"]))
        try:
            client.hello("perfbench")
            started = perf()
            for num_chunks, frame in state["frames"]:
                sent = perf()
                client.send_raw(frame)
                kind, _ = client.recv_frame()
                latency = perf() - sent
                latencies.append(latency)
                if tracer is not None:
                    # rid 0 is the HELLO, as on the server.
                    tracer.record(
                        "service.client.request", sent, sent + latency, len(latencies)
                    )
                if kind != wire.OK:
                    failed += 1
                if num_chunks is not None:
                    upload_ms.append(1000.0 * latency)
                    chunks += num_chunks
            wall_s = perf() - started
        finally:
            client.close()
        state["process"].wait(timeout=SERVER_TIMEOUT_S)
        summary = self._read_summary(state)
        result = PassResult(
            wall_s=wall_s,
            chunks=chunks,
            latencies_ms=upload_ms,
            attempted=len(latencies),
            failed=failed,
            peak_rss_mib=summary["peak_rss_mib"],
            counts={f"population{state['population']}": summary["counts"]},
            outputs={"population": state["population"], "digest": summary["digest"]},
        )
        if tracer is not None:
            result.layer = self._layer_metrics(latencies, summary)
        return result

    @staticmethod
    def _read_summary(state: dict) -> dict:
        returncode = state["process"].returncode
        if returncode != 0 or not os.path.exists(state["out"]):
            raise RuntimeError(f"serve server exited with {returncode}")
        with open(state["out"], encoding="utf-8") as handle:
            summary = json.load(handle)
        os.unlink(state["out"])
        return summary

    @staticmethod
    def _layer_metrics(latencies: list[float], summary: dict) -> dict:
        # rid 0 is HELLO and the last rid is CLOSE; the rest line up with
        # the frames in stream order.
        requests = summary["requests"][1 : 1 + len(latencies)]
        layer = {f"{name}.self_s": value for name, value in summary["self_s"].items()}
        layer["service.frontend.wait_s"] = sum(
            client - server for client, (server, _) in zip(latencies, requests)
        )
        layer["service.frontend.self_s"] = sum(
            server - spanned for server, spanned in requests
        )
        for key in ("python.gc.gen2_pauses", "python.gc.pause_s", "python.gc.max_pause_ms"):
            layer[key] = summary[key]
        layer["trace.spans"] = summary["spans"]
        return layer

    def gate(self, passes: list[PassResult], state) -> list[str]:
        from repro.service.simulate import simulate

        # Failed requests are counted per pass (PassResult.failed).
        expected = {}
        for population in sorted({result.outputs["population"] for result in passes}):
            trace = simulate(self.config(population))
            expected[population] = meter_digest(trace.meter, trace.service)
            simulate.cache_clear()
        return [
            f"pass {index}: served meter digest differs from the in-process "
            f"simulator (population {result.outputs['population']})"
            for index, result in enumerate(passes)
            if result.outputs["digest"] != expected[result.outputs["population"]]
        ]

    def count_metrics(self, groups: dict) -> dict:
        counts = {
            key: sum(group[key] for group in groups.values())
            for key in next(iter(groups.values()))
        }
        chunks = counts["chunk_records"]
        return {
            "index.cache.hits": counts["cache_hits"],
            "index.cache.misses": counts["cache_misses"],
            "index.cache.hit_rate": ratio(
                counts["cache_hits"], counts["cache_hits"] + counts["cache_misses"]
            ),
            "index.bloom.false_positives": counts["bloom_false_positives"],
            "storage.ddfs.container_loads_per_chunk": ratio(
                counts["container_loads"], chunks
            ),
            "storage.metadata_bytes_per_chunk": ratio(counts["metadata_bytes"], chunks),
            "storage.stored_per_logical": ratio(
                counts["stored_bytes"], counts["logical_bytes"]
            ),
            "service.unique_fraction": ratio(counts["unique_chunk_records"], chunks),
            "service.error_rate": ratio(
                counts["errors"], counts["uploads"] + counts["restores"]
            ),
        }
