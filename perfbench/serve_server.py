"""Server process of the ``serve`` workload.

Runs the framed frontend (:mod:`repro.service.frontend`) over a fresh
service for one :class:`~repro.service.simulate.ServiceConfig` on a Unix
socket, prints ``ready`` once it listens, serves exactly one connection,
then writes a JSON summary (meter digest, operation counts, peak RSS
and, when traced, per-layer self times and per-request server spans)
and exits.

Usage::

    python3 perfbench/serve_server.py --socket PATH --seed S --trace 0|1 \\
        --out SUMMARY.json

The config is :func:`common.serve_config` of the seed.  A traced server
also writes its spans to ``.perfbench_work/spans/SUMMARY.jsonl``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys

from common import peak_rss_mib, serve_config, work_dir
from layers import install_serve_spans
from tracing import CallCounter, GCRecorder, Tracer

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def meter_digest(meter, service) -> str:
    """Digest of everything the wire adversary and the store saw."""
    import hashlib
    from dataclasses import asdict

    document = {
        "observables": [asdict(record) for record in meter.observables],
        "rounds": [round_index for round_index, _ in meter.upload_records()],
        "stored_bytes": service.stored_bytes,
        "unique_chunks_stored": service.unique_chunks_stored(),
    }
    return hashlib.sha256(
        json.dumps(document, sort_keys=True).encode("utf-8")
    ).hexdigest()


def service_counts(frontend, counter: CallCounter) -> dict[str, int]:
    """Deterministic operation counts of one served stream."""
    service = frontend.service
    engine = service.engine
    uploads = [r for r in frontend.meter.observables if r.kind == "upload"]
    return {
        "uploads": len(uploads),
        "restores": len(frontend.meter.observables) - len(uploads),
        "chunk_records": sum(r.total_chunks for r in uploads),
        "unique_chunk_records": sum(r.unique_chunks for r in uploads),
        "logical_bytes": sum(r.logical_bytes for r in uploads),
        "stored_bytes": service.stored_bytes,
        "metadata_bytes": engine.index.stats.total_bytes,
        "cache_hits": engine.cache.hits,
        "cache_misses": engine.cache.misses,
        "bloom_false_positives": engine.bloom_false_positives,
        "container_loads": counter.counts["container_loads"],
        "errors": sum(frontend.stats.errors.values()),
    }


async def _serve_one(frontend, socket_path: str) -> None:
    finished = asyncio.Event()

    async def handle(reader, writer):
        try:
            await frontend.handle_connection(reader, writer)
        finally:
            finished.set()

    server = await asyncio.start_unix_server(handle, path=socket_path)
    print("ready", flush=True)
    try:
        await finished.wait()
    finally:
        server.close()
        await server.wait_closed()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    from repro.service.frontend import build_frontend
    from repro.storage.container import ContainerStore

    counter = CallCounter()
    counter.count(ContainerStore, "get", "container_loads")
    tracer = gc_recorder = None
    if args.trace:
        tracer = Tracer(run_id=f"serve-server-{args.seed}")
        install_serve_spans(tracer)
        gc_recorder = GCRecorder()

    frontend = build_frontend(serve_config(args.seed))
    if gc_recorder is not None:
        gc_recorder.start()
    try:
        asyncio.run(_serve_one(frontend, args.socket))
    finally:
        if gc_recorder is not None:
            gc_recorder.stop()
        if tracer is not None:
            tracer.restore()
        counter.restore()
        if os.path.exists(args.socket):
            os.unlink(args.socket)

    summary = {
        "digest": meter_digest(frontend.meter, frontend.service),
        "counts": service_counts(frontend, counter),
        "peak_rss_mib": peak_rss_mib(),
    }
    if tracer is not None:
        summary["self_s"] = tracer.self_times()
        summary["requests"] = request_spans(tracer)
        summary.update(gc_recorder.summary())
        summary["spans"] = len(tracer.spans)
        tracer.dump(spans_path(args.out))
    frontend.service.close()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(summary, handle)
    return 0


def spans_path(out: str) -> str:
    """Where a traced server writes its spans, given its summary path."""
    name = os.path.splitext(os.path.basename(out))[0]
    return os.path.join(work_dir("spans"), name + ".jsonl")


def request_spans(tracer: Tracer) -> list[list[float]]:
    """``[server_s, spanned_s]`` of each request frame, in rid order.

    ``server_s`` runs from the start of the request's first span (frame
    decode) to the end of its last (response encode); ``spanned_s`` is
    the part its top-level spans cover, so the rest is the frontend's
    own time (event loop, queue hand-off, admission, counters).  HELLO
    and CLOSE frames are included; the client drops them by position.
    """
    first: dict[int, float] = {}
    last: dict[int, float] = {}
    spanned: dict[int, float] = {}
    for _, _, start, end, parent, rid, _ in tracer.spans:
        if not isinstance(rid, int):
            continue
        if rid not in first or start < first[rid]:
            first[rid] = start
        if rid not in last or end > last[rid]:
            last[rid] = end
        if parent is None:
            spanned[rid] = spanned.get(rid, 0.0) + end - start
    return [
        [last[rid] - first[rid], spanned[rid]] for rid in sorted(first)
    ]


if __name__ == "__main__":
    sys.exit(main())
