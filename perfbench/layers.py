"""Which public calls into ``src/repro`` each workload's traced run spans.

Span names start with the module path in ``src/repro`` the call belongs
to; the per-layer metric of a span is its total self time,
``<span name>.self_s``.  Calls the benchmark makes itself (the attack
report, restores) are spanned where they are made, with the same names.
"""

from __future__ import annotations


def install_serve_spans(tracer) -> None:
    """Server process of ``serve``: wire codec, service, meter, MLE,
    index probe and the DDFS batched dedup-response path.  Every frame
    decode opens a new request (the closed loop keeps one in flight)."""
    from repro.defenses.pipeline import DefensePipeline
    from repro.service import protocol
    from repro.service.meter import SideChannelMeter
    from repro.service.server import DedupService
    from repro.storage.ddfs import DDFSEngine
    from repro.storage.fingerprint_index import OnDiskFingerprintIndex

    decode = "service.protocol.decode"
    encode = "service.protocol.encode"
    tracer.wrap(protocol, "decode_body", decode, starts_request=True)
    tracer.wrap(protocol, "parse_upload", decode)
    tracer.wrap(protocol, "parse_restore", decode)
    tracer.wrap(protocol, "observables_payload", encode)
    tracer.wrap(protocol, "encode_frame", encode)
    tracer.wrap(DedupService, "upload", "service.server.upload")
    tracer.wrap(DedupService, "restore", "service.server.restore")
    tracer.wrap(SideChannelMeter, "observe_upload", "service.meter.observe")
    tracer.wrap(SideChannelMeter, "observe_restore", "service.meter.observe")
    tracer.wrap(DefensePipeline, "encrypt_backup", "defenses.pipeline.encrypt")
    tracer.wrap(
        OnDiskFingerprintIndex,
        "lookup_batch",
        "storage.fingerprint_index.lookup_batch",
    )
    tracer.wrap(DDFSEngine, "prefetch_container", "storage.ddfs.prefetch")
    tracer.wrap(DDFSEngine, "ingest_unique_batch", "storage.ddfs.ingest")


def install_trace_attack_spans(tracer) -> None:
    """``trace-attack``: opening the columnar trace, sharded COUNT,
    vocabulary-level MLE and the locality loop.  The report itself is
    spanned by the caller as ``attacks.sharded.report``."""
    from repro.attacks import sharded
    from repro.attacks.locality import LocalityAttack
    from repro.datasets.columnar import ColumnarTrace

    tracer.wrap(ColumnarTrace, "open", "datasets.columnar.open")
    tracer.wrap(sharded, "sharded_count", "attacks.sharded.count")
    tracer.wrap(
        sharded, "encrypt_vocabulary", "attacks.sharded.encrypt_vocabulary"
    )
    tracer.wrap(LocalityAttack, "run_counted", "attacks.locality.run_counted")


def install_defense_eval_spans(tracer) -> None:
    """``defense-eval``: series encryption per scheme, the per-chunk DDFS
    write path, the evaluator, in-RAM interned COUNT and the locality
    loop.  Restores are spanned by the caller as
    ``storage.restore_sim.simulate_restore``."""
    from repro.attacks import locality
    from repro.attacks.evaluation import AttackEvaluator
    from repro.defenses.pipeline import DefensePipeline
    from repro.storage.ddfs import DDFSEngine

    tracer.wrap(
        DefensePipeline,
        "encrypt_series",
        lambda pipeline, series: (
            f"defenses.pipeline.encrypt_series.{pipeline.scheme.value}"
        ),
    )
    tracer.wrap(DDFSEngine, "process_backup", "storage.ddfs.process_backup")
    tracer.wrap(AttackEvaluator, "run", "attacks.evaluation.run")
    tracer.wrap(locality, "interned_count", "attacks.interning.count")
    tracer.wrap(
        locality.LocalityAttack, "run_counted", "attacks.locality.run_counted"
    )


def spanned(tracer, name: str, function, *args, **kwargs):
    """Call ``function`` inside a span when tracing, plainly otherwise."""
    if tracer is None:
        return function(*args, **kwargs)
    return tracer.call(name, function, *args, **kwargs)
