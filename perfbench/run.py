"""The repository benchmark: one workload, measured, checked, reported.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve --seed 0 --seconds 20 --trace 0

Workloads: ``serve``, ``trace-attack``, ``defense-eval`` (see README.md
in this directory).  The seed makes the workload's inputs; the program
only receives those inputs.  A run sets the workload up at least
``MIN_SETUPS`` times, spread over the run (``setup_s`` is the median),
repeats the timed pass until ``--seconds`` of passes have run and every
input set has run, then checks every pass's output.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, prints the per-layer metrics (self time of
each spanned call, operation counts, GC pauses) and the tracing
overhead, and writes the spans to ``.perfbench_work/spans``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The deterministic
operation counts must repeat exactly between passes and between runs of
one seed on the same sources; a full record of the run, with provenance,
goes to ``.perfbench_work/results``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_SETUPS = 5


def declaration() -> dict:
    """``BENCHMARK.json``: the workloads, and every metric's name and unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def make_workload(name: str, seed: int):
    if name == "serve":
        from serve import ServeWorkload

        return ServeWorkload(seed)
    if name == "trace-attack":
        from trace_attack import TraceAttackWorkload

        return TraceAttackWorkload(seed)
    from defense_eval import DefenseEvalWorkload

    return DefenseEvalWorkload(seed)


# -- measuring ----------------------------------------------------------------


def _setup(workload, traced: bool, index: int, setups: list[float]):
    started = time.perf_counter()
    state = workload.setup(traced, index)
    setups.append(time.perf_counter() - started)
    return state


def _run_pass(workload, state, traced: bool, input_set: int, number: int):
    from common import peak_rss_mib, reset_peak_rss, work_dir
    from tracing import GCRecorder, Tracer

    # Start every pass from a collected heap: the attacks' count stats
    # hold numpy arrays in reference cycles that only a full collection
    # frees, so without this the process grows ~16 MB per trace-attack
    # pass until gen-2 GC runs, and a pass's peak RSS and GC pauses would
    # depend on how many passes came before it.
    gc.collect()
    tracer = recorder = None
    if traced:
        tracer = Tracer(run_id=f"{workload.name}-{workload.seed}-{number}")
        workload.install_spans(tracer)
        if workload.in_process:
            recorder = GCRecorder()
            recorder.start()
    reset_peak_rss()
    try:
        result = workload.run_pass(state, tracer, input_set)
    finally:
        if recorder is not None:
            recorder.stop()
        if tracer is not None:
            tracer.restore()
    result.input_set = input_set
    if not result.peak_rss_mib:
        result.peak_rss_mib = peak_rss_mib()
    if tracer is not None:
        if recorder is not None:
            for name, seconds in tracer.self_times().items():
                result.layer[f"{name}.self_s"] = seconds
            result.layer.update(recorder.summary())
            result.layer["trace.spans"] = len(tracer.spans)
        tracer.dump(
            os.path.join(
                work_dir("spans"),
                f"{workload.name}-seed{workload.seed}-pass{number}-{os.getpid()}.jsonl",
            )
        )
    return result


def measure(workload, seconds: float, trace: bool) -> dict:
    """Set up, run passes for ``seconds``, then gate the outputs.

    Pass ``i`` runs input set ``i % workload.input_sets``; every input
    set runs at least once.  With ``trace`` every untraced pass is
    followed by a traced pass over the same input set.  A shared state
    is set up again each time another ``seconds / MIN_SETUPS`` of passes
    has run, so the set-ups sample the host across the run, as the
    passes do, and not only at its start.
    """
    setups: list[float] = []
    untraced, traced = [], []
    state = None
    if workload.reuse_state:
        state = _setup(workload, False, 0, setups)
    measured = 0.0
    while True:
        traced_pass = trace and len(untraced) > len(traced)
        input_set = (len(traced) if traced_pass else len(untraced)) % workload.input_sets
        if not workload.reuse_state:
            state = _setup(workload, traced_pass, input_set, setups)
        try:
            result = _run_pass(
                workload, state, traced_pass, input_set, len(untraced) + len(traced)
            )
        finally:
            if not workload.reuse_state:
                workload.close(state)
                state = None
        (traced if traced_pass else untraced).append(result)
        measured += result.wall_s
        if (
            workload.reuse_state
            and len(setups) < MIN_SETUPS
            and measured >= len(setups) * seconds / MIN_SETUPS
        ):
            workload.close(state)
            state = _setup(workload, False, 0, setups)
        if (
            measured >= seconds
            and len(untraced) >= workload.input_sets
            and len(traced) == (len(untraced) if trace else 0)
        ):
            break
    while len(setups) < MIN_SETUPS:
        workload.close(_setup(workload, False, len(setups), setups))

    passes = untraced + traced
    try:
        failures = workload.gate(passes, state)
    finally:
        if state is not None:
            workload.close(state)
    groups: dict[str, dict] = {}
    for number, result in enumerate(passes):
        for key, counts in result.counts.items():
            if groups.setdefault(key, counts) != counts:
                failures.append(
                    f"pass {number}: operation counts of {key} differ from an "
                    "earlier pass"
                )
    return {
        "setups": setups,
        "untraced": untraced,
        "traced": traced,
        "counts": dict(sorted(groups.items())),
        "failures": failures,
    }


# -- metrics ------------------------------------------------------------------


def per_set_sum(passes, value) -> float:
    """Sum over input sets of the median of ``value(pass)`` over that
    set's passes: the figure for one run over every input set, robust to
    a pass slowed by a burst of load on the host."""
    by_set: dict[int, list[float]] = {}
    for result in passes:
        by_set.setdefault(result.input_set, []).append(value(result))
    return sum(median(values) for values in by_set.values())


def end_to_end_metrics(run: dict) -> dict[str, float]:
    from common import percentile

    passes = run["untraced"]
    latencies = [ms for result in passes for ms in result.latencies_ms]
    wall_s = per_set_sum(passes, lambda result: result.wall_s)
    chunks = {result.input_set: result.chunks for result in passes}
    return {
        "setup_s": median(run["setups"]),
        "wall_s": wall_s,
        "peak_rss_mib": median(result.peak_rss_mib for result in passes),
        "chunks_per_s": sum(chunks.values()) / wall_s,
        "request_p50_ms": percentile(latencies, 0.50),
        "request_p99_ms": percentile(latencies, 0.99),
    }


def per_layer_metrics(workload, run: dict, names: list[str]) -> dict[str, float]:
    """Per-layer figures for one run over every input set: per-set
    medians summed over sets (GC's longest pause: the largest), then the
    workload's derived rates, then the operation counts.  A metric of a
    layer the workload does not call reads 0."""
    combined: dict[str, float] = {}
    for passes, field in ((run["traced"], "layer"), (run["untraced"], "stages")):
        present = {name for result in passes for name in getattr(result, field)}
        for name in present:
            with_name = [r for r in passes if name in getattr(r, field)]
            if name == "python.gc.max_pause_ms":
                combined[name] = max(getattr(r, field)[name] for r in with_name)
            else:
                combined[name] = per_set_sum(
                    with_name, lambda result: getattr(result, field)[name]
                )
    combined.update(workload.derived_metrics(combined))
    combined.update(workload.count_metrics(run["counts"]))
    # Traced pass i and untraced pass i ran the same input set.
    combined["trace.overhead_s"] = per_set_sum(
        run["traced"], lambda result: result.wall_s
    ) - per_set_sum(run["untraced"][: len(run["traced"])], lambda result: result.wall_s)
    return {name: combined.get(name, 0.0) for name in names}


# -- provenance and the count record -------------------------------------------


def source_digest() -> str:
    """Digest of the program sources and the benchmark's own files."""
    digest = hashlib.sha256()
    for top in (os.path.join(SRC, "repro"), HERE):
        for directory, subdirectories, files in os.walk(top):
            subdirectories.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    digest.update(os.path.relpath(path, ROOT).encode("utf-8"))
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()


def provenance(args, workload, digest: str) -> dict:
    from repro.analysis.benchmeta import metadata_envelope

    envelope = metadata_envelope()
    envelope.update(
        {
            "nproc": os.cpu_count(),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "jobs": workload.jobs,
            "source_digest": digest,
        }
    )
    return envelope


def check_count_record(args, digest: str, counts: dict) -> list[str]:
    """Counts must repeat exactly across runs of one seed on one source
    tree: the first run records them, later runs compare."""
    from common import work_dir

    path = os.path.join(
        work_dir("counts"), f"{args.workload}-seed{args.seed}-{digest[:16]}.json"
    )
    recorded = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            recorded = json.load(handle)
    failures = []
    for key, group in json.loads(json.dumps(counts)).items():
        if recorded.setdefault(key, group) != group:
            failures.append(f"operation counts of {key} differ from {path}")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, sort_keys=True)
    return failures


# -- entry point ----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    declared = declaration()
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument(
        "--workload",
        required=True,
        choices=[workload["name"] for workload in declared["workloads"]],
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(declared["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            "perfbench: the program sources (src/repro) are missing; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)

    from common import work_dir

    workload = make_workload(args.workload, args.seed)
    run = measure(workload, args.seconds, bool(args.trace))
    digest = source_digest()
    counts = run["counts"]
    failures = run["failures"] + check_count_record(args, digest, counts)

    listed = declared["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        values = per_layer_metrics(workload, run, [m["name"] for m in listed])
    else:
        values = end_to_end_metrics(run)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    passes = run["untraced"] + run["traced"]
    attempted = sum(result.attempted for result in passes)
    failed = sum(result.failed for result in passes) + len(failures)

    record = {
        "provenance": provenance(args, workload, digest),
        "metrics": metrics,
        "counts": counts,
        "setups_s": run["setups"],
        "untraced_wall_s": [result.wall_s for result in run["untraced"]],
        "traced_wall_s": [result.wall_s for result in run["traced"]],
        "failures": failures,
    }
    path = os.path.join(
        work_dir("results"),
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json",
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)

    for failure in failures:
        print(f"FAIL {failure}")
    if failed > len(failures):
        print(f"FAIL {failed - len(failures)} requests failed")
    print(f"provenance {json.dumps(record['provenance'], sort_keys=True)}")
    print(f"counts {json.dumps(counts, sort_keys=True)}")
    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:>16.6f} {metric['unit']}")
    print(f"record {path}")
    print(
        json.dumps(
            {
                "correct": not failures and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if not failures and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
