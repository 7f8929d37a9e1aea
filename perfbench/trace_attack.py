"""The ``trace-attack`` workload: the advanced locality attack over
on-disk columnar stream traces.

Set-up writes ``TRACES`` seeded two-backup stream traces (seeds
``seed * TRACES + i``) with :func:`~repro.datasets.columnar.synthesize_columnar`.
A pass is one :func:`~repro.attacks.sharded.columnar_attack_report` over
one trace (memory-mapped sharded COUNT in one shard, vocabulary-level
MLE, the attack loop); passes cycle through the traces.
The service and storage layers do no work here.  The attack's iteration
count varies by about ±20% between traces, so a run averages several.

The attack is the advanced (size-aware) one because the plain locality
attack is bimodal on these traces: its single seed pair comes from a
run of chunks tied on frequency, so about one seed in ten pairs
correctly and the loop runs ~250,000 iterations instead of 16, ten
times the pass time.  The advanced attack's size-classified seeding
gives 1,600-2,500 iterations per 250 k-chunk trace on every seed tried.

COUNT runs with ``jobs = 1``, in this process.  On a 2-CPU host,
``jobs = 2`` made a pass about a fifth slower (two worker processes are
forked for each of the two COUNTs) and its time spread half as much
again (quartile distance over median 0.24 against 0.15, over 46
alternating passes), since it then waited on the slower of both CPUs.

Gate: every pass's report equals :class:`~repro.attacks.evaluation.AttackEvaluator`
over the materialized MLE series.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import asdict

from common import PassResult, Workload, ratio, work_dir
from layers import install_trace_attack_spans, spanned

TRACES = 4
CHUNKS = 250_000
BACKUPS = 2
CHURN = 0.05
ATTACK = "advanced"


class TraceAttackWorkload(Workload):
    name = "trace-attack"
    input_sets = TRACES
    jobs = 1

    def __init__(self, seed: int):
        super().__init__(seed)
        self._setups = 0

    def setup(self, traced: bool, index: int):
        from repro.datasets.columnar import StreamConfig, synthesize_columnar

        base = os.path.join(work_dir("trace-attack"), f"{os.getpid()}-{self._setups}")
        self._setups += 1
        directories = []
        for offset in range(TRACES):
            directory = os.path.join(base, str(offset))
            shutil.rmtree(directory, ignore_errors=True)
            synthesize_columnar(
                directory,
                StreamConfig(chunks=CHUNKS, backups=BACKUPS, churn=CHURN),
                seed=self.seed * TRACES + offset,
            )
            directories.append(directory)
        return directories

    def close(self, state) -> None:
        shutil.rmtree(os.path.dirname(state[0]), ignore_errors=True)

    def install_spans(self, tracer) -> None:
        install_trace_attack_spans(tracer)

    def run_pass(self, state, tracer, input_set: int) -> PassResult:
        from repro.attacks.sharded import columnar_attack_report

        started = time.perf_counter()
        report = spanned(
            tracer,
            "attacks.sharded.report",
            columnar_attack_report,
            state[input_set],
            ATTACK,
            jobs=self.jobs,
        )
        wall_s = time.perf_counter() - started
        result = PassResult(
            wall_s=wall_s,
            chunks=CHUNKS,
            latencies_ms=[1000.0 * wall_s],
            attempted=1,
            counts={
                f"trace{input_set}": {
                    "chunks": CHUNKS,
                    "unique_ciphertext_chunks": report.unique_ciphertext_chunks,
                    "iterations": report.iterations,
                    "inferred_pairs": report.inferred_pairs,
                    "correct_pairs": report.correct_pairs,
                }
            },
            outputs={"report": asdict(report)},
            stages={"attacks.attack_s": wall_s},
        )
        return result

    def derived_metrics(self, combined: dict) -> dict:
        # COUNT spans have no child spans, so their self time is their
        # whole time; every report counts both backups of its trace.
        return {
            "attacks.sharded.count_chunks_per_s": ratio(
                TRACES * CHUNKS, combined.get("attacks.sharded.count.self_s", 0.0)
            )
        }

    def gate(self, passes: list[PassResult], state) -> list[str]:
        expected = [in_ram_report(directory) for directory in state]
        return [
            f"pass {index}: columnar report {result.outputs['report']} != "
            f"in-RAM evaluator {expected[result.input_set]}"
            for index, result in enumerate(passes)
            if result.outputs["report"] != expected[result.input_set]
        ]

    def count_metrics(self, groups: dict) -> dict:
        counts = {
            key: sum(group[key] for group in groups.values())
            for key in next(iter(groups.values()))
        }
        return {
            "attacks.locality.iterations": counts["iterations"],
            "attacks.locality.inferred_pairs": counts["inferred_pairs"],
            "attacks.precision": ratio(
                counts["correct_pairs"], counts["inferred_pairs"]
            ),
        }


def in_ram_report(directory: str) -> dict:
    """The reference: the same attack through :class:`AttackEvaluator` over
    the trace's backups materialized in RAM and encrypted with MLE."""
    from repro.attacks.advanced import AdvancedLocalityAttack
    from repro.attacks.evaluation import AttackEvaluator
    from repro.datasets.columnar import ColumnarTrace
    from repro.datasets.model import BackupSeries
    from repro.defenses.pipeline import DefensePipeline, DefenseScheme

    trace = ColumnarTrace.open(directory)
    try:
        series = BackupSeries(
            name="stream-synthetic",
            backups=[view.to_backup() for view in trace.views()],
        )
    finally:
        trace.close()
    encrypted = DefensePipeline(DefenseScheme.MLE).encrypt_series(series)
    return asdict(AttackEvaluator(encrypted).run(AdvancedLocalityAttack(), -2, -1))
