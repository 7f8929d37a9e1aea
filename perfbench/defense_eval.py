"""The ``defense-eval`` workload: the paper's evaluation loop.

Set-up generates ``SERIES`` seeded FSL-like backup series (generator
seeds ``seed * SERIES + i``, ``USERS`` users with ``FILES_PER_USER``
files each, half the generator's default) and cuts every backup to its
first ``BACKUP_CHUNKS`` chunks.  The generator's series length varies
about twofold between seeds (every backup of seeds 100-139 had at least
5,583 chunks), and the attacks' work varies with each series' content;
the cut and the average over several series keep runs of different
seeds comparable.

A pass, the one request of this workload, evaluates every series in
turn; a request that covers every series keeps its latency free of
the differences between series.  For each series and each of ``mle``
and ``combined`` it runs:

1. encrypt the series (:meth:`~repro.defenses.pipeline.DefensePipeline.encrypt_series`);
2. ingest it into a fresh :class:`~repro.storage.ddfs.DDFSEngine` through
   the per-chunk S1-S4 path, at the 4 MiB-scaled cache budget, which
   holds every fingerprint of the series;
3. restore every backup (:func:`~repro.storage.restore_sim.simulate_restore`);
4. run the locality and advanced locality attacks on the last two
   backups through :class:`~repro.attacks.evaluation.AttackEvaluator`.

Gate: every attack report equals the report of an oracle subclass that
counts with :func:`~repro.attacks.frequency.count_with_neighbors`, and
each engine stores exactly one chunk per distinct ciphertext fingerprint.
"""

from __future__ import annotations

import time
from dataclasses import asdict

from common import PassResult, Workload, ratio
from layers import install_defense_eval_spans, spanned
from tracing import CallCounter

SERIES = 8
USERS = 3
FILES_PER_USER = 55
BACKUP_CHUNKS = 5_000
SCHEMES = ("mle", "combined")
ATTACKS = ("locality", "advanced")
BLOOM_CAPACITY = 200_000


def build_attack(name: str, oracle: bool = False):
    from repro.attacks.advanced import AdvancedLocalityAttack
    from repro.attacks.frequency import count_with_neighbors
    from repro.attacks.locality import LocalityAttack

    base = LocalityAttack if name == "locality" else AdvancedLocalityAttack
    if not oracle:
        return base()

    class OracleAttack(base):
        """Counts with the reference dict COUNT instead of the interned one."""

        def _count(self, backup):
            return count_with_neighbors(backup)

    return OracleAttack()


def generate_series(seed: int):
    """One FSL-like series with every backup cut to ``BACKUP_CHUNKS``."""
    from repro.datasets.fsl import FSLConfig, FSLDatasetGenerator
    from repro.datasets.model import Backup, BackupSeries

    series = FSLDatasetGenerator(
        seed=seed, config=FSLConfig(num_users=USERS, files_per_user=FILES_PER_USER)
    ).generate()
    return BackupSeries(
        name=f"{series.name}-{seed}",
        chunking=series.chunking,
        backups=[
            Backup(
                label=backup.label,
                fingerprints=backup.fingerprints[:BACKUP_CHUNKS],
                sizes=backup.sizes[:BACKUP_CHUNKS],
            )
            for backup in series.backups
        ],
    )


class DefenseEvalWorkload(Workload):
    name = "defense-eval"

    def setup(self, traced: bool, index: int):
        from repro.analysis.workloads import scaled_segmentation

        inputs = []
        for offset in range(SERIES):
            series = generate_series(self.seed * SERIES + offset)
            inputs.append((series, scaled_segmentation(series)))
        return inputs

    def install_spans(self, tracer) -> None:
        install_defense_eval_spans(tracer)

    def run_pass(self, state, tracer, input_set: int) -> PassResult:
        from repro.storage.container import ContainerStore

        counter = CallCounter()
        counter.count(ContainerStore, "get", "container_loads")
        counts = {}
        stages = dict.fromkeys(("ingest", "restore", "attack"), 0.0)
        wall_s = 0.0
        try:
            for number, (series, segmentation) in enumerate(state):
                by_scheme, series_stages, series_wall_s = self._evaluate(
                    series, segmentation, tracer, counter
                )
                for scheme, group in by_scheme.items():
                    counts[f"series{number}/{scheme}"] = group
                for stage in stages:
                    stages[stage] += series_stages[stage]
                wall_s += series_wall_s
        finally:
            counter.restore()

        records = sum(
            len(backup) for series, _ in state for backup in series.backups
        ) * len(SCHEMES)
        return PassResult(
            wall_s=wall_s,
            chunks=records,
            latencies_ms=[1000.0 * wall_s],
            attempted=1,
            counts=counts,
            stages={
                "records": records,
                "ingest_s": stages["ingest"],
                "restore_s": stages["restore"],
                "attacks.attack_s": stages["attack"],
            },
        )

    def derived_metrics(self, combined: dict) -> dict:
        return {
            "storage.ddfs.ingest_chunks_per_s": ratio(
                combined["records"], combined["ingest_s"]
            ),
            "storage.restore_sim.restore_chunks_per_s": ratio(
                combined["records"], combined["restore_s"]
            ),
        }

    def encrypt(self, scheme: str, series, segmentation):
        from repro.defenses.pipeline import DefensePipeline

        return DefensePipeline(
            scheme, segmentation=segmentation, seed=self.seed
        ).encrypt_series(series)

    def _evaluate(self, series, segmentation, tracer, counter):
        """The timed body: the four steps for each scheme.

        A scheme's operation counts are taken as soon as its steps end,
        outside the timed window, so the pass holds one scheme's
        ciphertexts and engine at a time.
        """
        from repro.analysis.workloads import LARGE_CACHE_BYTES
        from repro.attacks.evaluation import AttackEvaluator
        from repro.common.units import MiB
        from repro.storage.ddfs import DDFSEngine
        from repro.storage.restore_sim import simulate_restore

        perf = time.perf_counter
        stages = dict.fromkeys(("encrypt", "ingest", "restore", "attack"), 0.0)
        by_scheme = {}
        uncounted = 0.0
        started = perf()
        for scheme in SCHEMES:
            mark = perf()
            encrypted = self.encrypt(scheme, series, segmentation)
            stages["encrypt"] += perf() - mark

            mark = perf()
            loads_before = counter.counts["container_loads"]
            engine = DDFSEngine(
                cache_budget_bytes=LARGE_CACHE_BYTES,
                bloom_capacity=BLOOM_CAPACITY,
                container_size=4 * MiB,
            )
            writes = engine.process_series(
                [backup.ciphertext for backup in encrypted.backups]
            )
            stages["ingest"] += perf() - mark
            loads = counter.counts["container_loads"] - loads_before

            mark = perf()
            restores = [
                spanned(
                    tracer,
                    "storage.restore_sim.simulate_restore",
                    simulate_restore,
                    engine,
                    backup.logical_ciphertext(),
                )
                for backup in encrypted.backups
            ]
            stages["restore"] += perf() - mark

            mark = perf()
            evaluator = AttackEvaluator(encrypted)
            reports = {
                attack: evaluator.run(build_attack(attack), -2, -1)
                for attack in ATTACKS
            }
            stages["attack"] += perf() - mark
            mark = perf()
            by_scheme[scheme] = scheme_counts(
                encrypted, engine, writes, loads, restores, reports
            )
            del encrypted, engine, writes, restores, evaluator
            uncounted += perf() - mark
        return by_scheme, stages, perf() - started - uncounted

    def gate(self, passes: list[PassResult], state) -> list[str]:
        from repro.attacks.evaluation import AttackEvaluator

        failures = []
        for index, result in enumerate(passes):
            for key, counts in result.counts.items():
                if counts["stored_chunks"] != counts["distinct_ciphertexts"]:
                    failures.append(
                        f"pass {index} {key}: {counts['stored_chunks']} chunks "
                        f"stored for {counts['distinct_ciphertexts']} distinct "
                        "ciphertext fingerprints"
                    )
        # Encryption is deterministic, so the gate re-encrypts each series
        # rather than keep a pass's ciphertexts (which would sit in every
        # later pass's peak RSS); the oracle runs once per series and
        # scheme and every pass's reports are compared with it.
        for number, (series, segmentation) in enumerate(state):
            for scheme in SCHEMES:
                evaluator = AttackEvaluator(self.encrypt(scheme, series, segmentation))
                key = f"series{number}/{scheme}"
                for attack in ATTACKS:
                    expected = asdict(
                        evaluator.run(build_attack(attack, oracle=True), -2, -1)
                    )
                    for index, result in enumerate(passes):
                        got = result.counts[key]["reports"][attack]
                        if got != expected:
                            failures.append(
                                f"pass {index} {key} {attack}: report {got} != "
                                f"oracle {expected}"
                            )
        return failures

    def count_metrics(self, groups: dict) -> dict:
        def total(key, scheme=None):
            return sum(
                counts[key]
                for name, counts in groups.items()
                if scheme is None or name.endswith("/" + scheme)
            )

        lookups = total("cache_hits") + total("cache_misses")
        return {
            "index.cache.hits": total("cache_hits"),
            "index.cache.misses": total("cache_misses"),
            "index.cache.hit_rate": ratio(total("cache_hits"), lookups),
            "index.bloom.false_positives": total("bloom_false_positives"),
            "storage.ddfs.container_loads_per_chunk": ratio(
                total("container_loads"), total("chunks")
            ),
            "storage.metadata_bytes_per_chunk": ratio(
                total("metadata_bytes"), total("chunks")
            ),
            "storage.stored_per_logical": ratio(
                total("stored_bytes", "combined"), total("logical_bytes", "combined")
            ),
            "storage.restore_sim.container_reads_per_chunk": ratio(
                total("container_reads"), total("chunks")
            ),
            "attacks.locality.iterations": total("iterations"),
            "attacks.locality.inferred_pairs": total("inferred_pairs"),
            "attacks.precision": ratio(total("correct_pairs"), total("inferred_pairs")),
        }


def scheme_counts(encrypted, engine, writes, loads, restores, reports) -> dict:
    """Deterministic operation counts of one series under one scheme."""
    distinct = set()
    for backup in encrypted.backups:
        distinct.update(backup.ciphertext.fingerprints)
    return {
        "chunks": sum(write.total_chunks for write in writes),
        "logical_bytes": sum(write.logical_bytes for write in writes),
        "stored_bytes": engine.containers.stored_bytes(),
        "stored_chunks": len(engine.index) + engine.containers.open_chunks,
        "distinct_ciphertexts": len(distinct),
        "metadata_bytes": sum(write.metadata.total_bytes for write in writes),
        "cache_hits": sum(write.cache_hits for write in writes),
        "cache_misses": sum(write.cache_misses for write in writes),
        "bloom_false_positives": sum(write.bloom_false_positives for write in writes),
        "container_loads": loads,
        "container_reads": sum(restore.container_reads for restore in restores),
        "iterations": sum(report.iterations for report in reports.values()),
        "inferred_pairs": sum(report.inferred_pairs for report in reports.values()),
        "correct_pairs": sum(report.correct_pairs for report in reports.values()),
        "reports": {name: asdict(report) for name, report in reports.items()},
    }
