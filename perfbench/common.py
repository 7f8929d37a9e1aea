"""Shared pieces of the benchmark: pass results, the workload interface,
the work directory and small statistics helpers."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

WORK_DIR = ".perfbench_work"
# One ``serve`` population: the tenants and rounds of its traffic.
SERVE_TENANTS = 125
SERVE_ROUNDS = 4


def serve_config(seed: int):
    """The :class:`~repro.service.simulate.ServiceConfig` of one ``serve``
    population; the client, the server and the gate's simulator all
    build it here."""
    from repro.service.simulate import ServiceConfig

    return ServiceConfig(tenants=SERVE_TENANTS, rounds=SERVE_ROUNDS, seed=seed)


def work_dir(*parts: str) -> str:
    """A directory under the checkout's ``.perfbench_work`` (created).

    Paths stay relative to the checkout root, the benchmark's working
    directory, which keeps the Unix socket path short.
    """
    path = os.path.join(WORK_DIR, *parts)
    os.makedirs(path, exist_ok=True)
    return path


@dataclass
class PassResult:
    """One timed pass of a workload's body.

    ``latencies_ms`` holds the latency of every request the pass made
    (the user-visible unit of work); ``counts`` the deterministic
    operation counts, grouped by input set (a group must repeat exactly
    wherever it recurs); ``outputs`` what the correctness gate checks;
    ``stages`` untraced stage figures; ``layer`` the per-layer metrics
    of a traced pass.
    """

    wall_s: float
    chunks: int
    latencies_ms: list[float]
    attempted: int
    failed: int = 0
    peak_rss_mib: float = 0.0
    counts: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    stages: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)
    input_set: int = 0


class Workload:
    """One benchmark workload.

    A run cycles through ``input_sets`` input sets drawn from the seed
    (pass ``i`` runs set ``i % input_sets``).  ``setup(traced, index)``
    builds the inputs and brings the system up, timed as ``setup_s``:
    with ``reuse_state`` one set-up serves every pass (and builds every
    input set), without it every pass gets its own set-up of set
    ``index``.  ``run_pass(state, tracer, input_set)`` runs the timed
    body once and returns a :class:`PassResult`; ``close(state)``
    releases what set-up made.  ``in_process`` says the work runs in
    this process, so its spans and GC pauses are recorded here;
    ``install_spans(tracer)`` patches a traced pass's spans into it.
    ``gate(passes, state)`` checks the outputs outside the timed
    windows, with the last set-up's state when passes share one
    (``None`` otherwise), and returns failure messages.
    ``jobs`` is the worker-process count the program is asked to use.
    ``count_metrics(groups)`` turns a run's deterministic count groups
    into per-layer count metrics; ``derived_metrics(combined)`` derives
    per-layer rates from the run's summed per-layer figures.
    """

    name = ""
    reuse_state = True
    in_process = True
    input_sets = 1
    jobs = 1

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, traced: bool, index: int):
        raise NotImplementedError

    def run_pass(self, state, tracer, input_set: int) -> PassResult:
        raise NotImplementedError

    def close(self, state) -> None:
        pass

    def install_spans(self, tracer) -> None:
        pass

    def gate(self, passes: list[PassResult], state) -> list[str]:
        raise NotImplementedError

    def count_metrics(self, groups: dict) -> dict:
        raise NotImplementedError

    def derived_metrics(self, combined: dict) -> dict:
        return {}


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS mark (Linux), so the next reading
    covers only what follows; a no-op where the kernel has no such knob."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mib() -> float:
    """This process's peak RSS in MiB since the last reset (Linux
    ``VmHWM``; ``ru_maxrss`` since start elsewhere)."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: list[float], quantile: float) -> float:
    """Nearest-rank percentile (``quantile`` in [0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(quantile * len(ordered)))
    return ordered[rank - 1]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
