"""Inference latency / throughput measurement.

The paper's "lightweight" claim is argued in FLOPs (Table VI); this
module measures it operationally: wall-clock per-query latency and
queries-per-second of ``score_candidates`` on a fixed workload, so two
models can be compared on the same slate sizes.

:func:`sweep_service_batches` measures the serving layer itself — the
end-to-end ``RecommendationService`` path (slate retrieval, padding,
model call, ranking) across batch sizes, reporting the throughput
speedup of ``recommend_batch`` over looped ``recommend`` together with
the serving-cache hit rates.

:func:`measure_observability_overhead` quantifies what the
:mod:`repro.obs` instrumentation costs on the serving path: measured
enabled-vs-disabled wall time, plus a microbenchmarked bound on the
disabled-mode cost (no-op span calls and guard checks, each priced
per event class).  :func:`measure_fault_harness_overhead` does the
same for :mod:`repro.faults`: with no plan installed every seam pays
one ``is None`` guard, so the disabled cost must be indistinguishable
from noise.  All timing
here goes through :class:`repro.obs.Stopwatch` — the ``REPRO-OBS``
lint rule keeps raw ``time.perf_counter()`` calls out of this layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..data.sequences import EvalExample
from ..data.types import CheckInDataset
from ..faults import fault_injection
from ..faults import state as _faults_state
from ..nn.tensor import no_grad
from ..obs import REGISTRY, Stopwatch, clear_trace, observability, span, trace
from ..obs import state as _obs_state


@dataclass
class LatencyReport:
    """Latency statistics over repeated scoring calls (seconds)."""

    mean_s: float
    p50_s: float
    p95_s: float
    queries_per_second: float
    batch_size: int
    num_candidates: int
    num_calls: int

    def __str__(self) -> str:
        return (
            f"mean={self.mean_s * 1e3:.1f}ms p50={self.p50_s * 1e3:.1f}ms "
            f"p95={self.p95_s * 1e3:.1f}ms qps={self.queries_per_second:.1f} "
            f"(batch={self.batch_size}, candidates={self.num_candidates})"
        )


def measure_scoring_latency(
    model,
    examples: List[EvalExample],
    candidates: np.ndarray,
    batch_size: int = 16,
    num_calls: int = 10,
    warmup: int = 2,
) -> LatencyReport:
    """Time repeated ``score_candidates`` calls on a fixed batch.

    ``candidates``: (c,) slate used for every instance (latency depends
    on shape, not content).
    """
    if not examples:
        raise ValueError("no examples to measure on")
    if num_calls < 1:
        raise ValueError("num_calls must be >= 1")
    batch = examples[:batch_size]
    src = np.stack([e.src_pois for e in batch])
    times = np.stack([e.src_times for e in batch])
    slates = np.tile(np.asarray(candidates, dtype=np.int64), (len(batch), 1))

    durations = []
    with no_grad():
        for call in range(warmup + num_calls):
            with Stopwatch() as sw:
                model.score_candidates(src, times, slates)
            if call >= warmup:
                durations.append(sw.elapsed)
    durations = np.asarray(durations)
    per_query = durations / len(batch)
    return LatencyReport(
        mean_s=float(per_query.mean()),
        p50_s=float(np.percentile(per_query, 50)),
        p95_s=float(np.percentile(per_query, 95)),
        queries_per_second=float(len(batch) / durations.mean()),
        batch_size=len(batch),
        num_candidates=slates.shape[1],
        num_calls=num_calls,
    )


@dataclass
class BatchSweepPoint:
    """Serving throughput at one batch size."""

    batch_size: int
    total_s: float                 # wall-clock for all timed queries
    queries_per_second: float
    mean_query_s: float
    speedup: float                 # vs the batch-size-1 point of the sweep
    cache_hit_rates: Dict[str, float] = field(default_factory=dict)

    def __str__(self) -> str:
        rates = " ".join(f"{k}={v:.0%}" for k, v in self.cache_hit_rates.items())
        return (
            f"batch={self.batch_size:3d} qps={self.queries_per_second:8.1f} "
            f"mean={self.mean_query_s * 1e3:6.2f}ms speedup={self.speedup:5.2f}x"
            + (f"  [{rates}]" if rates else "")
        )


def format_batch_sweep(points: Sequence[BatchSweepPoint]) -> str:
    """Render a sweep as an aligned table (used by CLI and benchmarks)."""
    lines = [f"{'batch':>5s} {'qps':>9s} {'ms/query':>9s} {'speedup':>8s}  cache hit-rates"]
    for p in points:
        rates = " ".join(f"{k}={v:.0%}" for k, v in p.cache_hit_rates.items()) or "-"
        lines.append(
            f"{p.batch_size:5d} {p.queries_per_second:9.1f} "
            f"{p.mean_query_s * 1e3:9.2f} {p.speedup:7.2f}x  {rates}"
        )
    return "\n".join(lines)


def sweep_service_batches(
    service,
    users: Sequence[int],
    batch_sizes: Sequence[int] = (1, 8, 32),
    k: int = 10,
    rounds: int = 3,
    warmup: int = 1,
    reset_caches: bool = True,
) -> List[BatchSweepPoint]:
    """Throughput of the service across ``recommend_batch`` sizes.

    Batch size 1 calls ``recommend`` per user — the same serving body
    as ``recommend_batch`` with one user per model call, so it is the
    unbatched baseline; larger sizes chunk ``users`` through
    ``recommend_batch``.  Every point gets the same treatment — caches
    cleared, ``warmup`` untimed rounds (repopulating the caches), then
    ``rounds`` timed rounds — so speedups isolate batching itself while
    hit rates reflect the steady state.
    """
    users = list(users)
    if not users:
        raise ValueError("no users to sweep over")
    if rounds < 1 or warmup < 0:
        raise ValueError("rounds must be >= 1 and warmup >= 0")

    def run_once(batch_size: int) -> None:
        if batch_size <= 1:
            for user in users:
                service.recommend(user, k=k)
        else:
            for start in range(0, len(users), batch_size):
                service.recommend_batch(users[start:start + batch_size], k=k)

    points: List[BatchSweepPoint] = []
    for batch_size in batch_sizes:
        if reset_caches and service.caches is not None:
            service.caches.clear()
        for _ in range(warmup):
            run_once(batch_size)
        if service.caches is not None:
            service.caches.reset_stats()
        with Stopwatch() as sw:
            for _ in range(rounds):
                run_once(batch_size)
        total = sw.elapsed
        queries = rounds * len(users)
        points.append(
            BatchSweepPoint(
                batch_size=batch_size,
                total_s=total,
                queries_per_second=queries / total,
                mean_query_s=total / queries,
                speedup=1.0,
                cache_hit_rates=(
                    service.caches.hit_rates() if service.caches is not None else {}
                ),
            )
        )
    baseline = next(
        (p for p in points if p.batch_size <= 1), points[0]
    ).queries_per_second
    for p in points:
        p.speedup = p.queries_per_second / baseline
    return points


@dataclass
class ObsOverheadReport:
    """Cost of the :mod:`repro.obs` layer on the batched serving path.

    ``disabled_overhead_frac`` is a conservative *bound*, not a
    measurement: each instrumentation event is priced at its disabled
    cost — span sites at one microbenchmarked no-op ``span()``
    enter/exit, counter sites at one ``if _enabled`` guard check — and
    the total is divided by the measured per-query time.  Measuring
    the disabled overhead directly would need an uninstrumented build
    to compare against.  ``enabled_overhead_frac`` is measured wall
    time, enabled vs disabled (metrics + spans, no op profiler).
    """

    batch_size: int
    rounds: int
    disabled_query_s: float
    enabled_query_s: float
    enabled_overhead_frac: float
    null_span_call_s: float
    guard_check_s: float
    span_events_per_query: float
    counter_events_per_query: float
    disabled_overhead_frac: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "batch_size": float(self.batch_size),
            "disabled_query_ms": self.disabled_query_s * 1e3,
            "enabled_query_ms": self.enabled_query_s * 1e3,
            "enabled_overhead_pct": self.enabled_overhead_frac * 100.0,
            "null_span_call_ns": self.null_span_call_s * 1e9,
            "guard_check_ns": self.guard_check_s * 1e9,
            "span_events_per_query": self.span_events_per_query,
            "counter_events_per_query": self.counter_events_per_query,
            "disabled_overhead_pct": self.disabled_overhead_frac * 100.0,
        }

    def __str__(self) -> str:
        return (
            f"batch={self.batch_size}: "
            f"disabled={self.disabled_query_s * 1e3:.2f}ms/query, "
            f"enabled={self.enabled_query_s * 1e3:.2f}ms/query "
            f"(+{self.enabled_overhead_frac:.1%}); "
            f"disabled-mode bound {self.disabled_overhead_frac:.3%} "
            f"({self.span_events_per_query:.1f} spans/query × "
            f"{self.null_span_call_s * 1e9:.0f}ns + "
            f"{self.counter_events_per_query:.0f} guards/query × "
            f"{self.guard_check_s * 1e9:.0f}ns)"
        )


def measure_observability_overhead(
    service,
    users: Sequence[int],
    batch_size: int = 32,
    rounds: int = 3,
    repeats: int = 3,
    k: int = 10,
    span_samples: int = 200_000,
) -> ObsOverheadReport:
    """Measure serving-path cost with observability off vs on.

    Both modes run the identical ``recommend_batch`` workload (caches
    pre-warmed) and take the best of ``repeats`` timed passes of
    ``rounds`` rounds each, which suppresses scheduler noise the way
    min-of-N microbenchmarks do.  The op profiler stays uninstalled —
    it is a separate opt-in with its own cost.
    """
    users = list(users)
    if not users:
        raise ValueError("no users to measure on")
    queries = len(users)

    def run_once() -> None:
        for start in range(0, queries, batch_size):
            service.recommend_batch(users[start:start + batch_size], k=k)

    def best_query_time() -> float:
        best = float("inf")
        for _ in range(repeats):
            with Stopwatch() as sw:
                for _ in range(rounds):
                    run_once()
            best = min(best, sw.elapsed)
        return best / (rounds * queries)

    with observability(enabled=False):
        run_once()                      # warm caches / code paths
        disabled_query_s = best_query_time()

        # Price each class of disabled instrumentation point.  Span
        # sites pay a no-op context-manager enter/exit; counter sites
        # pay only an ``if _enabled`` guard check (a module-attribute
        # load and branch, here still overpriced by the loop overhead).
        null = span("obs.overhead_probe")
        with Stopwatch() as sw:
            for _ in range(span_samples):
                with null:
                    pass
        null_span_call_s = sw.elapsed / span_samples

        with Stopwatch() as sw:
            for _ in range(span_samples):
                if _obs_state._enabled:
                    pass
        guard_check_s = sw.elapsed / span_samples

    with observability():
        run_once()                      # materialize metrics/histograms
        enabled_query_s = best_query_time()

        # Count instrumentation events of one workload pass: span nodes
        # plus counter increments observed via registry deltas.
        clear_trace()
        counters_before = {
            (m.name, m.labels): m.value
            for m in REGISTRY.collect()
            if m.kind == "counter"
        }
        run_once()
        span_nodes = 0
        stack = list(trace())
        while stack:
            node = stack.pop()
            span_nodes += 1
            stack.extend(node.children)
        counter_events = sum(
            m.value - counters_before.get((m.name, m.labels), 0.0)
            for m in REGISTRY.collect()
            if m.kind == "counter"
        )
        span_events_per_query = span_nodes / queries
        counter_events_per_query = counter_events / queries

    enabled_overhead = enabled_query_s / disabled_query_s - 1.0
    disabled_overhead = (
        span_events_per_query * null_span_call_s
        + counter_events_per_query * guard_check_s
    ) / disabled_query_s
    return ObsOverheadReport(
        batch_size=batch_size,
        rounds=rounds,
        disabled_query_s=disabled_query_s,
        enabled_query_s=enabled_query_s,
        enabled_overhead_frac=enabled_overhead,
        null_span_call_s=null_span_call_s,
        guard_check_s=guard_check_s,
        span_events_per_query=span_events_per_query,
        counter_events_per_query=counter_events_per_query,
        disabled_overhead_frac=disabled_overhead,
    )


@dataclass
class FaultOverheadReport:
    """Cost of the :mod:`repro.faults` seams on the batched serving path.

    With no plan installed each instrumented seam pays exactly one
    module-attribute load and ``is None`` branch, so
    ``disabled_overhead_frac`` is a measured enabled-vs-absent wall-time
    ratio plus a microbenchmarked per-guard price for context.
    ``zero_rate_overhead_frac`` measures the harness *installed* at
    all-zero rates — the bitwise-free configuration the property suite
    pins down — against the uninstalled baseline.
    """

    batch_size: int
    rounds: int
    baseline_query_s: float
    zero_rate_query_s: float
    zero_rate_overhead_frac: float
    guard_check_s: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "batch_size": float(self.batch_size),
            "baseline_query_ms": self.baseline_query_s * 1e3,
            "zero_rate_query_ms": self.zero_rate_query_s * 1e3,
            "zero_rate_overhead_pct": self.zero_rate_overhead_frac * 100.0,
            "guard_check_ns": self.guard_check_s * 1e9,
        }

    def __str__(self) -> str:
        return (
            f"batch={self.batch_size}: "
            f"no-harness={self.baseline_query_s * 1e3:.2f}ms/query, "
            f"zero-rate harness={self.zero_rate_query_s * 1e3:.2f}ms/query "
            f"({self.zero_rate_overhead_frac:+.1%}); "
            f"per-seam guard {self.guard_check_s * 1e9:.0f}ns"
        )


def measure_fault_harness_overhead(
    service,
    users: Sequence[int],
    batch_size: int = 32,
    rounds: int = 3,
    repeats: int = 3,
    k: int = 10,
    guard_samples: int = 200_000,
) -> FaultOverheadReport:
    """Measure serving-path cost with the fault harness absent vs
    installed at zero rates.

    Identical min-of-``repeats`` protocol to
    :func:`measure_observability_overhead`.  A zero-rate plan never
    draws from its RNGs (the property suite proves it is bitwise-free),
    so the only cost left is the per-seam guard this measures.
    """
    users = list(users)
    if not users:
        raise ValueError("no users to measure on")
    queries = len(users)

    def run_once() -> None:
        for start in range(0, queries, batch_size):
            service.recommend_batch(users[start:start + batch_size], k=k)

    def best_query_time() -> float:
        best = float("inf")
        for _ in range(repeats):
            with Stopwatch() as sw:
                for _ in range(rounds):
                    run_once()
            best = min(best, sw.elapsed)
        return best / (rounds * queries)

    run_once()                          # warm caches / code paths
    baseline_query_s = best_query_time()

    # Price the guard every seam pays when the harness is absent: one
    # module-attribute load plus an ``is None`` branch (still overpriced
    # here by the surrounding loop overhead).
    with Stopwatch() as sw:
        for _ in range(guard_samples):
            if _faults_state._plan is not None:
                pass
    guard_check_s = sw.elapsed / guard_samples

    with fault_injection(seed=0):
        run_once()
        zero_rate_query_s = best_query_time()

    return FaultOverheadReport(
        batch_size=batch_size,
        rounds=rounds,
        baseline_query_s=baseline_query_s,
        zero_rate_query_s=zero_rate_query_s,
        zero_rate_overhead_frac=zero_rate_query_s / baseline_query_s - 1.0,
        guard_check_s=guard_check_s,
    )


def compare_latency(
    models: dict,
    examples: List[EvalExample],
    dataset: CheckInDataset,
    num_candidates: int = 100,
    batch_size: int = 16,
    num_calls: int = 5,
    rng: Optional[np.random.Generator] = None,
) -> dict:
    """Measure several fitted models on an identical workload."""
    rng = rng or np.random.default_rng(0)
    k = min(num_candidates, dataset.num_pois)
    slate = rng.choice(np.arange(1, dataset.num_pois + 1), size=k, replace=False)
    return {
        name: measure_scoring_latency(
            model, examples, slate, batch_size=batch_size, num_calls=num_calls
        )
        for name, model in models.items()
    }
