"""Workloads ``serve_hot`` and ``serve_churn``: traffic through
``ServingTier`` at the shipped tier and service defaults.

The timed phase has three parts:

1. one request at a time, each sent when the previous one is answered
   (the latency figure, which host CPU steal barely moves);
2. the nominal rate, about half the knee, open loop (the request
   latency under load, and the CPU cost per request with part 1);
3. a ladder of faster open-loop rates that stops after the first rung
   that misses the limit: p99 latency above ``P99_LIMIT_MS``, a request
   not served, a wrong slate or a growing backlog.  That rung is the
   probe that found the knee, so its sheds and timeouts are reported by
   the tier counters but not counted as failed operations.

After the run every served slate is checked: ``serve_hot`` against
``recommend_batch([u])`` on an identically built service, ``serve_churn``
against an offline replay of the check-ins and requests, in send order,
on a fresh service.  Both also check that a slate has k distinct,
in-catalogue POIs the user had not visited.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import median
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.service import RecommendationService
from repro.data import load_dataset
from repro.serving.request import SERVED
from repro.serving.tier import ServingTier

import layers
from catalogue import churn_catalogue
from loadgen import Phase, Sent, churn_schedule, hot_schedule, play, wait_all
from env import host_steal_ticks, peak_rss_mb, repeat_setup, steal_share
from model import build_model, trace_model

K = 10
P99_LIMIT_MS = 200.0
#: A rung's backlog grows when the generator's median lateness over its
#: last tenth of arrivals exceeds this.
BACKLOG_LAG_MS = 50.0
#: Users warmed per serve_churn set-up (read-only requests).
CHURN_WARM_USERS = 64
#: Rows per replay call of the serve_churn check.
REPLAY_BATCH = 64


@dataclass(frozen=True)
class Size:
    nominal_rate: float               # about half the knee (open loop)
    ladder: Tuple[float, ...]         # open-loop rates above nominal, ascending
    closed_max_rate: float            # bounds the one-at-a-time phase's schedule
    closed_share: float = 0.2         # of --seconds: one request at a time
    nominal_share: float = 0.3        # of --seconds: the nominal rung
    rung_share: float = 0.05          # of --seconds: each ladder rung
    setups: int = 3
    num_pois: int = 0                 # serve_churn catalogue
    num_users: int = 0
    history: int = 0
    scale: float = 1.0                # serve_hot dataset scale


def _ladder(start: float, stop: float, step: float = 1.12) -> Tuple[float, ...]:
    rates = [start]
    while rates[-1] * step <= stop:
        rates.append(round(rates[-1] * step))
    return tuple(rates)


HOT = Size(nominal_rate=250.0, ladder=_ladder(300.0, 800.0), closed_max_rate=250.0)
CHURN = Size(nominal_rate=60.0, ladder=_ladder(70.0, 220.0), closed_max_rate=150.0,
             num_pois=100_000, num_users=2000, history=100)
HOT_SMOKE = Size(nominal_rate=40.0, ladder=(80.0,), closed_max_rate=250.0, closed_share=0.3,
                 nominal_share=0.3, rung_share=0.2, setups=1, scale=0.4)
CHURN_SMOKE = Size(nominal_rate=20.0, ladder=(40.0,), closed_max_rate=40.0, closed_share=0.3,
                   nominal_share=0.3, rung_share=0.2, setups=1,
                   num_pois=8000, num_users=200, history=100)


@dataclass
class Env:
    dataset: object
    service: RecommendationService
    tier: ServingTier
    churn_state: object = None
    warm: Optional[List] = None       # (user, response) of warm-up requests


def build_service(dataset, seed: int) -> RecommendationService:
    model = build_model(dataset, seed)
    model.eval()
    return RecommendationService(model, dataset, max_len=100)


def setup(workload: str, seed: int, size: Size) -> Env:
    """Data, model, service, tier, then a warm-up through the tier."""
    if workload == "serve_hot":
        dataset = load_dataset("gowalla", seed=seed, scale=size.scale)
        state = None
        warm_users = np.asarray(dataset.users())          # fills every cache
    else:
        dataset, state = churn_catalogue(seed, size.num_pois, size.num_users, size.history)
        rng = np.random.default_rng([seed, 5])
        warm_users = rng.choice(np.arange(1, size.num_users + 1), CHURN_WARM_USERS, replace=False)
    service = build_service(dataset, seed)
    tier = ServingTier(service)
    handles = [tier.submit(int(u), k=K, exclude_visited=True) for u in warm_users]
    warm = [(int(u), h.wait(30.0)) for u, h in zip(warm_users, handles)]
    return Env(dataset, service, tier, state, warm)


def install_tracing(tracer, env: Env) -> None:
    tracer.wrap(
        env.service, "recommend_batch", "core.service.batch",
        lambda users, *a, **k: {"rows": len(users), "users": [int(u) for u in users]},
    )
    tracer.wrap(env.tier, "check_in", "core.service.checkin")
    tracer.wrap(env.dataset.spatial_index(), "nearest_excluding", "geo.nearest_excluding")
    trace_model(tracer, env.service.model)


# ----------------------------------------------------------------------
# Phase accounting
# ----------------------------------------------------------------------
def latencies_ms(sent: List[Sent]) -> np.ndarray:
    """Due-to-answer latency of every answered request."""
    return np.array([
        1e3 * (s.sent - s.due + s.handle.response.latency_s)
        for s in sent if s.handle.response is not None
    ])


def phase_summary(phase: Phase, sent: List[Sent], slate_ok: Dict[int, bool]) -> dict:
    responses = [s.handle.response for s in sent]
    served = sum(r is not None and r.status == SERVED for r in responses)
    lat = latencies_ms(sent)
    lag = np.array([1e3 * (s.sent - s.due) for s in sent])
    tail = lag[-max(1, len(lag) // 10):]
    finish = max(
        (s.sent + s.handle.response.latency_s for s in sent if s.handle.response is not None),
        default=sent[-1].sent,
    )
    wall = finish - sent[0].due
    p99 = float(np.percentile(lat, 99)) if len(lat) else float("inf")
    backlog_ok = float(np.median(tail)) <= BACKLOG_LAG_MS
    all_ok = served == len(sent) and all(slate_ok.get(id(s), False) for s in sent)
    checkins = [1e3 * (s.checkin_done - s.due) for s in sent if s.checkin_done is not None]
    return {
        "rate": phase.rate,
        "requests": len(sent),
        "served": served,
        "not_served": len(sent) - served,
        "p50_ms": float(np.percentile(lat, 50)) if len(lat) else float("inf"),
        "p99_ms": p99,
        "lag_p50_ms": float(np.percentile(lag, 50)),
        "lag_p99_ms": float(np.percentile(lag, 99)),
        "tail_lag_ms": float(np.median(tail)),
        "checkin_p50_ms": float(np.percentile(checkins, 50)) if checkins else 0.0,
        "served_rate": served / wall if wall > 0 else 0.0,
        "ok": bool(all_ok and backlog_ok and p99 <= P99_LIMIT_MS),
        "queue_wait_ms": [1e3 * r.queue_wait_s for r in responses if r is not None and r.status == SERVED],
        "checkin_errors": sum(s.checkin_error is not None for s in sent),
    }


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def slate_valid(recs, visited: set, num_pois: int) -> bool:
    pois = [r.poi for r in recs]
    return (
        len(pois) == K
        and len(set(pois)) == K
        and all(1 <= p <= num_pois for p in pois)
        and not visited.intersection(pois)
        and not any(r.degraded for r in recs)
    )


def same(a, b) -> bool:
    return [(r.poi, r.score, r.distance_km, r.degraded) for r in a] == [
        (r.poi, r.score, r.distance_km, r.degraded) for r in b
    ]


def check_hot(env: Env, seed: int, events) -> Dict[int, bool]:
    """Each served slate == recommend_batch([u]) on an identical service."""
    fresh = build_service(env.dataset, seed)
    reference = {}
    ok = {}
    for key, user, _, response in events:
        if response is None or response.status != SERVED:
            continue
        if user not in reference:
            reference[user] = fresh.recommend_batch([user], k=K)[0]
        visited = set(map(int, env.dataset.sequences[user].pois))
        ok[key] = same(response.recommendations, reference[user]) and slate_valid(
            response.recommendations, visited, env.dataset.num_pois
        )
    return ok


def check_churn(env: Env, seed: int, events) -> Dict[int, bool]:
    """Replay the check-ins and requests in send order on a fresh service.

    Requests of distinct users are replayed together in one
    ``recommend_batch`` call (the service guarantees batched rows equal
    single-user calls); a user's next check-in flushes them first.
    """
    fresh = build_service(env.dataset, seed)
    visited = {u: set(map(int, s.pois)) for u, s in env.dataset.sequences.items()}
    pending: Dict[int, List] = {}
    ok: Dict[int, bool] = {}

    def flush():
        users = list(pending)
        for user, recs in zip(users, fresh.recommend_batch(users, k=K)):
            for key, response, seen in pending[user]:
                ok[key] = same(response.recommendations, recs) and slate_valid(
                    response.recommendations, seen, env.dataset.num_pois
                )
        pending.clear()

    for key, user, checkin, response in events:
        if checkin is not None:
            if user in pending:
                flush()
            fresh.check_in(user, *checkin)
            visited[user].add(checkin[0])
        if response is None or response.status != SERVED:
            continue
        pending.setdefault(user, []).append((key, response, set(visited[user])))
        if len(pending) >= REPLAY_BATCH:
            flush()
    flush()
    return ok


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, tracer, size: Size) -> dict:
    env, setup_s, setup_wall_s = repeat_setup(
        size.setups, lambda: setup(workload, seed, size), release=lambda e: e.tier.close()
    )

    churn = workload == "serve_churn"
    rungs = [
        (size.closed_max_rate, seconds * size.closed_share),
        (size.nominal_rate, seconds * size.nominal_share),
    ] + [(rate, seconds * size.rung_share) for rate in size.ladder]
    if churn:
        phases = churn_schedule(seed, env.churn_state, size.num_users, rungs)
    else:
        phases = hot_schedule(seed, np.asarray(env.dataset.users()), rungs)
    fixed, ladder = phases[:2], phases[2:]
    if tracer.enabled:
        install_tracing(tracer, env)
    env.service.caches.reset_stats()
    before = env.tier.snapshot()
    health0 = (env.service.health.degraded_rows, env.service.health.model_failures)

    submit = lambda user: env.tier.submit(user, k=K, exclude_visited=True)  # noqa: E731
    check_in = env.tier.check_in if churn else None

    def play_rung(phase, closed=False):
        sent = play(phase, submit, check_in, closed=closed)
        wait_all(sent)
        # Judged on latency and status now; slates are checked after the run.
        return sent, phase_summary(phase, sent, {id(s): True for s in sent})["ok"]

    steal0 = host_steal_ticks()
    t_start = time.perf_counter()
    cpu0 = time.process_time()
    played = [(fixed[0], play_rung(fixed[0], closed=True)[0], False)]  # (phase, sent, probe)
    cpu1 = time.process_time()
    played.append((fixed[1], play_rung(fixed[1])[0], False))
    cpu2 = time.process_time()
    rss_mb = peak_rss_mb()    # before the ladder, whose length varies from run to run
    for phase in ladder:
        sent, rung_ok = play_rung(phase)
        played.append((phase, sent, not rung_ok))
        if not rung_ok:
            break
    t_end = time.perf_counter()
    steal1 = host_steal_ticks()
    tracer.recording = False
    after = env.tier.snapshot()
    env.tier.close()

    events = [(("warm", i), u, None, r) for i, (u, r) in enumerate(env.warm)]
    for phase, sent, _ in played:
        for s in sent:
            applied = churn and s.checkin_error is None     # replay only writes that landed
            checkin = (int(phase.pois[s.index]), float(phase.times[s.index])) if applied else None
            events.append((id(s), s.user, checkin, s.handle.response))
    ok = check_churn(env, seed, events) if churn else check_hot(env, seed, events)

    attempted = len(env.warm)
    failed = sum(
        r is None or r.status != SERVED or not ok.get(("warm", i), False)
        for i, (_, r) in enumerate(env.warm)
    )
    wrong = 0
    for _, sent, probe in played:
        for s in sent:
            attempted += 1
            response = s.handle.response
            if s.checkin_error is not None or response is None:
                failed += 1                     # a write that raised, or a lost request
            elif response.status != SERVED:
                failed += not probe             # the probe rung may shed or time out
            elif not ok.get(id(s), False):
                wrong += 1
    failed += wrong

    summaries = [phase_summary(phase, sent, ok) for phase, sent, _ in played]
    closed, nominal = summaries[0], summaries[1]
    fixed_ops = closed["requests"] + nominal["requests"]
    # The highest ladder rung that met the limit; the nominal rung when none did.
    max_ok = max(
        (x["served_rate"] for x in summaries[2:] if x["ok"]), default=nominal["served_rate"]
    )
    out = {
        "setup_s_each": setup_s,
        "setup_wall_s_each": setup_wall_s,
        "problems": [f"{wrong} served slates failed their check"] if wrong else [],
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {
            "setup_s": median(setup_s),
            "peak_rss_mb": rss_mb,
            "ops_per_cpu_s": fixed_ops / (cpu2 - cpu0),
            "latency_p50_ms": closed["p50_ms"],
        },
        "workload_metrics": {
            "req_p50_ms": (nominal["p50_ms"], "ms"),
            "req_p99_ms": (nominal["p99_ms"], "ms"),
            "max_ok_rps": (max_ok, "req/s"),
        },
        "cpu_ms_per_op": {"closed": 1e3 * (cpu1 - cpu0) / closed["requests"],
                          "nominal": 1e3 * (cpu2 - cpu1) / nominal["requests"]},
        "host_steal_share": steal_share(steal0, steal1, t_end - t_start),
        "phases": [{k: v for k, v in s.items() if k != "queue_wait_ms"} for s in summaries],
    }
    if churn:
        out["workload_metrics"]["checkin_p50_ms"] = (nominal["checkin_p50_ms"], "ms")
    if tracer.enabled:
        out["layers"] = serving_layer_metrics(
            tracer, env, t_end - t_start, nominal, before, after, health0
        )
    return out


def serving_layer_metrics(tracer, env, phase_s, nominal, before, after, health0) -> dict:
    out = layers.serving_layers(tracer, phase_s)
    health = env.service.health
    out["core.service.degraded_rows"] = float(health.degraded_rows - health0[0])
    out["core.service.model_failures"] = float(health.model_failures - health0[1])
    for name, stats in env.service.caches.stats().items():
        out[f"core.cache.{name}.hit_ratio"] = stats.hit_rate
        out[f"core.cache.{name}.evictions"] = float(stats.evictions)
    delta = lambda key: float(after[key] - before[key])  # noqa: E731
    by_status = lambda snap, s: snap["by_status"].get(s, 0)  # noqa: E731
    waits = nominal["queue_wait_ms"]
    out["serving.queue_wait_p50_ms"] = float(np.percentile(waits, 50)) if waits else 0.0
    out["serving.queue_wait_p99_ms"] = float(np.percentile(waits, 99)) if waits else 0.0
    batch_requests = delta("batch_requests")
    out["serving.batches"] = delta("batches")
    out["serving.batch_size_mean"] = batch_requests / max(out["serving.batches"], 1.0)
    out["serving.coalesce_ratio"] = delta("coalesced") / max(batch_requests, 1.0)
    out["serving.shed"] = float(by_status(after, "shed") - by_status(before, "shed"))
    out["serving.timeouts"] = float(by_status(after, "timeout") - by_status(before, "timeout"))
    out["serving.retries"] = delta("retries")
    out["serving.requeued"] = delta("requeued")
    out["serving.restarts"] = float(sum(after["restarts"].values()) - sum(before["restarts"].values()))
    out["serving.late_results"] = delta("late_results")
    out["loadgen.lag_p50_ms"] = nominal["lag_p50_ms"]
    out["loadgen.lag_p99_ms"] = nominal["lag_p99_ms"]
    return out
