"""The benchmark's own tests: seeded schedules, span arithmetic, the
metric list in BENCHMARK.json, and a tiny end-to-end run of every
workload with its output checks.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import env  # noqa: E402

env.add_source_path()

import numpy as np  # noqa: E402

import layers  # noqa: E402
import loadgen  # noqa: E402
from catalogue import churn_catalogue  # noqa: E402
from spans import Tracer  # noqa: E402

RUNGS = [(30.0, 2.0), (50.0, 1.0)]
WORKLOADS = ("train_paper", "serve_hot", "serve_churn")


def _hot(seed):
    return loadgen.hot_schedule(seed, np.arange(1, 145), RUNGS)


def _churn(seed):
    _, state = churn_catalogue(seed, num_pois=8000, num_users=200, history=20)
    return loadgen.churn_schedule(seed, state, 200, RUNGS)


def _flatten(phases):
    return [
        (p.rate, p.offsets.tolist(), p.users.tolist(),
         None if p.pois is None else p.pois.tolist(),
         None if p.times is None else p.times.tolist())
        for p in phases
    ]


@pytest.mark.parametrize("make", [_hot, _churn])
def test_one_seed_gives_one_schedule(make):
    assert _flatten(make(3)) == _flatten(make(3))


@pytest.mark.parametrize("make", [_hot, _churn])
def test_different_seeds_give_different_schedules(make):
    assert _flatten(make(3)) != _flatten(make(4))


def test_schedule_offers_rate_times_seconds_arrivals():
    for phase, (rate, seconds) in zip(_hot(0), RUNGS):
        assert len(phase) == round(rate * seconds)
        assert np.all(np.diff(phase.offsets) >= 0)
        assert phase.offsets.min() >= 0 and phase.offsets.max() < seconds


def test_churn_keeps_a_user_s_events_apart_and_near_the_anchor():
    dataset, state = churn_catalogue(5, num_pois=8000, num_users=200, history=20)
    for phase in loadgen.churn_schedule(5, state, 200, RUNGS):
        last = {}
        for due, user, poi in zip(phase.offsets, phase.users, phase.pois):
            assert due - last.get(user, -np.inf) >= loadgen.MIN_USER_GAP_S
            last[user] = due
            home = state.cluster_of[dataset.sequences[int(user)].pois[-1]]
            assert state.cluster_of[poi] == home


def test_open_loop_counts_latency_from_the_due_time():
    phase = loadgen.Phase(10.0, 0.3, np.array([0.0, 0.1, 0.2]), np.array([1, 2, 3]))

    class Handle:
        def __init__(self):
            self.response = None

        def wait(self, timeout):
            return None

    def slow_submit(user):
        time.sleep(0.15)          # a stalled submit delays the next arrival
        return Handle()

    sent = loadgen.play(phase, slow_submit)
    lags = [s.sent - s.due for s in sent]
    assert lags[0] < 0.05
    assert lags[1] > 0.03         # due at 0.1 s, sent after the 0.15 s stall


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("root"):
        with tracer.span("child"):
            time.sleep(0.02)
        time.sleep(0.01)
    root = tracer.named("root")[0]
    child = tracer.named("child")[0]
    self_time = tracer.self_times()
    assert child.parent == root.id and child.group == root.id
    assert abs(self_time[root.id] - (root.duration - child.duration)) < 1e-9


def test_wrap_records_a_span_per_call_and_can_pause():
    class Thing:
        def double(self, x):
            return 2 * x

    tracer = Tracer()
    thing = Thing()
    tracer.wrap(thing, "double", "thing.double", lambda x: {"rows": x})
    assert thing.double(4) == 8
    tracer.recording = False
    assert thing.double(5) == 10
    spans = tracer.named("thing.double")
    assert len(spans) == 1 and spans[0].attrs == {"rows": 4}


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    import run

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {**layers.PER_LAYER, **{f"traced.{k}": v for k, v in run.END_TO_END.items()}}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_passes_its_checks(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "2", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
