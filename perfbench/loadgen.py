"""Seeded schedules and the single-thread generator that plays them.

A schedule is fixed before the timed phase from the workload seed
alone: arrival offsets, the user of each arrival and, for check-in
churn, the POI and timestamp each event writes.  The generator thread
sleeps until each arrival is due and then sends it, whatever the state
of earlier requests (open loop).  Latency is counted from the *due*
time, so a stall in the generator or in ``submit`` is charged to every
request it delays; how late the generator ran is reported on its own.

Arrivals in a phase are a Poisson process conditioned on its count:
``round(rate * seconds)`` uniform offsets, sorted.  Every run of a phase
therefore offers exactly the same number of requests.  :func:`play` can
also send a schedule one request at a time (closed loop), ignoring the
offsets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

#: Zipf exponent of the hot-user mix (a few users dominate).
ZIPF_EXPONENT = 1.1
#: A user's consecutive churn events are at least this far apart in the
#: schedule, longer than the tier's request deadline, so a request is
#: always answered before the same user's next check-in is written.
MIN_USER_GAP_S = 2.0
#: How long the generator waits for an answer before counting it lost;
#: the tier answers every request by its deadline, far sooner.
ANSWER_TIMEOUT_S = 30.0
#: Check-in timestamps advance by a uniform draw in this range (seconds).
CHECKIN_GAP_S = (600.0, 6 * 3600.0)


@dataclass
class Phase:
    """One constant-rate stretch of a schedule."""

    rate: float
    seconds: float
    offsets: np.ndarray                     # (N,) seconds from phase start
    users: np.ndarray                       # (N,) user ids
    pois: Optional[np.ndarray] = None       # (N,) check-in POI ids (churn)
    times: Optional[np.ndarray] = None      # (N,) check-in timestamps (churn)

    def __len__(self) -> int:
        return len(self.offsets)


def arrival_offsets(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    count = max(1, int(round(rate * seconds)))
    return np.sort(rng.uniform(0.0, seconds, count))


def zipf_users(rng: np.random.Generator, users: np.ndarray, count: int) -> np.ndarray:
    """``count`` draws over ``users``; popularity ranks are a seeded
    permutation, rank r has weight r ** -ZIPF_EXPONENT."""
    ranked = rng.permutation(users)
    weights = np.arange(1, len(ranked) + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    return ranked[rng.choice(len(ranked), size=count, p=weights / weights.sum())]


def hot_schedule(seed: int, users: np.ndarray, rungs) -> List[Phase]:
    """Read-only requests: Zipf users at each ``(rate, seconds)`` rung."""
    rng = np.random.default_rng([seed, 1])
    phases = []
    for rate, seconds in rungs:
        offsets = arrival_offsets(rng, rate, seconds)
        phases.append(Phase(rate, seconds, offsets, zipf_users(rng, users, len(offsets))))
    return phases


@dataclass
class ChurnState:
    """Per-user anchor and clock the churn schedule advances."""

    anchor: np.ndarray          # (U + 1,) current POI of each user
    last_time: np.ndarray       # (U + 1,) last check-in timestamp
    cluster_of: np.ndarray      # (P + 1,) cluster of each POI
    members: List[np.ndarray] = field(default_factory=list)  # POIs per cluster


def churn_schedule(seed: int, state: ChurnState, num_users: int, rungs) -> List[Phase]:
    """Check-in + request events: uniform users (each at most once per
    MIN_USER_GAP_S), each checking in at a POI of their anchor's cluster."""
    if max(rate for rate, _ in rungs) * MIN_USER_GAP_S > num_users / 2:
        raise ValueError("too few users for the churn schedule's per-user gap")
    rng = np.random.default_rng([seed, 2])
    anchor = state.anchor.copy()
    last_time = state.last_time.copy()
    phases = []
    for rate, seconds in rungs:
        offsets = arrival_offsets(rng, rate, seconds)
        users = np.empty(len(offsets), dtype=np.int64)
        pois = np.empty(len(offsets), dtype=np.int64)
        times = np.empty(len(offsets), dtype=np.float64)
        last_due = {}
        for i, due in enumerate(offsets):
            user = int(rng.integers(1, num_users + 1))
            while due - last_due.get(user, -np.inf) < MIN_USER_GAP_S:
                user = int(rng.integers(1, num_users + 1))
            last_due[user] = due
            cluster = state.members[state.cluster_of[anchor[user]]]
            poi = int(cluster[rng.integers(len(cluster))])
            last_time[user] += rng.uniform(*CHECKIN_GAP_S)
            anchor[user] = poi
            users[i], pois[i], times[i] = user, poi, last_time[user]
        phases.append(Phase(rate, seconds, offsets, users, pois, times))
    return phases


@dataclass
class Sent:
    """What the generator did for one scheduled arrival."""

    index: int
    user: int
    due: float
    sent: float = 0.0                        # submit() called
    checkin_done: Optional[float] = None     # check_in() returned (churn)
    checkin_error: Optional[str] = None
    handle: object = None                    # the tier's request handle


def play(
    phase: Phase,
    submit: Callable[[int], object],
    check_in: Optional[Callable[[int, int, float], None]] = None,
    closed: bool = False,
    lead_s: float = 0.02,
) -> List[Sent]:
    """Play ``phase`` from this thread.

    Open loop (the default): send every arrival when it is due.  Closed
    (``closed=True``): one request at a time, each sent as soon as the
    previous one is answered, in schedule order, until the phase's
    seconds are spent; an arrival is due when it is sent.
    """
    start = time.perf_counter() + lead_s
    stop = start + phase.seconds
    out = []
    for i in range(len(phase)):
        if closed:
            due = time.perf_counter()
            if due >= stop:
                break
        else:
            due = start + float(phase.offsets[i])
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
        user = int(phase.users[i])
        record = Sent(index=i, user=user, due=due)
        if check_in is not None:
            try:
                check_in(user, int(phase.pois[i]), float(phase.times[i]))
            except Exception as exc:  # a failed write is counted, not fatal
                record.checkin_error = f"{type(exc).__name__}: {exc}"
            record.checkin_done = time.perf_counter()
        record.sent = time.perf_counter()
        record.handle = submit(user)
        if closed:
            record.handle.wait(ANSWER_TIMEOUT_S)
        out.append(record)
    return out


def wait_all(sent: List[Sent], timeout_s: float = None) -> None:
    timeout_s = ANSWER_TIMEOUT_S if timeout_s is None else timeout_s
    deadline = time.perf_counter() + timeout_s
    for record in sent:
        record.handle.wait(max(0.0, deadline - time.perf_counter()))
