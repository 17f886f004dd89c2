"""Host-speed probe: scales measured times to a host of fixed speed.

The benchmark runs on shared virtual machines whose other tenants slow
the CPU itself, by up to twice, in spells of seconds to minutes. A spell
that covers a whole run moves every timing of that run, and no choice of
operations inside the run can tell it from a slower program.

So on the workloads whose operations take milliseconds, the benchmark
also times a fixed piece of pure-Python work, the probe, right before and
after each batch of operations, outside the clock of the operations;
inside an operation that lasts tens of seconds, a ``Sampler`` probes
every second and the probes' time is taken out of the operation's. The
probe touches nothing of ``trajmark``; it uses what those operations use
(JSON, dicts, sorting, string joins, SHA-256), so a spell slows it about
as much as them. A measured time ``t`` next to probes that took ``p`` on
average is reported as ``t * REF_S / p``: the time it would have taken on
a host where the probe takes ``REF_S``. ``REF_S`` is a fixed constant,
never re-measured, so a change to the program moves the scaled times
exactly as it moves the measured ones.
"""

from __future__ import annotations

import hashlib
import json
import random
import signal
import statistics
from time import perf_counter

# the probe's time on a quiet 2.1 GHz Xeon vCPU under CPython 3.11
REF_S = 0.004

_RECORD = {
    "query_id": "q-probe",
    "response": "done " * 20,
    "actions": [{"tool": "read_file", "args": {"path": f"/data/{i}.csv", "limit": i}}
                for i in range(12)],
}


def _probe_once() -> int:
    rng = random.Random(1)
    acc = 0
    for _ in range(60):
        text = json.dumps(_RECORD, sort_keys=True)
        back = json.loads(text)
        table = {f"k{j}": rng.random() for j in range(20)}
        ranked = sorted(table.items(), key=lambda kv: kv[1])
        acc += len(back["actions"]) + len("".join(k for k, _ in ranked))
        acc += hashlib.sha256(text.encode()).digest()[0]
    return acc


def probe_s(repeats: int = 1) -> float:
    """Median seconds of ``repeats`` probes."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        _probe_once()
        times.append(perf_counter() - start)
    return statistics.median(times)


class Sampler:
    """Probes every ``period_s`` of wall time while active, from SIGALRM.

    ``spent_s`` is the time the handler took, for the caller to take out
    of the operation it interrupted; ``times`` are the probes' own times.
    """

    def __init__(self, period_s: float):
        self.period_s = period_s
        self.times: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self.times.append(probe_s())
        self.spent_s += perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
