"""Traffic drivers and process accounting, all from the benchmark's process.

* :func:`open_loop` submits on a Poisson schedule regardless of answers;
  latency is timed from each request's *due* time, so a stall charges
  the wait it imposes on later requests, and generator lateness (send
  time minus due time) is kept per request.
* :func:`closed_loop` keeps a fixed window of outstanding futures.
* :func:`cpu_seconds` / :func:`rss_mb` read ``/proc`` for the coordinator
  (this process) and the worker pids the cluster lists in ``events``.

Answers are recorded column-wise in a :class:`Log` whose cells are
floats, strings and tuples of ints: the coordinator shares this process,
and a log of per-request objects would grow the heap its cyclic
collector traverses, adding the benchmark's bookkeeping to the
coordinator's pauses.
"""

from __future__ import annotations

import concurrent.futures
import os
import threading
import time
from dataclasses import dataclass

from repro.service.degrade import ClusterOverloadedError

#: a request still unanswered this long after its phase is a failure
RESULT_TIMEOUT_S = 60.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")


@dataclass
class Outcome:
    """One submitted request and what came back (built after the window)."""

    req: object
    phase: str
    due: float
    sent: float
    done: float
    #: caller time spent inside ``cluster.submit``
    submit_s: float
    #: the answering model version and the served best-first tunings, as
    #: ``TuningVector.as_tuple()`` values
    version: "str | None"
    ranked: tuple
    #: the whole response, kept only for requests that asked for scores
    response: object
    error: "str | None"

    @property
    def latency_s(self) -> float:
        return self.done - self.due

    @property
    def ok(self) -> bool:
        return self.error is None and self.version is not None


class Log:
    """Every request of a run, one list per field, indexed by submission."""

    FIELDS = ("req", "phase", "due", "sent", "done", "submit_s", "version",
              "ranked", "response", "error")

    def __init__(self) -> None:
        for name in self.FIELDS:
            setattr(self, name, [])
        self._futures: dict[int, concurrent.futures.Future] = {}

    def __len__(self) -> int:
        return len(self.req)

    def submit(self, cluster, req, phase: str, due: float, on_done=None) -> None:
        """Send one request; its answer is stamped into the log on arrival."""
        i = len(self.req)
        self.req.append(req)
        self.phase.append(phase)
        self.due.append(due)
        for column in (self.sent, self.done, self.submit_s):
            column.append(0.0)
        for column in (self.version, self.response, self.error):
            column.append(None)
        self.ranked.append(())
        sent = self.sent[i] = time.perf_counter()
        try:
            future = cluster.submit(
                req.instance,
                req.candidates,
                top_k=req.top_k,
                include_scores=req.include_scores,
            )
        except ClusterOverloadedError as exc:
            self.done[i] = time.perf_counter()
            self.submit_s[i] = self.done[i] - sent
            self.error[i] = f"shed: {exc}"
            if on_done is not None:
                on_done()
            return
        self.submit_s[i] = time.perf_counter() - sent
        self._futures[i] = future
        future.add_done_callback(lambda f: self._stamp(i, f, on_done))

    def _stamp(self, i: int, future, on_done) -> None:
        """Runs on the reader thread that settled the future."""
        self.done[i] = time.perf_counter()
        if future.cancelled():
            self.error[i] = "cancelled"
        elif future.exception() is not None:
            exc = future.exception()
            self.error[i] = f"{type(exc).__name__}: {exc}"
        else:
            response = future.result()
            self.ranked[i] = tuple(tv.as_tuple() for tv in response.ranked)
            if self.req[i].include_scores:
                self.response[i] = response
            self.version[i] = response.model_version
        self._futures.pop(i, None)
        if on_done is not None:
            on_done()

    def settle(self) -> None:
        """Wait for every outstanding answer; stragglers become failures."""
        pending = dict(self._futures)
        _, not_done = concurrent.futures.wait(
            pending.values(), timeout=RESULT_TIMEOUT_S
        )
        for i, future in pending.items():
            if future in not_done:
                self._futures.pop(i, None)
                self.error[i] = "timed out"
                self.done[i] = time.perf_counter()
        # the done callback runs right after the future settles: give the
        # last ones a moment to finish stamping
        deadline = time.perf_counter() + 5.0
        while self._futures and time.perf_counter() < deadline:
            time.sleep(0.001)

    def outcomes(self, start: int = 0, stop: "int | None" = None) -> "list[Outcome]":
        """Rows ``start:stop`` as objects (for use off the clock)."""
        stop = len(self) if stop is None else stop
        columns = [getattr(self, name)[start:stop] for name in self.FIELDS]
        return [Outcome(*row) for row in zip(*columns)]


def open_loop(cluster, log: Log, schedule) -> "tuple[int, int]":
    """Send ``schedule`` ([(offset_s, request)]) on time; wait for answers.

    Returns the log rows the phase wrote.
    """
    first = len(log)
    t0 = time.perf_counter() + 0.005
    for offset, req in schedule:
        due = t0 + offset
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        log.submit(cluster, req, "open", due)
    log.settle()
    return first, len(log)


def closed_loop(cluster, log: Log, requests, window: int, duration_s: float):
    """Keep ``window`` requests outstanding for ``duration_s``.

    ``requests`` is an iterator over the planned requests.  Returns the
    log rows the phase wrote and the phase's start time.
    """
    slots = threading.Semaphore(window)
    first = len(log)
    t0 = time.perf_counter()
    deadline = t0 + duration_s
    while time.perf_counter() < deadline:
        if slots.acquire(timeout=0.05):
            log.submit(cluster, next(requests), "closed", time.perf_counter(), slots.release)
    log.settle()
    return (first, len(log)), t0


def run_wave(cluster, requests, phase: str) -> "list[Outcome]":
    """Submit a batch at once and wait for all of it (untimed traffic)."""
    log = Log()
    for req in requests:
        log.submit(cluster, req, phase, time.perf_counter())
    log.settle()
    return log.outcomes()


# -- process accounting -----------------------------------------------------------


def worker_pids(cluster) -> "dict[int, int]":
    """Latest pid per worker id, from the cluster's spawn events."""
    return {e["worker"]: e["pid"] for e in cluster.events if e["type"] == "spawn"}


def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def cpu_seconds(cluster) -> "tuple[float, float]":
    """(coordinator CPU s, summed worker CPU s) so far."""
    workers = 0.0
    for pid in worker_pids(cluster).values():
        try:
            workers += _proc_cpu_s(pid)
        except OSError:  # a worker restarted mid-window: its time is gone
            pass
    return time.process_time(), workers


def steal_ticks() -> int:
    """Clock ticks the hypervisor ran something else on this VM's CPUs."""
    with open("/proc/stat") as fh:
        return int(fh.readline().split()[8])


def _rss_mb(pid: "int | str") -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def rss_mb(cluster) -> float:
    """Summed resident memory of the coordinator and the workers, in MB."""
    total = _rss_mb("self")
    for pid in worker_pids(cluster).values():
        try:
            total += _rss_mb(pid)
        except OSError:
            pass
    return total
