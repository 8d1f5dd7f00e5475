"""Scatter-gather fan-out: the multicast primitive of the replication protocols.

Submit every replica request in one non-blocking pass (the TCP mux
pipelines them on each replica's socket), then gather completions in
arrival order under a policy:

- ``"all"``       — every branch is gathered (active replication collects
                    all replies, passive forwarding joins every backup);
- ``"first"``     — the first *successful* reply wins; the remaining
                    branches are abandoned (correlation ids reclaimed, no
                    waiter leak);
- ``"quorum:k"``  — the k-th successful reply wins; no straggler wait.

Abandoning a branch never cancels the remote execution — the request was
already sent — it only stops waiting locally, which is exactly-once safe
for the protocols that use it (active replication sends to every replica
regardless; the reply value is what is being raced).
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Callable

from repro.net.transport import ReplyFuture
from repro.util.errors import ConfigurationError, TimeoutError_

#: Valid gather-policy modes.
GATHER_ALL = "all"
GATHER_FIRST = "first"
GATHER_QUORUM = "quorum"


def parse_gather_policy(spec: str | None) -> tuple[str, int]:
    """Parse a gather-policy spec into ``(mode, quorum_k)``.

    Accepts ``"all"`` (default for ``None``/empty), ``"first"``, and
    ``"quorum:k"`` with integer ``k >= 1`` (``"quorum"`` alone means
    ``k=2``).  Raises :class:`~repro.util.errors.ConfigurationError` on
    anything else — a silently ignored policy knob would be worse than a
    loud one.
    """
    if spec is None or not spec.strip():
        return (GATHER_ALL, 0)
    text = spec.strip().lower()
    if text in (GATHER_ALL, GATHER_FIRST):
        return (text, 0)
    if text == GATHER_QUORUM or text.startswith(GATHER_QUORUM + ":"):
        _, _, raw_k = text.partition(":")
        try:
            quorum_k = int(raw_k) if raw_k else 2
        except ValueError:
            raise ConfigurationError(f"malformed quorum size in gather policy {spec!r}") from None
        if quorum_k < 1:
            raise ConfigurationError(f"quorum size must be >= 1, got {quorum_k}")
        return (GATHER_QUORUM, quorum_k)
    raise ConfigurationError(
        f"unknown gather policy {spec!r}; expected 'all', 'first', or 'quorum:k'"
    )


class BranchOutcome:
    """The settled result of one scatter branch: ``value`` XOR ``error``."""

    __slots__ = ("key", "value", "error")

    def __init__(self, key: Any, value: Any, error: BaseException | None):
        self.key = key
        self.value = value
        self.error = error

    @property
    def ok(self) -> bool:
        return self.error is None

    def __repr__(self) -> str:
        outcome = repr(self.value) if self.ok else f"error={self.error!r}"
        return f"BranchOutcome({self.key}, {outcome})"


class ScatterGather:
    """One multicast fan-out: submit N branches, gather in completion order.

    ``submit(key, fn)`` calls ``fn() -> ReplyFuture`` and registers the
    branch; a submit-time raise is recorded as that branch's (immediate)
    failure outcome rather than propagating, so one dead replica never
    aborts the scatter pass.  Completion signals are queued at *wire*
    settle time (done callbacks push the key only — no decode on transport
    threads); ``next_outcome()`` resolves the branch on the gather thread,
    where the substrate's lazy decode and fault bookkeeping run.

    The scatter and gather sides may be different threads, but submissions
    must happen-before the first ``next_outcome`` for the count to be
    meaningful (all protocol users submit the full pass first).
    """

    def __init__(self) -> None:
        self._signals: queue.SimpleQueue = queue.SimpleQueue()
        self._branches: dict[Any, ReplyFuture] = {}
        self._immediate: dict[Any, BranchOutcome] = {}
        self._lock = threading.Lock()
        self._submitted = 0
        self._gathered = 0

    def submit(self, key: Any, submit_fn: Callable[[], ReplyFuture]) -> None:
        """Start one branch; its completion will surface via the queue."""
        try:
            reply = submit_fn()
        except BaseException as exc:  # noqa: BLE001 - recorded as the outcome
            with self._lock:
                self._immediate[key] = BranchOutcome(key, None, exc)
                self._submitted += 1
            self._signals.put(key)
            return
        with self._lock:
            self._branches[key] = reply
            self._submitted += 1
        reply.add_done_callback(lambda _reply, key=key: self._signals.put(key))

    @property
    def submitted(self) -> int:
        return self._submitted

    def remaining(self) -> int:
        """Branches submitted but not yet gathered (nor abandoned)."""
        with self._lock:
            return self._submitted - self._gathered

    def next_outcome(self, timeout: float | None = None) -> BranchOutcome | None:
        """The next settled branch in completion order; None when drained.

        Raises :class:`~repro.util.errors.TimeoutError_` if no branch
        settles within ``timeout``.  Substrate decode (and its fault
        side effects) run here, on the gather thread.
        """
        with self._lock:
            if self._gathered >= self._submitted:
                return None
        try:
            key = self._signals.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError_("scatter-gather: no branch completed within deadline") from None
        with self._lock:
            self._gathered += 1
            immediate = self._immediate.pop(key, None)
            reply = self._branches.pop(key, None)
        if immediate is not None:
            return immediate
        if reply is None:  # abandoned concurrently; treat as drained signal
            return BranchOutcome(key, None, TimeoutError_("exchange abandoned"))
        try:
            value = reply.result(timeout=0)
        except BaseException as exc:  # noqa: BLE001 - per-branch outcome
            return BranchOutcome(key, None, exc)
        return BranchOutcome(key, value, None)

    def gather_all(self, timeout: float | None = None) -> list[BranchOutcome]:
        """Gather every remaining branch (per-branch errors inside outcomes).

        ``timeout`` bounds the *whole* gather, not each branch.  Protocols
        that fire-and-forget a multicast call this from a single pool task
        so the substrates' lazy decode — and its binding-hygiene side
        effects — still run, just off the submitting thread.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        outcomes: list[BranchOutcome] = []
        while True:
            wait = None if deadline is None else max(0.0, deadline - time.monotonic())
            outcome = self.next_outcome(timeout=wait)
            if outcome is None:
                return outcomes
            outcomes.append(outcome)

    def abandon_rest(self) -> None:
        """Abandon every ungathered branch: reclaim transport waiter state.

        After this, ``next_outcome`` reports the scatter as drained.  Safe
        against late completion signals (their keys are simply ignored).
        """
        with self._lock:
            branches = list(self._branches.values())
            self._branches.clear()
            self._immediate.clear()
            self._gathered = self._submitted
        for reply in branches:
            reply.abandon()

