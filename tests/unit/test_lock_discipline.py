"""The locks, copies and clock reads an invocation takes are the ones its
outcome needs.

- ``Request``: completing exactly once, ``set_result``'s completed check and
  ``on_complete`` registration are locked; every read is not.
- Request ids and ``IdGenerator`` ids are one ``next()`` on a count.
- ``ReplicaDirectory``: ``status`` and a ``bind_endpoint`` hit take no lock,
  and an endpoint resolved under an older view is used once, never kept.
- The latency EWMA is recorded only once somebody ranks replicas.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.core.request import Reply, Request
from repro.core.routing import DirectoryView, ShardRouter
from repro.core.routing.directory import ReplicaDirectory
from repro.util.ids import IdGenerator
from tests.conftest import make_account

LOCK_TYPES = (type(threading.Lock()), type(threading.RLock()))


def c_calls(run, wanted) -> list[str]:
    """Enter ``run()`` under a profile hook; the C functions it called
    that ``wanted`` picks out, by name, in order."""
    seen: list[str] = []

    def hook(frame, event, arg):
        if event == "c_call" and wanted(arg):
            seen.append(arg.__name__)

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


def lock_calls(run) -> list[str]:
    """The lock methods ``run()`` called: every ``with lock:`` calls the
    lock's ``__exit__`` and every explicit use ``acquire`` / ``release``."""
    return c_calls(run, lambda function: isinstance(getattr(function, "__self__", None), LOCK_TYPES))


@pytest.fixture
def fast_switching():
    """Switch threads every microsecond so the races below really race."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


def run_threads(count: int, body) -> None:
    start = threading.Barrier(count)

    def run(index):
        start.wait()
        body(index)

    threads = [threading.Thread(target=run, args=(index,)) for index in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60.0)
    assert not any(thread.is_alive() for thread in threads)


# -- Request: one outcome, every callback once, every waiter the winner ------


class Refused(Exception):
    pass


def test_racing_completion_has_one_winner_seen_by_everyone(fast_switching):
    """Eight threads race ``complete`` / ``fail`` / ``on_complete`` / ``wait``
    on each of 2 000 requests: exactly one completion wins, every callback
    fires exactly once, and every waiter sees the winner's outcome."""
    requests = [Request("acct", "op", []) for _ in range(2000)]
    won = {index: [] for index in range(len(requests))}
    fired = {index: [] for index in range(len(requests))}
    waited = {index: [] for index in range(len(requests))}

    def body(thread):
        role = thread % 4
        for index, request in enumerate(requests):
            if role == 0:
                if request.complete(("value", thread)):
                    won[index].append(("value", thread))
            elif role == 1:
                error = Refused(thread)
                if request.fail(error):
                    won[index].append(error)
            elif role == 2:
                request.on_complete(lambda done, index=index, thread=thread: fired[index].append(
                    (thread, done.completed)
                ))
            else:
                try:
                    waited[index].append(request.wait(10.0))
                except Refused as exc:
                    waited[index].append(exc)

    run_threads(8, body)
    for index in range(len(requests)):
        assert len(won[index]) == 1, won[index]
        (winner,) = won[index]
        assert sorted(fired[index]) == [(2, True), (6, True)]
        assert waited[index] == [winner, winner]
        assert requests[index].completed


def test_a_request_seen_completed_already_has_its_outcome():
    """``wait()`` on a completed request reads the outcome without the lock,
    so the outcome must be written before ``_completed`` is set: a reader at
    the very instant the flag flips, while the completer still holds the
    lock, already sees it."""
    seen = []

    def read(request, got):
        try:
            got.append(request.wait(0.0))
        except Refused as exc:
            got.append(exc)

    class Observed(Request):
        def __setattr__(self, name, value):
            object.__setattr__(self, name, value)
            if name == "_completed" and value:
                got: list = []
                reader = threading.Thread(target=read, args=(self, got))
                reader.start()
                reader.join(1.0)  # a reader that takes the lock waits for the completer
                seen.append(got[0] if got else "blocked")

    error = Refused()
    Observed("acct", "op", []).complete("value")
    Observed("acct", "op", []).fail(error)
    assert seen == ["value", error]


def test_a_callback_registered_while_completing_still_fires():
    """Registration holds the lock across its completed check and its
    append: a completion that starts in between waits, and then fires it."""
    request = Request("acct", "op", [])
    fired = []
    racers = []

    class CompletingList(list):
        def append(self, callback):
            racer = threading.Thread(target=request.complete, args=("done",))
            racers.append(racer)
            racer.start()
            racer.join(0.2)  # blocks on the request lock while registration holds it
            super().append(callback)

    request._completion_callbacks = CompletingList()
    request.on_complete(fired.append)
    for racer in racers:
        racer.join(5.0)
    assert fired == [request]


def test_request_and_generator_ids_are_distinct_across_threads(fast_switching):
    generator = IdGenerator()
    request_ids: list[list[str]] = [[] for _ in range(8)]
    generator_ids: list[list[int]] = [[] for _ in range(8)]

    def body(thread):
        for _ in range(5000):
            request_ids[thread].append(Request("acct", "op", []).request_id)
            generator_ids[thread].append(generator.next_int())

    run_threads(8, body)
    for drawn in (request_ids, generator_ids):
        every = [id_ for ids in drawn for id_ in ids]
        assert len(every) == 40_000
        assert len(set(every)) == 40_000


def test_request_reads_take_no_lock():
    request = Request("acct", "op", [1])
    assert lock_calls(lambda: request.set_result(7)) == ["__exit__"]  # a locked write
    reply = Reply(server=1, value=7)
    assert lock_calls(lambda: request.add_reply(reply)) == []
    assert lock_calls(lambda: request.replies()) == []
    assert lock_calls(lambda: request.reply_count()) == []
    assert lock_calls(lambda: request.stored_result) == []
    request.complete(request.stored_result)
    assert lock_calls(lambda: request.wait(1.0)) == []
    assert request.wait(1.0) == 7
    assert request.replies() == {1: reply} and request.reply_count() == 1


# -- ReplicaDirectory ---------------------------------------------------------


def test_directory_status_and_a_bind_hit_take_no_lock():
    router = ShardRouter(DirectoryView(version=1))
    directory = ReplicaDirectory(name_for=str, resolve=lambda name: f"ep-{name}", router=router)
    assert directory.bind_endpoint(1) == "ep-1"
    assert lock_calls(lambda: directory.status(1)) == []
    assert lock_calls(lambda: directory.bind_endpoint(1)) == []
    # Clearing a failure mark that exists is a write: it takes the lock.
    directory.mark_failed(1)
    assert not directory.status(1)
    directory.bind_endpoint(1)
    assert directory.status(1)


@pytest.mark.parametrize("method", ["bind_endpoint", "endpoint"])
def test_an_endpoint_resolved_under_an_older_view_is_not_kept(method):
    """The view flips while the name is being resolved and a second sender
    adopts the new view meanwhile: the endpoint serves this one send, and
    the next send re-resolves instead of reaching the retired owner."""
    router = ShardRouter(DirectoryView(version=1))
    directory: ReplicaDirectory

    def resolve(name):
        if router.view().version == 1:
            router.apply(DirectoryView(version=2))
            directory.status(1)  # another sender adopts view 2
            return "old-owner"
        return "new-owner"

    directory = ReplicaDirectory(name_for=str, resolve=resolve, router=router)
    lookup = getattr(directory, method)
    assert lookup(1) == "old-owner"
    assert directory._seen_version == 2
    assert lookup(1) == "new-owner"
    assert lookup(1) == "new-owner"


# -- the latency EWMA, only once somebody ranks ------------------------------


def test_an_unranked_platform_reads_no_clock_per_send(deployment, bank_iface):
    deployment.add_replicas("acct", make_account(), bank_iface, replicas=1)
    stub = deployment.client_stub("acct", bank_iface)
    stub.set_balance(1.0)
    reads = c_calls(
        lambda: [stub.get_balance() for _ in range(4)],
        lambda function: function is time.monotonic,
    )
    assert reads == []
    assert stub._platform._latency_ewma is None


def test_after_the_first_rank_a_slower_link_ranks_last(deployment, bank_iface):
    deployment.add_replicas("acct", make_account(), bank_iface, replicas=2)
    stub = deployment.client_stub("acct", bank_iface, with_cactus_client=False)
    platform = stub._platform
    network = deployment.network
    deliver = network._deliver
    slow_host = deployment.replica_host_name("acct", 1) + "/"

    def slow_link(source, address, data):
        if address.startswith(slow_host):
            time.sleep(0.02)
        return deliver(source, address, data)

    network._deliver = slow_link
    assert platform.rank_servers([1, 2]) == (1, 2)  # nothing measured yet
    for server in (1, 2, 1, 2):
        platform.invoke_server(server, Request("acct", "get_balance", []))
    assert platform.rank_servers([1, 2]) == (2, 1)
