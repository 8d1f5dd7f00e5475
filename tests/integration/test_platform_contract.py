"""Cross-platform contract suite for the invocation kernel.

One parameterized suite asserting *identical observable behavior* of the
Cactus QoS interface across all three platform adapters (CORBA, RMI, HTTP):
bind/rebind semantics, ``server_status`` transitions, piggyback round-trip
fidelity (including non-ASCII keys and non-string values), the control
ping, and the shared fault taxonomy.  Any behavioral divergence between
adapters is a kernel regression — the paper's portability claim, made
executable.  The last section holds every entry of the adapter table
(:data:`repro.core.adapters.HOSTS`) to the host surface the deployment code
is written against.
"""

from __future__ import annotations

import sys

import pytest

from repro.apps.bank import BankAccount
from repro.cactus.composite import MicroProtocol, SharedData
from repro.core.adapters import HOSTS, host_class
from repro.core.platform import InvocationObserver, notify_observers
from repro.core.events import EV_INVOKE_RETURN
from repro.core.piggyback import REPLY_ENVELOPE_KEY
from repro.core.request import PB_REQUEST_ID, PB_VIEW_DELTA, PB_VIEW_VERSION, Request
from repro.core.routing import Placement, ShardRouter
from repro.core.routing.directory import ReplicaDirectory
from repro.qos import ActiveRep
from repro.util.errors import (
    ACTION_DROP_BINDING,
    ACTION_KEEP,
    ACTION_MARK_FAILED,
    BindError,
    CircuitOpenError,
    CommunicationError,
    DeadlineExceededError,
    InvocationError,
    MarshalError,
    ServerFailedError,
    TimeoutError_,
    fault_action,
    is_retryable,
)
from tests.conftest import make_account

REPLICAS = 2


class RecordingObserver(InvocationObserver):
    """Captures every kernel hook it sees, in order."""

    def __init__(self):
        self.events: list[tuple] = []

    def __getattribute__(self, name):
        if name.startswith("on_"):
            events = object.__getattribute__(self, "events")
            return lambda *args: events.append((name, *args))
        return object.__getattribute__(self, name)


@pytest.fixture
def server_observer():
    return RecordingObserver()


@pytest.fixture
def contract(deployment, bank_iface, server_observer):
    """Two intercepted replicas + a pass-through client platform."""
    deployment.add_replicas(
        "acct",
        make_account(),
        bank_iface,
        replicas=REPLICAS,
        server_micro_protocols=None,
        observers=[server_observer],
    )
    stub = deployment.client_stub("acct", bank_iface, with_cactus_client=False)
    return deployment, stub, stub._platform


def make_request(operation: str, params: list, piggyback: dict | None = None) -> Request:
    request = Request(
        object_id="acct", operation=operation, params=params, piggyback=dict(piggyback or {})
    )
    request.piggyback.setdefault(PB_REQUEST_ID, request.request_id)
    return request


# -- replica discovery and binding ------------------------------------------


def test_num_servers_counts_registered_replicas(contract):
    _, _, platform = contract
    assert platform.num_servers() == REPLICAS


def test_bind_unknown_replica_raises_bind_error(contract):
    """Every platform's 'name not bound' surfaces as the same BindError."""
    _, _, platform = contract
    with pytest.raises(BindError):
        platform.bind(99)


def test_bind_is_idempotent_and_lazy(contract):
    _, _, platform = contract
    platform.bind(1)
    platform.bind(1)  # second bind is a no-op, not an error
    assert platform.server_status(1)


def test_invoke_through_each_replica(contract):
    _, _, platform = contract
    for replica in range(1, REPLICAS + 1):
        platform.bind(replica)
        request = make_request("set_balance", [10.0 * replica])
        platform.invoke_server(replica, request)
        reply = platform.invoke_server(replica, make_request("get_balance", []))
        assert reply == 10.0 * replica


# -- server_status transitions ----------------------------------------------


def test_status_starts_up_and_marks_failed_on_crash(contract):
    deployment, _, platform = contract
    assert platform.server_status(1)
    deployment.crash_replica("acct", 1)
    with pytest.raises(ServerFailedError):
        platform.invoke_server(1, make_request("get_balance", []))
    # The crash was observed: local knowledge now reports the replica down.
    assert not platform.server_status(1)
    # Other replicas are unaffected.
    assert platform.server_status(2)


def test_rebind_clears_failure_mark_after_recovery(contract):
    deployment, _, platform = contract
    deployment.crash_replica("acct", 1)
    with pytest.raises(ServerFailedError):
        platform.invoke_server(1, make_request("get_balance", []))
    assert not platform.server_status(1)
    deployment.recover_replica("acct", 1)
    # "the bind() operation can also be used to rebind to a failed server
    # after it has recovered."
    platform.bind(1)
    assert platform.server_status(1)
    assert platform.invoke_server(1, make_request("get_balance", [])) == 0.0


# -- control ping -------------------------------------------------------------


def test_probe_true_while_up_false_after_crash(contract):
    deployment, _, platform = contract
    assert platform.probe(1)
    deployment.crash_replica("acct", 1)
    assert not platform.probe(1)
    assert not platform.server_status(1)  # probe failure marks the replica
    deployment.recover_replica("acct", 1)
    platform.bind(1)
    assert platform.probe(1)


def test_probe_unresolvable_replica_is_false_not_raise(contract):
    _, _, platform = contract
    assert not platform.probe(99)
    assert not platform.server_status(99)


# -- piggyback round-trip -----------------------------------------------------

AWKWARD_PIGGYBACK = {
    "plain": "value",
    "non_ascii_value": "héllo → мир ✓",
    "integer": 42,
    "floaty": 2.5,
    "binary": b"\x00\xff\xfe",
    "nested": {"list": [1, "two", 3.0], "flag": True},
    "clé-à-accents": "non-ascii key",  # breaks latin-1 header names
    "Mixed.Case_Key": "case must survive",  # breaks case-folding transports
    7: "non-string key",
}


def test_piggyback_round_trips_identically(contract, server_observer):
    """The skeleton sees byte-for-byte the piggyback the client attached —
    including non-ASCII keys/values, ints, bytes, and nested structures —
    on every platform."""
    _, _, platform = contract
    platform.bind(1)
    request = make_request("get_balance", [], piggyback=dict(AWKWARD_PIGGYBACK))
    platform.invoke_server(1, request)
    contexts = [
        event[3] for event in server_observer.events if event[0] == "on_skeleton_receive"
    ]
    assert contexts, "server observer saw no skeleton receive"
    seen = contexts[-1]
    for key, value in AWKWARD_PIGGYBACK.items():
        assert seen[key] == value, f"piggyback entry {key!r} did not survive"
    assert seen[PB_REQUEST_ID] == request.request_id


def test_request_identity_preserved_across_interception(contract, server_observer):
    """Replica-side abstract requests are rebuilt under the client's id."""
    _, _, platform = contract
    platform.bind(1)
    request = make_request("get_balance", [])
    platform.invoke_server(1, request)
    servant_requests = [
        event[1] for event in server_observer.events if event[0] == "on_servant_invoke"
    ]
    assert servant_requests and servant_requests[-1].request_id == request.request_id


# -- error taxonomy -----------------------------------------------------------


def test_application_exception_does_not_mark_replica(contract):
    """An application (IDL) exception is an outcome, not a platform fault."""
    deployment, stub, platform = contract
    platform.bind(1)
    with pytest.raises(Exception) as excinfo:
        platform.invoke_server(1, make_request("withdraw", [1000.0]))
    assert not isinstance(excinfo.value, CommunicationError)
    assert platform.server_status(1)  # binding untouched


def test_fault_taxonomy_matches_is_retryable():
    """fault_action() and is_retryable() agree on the CommunicationError
    taxonomy: crashes mark the replica, transients only drop the binding."""
    crash = ServerFailedError("host down")
    assert fault_action(crash) == ACTION_MARK_FAILED
    assert not is_retryable(crash)
    for transient in (
        CommunicationError("reset"),
        TimeoutError_("slow"),
        DeadlineExceededError("spent"),
        CircuitOpenError("open"),
    ):
        assert fault_action(transient) == ACTION_DROP_BINDING
    for outcome in (
        InvocationError("App", "boom"),
        MarshalError("bad bytes"),
        ValueError("not a platform fault"),
        None,
    ):
        assert fault_action(outcome) == ACTION_KEEP


def test_stub_and_wire_observers_fire_in_order(deployment, bank_iface):
    """Client-side hooks thread stub → wire on every platform."""
    observer = RecordingObserver()
    deployment.add_replicas(
        "acct", make_account(), bank_iface, replicas=1, server_micro_protocols=None
    )
    stub = deployment.client_stub(
        "acct", bank_iface, with_cactus_client=False, observers=[observer]
    )
    stub.set_balance(5.0)
    assert stub.get_balance() == 5.0
    hooks = [name for name, *_ in observer.events]
    assert hooks == [
        "on_stub_request", "on_wire_send", "on_wire_reply", "on_stub_complete",
    ] * 2
    # Completion hook reports success (no error).
    final = observer.events[-1]
    assert final[0] == "on_stub_complete" and final[2] is None


def test_late_observer_sees_whole_invocations_only(deployment, bank_iface):
    """An invocation that starts with no observer makes none of its hook
    calls: one attached while it is in flight first sees the next one."""
    observer = RecordingObserver()
    deployment.add_replicas(
        "acct", make_account(), bank_iface, replicas=1, server_micro_protocols=None
    )
    stub = deployment.client_stub("acct", bank_iface, with_cactus_client=False)
    platform = stub._platform
    send = platform._send

    def attach_then_send(*args):
        if not platform.observers:
            stub.add_observer(observer)
            platform.add_observer(observer)
        return send(*args)

    platform._send = attach_then_send
    stub.set_balance(5.0)
    assert observer.events == []
    assert stub.get_balance() == 5.0
    assert [name for name, *_ in observer.events] == [
        "on_stub_request", "on_wire_send", "on_wire_reply", "on_stub_complete",
    ]


def count_calls(watched: dict, run) -> dict[str, int]:
    """Enter ``run()`` under a profile hook; how often each watched code
    object (``code -> name``) was called.  Counted, not timed."""
    seen = dict.fromkeys(watched.values(), 0)

    def count(frame, event, arg):
        if event == "call":
            name = watched.get(frame.f_code)
            if name is not None:
                seen[name] += 1

    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


def test_idle_hooks_and_lookups_cost_no_call(deployment, bank_iface):
    """With no observer registered and an unchanged view, a base-stack
    invocation enters ``notify_observers``, ``SharedData.get`` and
    ``ReplicaDirectory._sync_view`` zero times — counted, not timed, so the
    idle cost is nothing by construction."""
    deployment.add_replicas("acct", make_account(), bank_iface, replicas=1)
    stub = deployment.client_stub("acct", bank_iface)
    stub.set_balance(1.0)  # bind, compile chains, first-use work
    watched = {
        notify_observers.__code__: "notify_observers",
        SharedData.get.__code__: "SharedData.get",
        ReplicaDirectory._sync_view.__code__: "_sync_view",
        BankAccount.get_balance.__code__: "servant",
    }
    # The in-memory network dispatches on the caller's thread, so the
    # server half of the path is inside the profile: the servant proves it.
    assert count_calls(watched, lambda: [stub.get_balance() for _ in range(4)]) == {
        "notify_observers": 0, "SharedData.get": 0, "_sync_view": 0, "servant": 4,
    }


class SkeletonBoundaryObserver(InvocationObserver):
    """Listens at the skeleton boundary only: one count up on receive, one
    down on reply."""

    def __init__(self):
        self.open = 0

    def on_skeleton_receive(self, object_id, operation, context):
        self.open += 1

    def on_skeleton_reply(self, object_id, operation, value):
        self.open -= 1


def test_hooks_nobody_overrides_cost_no_call(deployment, bank_iface):
    """An observer is called on the hooks it overrides and on no other: one
    registered at all four sites that listens to two skeleton hooks costs
    those two deliveries per invocation, and the base class's no-op hooks
    are never entered."""
    observer = SkeletonBoundaryObserver()
    deployment.add_replicas(
        "acct", make_account(), bank_iface, replicas=1, observers=[observer]
    )
    stub = deployment.client_stub("acct", bank_iface, observers=[observer])
    stub.set_balance(1.0)
    watched = {
        notify_observers.__code__: "notify_observers",
        SkeletonBoundaryObserver.on_skeleton_receive.__code__: "receive",
        SkeletonBoundaryObserver.on_skeleton_reply.__code__: "reply",
        BankAccount.get_balance.__code__: "servant",
    }
    for name, hook in vars(InvocationObserver).items():
        if name.startswith("on_"):
            watched[hook.__code__] = "inherited no-op"
    assert count_calls(watched, lambda: [stub.get_balance() for _ in range(4)]) == {
        "notify_observers": 8, "receive": 4, "reply": 4, "servant": 4, "inherited no-op": 0,
    }
    assert observer.open == 0


def test_observer_added_between_invocations_sees_the_next_in_full(deployment, bank_iface):
    observer = RecordingObserver()
    (skeleton,) = deployment.add_replicas(
        "acct", make_account(), bank_iface, replicas=1, server_micro_protocols=None
    )
    stub = deployment.client_stub("acct", bank_iface, with_cactus_client=False)
    stub.set_balance(5.0)
    for site in (stub, stub._platform, skeleton._platform):
        site.add_observer(observer)
    assert observer.events == []
    assert stub.get_balance() == 5.0
    assert [name for name, *_ in observer.events] == [
        "on_stub_request", "on_wire_send", "on_servant_invoke", "on_servant_return",
        "on_wire_reply", "on_stub_complete",
    ]


def test_duck_typed_observer_gets_the_hook_it_defines(deployment, bank_iface):
    """An observer need not subclass InvocationObserver, nor define every hook."""

    class Replies:
        def __init__(self):
            self.values = []

        def on_wire_reply(self, request, server, value):
            self.values.append(value)

    early, late = Replies(), Replies()
    deployment.add_replicas("acct", make_account(), bank_iface, replicas=1)
    stub = deployment.client_stub("acct", bank_iface, observers=[early])
    stub.set_balance(3.0)
    stub._platform.add_observer(late)
    assert stub.get_balance() == 3.0
    assert early.values == [None, 3.0] and late.values == [3.0]


def test_raising_hooks_change_no_outcome(deployment, bank_iface):
    """Observation never alters a result, an application exception or the
    hooks of the observer registered beside the broken one."""

    class Broken(InvocationObserver):
        def on_stub_request(self, *args):
            raise RuntimeError("observer bug")

        on_stub_complete = on_wire_send = on_wire_reply = on_skeleton_receive = on_stub_request
        on_skeleton_reply = on_skeleton_failure = on_servant_invoke = on_stub_request
        on_servant_return = on_stub_request

    witness = RecordingObserver()
    observers = [Broken(), witness]
    deployment.add_replicas(
        "acct", make_account(), bank_iface, replicas=1, observers=observers
    )
    stub = deployment.client_stub("acct", bank_iface, observers=observers)
    stub.set_balance(2.0)
    assert stub.get_balance() == 2.0
    with pytest.raises(Exception) as excinfo:
        stub.withdraw(1000.0)
    assert type(excinfo.value).__name__ == "InsufficientFunds"
    hooks = [name for name, *_ in witness.events]
    assert hooks.count("on_stub_request") == hooks.count("on_stub_complete") == 3
    assert hooks.count("on_skeleton_receive") == 3
    assert hooks.count("on_skeleton_reply") + hooks.count("on_skeleton_failure") == 3


# -- a failed send is a whole failed attempt ----------------------------------


def test_failed_async_submit_reports_a_failed_attempt(deployment, bank_iface):
    """A scatter branch whose send raises at submit (here: an argument no
    codec can marshal) on a sharded deployment is a failed attempt like any
    other — inside the taxonomy, its ``on_wire_send`` paired with an
    ``on_wire_failure`` — and the stub keeps working.  Nothing on the client
    side is held for a rebalance to drain: that happens at the server."""
    observer = RecordingObserver()
    space = deployment.shard_space({"a": 1})
    space.add_object("acct", BankAccount, bank_iface)
    stub = space.client_stub(
        "acct", bank_iface, client_micro_protocols=lambda: [ActiveRep()], observers=[observer]
    )
    stub.set_balance(1.0)
    observer.events.clear()
    with pytest.raises(MarshalError):
        stub.set_balance(object())
    wire = [name for name, *_ in observer.events if name.startswith("on_wire")]
    assert wire == ["on_wire_send", "on_wire_failure"]
    assert stub._platform.server_status(1)  # a marshalling fault keeps the binding
    assert stub.get_balance() == 1.0


def test_raising_send_async_reports_a_failed_attempt(deployment, bank_iface):
    """The same guarantee whatever the codec raises before it has a future
    to settle (a DII conformance check, a fake): the kernel reports the
    attempt."""
    observer = RecordingObserver()
    space = deployment.shard_space({"a": 1})
    space.add_object("acct", BankAccount, bank_iface)
    stub = space.client_stub("acct", bank_iface, observers=[observer])
    platform = stub._platform

    def refuse(*args):
        raise CommunicationError("codec refused before submit")

    platform._send_async = refuse
    observer.events.clear()
    with pytest.raises(CommunicationError):
        platform.invoke_server_async(1, make_request("get_balance", []))
    assert [name for name, *_ in observer.events] == ["on_wire_send", "on_wire_failure"]


# -- a reply is accepted in one place -----------------------------------------


class StageViewDelta(MicroProtocol):
    """Server side: put this value on every reply as the view delta."""

    name = "StageViewDelta"

    def __init__(self, delta):
        super().__init__()
        self._delta = delta

    def start(self) -> None:
        self.bind(EV_INVOKE_RETURN, self.stage, order=90)

    def stage(self, occurrence) -> None:
        occurrence.args[0].reply_piggyback[PB_VIEW_DELTA] = self._delta


def test_unparseable_view_delta_is_a_refresh_not_an_error(deployment, bank_iface):
    """A view delta that cannot be parsed into a view arrives after the
    servant ran: the call returns the servant's value, the directory falls
    back to bootstrap re-enumeration and ``on_wire_reply`` fires — on the
    blocking and the async send alike."""
    observer = RecordingObserver()
    space = deployment.shard_space({"a": 1})
    space.add_object(
        "acct",
        BankAccount,
        bank_iface,
        server_micro_protocols=lambda: [StageViewDelta({"to": 10**9})],
    )
    stub = space.client_stub("acct", bank_iface, observers=[observer])
    platform = stub._platform
    refreshes = []
    refresh = platform.directory.refresh
    platform.directory.refresh = lambda: refreshes.append(1) or refresh()
    version = platform.router.view().version

    assert stub.deposit(5.0) == 5.0
    assert refreshes == [1]
    reply = platform.invoke_server_async(1, make_request("get_balance", []))
    assert reply.result(timeout=5.0) == 5.0
    assert refreshes == [1, 1]
    replies = [args[-1] for name, *args in observer.events if name == "on_wire_reply"]
    assert replies == [5.0, 5.0]
    assert platform.router.view().version == version


def test_an_unsharded_client_has_no_router_and_stamps_no_view(deployment, bank_iface):
    """A base deployment's client platform is unsharded the way its server
    platform is: ``router`` is None (so no routing module loads for it) and
    no request carries a view stamp, on the blocking and the async send."""
    deployment.add_replicas("acct", make_account(), bank_iface)
    platform = deployment.client_stub("acct", bank_iface)._platform
    assert platform.router is None
    sent = []  # the piggyback of each send, the last argument

    def recording(send):
        return lambda *args: sent.append(args[-1]) or send(*args)

    platform._send = recording(platform._send)
    platform._send_async = recording(platform._send_async)

    assert platform.invoke_server(1, make_request("deposit", [2.0])) == 2.0
    assert platform.invoke_server_async(1, make_request("get_balance", [])).result(5.0) == 2.0
    assert len(sent) == 2
    assert not any(PB_VIEW_VERSION in piggyback for piggyback in sent)


def test_a_view_delta_to_an_unsharded_client_is_a_refresh(deployment, bank_iface):
    """A reply carrying a view delta to a client with no router refreshes
    its directory, as an unusable delta does on a sharded client, and the
    call returns the servant's value."""
    deployment.add_replicas(
        "acct",
        make_account(),
        bank_iface,
        server_micro_protocols=lambda: [StageViewDelta({"to": 1})],
    )
    platform = deployment.client_stub("acct", bank_iface)._platform
    refreshes = []
    refresh = platform.directory.refresh
    platform.directory.refresh = lambda: refreshes.append(1) or refresh()

    assert platform.invoke_server(1, make_request("deposit", [5.0])) == 5.0
    assert refreshes == [1]
    assert platform.invoke_server_async(1, make_request("get_balance", [])).result(5.0) == 5.0
    assert refreshes == [1, 1]


class MalformedEnvelope(MicroProtocol):
    """Server side: replace every result with a reply envelope whose
    piggyback is ``piggyback``, as DesPrivacyServer replaces it with
    ciphertext."""

    name = "MalformedEnvelope"

    def __init__(self, piggyback):
        super().__init__()
        self._piggyback = piggyback

    def start(self) -> None:
        self.bind(EV_INVOKE_RETURN, self.replace, order=90)

    def replace(self, occurrence) -> None:
        occurrence.args[0].set_result({REPLY_ENVELOPE_KEY: self._piggyback, "v": 1.0})


@pytest.mark.parametrize("piggyback", [5, "ab", [1], None], ids=["int", "str", "list", "none"])
def test_malformed_reply_envelope_is_a_failed_attempt(deployment, bank_iface, piggyback):
    """An envelope whose piggyback is not a dict arrives after the servant
    ran: the call fails with ``MarshalError`` and the attempt is reported
    once through ``on_wire_failure`` — on the blocking and the async send."""
    observer = RecordingObserver()
    deployment.add_replicas(
        "acct",
        make_account(),
        bank_iface,
        replicas=1,
        server_micro_protocols=lambda: [MalformedEnvelope(piggyback)],
    )
    stub = deployment.client_stub("acct", bank_iface, observers=[observer])
    platform = stub._platform

    def wire_hooks():
        return [name for name, *_ in observer.events if name.startswith("on_wire")]

    with pytest.raises(MarshalError):
        stub.get_balance()
    assert wire_hooks() == ["on_wire_send", "on_wire_failure"]
    observer.events.clear()
    reply = platform.invoke_server_async(1, make_request("get_balance", []))
    with pytest.raises(MarshalError):
        reply.result(timeout=5.0)
    assert wire_hooks() == ["on_wire_send", "on_wire_failure"]
    assert platform.server_status(1)  # a marshalling fault keeps the binding


# -- replica ids are kept per view version ------------------------------------


def test_server_ids_follow_a_view_flip_and_a_refresh(deployment, bank_iface):
    """The ids are cached under the view version they were computed for: a
    flip that moves the object is seen by the next call, so is a refresh,
    and a computation a flip overtook is never served under the new view."""
    space = deployment.shard_space({"a": 1, "b": 1})
    space.add_object("acct", BankAccount, bank_iface)
    platform = space.client_stub("acct", bank_iface)._platform
    router = platform.router
    assert platform.server_ids() == (1,)

    def move(*logical_ids):
        placement = Placement(replication_factor=len(logical_ids), logical_ids=logical_ids)
        router.apply(router.view().with_placement("acct", placement))

    move(4, 7)
    assert platform.server_ids() == (4, 7)
    platform.refresh()
    assert platform.server_ids() == (4, 7)

    route = router.route

    def flip_mid_call(object_id):
        ids = route(object_id)  # computed under the view about to go stale
        move(9)
        return ids

    platform.refresh()  # nothing cached: the next call computes
    router.route = flip_mid_call
    assert platform.server_ids() == (4, 7)
    router.route = route
    assert platform.server_ids() == (9,)


def test_refresh_recounts_unsharded_server_ids(hosts, bank_iface):
    """Unsharded ids are counted by enumeration once, and again after a
    refresh: a replica installed meanwhile then appears."""
    server, client = hosts
    router = ShardRouter()  # one host serving two replicas: a shard member
    server.install_replica("acct", 1, BankAccount(), bank_iface, router=router)
    platform = client.client_platform("acct")
    assert platform.server_ids() == (1,)
    server.install_replica("acct", 2, BankAccount(), bank_iface, router=router)
    assert platform.server_ids() == (1,)
    platform.refresh()
    assert platform.server_ids() == (1, 2)


# -- the adapter host seam ----------------------------------------------------


@pytest.fixture(params=list(HOSTS))
def hosts(request, network, compiled_bank):
    """One platform's bootstrap service, a started server host, a client host."""
    host = host_class(request.param)
    bootstrap, server, client = (
        host(network, name, compiled_bank)
        for name in (host.BOOTSTRAP_HOST, "srv", "cli")
    )
    bootstrap.start().start_bootstrap()
    server.start()
    yield server, client
    for host in (client, server, bootstrap):
        host.shutdown()


@pytest.mark.parametrize("routed", [False, True], ids=["unsharded", "sharded"])
def test_uninstall_replica_undoes_install(hosts, bank_iface, routed):
    """install → resolve → uninstall leaves no bootstrap entry and no mount,
    and the same (object, replica) installs again on the same host — what
    ShardSpace's re-hosting after a handoff relies on."""
    server, client = hosts
    router = ShardRouter() if routed else None
    server.install_replica("acct", 1, BankAccount(), bank_iface, router=router)
    bound = client.client_platform("acct")
    bound.invoke_server(1, make_request("set_balance", [7.0]))

    server.unbind_replica("acct", 1)
    server.unmount_replica("acct", 1)
    fresh = client.client_platform("acct")
    assert fresh._list_names(fresh._replica_prefix()) == []
    with pytest.raises(BindError):
        fresh.bind(1)
    # The endpoint resolved before the uninstall now serves nothing.
    with pytest.raises(InvocationError):
        bound.invoke_server(1, make_request("get_balance", []))

    server.install_replica("acct", 1, BankAccount(), bank_iface, router=router)
    assert fresh.invoke_server(1, make_request("get_balance", [])) == 0.0


def test_unmount_and_unbind_are_independent_halves(hosts, bank_iface):
    """A moved replica is unmounted from its old host while its name (now
    the new owner's) stays; a dropped one loses its name while the retired
    mount keeps answering stale clients."""
    server, client = hosts
    router = ShardRouter()  # one host serving two replicas: a shard member
    server.install_replica("acct", 1, BankAccount(), bank_iface, router=router)
    server.install_replica("acct", 2, BankAccount(), bank_iface, router=router)
    platform = client.client_platform("acct")
    assert platform.num_servers() == 2

    server.unmount_replica("acct", 1)
    platform.bind(1)  # still resolvable
    with pytest.raises(InvocationError):
        platform.invoke_server(1, make_request("get_balance", []))

    platform.bind(2)
    server.unbind_replica("acct", 2)
    assert platform.invoke_server(2, make_request("get_balance", [])) == 0.0
    platform.refresh()
    assert platform.num_servers() == 1


def test_plain_rung_through_the_host(hosts, bank_iface):
    """Table 1's "Original" rung: the platform's own skeleton and stub,
    published under the replica name a CQoS stub would look for."""
    server, client = hosts
    server.deploy_plain("acct", 1, BankAccount(), bank_iface)
    stub = client.plain_stub("acct", 1, bank_iface)
    stub.set_balance(3.0)
    assert stub.get_balance() == 3.0
    assert client.client_platform("acct").num_servers() == 1
