"""Integration tests for the CORBA-like ORB (no CQoS involved)."""

import itertools
import sys

import pytest

from repro.apps.bank import BankAccount, bank_compiled, bank_interface
from repro.core.service import CqosDeployment
from repro.idl.ast import BasicType, SequenceType
from repro.net.memory import InMemoryNetwork
from repro.orb import (
    DynamicImplementation,
    Orb,
    giop,
    make_static_stub_class,
    start_naming_service,
)
from repro.orb.ior import IOR
from repro.orb.orb import ObjectRef
from repro.orb.naming import naming_client
from repro.serialization.cdr import CdrInputStream, CdrOutputStream
from repro.util.errors import BindError, InvocationError, MarshalError


@pytest.fixture
def world():
    net = InMemoryNetwork()
    compiled = bank_compiled()
    naming_orb = Orb(net, "naming", compiled).start()
    start_naming_service(naming_orb)
    server_orb = Orb(net, "server", compiled).start()
    client_orb = Orb(net, "client", compiled)
    yield net, server_orb, client_orb
    for orb in (naming_orb, server_orb, client_orb):
        orb.shutdown()
    net.close()


def activate_account(server_orb, balance=0.0):
    poa = server_orb.create_poa("bank_poa")
    return poa.activate_object(
        "acct", BankAccount(balance=balance), interface=bank_interface()
    )


class TestStaticPath:
    def test_stub_invocations(self, world):
        _, server_orb, client_orb = world
        ior = activate_account(server_orb, balance=10.0)
        stub = make_static_stub_class(bank_interface())(client_orb, ior)
        assert stub.get_balance() == 10.0
        stub.set_balance(25.0)
        assert stub.deposit(5.0) == 30.0
        assert stub.owner() == "alice"

    def test_user_exception_crosses_wire(self, world):
        _, server_orb, client_orb = world
        ior = activate_account(server_orb)
        stub = make_static_stub_class(bank_interface())(client_orb, ior)
        exc_cls = bank_compiled().exceptions["bank::InsufficientFunds"]
        with pytest.raises(exc_cls) as excinfo:
            stub.withdraw(100.0)
        assert excinfo.value.requested == 100.0

    def test_system_exception_for_bad_types(self, world):
        _, server_orb, client_orb = world
        ior = activate_account(server_orb)
        ref = ObjectRef(client_orb, ior)
        # history() returns a list; passing a bogus arg type dies server-side.
        with pytest.raises(InvocationError):
            ref.invoke_op("set_balance", [1, 2, 3])  # wrong arity

    def test_unknown_object_key(self, world):
        _, server_orb, client_orb = world
        ior = activate_account(server_orb)
        bogus = IOR(ior.type_id, ior.address, "bank_poa|ghost")
        with pytest.raises(InvocationError, match="BindError"):
            ObjectRef(client_orb, bogus).invoke_op("get_balance", [])


class TestDii:
    def test_dii_invocation(self, world):
        _, server_orb, client_orb = world
        ior = activate_account(server_orb, balance=3.0)
        ref = ObjectRef(client_orb, ior)
        request = ref._create_request("deposit")
        request.add_arg(2.0)
        request.invoke()
        assert request.return_value() == 5.0

    def test_dii_stores_exception(self, world):
        _, server_orb, client_orb = world
        ior = activate_account(server_orb)
        ref = ObjectRef(client_orb, ior)
        request = ref._create_request("withdraw").add_arg(9.9)
        request.invoke()
        assert request.exception() is not None
        with pytest.raises(Exception):
            request.return_value()

    def test_dii_conformance_check(self, world):
        _, server_orb, client_orb = world
        ior = activate_account(server_orb)
        ref = ObjectRef(client_orb, ior)
        request = ref._create_request("set_balance").add_arg("not a double")
        with pytest.raises(MarshalError):
            request.invoke()


class FrameSink:
    """A raw ``sink/giop`` endpoint: keeps every request frame, answers None."""

    TYPED = IOR("IDL:bank/BankAccount:1.0", "sink/giop", "p|o")
    UNTYPED = IOR("IDL:omg.org/CORBA/Object:1.0", "sink/giop", "p|o")

    def __init__(self, net):
        self.frames: list[bytes] = []
        self._listener = net.host("sink").listen("giop", self._handle)

    def _handle(self, frame: bytes) -> bytes:
        self.frames.append(frame)
        request_id = giop.decode_message(frame).request_id
        return giop.encode_reply(giop.ReplyMessage(request_id, giop.REPLY_NO_EXCEPTION))

    def messages(self) -> list:
        return [giop.decode_message(frame) for frame in self.frames]


class TestDiiContract:
    def test_nvlist_names_values_and_typecodes(self, world):
        _, _, client_orb = world
        request = ObjectRef(client_orb, FrameSink.UNTYPED)._create_request("op")
        values = [5.0, "x", 3, True, [1, 2], [1, "a"], None, {"k": 1}]
        for value in values:
            assert request.add_arg(value) is request
        nvlist = request.nvlist()
        assert [nv.name for nv in nvlist] == [f"arg{i}" for i in range(len(values))]
        assert [nv.value for nv in nvlist] == values
        assert [nv.typecode for nv in nvlist] == [
            BasicType("double"), BasicType("string"), BasicType("long long"),
            BasicType("boolean"), SequenceType(BasicType("long long")),
            SequenceType(BasicType("any")), BasicType("void"), BasicType("any"),
        ]
        nvlist.clear()  # a copy: the request keeps its own
        assert len(request.nvlist()) == len(values)

    def test_typed_reference_is_checked_before_any_frame_leaves(self, world):
        net, _, client_orb = world
        sink = FrameSink(net)
        ref = ObjectRef(client_orb, FrameSink.TYPED)
        for send in ("invoke", "send_deferred"):
            request = ref._create_request("set_balance").add_arg("not a double")
            with pytest.raises(MarshalError, match="does not conform"):
                getattr(request, send)()
            with pytest.raises(MarshalError, match="takes 1 arguments"):
                getattr(ref._create_request("set_balance"), send)()
            with pytest.raises(MarshalError, match="no operation"):
                getattr(ref._create_request("nonesuch"), send)()
        assert sink.frames == []
        request = ref._create_request("set_balance").add_arg(2.0)
        request.invoke()
        assert request.return_value() is None and len(sink.frames) == 1

    def test_untyped_reference_is_not_checked(self, world):
        net, _, client_orb = world
        sink = FrameSink(net)
        request = ObjectRef(client_orb, FrameSink.UNTYPED)._create_request("set_balance")
        request.add_arg("not a double").add_arg("one too many").invoke()
        assert request.exception() is None
        [message] = sink.messages()
        assert message.arguments == ["not a double", "one too many"]

    def test_set_context_isolates_the_callers_dict(self, world):
        net, _, client_orb = world
        sink = FrameSink(net)
        context = {"k": 1}
        request = ObjectRef(client_orb, FrameSink.UNTYPED)._create_request("op")
        request.set_context(context)
        context["k"] = 2
        context["late"] = True
        assert request.context() == {"k": 1}
        request.invoke()
        assert sink.messages()[0].context == {"k": 1}

    def test_deferred_and_oneway_send_the_frame_invoke_does(self, world):
        net, _, client_orb = world
        sink = FrameSink(net)
        ref = ObjectRef(client_orb, FrameSink.TYPED)

        def request():
            return ref._create_request("deposit").add_arg(2.5).set_context({"c": "x"})

        request().invoke()
        assert request().send_deferred().result(timeout=5.0) is None
        client_orb.invoke(ref.ior, "deposit", [2.5], {"c": "x"}, response_expected=False)
        invoked, sent_deferred, sent_oneway = sink.frames
        # Only the request id (octets 8-11) tells the first two apart ...
        assert invoked[:8] == sent_deferred[:8] and invoked[12:] == sent_deferred[12:]
        # ... and the oneway differs from them in its response-expected flag too.
        flag_at = invoked.index(b"deposit") + len(b"deposit")
        assert invoked[flag_at] == 1 and sent_oneway[flag_at] == 0
        assert invoked[12:flag_at] == sent_oneway[12:flag_at]
        assert invoked[flag_at + 1 :] == sent_oneway[flag_at + 1 :]
        assert [m.request_id for m in sink.messages()] == [1, 2, 3]


class TestRequestIds:
    def test_the_counter_wraps_at_the_unsigned_long_giop_carries(self, world):
        """Four calls across 2**32: an id GIOP cannot carry used to escape
        ``encode_request`` as a bare ``struct.error``."""
        net, _, client_orb = world
        sink = FrameSink(net)
        client_orb._request_ids = itertools.count(2**32 - 2)
        ref = ObjectRef(client_orb, FrameSink.UNTYPED)
        for _ in range(4):
            assert ref.invoke_op("op", []) is None
        assert [m.request_id for m in sink.messages()] == [2**32 - 2, 2**32 - 1, 0, 1]


def test_a_base_invocation_enters_no_stream_frame_and_few_dii_dsi_frames():
    """Counted, not timed: one in-memory base CORBA invocation builds and
    reads both GIOP envelopes without a ``CdrOutputStream`` /
    ``CdrInputStream`` method call from ``giop.py``, and the DII + DSI
    conversion around them is twelve Python frames for a one-argument
    operation (seven in ``dii.py``, five in ``dsi.py``)."""
    stream_codes = {
        getattr(member, "fget", member).__code__
        for cls in (CdrOutputStream, CdrInputStream)
        for member in vars(cls).values()
        if hasattr(getattr(member, "fget", member), "__code__")
    }
    seen = {"stream_from_giop": 0, "dii_dsi": 0, "giop": 0}

    def count(frame, event, arg):
        if event != "call":
            return
        filename = frame.f_code.co_filename
        if filename.endswith(("orb/dii.py", "orb/dsi.py")):
            seen["dii_dsi"] += 1
        elif filename.endswith("orb/giop.py"):
            seen["giop"] += 1
        elif frame.f_code in stream_codes and frame.f_back.f_code.co_filename.endswith(
            "orb/giop.py"
        ):
            seen["stream_from_giop"] += 1

    deployment = CqosDeployment(InMemoryNetwork(), "corba", bank_compiled())
    try:
        deployment.add_replicas("acct", BankAccount, bank_interface())
        stub = deployment.client_stub("acct", bank_interface())
        stub.set_balance(1.0)  # bind, compile chains, first-use work
        sys.setprofile(count)
        try:
            stub.set_balance(2.0)
        finally:
            sys.setprofile(None)
    finally:
        deployment.close()
    # The in-memory network dispatches on the caller's thread: both encodes
    # and both decodes are inside the profile.
    assert seen["giop"] == 4
    assert seen["stream_from_giop"] == 0
    assert seen["dii_dsi"] <= 12


class TestDsi:
    def test_dynamic_servant_sees_everything(self, world):
        _, server_orb, client_orb = world

        class Sink(DynamicImplementation):
            def __init__(self):
                self.seen = []

            def invoke(self, server_request):
                self.seen.append(
                    (server_request.operation, server_request.arguments(), server_request.context())
                )
                server_request.set_result("ack")

        sink = Sink()
        poa = server_orb.create_poa("dsi_poa")
        ior = poa.activate_object("sink", sink)
        ref = ObjectRef(client_orb, ior)
        assert ref.invoke_op("anything_at_all", [1, 2], {"ctx": True}) == "ack"
        assert sink.seen == [("anything_at_all", [1, 2], {"ctx": True})]

    def test_incomplete_dsi_request_is_error(self, world):
        _, server_orb, client_orb = world

        class Lazy(DynamicImplementation):
            def invoke(self, server_request):
                pass  # never completes

        poa = server_orb.create_poa("lazy_poa")
        ior = poa.activate_object("lazy", Lazy())
        with pytest.raises(InvocationError, match="IncompleteRequest"):
            ObjectRef(client_orb, ior).invoke_op("x", [])


class TestNaming:
    def test_bind_resolve_unbind(self, world):
        _, server_orb, client_orb = world
        ior = activate_account(server_orb)
        naming = naming_client(client_orb)
        naming.bind("bank/acct", server_orb.object_to_string(ior))
        resolved = client_orb.string_to_object(naming.resolve("bank/acct"))
        assert resolved.invoke_op("get_balance", []) == 0.0
        assert naming.list_names("bank/") == ["bank/acct"]
        naming.unbind("bank/acct")
        assert naming.list_names("") == []

    def test_double_bind_rejected(self, world):
        _, server_orb, client_orb = world
        ior_text = server_orb.object_to_string(activate_account(server_orb))
        naming = naming_client(client_orb)
        naming.bind("x", ior_text)
        from repro.orb.naming import naming_idl

        with pytest.raises(naming_idl().exceptions["cos::AlreadyBound"]):
            naming.bind("x", ior_text)
        naming.rebind("x", ior_text)  # rebind always allowed

    def test_resolve_missing(self, world):
        _, _, client_orb = world
        from repro.orb.naming import naming_idl

        with pytest.raises(naming_idl().exceptions["cos::NotFound"]):
            naming_client(client_orb).resolve("ghost")


class TestLifecycle:
    def test_oneway_does_not_block_on_servant(self, world):
        import threading
        import time

        _, server_orb, client_orb = world
        gate = threading.Event()

        class Slow(DynamicImplementation):
            def invoke(self, server_request):
                gate.wait(5.0)
                server_request.set_result(None)

        poa = server_orb.create_poa("slow_poa")
        ior = poa.activate_object("slow", Slow())
        ref = ObjectRef(client_orb, ior)
        start = time.monotonic()
        client_orb.invoke(ior, "fire", [], {}, response_expected=False)
        elapsed = time.monotonic() - start
        gate.set()
        assert elapsed < 1.0

    def test_duplicate_poa_rejected(self, world):
        _, server_orb, _ = world
        server_orb.create_poa("p")
        with pytest.raises(Exception):
            server_orb.create_poa("p")

    def test_duplicate_activation_rejected(self, world):
        _, server_orb, _ = world
        activate_account(server_orb)
        poa = server_orb.find_poa("bank_poa")
        from repro.util.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            poa.activate_object("acct", BankAccount(), interface=bank_interface())
