"""Sharded object space end-to-end (PR 8): routing, rebalancing, chaos.

The fast half runs on every platform (CORBA / RMI / HTTP share the routing
kernel); the chaos-marked half injects crashes and partitions during live
rebalancing and proves the zero-drop, exactly-once discipline with the
passive-replication QoS stack composed on top of the ring.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro.apps.bank import BankAccount, bank_interface
from repro.core.routing import Placement
from repro.core.platform import CONTROL_OPERATION
from repro.util.errors import InvocationError, ShardMovedError


@pytest.fixture
def bank_iface():
    return bank_interface()


def make_space(deployment, groups=None):
    return deployment.shard_space(groups or {"a": 1, "b": 1})


def place_objects(space, iface, count=6, prefix="obj"):
    ids = [f"{prefix}-{k}" for k in range(count)]
    for oid in ids:
        space.add_object(oid, BankAccount, iface)
    return ids


class TestShardSpace:
    def test_objects_route_and_serve(self, deployment, bank_iface):
        space = make_space(deployment)
        ids = place_objects(space, bank_iface, count=4)
        for i, oid in enumerate(ids):
            stub = space.client_stub(oid, bank_iface)
            stub.set_balance(float(i * 10))
            assert stub.get_balance() == float(i * 10)
        # Every object landed on exactly one live member of the fleet.
        view = space.view()
        for oid in ids:
            assigns = view.assignments(oid)
            assert len(assigns) == 1
            assert assigns[0][1] in view.members()

    def test_add_group_live_and_stale_stub_survives(self, deployment, bank_iface):
        space = make_space(deployment)
        ids = place_objects(space, bank_iface)
        stubs = {oid: space.client_stub(oid, bank_iface) for oid in ids}
        for i, oid in enumerate(ids):
            stubs[oid].set_balance(float(i))
        before = space.view()

        space.add_group("c", 1)

        after = space.view()
        assert after.version == before.version + 1
        moved = [
            oid for oid in ids if before.assignments(oid) != after.assignments(oid)
        ]
        assert moved, "adding a group should capture some arcs"
        # The STALE stubs (bound before the rebalance) keep working: a
        # retired mount answers ShardMovedError, the kernel re-resolves,
        # and state moved with the servant.
        for i, oid in enumerate(ids):
            assert stubs[oid].get_balance() == float(i)

    def test_add_group_during_traffic_drops_nothing(self, deployment, bank_iface):
        """A closed-loop client keeps depositing over a skewed object mix
        while another thread grows the fleet: no call fails, and every
        deposit lands exactly once (a dropped one would undershoot its
        object's balance, a doubled one overshoot it)."""
        space = make_space(deployment)
        ids = place_objects(space, bank_iface, count=16)
        stubs = {oid: space.client_stub(oid, bank_iface) for oid in ids}
        weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(ids))]
        sequence = random.Random(88).choices(ids, weights, k=400)
        before = space.view()
        trigger = threading.Event()

        def rebalance():
            assert trigger.wait(30.0)
            space.add_group("c", 1)

        rebalancer = threading.Thread(target=rebalance)
        rebalancer.start()
        issued = dict.fromkeys(ids, 0)
        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the two threads call by call
        try:
            for position, oid in enumerate(sequence):
                if position == len(sequence) * 2 // 5:
                    trigger.set()
                try:
                    stubs[oid].deposit(1.0)
                    issued[oid] += 1
                except Exception as exc:  # noqa: BLE001 - any failure is a drop
                    errors.append((position, oid, exc))
        finally:
            sys.setswitchinterval(interval)
            trigger.set()
        rebalancer.join(30.0)
        assert not rebalancer.is_alive()

        assert errors == []
        after = space.view()
        assert after.version == before.version + 1
        assert any(before.assignments(oid) != after.assignments(oid) for oid in ids)
        assert {oid: stubs[oid].get_balance() for oid in ids} == {
            oid: float(count) for oid, count in issued.items()
        }

    def test_handoff_waits_for_the_old_mounts_inflight_request(
        self, deployment, bank_iface
    ):
        """The drain signal of a handoff is the *server's* in-flight count:
        with one request held inside the old mount's servant, the handoff
        does not return and the old skeleton is not retired; once the
        request replies, the mount retires and a stale stub's next call is
        redirected to the new owner."""
        entered, release = threading.Event(), threading.Event()

        class HeldAccount(BankAccount):
            def deposit(self, amount):
                entered.set()
                assert release.wait(5.0)
                return super().deposit(amount)

        space = make_space(deployment)
        oid = "obj-held"
        space.add_object(oid, HeldAccount, bank_iface)
        stub = space.client_stub(oid, bank_iface)
        stub.set_balance(10.0)
        ((logical, _),) = space.view().assignments(oid)
        (owner,) = space.view().owner_groups(oid)
        target = "b" if owner == "a" else "a"
        old = space._mounts[(oid, logical)]
        served = []

        def spy(name, skeleton):
            handle = skeleton.handle_invocation

            def handle_invocation(operation, arguments, context):
                served.append((name, operation))
                return handle(operation, arguments, context)

            skeleton.handle_invocation = handle_invocation

        spy("old", old.skeleton)
        outcome = []
        caller = threading.Thread(target=lambda: outcome.append(stub.deposit(1.0)))
        caller.start()
        handoff = None
        try:
            assert entered.wait(5.0)
            assert space.inflight(oid) == 1
            version = space.view().version
            handoff = threading.Thread(
                target=space.set_placement,
                args=(oid, Placement(policy="pinned", groups=(target,))),
            )
            handoff.start()
            deadline = time.monotonic() + 5.0
            while space.view().version == version and time.monotonic() < deadline:
                time.sleep(0.001)
            assert space.view().version == version + 1  # the view has flipped
            handoff.join(0.2)
            assert handoff.is_alive()  # ... and the handoff is draining
            assert old.skeleton.inflight == 1
            assert not old.skeleton._retired
        finally:
            release.set()
            caller.join(5.0)
            if handoff is not None:
                handoff.join(5.0)
        assert outcome == [11.0]
        assert not handoff.is_alive()
        assert old.skeleton._retired
        new = space._mounts[(oid, logical)]
        assert new is not old
        spy("new", new.skeleton)
        served.clear()
        assert stub.get_balance() == 11.0
        assert served == [("old", "get_balance"), ("new", "get_balance")]

    def test_inflight_count_returns_to_zero_on_every_outcome(self, deployment, bank_iface):
        """The old mount's skeleton counts a request in flight until its
        outcome, whatever it is: an application exception, a system failure
        and a retired mount's refusal each leave the count at zero (a count
        left at one would stall every later handoff for the drain timeout)."""

        class FaultyAccount(BankAccount):
            def owner(self):
                raise RuntimeError("servant crashed")

        space = make_space(deployment)
        oid = "obj-faulty"
        space.add_object(oid, FaultyAccount, bank_iface)
        stub = space.client_stub(oid, bank_iface)
        ((logical, _),) = space.view().assignments(oid)
        (owner,) = space.view().owner_groups(oid)
        old = space._mounts[(oid, logical)]
        stub.set_balance(5.0)
        assert old.skeleton.inflight == 0
        with pytest.raises(Exception) as application:
            stub.withdraw(50.0)
        assert type(application.value).__name__ == "InsufficientFunds"
        assert old.skeleton.inflight == 0
        with pytest.raises(InvocationError, match="servant crashed"):
            stub.owner()
        assert old.skeleton.inflight == 0
        target = "b" if owner == "a" else "a"
        space.set_placement(oid, Placement(policy="pinned", groups=(target,)))
        assert old.skeleton._retired
        with pytest.raises(ShardMovedError):
            old.skeleton.handle_invocation("get_balance", [], {})
        assert old.skeleton.inflight == 0
        assert stub.get_balance() == 5.0  # refused by the old, served by the new
        new = space._mounts[(oid, logical)]
        assert (old.skeleton.inflight, new.skeleton.inflight) == (0, 0)
        assert space.inflight(oid) == 0

    def test_drain_wakes_when_the_last_request_completes(self, deployment, bank_iface):
        """A drain waits on the skeleton's count, not on a clock: held with a
        30 s bound behind one request, it returns True as soon as that
        request's reply is out."""
        entered, release = threading.Event(), threading.Event()

        class HeldAccount(BankAccount):
            def deposit(self, amount):
                entered.set()
                assert release.wait(5.0)
                return super().deposit(amount)

        space = make_space(deployment)
        oid = "obj-held"
        space.add_object(oid, HeldAccount, bank_iface)
        stub = space.client_stub(oid, bank_iface)
        ((logical, _),) = space.view().assignments(oid)
        skeleton = space._mounts[(oid, logical)].skeleton
        caller = threading.Thread(target=stub.deposit, args=(1.0,))
        caller.start()
        drained = []
        assert entered.wait(5.0)
        drainer = threading.Thread(target=lambda: drained.append(skeleton.drain(30.0)))
        drainer.start()
        drainer.join(0.1)
        assert drainer.is_alive() and skeleton.inflight == 1
        release.set()
        drainer.join(5.0)
        caller.join(5.0)
        assert drained == [True] and skeleton.inflight == 0
        assert skeleton.drain(30.0) is True  # nothing in flight: no wait

    def test_client_view_version_is_monotonic(self, deployment, bank_iface):
        space = make_space(deployment)
        (oid,) = place_objects(space, bank_iface, count=1)
        router = space.client_router()
        stub = deployment.client_stub(oid, bank_iface, router=router)
        versions = []
        stub.set_balance(1.0)
        versions.append(router.view().version)
        space.add_group("c", 1)
        stub.set_balance(2.0)  # pulls the delta via reply piggyback
        versions.append(router.view().version)
        space.add_group("d", 1)
        assert stub.get_balance() == 2.0
        versions.append(router.view().version)
        assert versions == sorted(versions)
        assert versions[-1] == space.view().version

    def test_retired_mounts_reject_stale_invocations(self, deployment, bank_iface):
        space = make_space(deployment)
        ids = place_objects(space, bank_iface)
        space.add_group("c", 1)
        retired = [m for mounts in space._retired.values() for m in mounts]
        assert retired, "the group add should have retired at least one mount"
        for mount in retired:
            assert mount.skeleton._retired
            # A stale-view invocation reaching the old owner must NOT
            # execute: the wire-safe redirect error comes back instead.
            with pytest.raises(ShardMovedError):
                mount.skeleton.handle_invocation("get_balance", [], {})
            # The control plane stays reachable on retired mounts (the
            # failure detector may still be probing them).
            assert mount.skeleton.handle_invocation(
                CONTROL_OPERATION, ["ping", 0, {}], {}
            ) is True

    def test_remove_group_moves_objects_clockwise(self, deployment, bank_iface):
        space = make_space(deployment, groups={"a": 1, "b": 1, "c": 1})
        ids = place_objects(space, bank_iface)
        stubs = {oid: space.client_stub(oid, bank_iface) for oid in ids}
        for i, oid in enumerate(ids):
            stubs[oid].set_balance(float(i + 100))
        space.remove_group("b")
        view = space.view()
        assert all(group.name != "b" for group in view.groups)
        for i, oid in enumerate(ids):
            assert view.assignments(oid)[0][1] in view.members()
            assert stubs[oid].get_balance() == float(i + 100)

    def test_set_placement_scales_replication_live(self, deployment, bank_iface):
        space = make_space(deployment, groups={"a": 1, "b": 1, "c": 1})
        (oid,) = place_objects(space, bank_iface, count=1)
        stub = space.client_stub(oid, bank_iface)
        stub.set_balance(7.0)
        space.set_placement(
            oid, Placement(replication_factor=2, policy="spread")
        )
        view = space.view()
        assigns = view.assignments(oid)
        assert [logical for logical, _ in assigns] == [1, 2]
        assert len({member for _, member in assigns}) == 2
        # Fresh stub sees two replicas; the moved/copied primary kept state.
        fresh = space.client_stub(oid, bank_iface)
        assert fresh.get_balance() == 7.0
        assert stub.get_balance() == 7.0

    def test_membership_change_and_reinstatement(self, deployment, bank_iface):
        space = make_space(deployment, groups={"a": 1, "b": 1, "c": 1})
        oid = "obj-0"
        # Two replicas kept consistent by primary->backup forwarding, so a
        # membership-driven failover serves the same state.
        space.add_object(
            oid,
            BankAccount,
            bank_iface,
            placement=Placement(replication_factor=2, policy="spread"),
            server_micro_protocols=["PassiveRepServer"],
        )
        router = space.client_router()
        stub = deployment.client_stub(oid, bank_iface, router=router)
        stub.set_balance(3.0)

        primary_logical, primary_member = space.view().assignments(oid)[0]
        v_before = space.view().version
        space.apply_membership_change({primary_member})
        assert space.view().version == v_before + 1

        # The next invocation pulls the membership delta; the client view
        # then excludes the failed member's logical replica.
        assert stub.get_balance() == 3.0
        assert router.view().version == space.view().version
        assert primary_logical not in router.live_replicas(oid)

        # Recovery: the detector reports the member healthy again; the
        # primary is reinstated through the ring with no remount.
        space.apply_membership_change(set())
        assert stub.get_balance() == 3.0
        assert primary_logical in router.live_replicas(oid)
        assert router.view().version == space.view().version


@pytest.mark.chaos
class TestShardChaos:
    """Crash + partition during rebalance: nothing lost, nothing doubled."""

    @pytest.fixture
    def chaos_deployment(self, network, compiled_bank):
        from repro.core.service import CqosDeployment

        dep = CqosDeployment(
            network, platform="rmi", compiled=compiled_bank, request_timeout=10.0
        )
        yield dep
        dep.close()

    def _replicated_object(self, space, iface, oid):
        space.add_object(
            oid,
            BankAccount,
            iface,
            placement=Placement(replication_factor=2, policy="spread"),
            server_micro_protocols=["PassiveRepServer"],
        )

    def test_primary_crash_mid_traffic_is_exactly_once(
        self, chaos_deployment, bank_iface
    ):
        space = make_space(chaos_deployment, groups={"a": 1, "b": 1, "c": 1})
        oid = "acct-crash"
        self._replicated_object(space, bank_iface, oid)
        stub = space.client_stub(
            oid, bank_iface, client_micro_protocols=["PassiveRep"]
        )
        deposits = 0
        for _ in range(10):
            stub.deposit(1.0)
            deposits += 1
        _, primary_member = space.view().assignments(oid)[0]
        space.deployment.network.crash(space.member_host(primary_member))
        for _ in range(10):
            stub.deposit(1.0)  # fails over to the forwarded-to backup
            deposits += 1
        # Forwarding kept the backup consistent; duplicate suppression kept
        # retried requests from double-applying: the balance is exact.
        assert stub.get_balance() == float(deposits)

    def test_partition_during_rebalance_drops_nothing(
        self, chaos_deployment, bank_iface, network
    ):
        space = make_space(chaos_deployment, groups={"a": 1, "b": 1, "c": 1})
        oid = "acct-part"
        self._replicated_object(space, bank_iface, oid)
        stub = space.client_stub(
            oid, bank_iface, client_micro_protocols=["PassiveRep"]
        )
        versions = []

        def deposit_batch(n):
            for _ in range(n):
                stub.deposit(1.0)
            versions.append(space.view().version)

        deposit_batch(8)
        # Rebalance while the backup is partitioned away: primary-side
        # forwards to it are lost (repair is recovery's job), but not one
        # client request is.
        _, backup_member = space.view().assignments(oid)[1]
        network.partition([[space.member_host(backup_member)]])
        space.add_group("d", 1)
        deposit_batch(8)
        network.heal()
        deposit_batch(8)
        assert stub.get_balance() == 24.0
        assert versions == sorted(versions)
        assert space.view().version >= 2

    def test_crash_during_rebalance_with_plain_clients(
        self, chaos_deployment, bank_iface
    ):
        """Crashing a member that hosts none of the traffic mid-rebalance
        must not disturb the handoff of the objects that do move."""
        space = make_space(chaos_deployment, groups={"a": 1, "b": 1})
        ids = place_objects(space, bank_iface, count=6, prefix="acct")
        stubs = {oid: space.client_stub(oid, bank_iface) for oid in ids}
        issued = {oid: 0 for oid in ids}
        for oid in ids:
            stubs[oid].deposit(1.0)
            issued[oid] += 1
        space.add_group("c", 1)
        # Crash a member no surviving assignment points at (if any).
        view = space.view()
        used = {member for oid in ids for _, member in view.assignments(oid)}
        idle = [m for m in view.members() if m not in used]
        if idle:
            space.deployment.network.crash(space.member_host(idle[0]))
        for oid in ids:
            stubs[oid].deposit(1.0)
            issued[oid] += 1
        for oid in ids:
            assert stubs[oid].get_balance() == float(issued[oid])
