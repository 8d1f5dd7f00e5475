"""Unit tests for the routing layer (PR 8): ring, views, router, deltas."""

from __future__ import annotations

import dataclasses
import gc
import sys

import pytest

from repro.core.routing import (
    DirectoryView,
    Placement,
    ServerGroup,
    ShardRouter,
)
from repro.core.routing.ring import HashRing, stable_hash
from repro.util.errors import ConfigurationError

KEYS = [f"obj-{k}" for k in range(1000)]


def make_view(groups=(("a", (1, 2)), ("b", (3, 4)), ("c", (5, 6))), **kwargs):
    kwargs.setdefault("version", 1)
    return DirectoryView(
        groups=tuple(ServerGroup(name, members) for name, members in groups),
        **kwargs,
    )


# -- consistent-hash ring ------------------------------------------------------


class TestHashRing:
    def test_owner_is_deterministic_across_instances(self):
        first = HashRing(["a", "b", "c"], vnodes=64)
        second = HashRing(["c", "b", "a"], vnodes=64)  # order must not matter
        assert [first.owner(k) for k in KEYS] == [second.owner(k) for k in KEYS]

    def test_every_group_owns_a_share(self):
        ring = HashRing(["a", "b", "c"], vnodes=64)
        shares = {g: 0 for g in ring.groups}
        for key in KEYS:
            shares[ring.owner(key)] += 1
        for group, share in shares.items():
            # 64 vnodes keep arcs near-equal; a third +/- a wide margin.
            assert 100 < share < 600, f"group {group} owns {share}/1000 keys"

    def test_adding_a_group_remaps_only_its_arcs(self):
        before = HashRing(["a", "b", "c"], vnodes=64)
        after = before.with_group("d")
        moved = sum(1 for k in KEYS if before.owner(k) != after.owner(k))
        # Only keys on arcs captured by "d" move, and they move *to* "d".
        assert 0 < moved < 500
        for key in KEYS:
            if before.owner(key) != after.owner(key):
                assert after.owner(key) == "d"

    def test_removing_a_group_strands_no_keys(self):
        before = HashRing(["a", "b", "c"], vnodes=64)
        after = before.without_group("b")
        for key in KEYS:
            owner = after.owner(key)
            assert owner in ("a", "c")
            if before.owner(key) != "b":
                assert owner == before.owner(key)

    def test_owners_walk_is_distinct_and_owner_first(self):
        ring = HashRing(["a", "b", "c"], vnodes=64)
        for key in KEYS[:50]:
            walk = ring.owners(key, 3)
            assert len(set(walk)) == len(walk) == 3
            assert walk[0] == ring.owner(key)

    def test_stable_hash_is_process_independent(self):
        # A literal value pins the function: any change to the hash would
        # silently remap every deployed object space.
        assert stable_hash("obj-0") == 0x42BA8A16F2AAD336
        assert stable_hash("obj-0") != stable_hash("obj-1")


# -- directory views -----------------------------------------------------------


class TestDirectoryView:
    def test_views_are_immutable(self):
        view = make_view()
        with pytest.raises(dataclasses.FrozenInstanceError):
            view.version = 99

    def test_builders_bump_version(self):
        view = make_view()
        grown = view.with_group(ServerGroup("d", (7,)))
        assert grown.version == view.version + 1
        placed = grown.with_placement("obj-1", Placement(replication_factor=2))
        assert placed.version == grown.version + 1
        failed = placed.with_failed({3})
        assert failed.version == placed.version + 1
        # The original snapshot is untouched throughout.
        assert view.version == 1 and not view.failed

    def test_with_failed_is_a_noop_on_equal_sets(self):
        view = make_view().with_failed({3})
        assert view.with_failed({3}) is view

    def test_unsharded_view_refuses_assignments(self):
        with pytest.raises(ConfigurationError):
            DirectoryView().assignments("obj-1")

    def test_assignments_use_distinct_members(self):
        view = make_view(
            default_placement=Placement(replication_factor=3, policy="spread")
        )
        for key in KEYS[:100]:
            members = [m for _, m in view.assignments(key)]
            assert len(set(members)) == 3

    def test_spread_uses_distinct_groups(self):
        view = make_view(
            default_placement=Placement(replication_factor=3, policy="spread")
        )
        for key in KEYS[:100]:
            assert len(view.owner_groups(key)) == 3

    def test_ring_policy_packs_into_owner_group_first(self):
        view = make_view(
            default_placement=Placement(replication_factor=2, policy="ring")
        )
        for key in KEYS[:100]:
            owner = view.ring.owner(key)
            members = {m for _, m in view.assignments(key)}
            # Both replicas fit in the 2-member owner group.
            assert members == set(view.group(owner).members)

    def test_ring_policy_remaps_minimally_on_group_add(self):
        # The consistent-hashing property end to end: growing the fleet by
        # one group of four moves only the keys on the arcs it captured
        # (~1/4), not the near-total remap a pool-wide rotation would cause.
        before = make_view()
        after = before.with_group(ServerGroup("d", (7, 8)))
        moved = sum(
            1 for k in KEYS if before.assignments(k) != after.assignments(k)
        )
        assert 0 < moved < 400
        for key in KEYS:
            if before.assignments(key) != after.assignments(key):
                assert after.assignments(key)[0][1] in (7, 8)

    def test_ring_policy_balances_members_within_the_owner_group(self):
        counts: dict[int, int] = {}
        view = make_view()
        for key in KEYS:
            member = view.assignments(key)[0][1]
            counts[member] = counts.get(member, 0) + 1
        assert set(counts) == {1, 2, 3, 4, 5, 6}
        for member, count in counts.items():
            assert 60 < count < 350, f"member {member} holds {count}/1000"

    def test_pinned_policy_stays_on_named_groups(self):
        view = make_view(
            default_placement=Placement(
                replication_factor=2, policy="pinned", groups=("b",)
            )
        )
        for key in KEYS[:20]:
            assert view.owner_groups(key) == ("b",)

    def test_sparse_logical_ids(self):
        placement = Placement(replication_factor=2, logical_ids=(3, 7))
        view = make_view(default_placement=placement)
        assert view.replicas_for("obj-1") == (3, 7)
        assert [logical for logical, _ in view.assignments("obj-1")] == [3, 7]

    def test_placement_validation(self):
        with pytest.raises(ConfigurationError):
            Placement(replication_factor=0)
        with pytest.raises(ConfigurationError):
            Placement(policy="pinned")  # needs groups
        with pytest.raises(ConfigurationError):
            Placement(policy="ring", groups=("a",))  # groups only with pinned
        with pytest.raises(ConfigurationError):
            Placement(replication_factor=2, logical_ids=(1,))  # count mismatch
        with pytest.raises(ConfigurationError):
            Placement(replication_factor=2, logical_ids=(1, 1))  # duplicates
        with pytest.raises(ConfigurationError):
            Placement(policy="bogus")

    def test_oversized_placement_is_rejected(self):
        view = make_view(groups=(("a", (1,)),))
        with pytest.raises(ConfigurationError):
            view.with_placement(
                "obj-1", Placement(replication_factor=2)
            ).assignments("obj-1")

    def test_wire_round_trip(self):
        view = make_view(
            default_placement=Placement(replication_factor=2, policy="spread"),
            failed=frozenset({3}),
        ).with_placement(
            "obj-1", Placement(replication_factor=2, policy="pinned", groups=("a",))
        )
        restored = DirectoryView.from_wire(view.to_wire())
        assert restored.version == view.version
        assert restored.failed == view.failed
        for key in KEYS[:50]:
            assert restored.assignments(key) == view.assignments(key)


# -- shard router --------------------------------------------------------------


class TestShardRouter:
    def test_version_regression_raises(self):
        router = ShardRouter(make_view())
        stale = make_view()  # also version 1
        with pytest.raises(ValueError):
            router.apply(stale)

    def test_membership_change_bumps_version_once(self):
        router = ShardRouter(make_view())
        v1 = router.view().version
        changed = router.apply_membership_change({3})
        assert changed.version == v1 + 1
        # Reporting the identical failed set must not spin versions.
        assert router.apply_membership_change({3}).version == changed.version

    def test_live_replicas_excludes_failed_members(self):
        view = make_view(
            default_placement=Placement(replication_factor=3, policy="spread")
        )
        router = ShardRouter(view)
        key = KEYS[0]
        logical, member = router.view().assignments(key)[0]
        router.apply_membership_change({member})
        live = router.live_replicas(key)
        assert logical not in live
        assert len(live) == 2

    def test_route_cost_is_flat_in_object_count(self):
        """Resolving an object costs the same at 10, 100 and 1 000 objects.

        Counted, not timed: Python and C calls under ``sys.setprofile`` for
        ``route()`` + ``assignments()`` over the same ten warmed ids, each
        size with an explicit placement per object so anything that walks
        the object table per lookup grows with it.
        """
        placement = Placement(replication_factor=3, policy="spread")
        groups = tuple((f"g{i}", (2 * i + 1, 2 * i + 2)) for i in range(4))
        calls = [0]

        def count(frame, event, arg):
            if event == "call" or event == "c_call":
                calls[0] += 1

        counts = {}
        for n_objects in (10, 100, 1000):
            # The ten measured ids go in last: a scan meets the others first.
            objects = KEYS[10:n_objects] + KEYS[:10]
            router = ShardRouter(
                make_view(groups, placements=dict.fromkeys(objects, placement))
            )
            view = router.view()
            for oid in objects:  # warm anything built on first use
                router.route(oid)
                view.assignments(oid)
            calls[0] = 0
            # A collection inside the window would run hypothesis's
            # gc.callbacks hook on this thread: four calls that are not ours.
            gc.disable()
            sys.setprofile(count)
            try:
                for oid in KEYS[:10]:
                    router.route(oid)
                    view.assignments(oid)
            finally:
                sys.setprofile(None)
                gc.enable()
            counts[n_objects] = calls[0]
        assert counts[10] == counts[100] == counts[1000], counts

    def test_delta_brings_stale_client_current(self):
        server = ShardRouter(make_view())
        client = ShardRouter(make_view())
        server.apply(server.view().with_group(ServerGroup("d", (7, 8))))
        server.apply(
            server.view().with_placement("obj-1", Placement(replication_factor=2))
        )
        delta = server.delta_since(client.view().version)
        assert delta is not None
        assert client.apply_delta(delta) is True
        assert client.view().version == server.view().version
        assert client.view().assignments("obj-1") == server.view().assignments("obj-1")

    def test_delta_since_none_when_current(self):
        server = ShardRouter(make_view())
        assert server.delta_since(server.view().version) is None

    def test_evicted_history_ships_the_full_view(self):
        from repro.core.routing.router import DELTA_HISTORY

        server = ShardRouter(make_view())
        for i in range(DELTA_HISTORY + 4):
            server.apply(server.view().with_failed({(i % 6) + 1}))
        delta = server.delta_since(1)  # long evicted
        assert "view" in delta
        client = ShardRouter(make_view())
        assert client.apply_delta(delta) is True
        assert client.view().version == server.view().version

    def test_unappliable_delta_reports_fallback(self):
        client = ShardRouter(make_view())
        # Changes-based delta whose base is not the client's version and
        # that carries no full view: the caller must re-bootstrap.
        assert client.apply_delta({"from": 40, "to": 41, "changes": {}}) is False

    def test_stale_delta_is_swallowed(self):
        client = ShardRouter(make_view())
        client.apply(client.view().with_group(ServerGroup("d", (7,))))
        assert client.apply_delta({"from": 0, "to": 1, "changes": {}}) is True
        assert client.view().version == 2

    @pytest.mark.parametrize(
        "delta",
        [
            {"to": 5},  # no base and no view
            "garbage",  # not a mapping
            {"to": "x"},  # version not a number
            {"to": 9, "view": {"version": 9}},  # a view without groups
            {"from": 1, "to": 2, "changes": 3},  # changes not a mapping
            # a member in two groups: the view constructor refuses it
            {"from": 1, "to": 2, "changes": {"groups": [["a", [1, 2]], ["b", [2, 3]]]}},
        ],
        ids=[
            "no-from",
            "not-a-dict",
            "bad-to",
            "view-without-groups",
            "bad-changes",
            "member-in-two-groups",
        ],
    )
    def test_malformed_delta_reports_fallback(self, delta):
        """Wire input that cannot be parsed into a view is the documented
        "re-enumerate from the bootstrap service", never an exception."""
        client = ShardRouter(make_view())
        assert client.apply_delta(delta) is False
        assert client.view().version == 1

    def test_lost_race_to_a_newer_view_still_reports_current(self):
        """A parsed view the router refuses as a regression means someone
        installed a newer one first: the client is current, not stale."""
        client = ShardRouter(make_view())
        stale_wire = make_view().to_wire()  # version 1, shipped as "to": 5
        assert client.apply_delta({"from": 0, "to": 5, "view": stale_wire}) is True
        assert client.view().version == 1
