"""The partitioned directory: consistent-hash routing over server groups.

The paper's prototype finds an object's replicas by naming-convention
prefix scans — each client platform enumerates ``"<OID>/replica-"`` in the
bootstrap service and counts the hits.  That is fine for the paper's
3-replica experiments and fatal for thousands of objects: every client
pays one enumeration per object, the enumeration cost grows with the whole
name table, and nothing relates *where* an object's replicas live to any
policy (RAFDA's argument: distribution policy must be separable from
application logic and changeable per object).

This package is the replacement routing layer, platform-agnostic by
construction (importing an adapter package here is a layering violation,
machine-checked by ``tools/check_layering.py``):

- :class:`HashRing` — a consistent-hash ring of virtual nodes over server
  *groups* (``DEFAULT_VNODES`` per group); adding or removing one group remaps
  only the keys that land on its arcs;
- :class:`DirectoryView` / :class:`ServerGroup` / :class:`Placement` — one
  immutable, versioned snapshot of the whole object space (groups, ring,
  failure knowledge, per-object placement policies).  Views are
  copy-on-write: every change produces a new snapshot with a bumped
  version, so readers are lock-free — the same discipline as the compiled
  event-dispatch binding snapshots;
- :class:`ShardRouter` — the mutable cell holding the current view.  The
  invocation kernel consults it on every bind/rebind and stamps its
  version on every sharded send; a reply brings back the delta to the
  server's view.  Live rebalancing drops zero requests without any
  client-side bookkeeping: the shard space drains the old owner's
  *server-side* in-flight count before retiring it, and a stale client
  is redirected by ``ShardMovedError``;
- :class:`ReplicaDirectory` — the kernel's replica-number → endpoint
  directory, now router-aware: replica counts and ids come from the view
  when one is present (one view serves thousands of objects), with the
  historical prefix-enumeration as the bootstrap fallback for unsharded
  deployments — whose naming entries and wire bytes stay byte-identical.
"""

from repro.util import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "DirectoryView": "repro.core.routing.view",
    "Placement": "repro.core.routing.view",
    "ReplicaDirectory": "repro.core.routing.directory",
    "ServerGroup": "repro.core.routing.view",
    "ShardRouter": "repro.core.routing.router",
})
