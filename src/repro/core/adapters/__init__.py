"""Platform adapters: one module is everything one middleware platform is.

Every adapter is a *thin codec* over :mod:`repro.core.platform` — the
shared kernel owns the replica directory, lazy binding, liveness marks,
control pings, fault taxonomy, and observer hooks; each adapter contributes
its naming conventions, bootstrap-service lookup, request conversion, and
one **host class**, through which the deployment code above
(:class:`~repro.core.service.CqosDeployment`,
:class:`~repro.core.shardspace.ShardSpace`) does everything it does with a
platform.  One module per supported platform (paper section 4):

- :mod:`repro.core.adapters.corba` — DSI skeleton, DII stub path, the
  ``OID_agent_poa_i`` / ``OID_CQoS_Skeleton`` POA naming convention, and
  replica discovery through the naming service;
- :mod:`repro.core.adapters.rmi` — generic-invoke skeleton proxy,
  ``OID_CQoS_Skeleton_i`` registry naming convention;
- :mod:`repro.core.adapters.http` — generic mounted skeleton resource,
  ``OID/replica-i`` path-registry convention, piggyback on ``X-CQoS-*``
  headers.

The host surface, identical on every platform (checked per entry of
:data:`HOSTS` by ``tests/integration/test_platform_contract.py``), is the
class an adapter module names ``HOST``:

- ``Host(network, host_name, compiled)``, ``start()`` (server endpoint;
  client-only hosts skip it), ``shutdown()``;
- ``BOOTSTRAP_HOST`` and ``start_bootstrap()`` — where the platform's
  bootstrap service lives, and starting it on that host;
- ``install_replica(object_id, replica, servant, interface, ...)`` →
  :class:`~repro.core.skeleton.CqosSkeleton`; ``unmount_replica`` and
  ``unbind_replica``, its two halves backwards;
- ``deploy_plain`` / ``plain_stub`` — the platform's own skeleton and stub
  under the replica's name (Table 1's "Original" rung);
- ``client_platform(object_id, observers, router)`` → the client half of
  the Cactus QoS interface.

Adding a platform is one module here plus one line in :data:`HOSTS`; the
Cactus protocols above never see which one is in use, and a deployment
imports only its own platform's adapter and substrate.
"""

from importlib import import_module

#: Platform name → its adapter module.
HOSTS = {
    "corba": "repro.core.adapters.corba",
    "rmi": "repro.core.adapters.rmi",
    "http": "repro.core.adapters.http",
}


def host_class(platform: str) -> type:
    """``platform``'s host class, its adapter imported on first use."""
    return import_module(HOSTS[platform]).HOST
