"""A Java-RMI-like platform: the second middleware substrate.

Structurally simpler than the ORB, matching the paper's observation that
"RMI is simpler than CORBA and does not have concepts such as POA and DSI":

- remote objects are *exported* from an :class:`~repro.rmi.runtime.RmiRuntime`
  (one endpoint per runtime, object ids route inside it);
- clients hold :class:`~repro.rmi.runtime.RemoteRef` values and invoke through
  generated stubs (:func:`~repro.rmi.runtime.make_rmi_stub_class`);
- a bootstrap :mod:`registry <repro.rmi.registry>` maps generic names to
  remote references (``java.rmi.Naming`` analog);
- the wire protocol (:mod:`repro.rmi.jrmp`) encodes calls with the
  Java-serialization-like tagged codec.

For CQoS, the important RMI idiosyncrasies are reproduced: there are no
server-side skeletons, so the CQoS skeleton is a *generic remote object*
exporting a single ``invoke`` method (the paper's simulated DSI), and
replicas register under the ``"OID_CQoS_Skeleton_i"`` naming convention.
"""

from repro.util import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "RmiRuntime": "repro.rmi.runtime",
    "make_rmi_stub_class": "repro.rmi.runtime",
    "registry_client": "repro.rmi.registry",
    "start_registry": "repro.rmi.registry",
})
