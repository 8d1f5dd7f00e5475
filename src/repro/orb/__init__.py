"""A CORBA-like ORB: the first of the two middleware substrates.

The paper's CORBA prototype leans on four ORB mechanisms, all reproduced
here from scratch:

- **IORs** (:mod:`repro.orb.ior`) — stringifiable interoperable object
  references carrying a type id, endpoint address, and object key;
- **POAs** (:mod:`repro.orb.poa`) — named object adapters with which
  servants register under object ids.  The CQoS replica naming convention
  ("``OID_agent_poa_i``" POAs holding "``OID_CQoS_Skeleton``" objects)
  works unchanged on top;
- **DII** (:mod:`repro.orb.dii`) — dynamic request construction used by the
  CQoS stub, with run-time conformance checks against interface metadata
  (this is the "convert the abstract request into a CORBA request" cost the
  paper measures);
- **DSI** (:mod:`repro.orb.dsi`) — a generic ``invoke(ServerRequest)``
  servant entry point used by the CQoS skeleton.

Requests travel as GIOP-like messages (:mod:`repro.orb.giop`) encoded with
the CDR codec over either transport from :mod:`repro.net`.
"""

from repro.util import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "DynamicImplementation": "repro.orb.dsi",
    "Orb": "repro.orb.orb",
    "make_static_stub_class": "repro.orb.stubs",
    "start_naming_service": "repro.orb.naming",
})
