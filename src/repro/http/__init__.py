"""An HTTP-like platform: the paper's generality claim, made executable.

"For example, it would be feasible to intercept HTTP requests and replies,
in which case the TCP socket layer would be viewed as the middleware
layer."  (paper, section 2.1)

This package is that third platform: a minimal HTTP/1.0-flavoured
request/reply protocol over the :mod:`repro.net` transports —

- :mod:`repro.http.message` — wire format: request line
  (``POST /objects/<id>/<operation> HTTP/1.0``), headers, binary body;
  piggyback data travels as ``X-CQoS-*`` headers; one formatter and one
  parser per direction;
- :mod:`repro.http.server` — an object server mapping paths to servants
  (typed dispatch via interface metadata, or generic handlers);
- :mod:`repro.http.client` — a small client with per-host connections;
- :mod:`repro.http.registry` — a path registry at a well-known host (the
  reverse-proxy-configuration analog) used for replica discovery.

The CQoS adapter for it lives in :mod:`repro.core.adapters.http`; because
the Cactus protocols only see the abstract interfaces, *every* QoS
micro-protocol works on HTTP unchanged — which is the point.
"""

from repro.util import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "HttpClient": "repro.http.client",
    "HttpObjectServer": "repro.http.server",
    "HttpRegistryClient": "repro.http.registry",
    "start_http_registry": "repro.http.registry",
})
