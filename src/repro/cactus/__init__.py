"""Cactus: the configurable-protocol framework (Cactus/J analog).

A Cactus *composite protocol* is a container of *micro-protocols*: software
modules structured as collections of *event handlers*.  Customization is
choosing which micro-protocols to start; coordination between them happens
through events:

- handlers bind to named events with an explicit **order** and optional
  **static arguments** (passed on every activation);
- events are **raised** blocking (handlers run in the raising thread, caller
  continues when all complete), non-blocking (handlers run on the runtime's
  priority pool), or with a **delay**;
- a handler can **halt** an occurrence, overriding later-ordered handlers —
  the mechanism base micro-protocols rely on when they bind ``ORDER_LAST``;
- the two Cactus/J runtime changes from the paper's section 3.4 are
  reproduced: ``raise_event`` accepts an explicit thread priority, and
  handlers otherwise run at the raiser's priority.

:mod:`repro.cactus.dynamic` reproduces rBoot/rControl-style dynamic
customization, loading micro-protocols by registered name from a peer or a
configuration service at composite-creation time.
"""

from repro.util import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "CompositeProtocol": "repro.cactus.composite",
    "MicroProtocol": "repro.cactus.composite",
})
