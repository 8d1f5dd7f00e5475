#!/usr/bin/env python
"""Import census: the ``repro`` modules a base deployment's first reply loads.

For each platform (corba over loopback TCP, rmi and http in memory) a fresh
interpreter deploys one ``BankAccount`` with the base micro-protocols, makes
one call and lists the ``repro`` modules loaded by its reply; then it makes
fifty more calls and lists them again, which must change nothing.  The
modules and their source lines are what a process compiles before it can
answer, the part of set-up time that depends on what ``src/`` imports.

It also lists the native crypto modules loaded by the first reply.  Those
that link OpenSSL's libcrypto (``_hashlib``, ``_ssl``: about 3.5 MB
resident) belong to a deployment that configures security, never to a base
one; the builtin digests (``_blake2`` for the ring's hash, ``_sha512`` for
:mod:`random`) are cheap.

Usage::

    python tools/import_census.py [--ceiling PLATFORM=MODULES:LINES ...]

Prints one line per platform.  Exits 1 when a platform imports anything
after its first reply, loads more modules or lines than its ceiling, or
loads OpenSSL.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Platform → the network module and class its census deploys on.
NETWORKS = {
    "corba": ("tcp", "TcpNetwork"),
    "rmi": ("memory", "InMemoryNetwork"),
    "http": ("memory", "InMemoryNetwork"),
}

#: Native modules that carry a digest or cipher, those linking OpenSSL first.
OPENSSL = ("_hashlib", "_ssl")
NATIVE_CRYPTO = OPENSSL + ("_blake2", "_md5", "_sha1", "_sha2", "_sha256", "_sha512", "_sha3")

SCRIPT = """
import json, sys

def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "repro")

from repro import CqosDeployment
from repro.apps.bank import BankAccount, bank_compiled, bank_interface
from repro.net.{module} import {network}

deployment = CqosDeployment({network}(), platform={platform!r}, compiled=bank_compiled())
deployment.add_replicas("acct", BankAccount, bank_interface())
stub = deployment.client_stub("acct", bank_interface())
stub.set_balance(5.0)
assert stub.get_balance() == 5.0
first_reply = loaded()
native = sorted(name for name in sys.modules if name in {native_crypto!r})
for _ in range(50):
    assert stub.get_balance() == 5.0
later = loaded()
lines = sum(len(open(sys.modules[name].__file__).readlines()) for name in first_reply)
deployment.close()
print(json.dumps({{"first_reply": first_reply, "later": later, "lines": lines,
                  "native": native}}))
"""


def census(platform: str) -> dict:
    """``first_reply`` and ``later`` module lists, the first list's source
    ``lines`` and the ``native`` crypto modules loaded by the first reply,
    from a fresh interpreter deploying on ``platform``."""
    module, network = NETWORKS[platform]
    source = SCRIPT.format(platform=platform, module=module, network=network,
                           native_crypto=NATIVE_CRYPTO)
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(source)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    if result.returncode:
        raise RuntimeError(f"{platform} census failed:\n{result.stderr[-2000:]}")
    return json.loads(result.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--ceiling", action="append", default=[],
                        metavar="PLATFORM=MODULES:LINES")
    options = parser.parse_args(argv)
    ceilings = {}
    for ceiling in options.ceiling:
        platform, _, limits = ceiling.partition("=")
        modules, _, lines = limits.partition(":")
        ceilings[platform] = (int(modules), int(lines))
    failed = False
    for platform in NETWORKS:
        result = census(platform)
        modules, lines = len(result["first_reply"]), result["lines"]
        late = sorted(set(result["later"]) - set(result["first_reply"]))
        openssl = [name for name in result["native"] if name in OPENSSL]
        verdict = "ok"
        if late:
            verdict = f"imported after the first reply: {', '.join(late)}"
        elif openssl:
            verdict = f"loaded OpenSSL: {', '.join(openssl)}"
        elif platform in ceilings:
            most_modules, most_lines = ceilings[platform]
            if modules > most_modules or lines > most_lines:
                verdict = f"over the ceiling {most_modules}:{most_lines}"
        failed = failed or verdict != "ok"
        native = ",".join(result["native"]) or "-"
        print(f"{platform:6s} modules={modules} lines={lines} native={native} {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
