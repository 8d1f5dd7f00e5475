"""Security costs nothing until a security micro-protocol is built.

OpenSSL's libcrypto (``_hashlib``, loaded by :mod:`hashlib` and
:mod:`hmac`) comes only with a :class:`~repro.crypto.mac.KeyedMac` over a
digest CPython does not build in (SHA-256, the integrity default, it does),
and DES's derived tables with the first :class:`~repro.crypto.des.DesCipher`.
A deployment that configures neither (a base deployment on any platform, a
sharded object space) loads and builds neither, even after its first reply;
importing the security micro-protocols still builds nothing.  Each check runs
in a fresh interpreter, since the test process has long since built both.
The base deployment of each platform is checked by the import census
(``tests/integration/test_import_census.py``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Prints, as JSON, whether OpenSSL is loaded and DES's tables are derived.
STATE = """
import json, sys

def state():
    des = sys.modules.get("repro.crypto.des")
    return {"hashlib": "_hashlib" in sys.modules, "des": bool(des and des._derived)}
"""


def run_fresh(source: str) -> list:
    """The JSON lines a fresh interpreter running ``source`` prints."""
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(STATE) + textwrap.dedent(source)],
        capture_output=True, text=True, timeout=120, cwd=REPO_ROOT,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return [json.loads(line) for line in result.stdout.splitlines()]


def test_a_shard_space_first_reply_loads_no_openssl_and_builds_no_des_table():
    (after_reply,) = run_fresh("""
        from repro import CqosDeployment
        from repro.apps.bank import BankAccount, bank_compiled, bank_interface
        from repro.net.memory import InMemoryNetwork

        deployment = CqosDeployment(InMemoryNetwork(), platform="http", compiled=bank_compiled())
        space = deployment.shard_space({"g1": 1, "g2": 1, "g3": 1})
        stubs = []
        for n in range(8):
            space.add_object(f"acct-{n}", BankAccount, bank_interface())
            stubs.append(space.client_stub(f"acct-{n}", bank_interface()))
        for n, stub in enumerate(stubs):
            stub.set_balance(float(n))
        assert [stub.get_balance() for stub in stubs] == [float(n) for n in range(8)]
        print(json.dumps(state()))
        deployment.close()
    """)
    assert after_reply == {"hashlib": False, "des": False}


def test_building_a_security_micro_protocol_builds_what_it_needs():
    """Importing the security micro-protocols loads and builds nothing;
    building ``SignedIntegrity`` loads no OpenSSL either (its HMAC-SHA-256
    runs on CPython's builtin hash), and ``DesPrivacy`` derives the DES
    tables only when it is built."""
    imported, signed, private = run_fresh("""
        from repro.qos import DesPrivacy, SignedIntegrity

        print(json.dumps(state()))
        SignedIntegrity(key_hex="0123456789abcdef")
        print(json.dumps(state()))
        DesPrivacy(key_hex="0123456789abcdef")
        print(json.dumps(state()))
    """)
    assert imported == {"hashlib": False, "des": False}
    assert signed == {"hashlib": False, "des": False}
    assert private == {"hashlib": False, "des": True}


def test_four_threads_making_the_first_cipher_at_once_all_get_fips_answers():
    (answers,) = run_fresh("""
        import threading
        from repro.crypto.des import DesCipher

        start = threading.Barrier(4)
        answers = []

        def first_cipher():
            start.wait()
            cipher = DesCipher(bytes.fromhex("133457799BBCDFF1"), mode="ECB")
            answers.append(cipher.encrypt_block(bytes.fromhex("0123456789ABCDEF")).hex())

        threads = [threading.Thread(target=first_cipher) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        print(json.dumps(answers))
    """)
    assert answers == ["85e813540f0ab405"] * 4
