"""The four workloads: what is deployed, which calls are issued, what is right.

This module is pure Python and never imports the system under test: the
parent process and the tests use it as is.  The deployments themselves are
built in :mod:`deploy` from the fields below.

The program sees only the generated calls.  ``--seed`` decides the amounts
and (on the sharded workload) which object each call goes to; the operation
at each position is fixed by the workload, so the op mix, and with it every
count metric, is the same for every seed.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Any, NamedTuple

#: Length of the generated call cycle; a timed run walks it round and round.
CYCLE = 4096
#: Movements every servant (and the model) keeps and `history(64)` returns.
HISTORY = 64
ZIPF_S = 1.1


class Op(NamedTuple):
    target: int  # index of the object (and of its stub)
    name: str
    args: tuple
    write: bool


@dataclass(frozen=True)
class Workload:
    name: str
    platform: str  # corba | rmi | http
    network: str  # tcp | memory
    objects: int
    mix: str  # key into _MIXES
    secure: bool = False
    groups: tuple[tuple[str, int], ...] = ()  # shard groups; empty = unsharded

    def ops(self, seed: int) -> list[Op]:
        """The call cycle for ``seed``: same seed, same calls."""
        rng = random.Random(f"cqosbench/{self.name}/{seed}")
        pick = _zipf_picker(rng, self.objects)
        mix = _MIXES[self.mix]
        return [mix(i, pick(), _amount(rng)) for i in range(CYCLE)]


def _amount(rng: random.Random) -> float:
    return round(rng.uniform(1.0, 1000.0), 2)


def _zipf_picker(rng: random.Random, objects: int):
    if objects == 1:
        return lambda: 0
    # Rank r is drawn with weight 1 / r**s; the seed decides which object
    # holds which rank, so different seeds heat different shard groups.
    by_rank = list(range(objects))
    rng.shuffle(by_rank)
    cumulative, total = [], 0.0
    for rank in range(1, objects + 1):
        total += 1.0 / rank**ZIPF_S
        cumulative.append(total)
    return lambda: by_rank[rng.choices(range(objects), cum_weights=cumulative)[0]]


def _set_get(i: int, target: int, amount: float) -> Op:
    if i % 2 == 0:
        return Op(target, "set_balance", (amount,), True)
    return Op(target, "get_balance", (), False)


def _history_deposit(i: int, target: int, amount: float) -> Op:
    if i % 4 == 3:
        return Op(target, "deposit", (amount,), True)
    return Op(target, "history", (HISTORY,), False)


def _deposit_get(i: int, target: int, amount: float) -> Op:
    if i % 4 == 0:
        return Op(target, "deposit", (amount,), True)
    return Op(target, "get_balance", (), False)


_MIXES = {"set_get": _set_get, "history_deposit": _history_deposit, "deposit_get": _deposit_get}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("rtt_tcp_base", "corba", "tcp", 1, "set_get"),
        Workload("bulk_tcp_base", "corba", "tcp", 1, "history_deposit"),
        Workload("secure_timed_mem", "rmi", "memory", 1, "set_get", secure=True),
        Workload(
            "sharded_zipf_mem", "http", "memory", 256, "deposit_get",
            groups=(("a", 2), ("b", 2), ("c", 2)),
        ),
    )
}


def object_ids(workload: Workload) -> list[str]:
    if workload.objects == 1:
        return ["acct"]
    return [f"acct-{index:03d}" for index in range(workload.objects)]


# -- the model ---------------------------------------------------------------


def opening_movements() -> deque:
    """The movements an account starts with, so `history(64)` is full-size."""
    opening = {"kind": "deposit", "amount": 0.0, "balance_after": 0.0}
    return deque((dict(opening) for _ in range(HISTORY)), maxlen=HISTORY)


class AccountModel:
    """What one servant must hold and answer after the calls so far."""

    def __init__(self) -> None:
        self.balance = 0.0
        self.movements = opening_movements()

    def apply(self, op: Op) -> Any:
        """Advance by one call; return the reply the program must give."""
        if op.name == "get_balance":
            return self.balance
        if op.name == "history":
            return list(self.movements)[-op.args[0]:]
        amount = op.args[0]
        if op.name == "set_balance":
            self.balance = float(amount)
            self._record("set", amount)
            return None
        if op.name == "deposit":
            self.balance += amount
            self._record("deposit", amount)
            return self.balance
        raise ValueError(f"no model for operation {op.name!r}")

    def _record(self, kind: str, amount: float) -> None:
        self.movements.append(
            {"kind": kind, "amount": amount, "balance_after": self.balance}
        )

    def state(self) -> tuple[float, list]:
        return self.balance, list(self.movements)


class Model:
    """One :class:`AccountModel` per object of a workload."""

    def __init__(self, objects: int) -> None:
        self.accounts = [AccountModel() for _ in range(objects)]
        self.touched: set[int] = set()

    def apply(self, op: Op) -> Any:
        self.touched.add(op.target)
        return self.accounts[op.target].apply(op)
