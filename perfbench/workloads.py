"""Seeded inputs of the service benchmark's three workloads.

A workload is a preloaded keyspace plus a fixed list of user
transactions.  Every transaction is a read-modify-write program in the
paper's notation (``r[a] w[a] r[b] w[b]``); the ``relative`` workload
adds long programs that declare a relative-atomicity cut after each
object they touch.  Everything here is a pure function of the seed, so
the same seed gives the same programs, keys and preload values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Keyspace of ``hot``: small enough that RSGT aborts and replays.
HOT_KEYS = 64
#: Keyspace of ``relative``: a few times ``hot``'s (see README.md).
RELATIVE_KEYS = 256
#: One transaction in every ``LONG_EVERY`` consecutive ones of
#: ``relative`` is long and cut, at a seeded position: an exact share, so
#: instances differ in which transactions are long, not in how many (a
#: random 10% share varied the count per 200 by about 20%).
LONG_EVERY = 10
#: Objects a long ``relative`` transaction reads and writes.
LONG_OBJECTS = (4, 6)


@dataclass(frozen=True)
class Program:
    """One user transaction: its operations and declared cuts."""

    ops: tuple[tuple[str, str], ...]
    cuts: tuple[int, ...] = ()

    @property
    def text(self) -> str:
        """The program in the wire's notation, e.g. ``r[a] w[a]``."""
        return " ".join(f"{kind}[{key}]" for kind, key in self.ops)


@dataclass(frozen=True)
class Inputs:
    """A workload instance: preload plus user transactions in order."""

    objects: dict[str, int]
    programs: tuple[Program, ...]


def _rmw(*keys: str) -> tuple[tuple[str, str], ...]:
    return tuple(op for key in keys for op in (("r", key), ("w", key)))


def _disjoint(rng: random.Random, count: int) -> Inputs:
    keys = [f"d{i}" for i in range(2 * count)]
    rng.shuffle(keys)
    programs = tuple(
        Program(_rmw(keys[2 * i], keys[2 * i + 1])) for i in range(count)
    )
    return Inputs(_preload(rng, keys), programs)


def _hot(rng: random.Random, count: int) -> Inputs:
    keys = [f"h{i}" for i in range(HOT_KEYS)]
    programs = tuple(Program(_rmw(*rng.sample(keys, 2))) for _ in range(count))
    return Inputs(_preload(rng, keys), programs)


def _relative(rng: random.Random, count: int) -> Inputs:
    keys = [f"v{i}" for i in range(RELATIVE_KEYS)]
    programs = []
    long_at = -1
    for i in range(count):
        if i % LONG_EVERY == 0:
            long_at = i + rng.randrange(LONG_EVERY)
        if i == long_at:
            touched = rng.sample(keys, rng.randint(*LONG_OBJECTS))
            # A cut after each object: other transactions may interleave
            # between objects but never inside one read-modify-write.
            cuts = tuple(range(2, 2 * len(touched), 2))
            programs.append(Program(_rmw(*touched), cuts))
        else:
            programs.append(Program(_rmw(*rng.sample(keys, 2))))
    return Inputs(_preload(rng, keys), tuple(programs))


def _preload(rng: random.Random, keys: list[str]) -> dict[str, int]:
    return {key: rng.randrange(1_000_000) for key in sorted(keys)}


GENERATORS = {"disjoint": _disjoint, "hot": _hot, "relative": _relative}


def make_inputs(name: str, seed: int | str, count: int) -> Inputs:
    """The ``count`` user transactions of workload ``name`` for ``seed``."""
    return GENERATORS[name](random.Random(f"{name}:{seed}"), count)
