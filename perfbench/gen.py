"""Seeded generators for the generated workload families.

Each generator takes a size and a `random.Random` and returns the text of a
well-typed `.pvgr` program that runs to a final configuration. The random
draw only renames identifiers (and, for `hold`, permutes the order in which
the channels are closed), so the work a program costs depends on its size
alone and every seed gives the same step count.
"""

from __future__ import annotations

import random
import string


def _tag(rng: random.Random) -> str:
    """A per-program identifier prefix; never a keyword because of the `q`."""
    return "q" + "".join(rng.choice(string.ascii_lowercase) for _ in range(4))


def chain(n: int, rng: random.Random) -> str:
    """An expression program: one forked server accepts and receives n times,
    the client requests and sends n times over a session of n `?Int`s.

    Every top-level `let` doubles the work of today's ANF transform, so this
    family is where the front end dominates."""
    t = _tag(rng)
    ses = ".".join(["?Int"] * n) + ".End"
    recvs = "".join(f"  let {t}x{i} = recv {t}u in\n" for i in range(n))
    sends = "".join(f"let {t}a{i} = send () {t}v in\n" for i in range(n))
    return (
        f"let {t}ap = new {ses} in\n"
        f"let {t}z = fork (\\[.]({t}w: Unit).\n"
        f"  let {t}u = accept {t}ap in\n"
        f"{recvs}"
        f"  close {t}u) in\n"
        f"let {t}v = request {t}ap in\n"
        f"{sends}"
        f"close {t}v\n"
    )


def fan(n: int, rng: random.Random) -> str:
    """A configuration: n forked `accept; recv; close` servers on one access
    point and one client making n sequential `request; send; close` rounds.

    Written as a configuration (already in strict ANF) so that it skips the
    ANF transform; its time is the runtime's redex search."""
    t = _tag(rng)
    server = (
        f"<let {t}u = accept {t}ap in let {t}x = recv {t}u in "
        f"let {t}r = close {t}u in {t}r>"
    )
    rounds = "".join(
        f"let {t}v{i} = request {t}ap in let {t}a{i} = send () {t}v{i} in "
        f"let {t}b{i} = close {t}v{i} in "
        for i in range(n)
    )
    procs = [server] * n + [f"<{rounds}()>"]
    return f"nuap {t}ap : ?Int.End . (" + " | ".join(procs) + ")\n"


def hold(n: int, rng: random.Random) -> str:
    """A configuration: n acceptors and one process that requests n channels
    with `let [c_i]`, then applies a lambda whose pre-state holds all n ends
    and closes them in a seed-drawn order.

    The lambda's state mentions n domains at once, so checking it asks for
    the pairwise disjointness of all of them; this family is where
    constraint entailment dominates."""
    t = _tag(rng)
    order = list(range(n))
    rng.shuffle(order)
    acceptor = f"<let {t}u = accept {t}ap in let {t}r = close {t}u in {t}r>"
    requests = "".join(f"let [{t}c{i}] {t}v{i} = request {t}ap in " for i in range(n))
    state = "{" + ", ".join(f"{t}c{i}: End" for i in range(n)) + "}"
    closes = "".join(f"let {t}r{i} = close {t}v{i} in " for i in order)
    user = (
        f"<{requests}let {t}f = \\[{state}]({t}x: Unit). {closes}() in "
        f"let {t}y = {t}f () in {t}y>"
    )
    procs = [acceptor] * n + [user]
    return f"nuap {t}ap : End . (" + " | ".join(procs) + ")\n"


FAMILIES = {"chain": chain, "fan": fan, "hold": hold}


def final_procs(family: str, n: int) -> int:
    """The number of processes left, all values, in the final configuration."""
    return 2 if family == "chain" else n + 1
