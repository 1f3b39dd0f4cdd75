"""Conversion and state-bag removal as `pvgr` decided them with canonical
trees: `conv` compares `canonicalize` of the two normal forms, and
`_remove` scans the atoms with that `conv`, one call per pair. They are the
references of `tests/test_normal_forms.py` and `tests/test_state_bags.py`,
which check that comparing normalize's sort key (`pvgr.normalize.conv_key`)
decides the same. They are kept out of `tests/oracles.py`, which perfbench
imports.
"""

from __future__ import annotations

from pvgr.ast import Type, canonicalize
from pvgr.normalize import normalize


def conv(t1: Type, t2: Type) -> bool:
    """Decides the conversion relation: alpha-equivalence of normal forms."""
    n1, n2 = normalize(t1), normalize(t2)
    return n1 is n2 or canonicalize(n1) == canonicalize(n2)


def _remove(atoms: list[Type], wanted: list[Type]) -> tuple[list[Type], Type | None]:
    """atoms less one atom equal up to conv to each wanted atom, in turn, and
    the first wanted atom that none equals (None when all are found)."""
    rest = list(atoms)
    for w in wanted:
        for i, a in enumerate(rest):
            if conv(a, w):
                del rest[i]
                break
        else:
            return rest, w
    return rest, None
