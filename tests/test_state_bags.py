"""State bags: `pvgr.typing._remove`, which finds each wanted atom by its
conversion key, agrees with the scan of `tests/conv_ref.py`, which calls
the canonical-form `conv` once per pair of atoms. They are compared on
every call that `check` and `run --check` make over the corpus, the
generated chain, fan and hold programs at N = 3, 8 and 16, the programs of
`tests/test_cli.py`, and programs that lack a wanted atom."""

from __future__ import annotations

from conftest import checked_programs, run_cli
from conv_ref import _remove as remove_ref

import pvgr.typing
from pvgr.parser import parse_type

# programs whose state lacks an atom that a rule wants while it holds others
MISSING = {
    # T-App: the function wants {c: !Int.End}, and the state has {c: End}
    "pre-state": (
        "let ap = new End in let [c] v = request ap in\n"
        "let g = /\\d:Dom(1)[]. \\[{d: !Int.End}](x: Chan d). () in let h = g [c] in h v\n"
    ),
    # T-Exp: the first process keeps the channel it requests besides b's end
    "own-leftover": (
        "nu a b : End . (<let u = close (chan a) in let ap = new End in let v = request ap in ()>"
        " | <close (chan b)>)"
    ),
}


def _same(got, ref) -> bool:
    """The same atoms left, as objects in the same order, and the same
    wanted atom reported missing."""
    return got[1] is ref[1] and [id(a) for a in got[0]] == [id(a) for a in ref[0]]


def test_remove_agrees_with_canonical_form_scan(tmp_path, monkeypatch, capsys):
    # the spy runs under `main`, which reports any exception, so it records
    # a disagreement rather than raising it
    new = pvgr.typing._remove
    calls = missing = 0
    disagreements = []

    def spy(atoms, wanted):
        nonlocal calls, missing
        got = new(atoms, wanted)
        if not _same(got, remove_ref(atoms, wanted)):
            disagreements.append((atoms, wanted))
        calls += 1
        missing += got[1] is not None and bool(atoms)
        return got

    monkeypatch.setattr(pvgr.typing, "_remove", spy)
    statuses = run_cli(tmp_path, capsys, checked_programs((3, 8, 16)) + list(MISSING.items()))
    assert not disagreements
    assert statuses.count(0) > 40 and statuses.count(1) > 40
    assert calls > 3000 and missing >= 5


def test_remove_takes_the_first_convertible_atom_once():
    x, y, z, w = (parse_type(s) for s in ("!Int.End", "!Int.End", "?Int.End", "!Int.End"))
    for wanted in ([w], [w, w], [w, w, w], [z, w], [w, z, z]):
        assert _same(pvgr.typing._remove([z, x, y], wanted), remove_ref([z, x, y], wanted)), wanted
