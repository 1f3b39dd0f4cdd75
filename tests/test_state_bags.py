"""State bags: `pvgr.typing._remove`, which finds each wanted atom by its
conversion key, agrees with the scan of `tests/conv_ref.py`, which calls
the canonical-form `conv` once per pair of atoms. They are compared on
every call that `check` and `run --check` make over the corpus, the
generated chain, fan and hold programs at N = 3 and 8, the programs of
`tests/test_cli.py`, and programs that lack a wanted atom."""

from __future__ import annotations

import random

from conftest import cli_programs, corpus_files, perfbench_gen
from conv_ref import _remove as remove_ref

import pvgr.typing
from pvgr.cli import main
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


def _programs() -> list[tuple[str, str]]:
    gen = perfbench_gen()
    generated = [(f"{family}{n}", make(n, random.Random(n))) for family, make in gen.FAMILIES.items() for n in (3, 8)]
    corpus = [(f.stem, f.read_text()) for f in corpus_files()]
    return corpus + generated + cli_programs() + list(MISSING.items())


def _same(got, ref) -> bool:
    """The same atoms left, as objects in the same order, and the same
    wanted atom reported missing."""
    return got[1] is ref[1] and [id(a) for a in got[0]] == [id(a) for a in ref[0]]


def test_remove_agrees_with_canonical_form_scan(tmp_path, monkeypatch, capsys):
    new = pvgr.typing._remove
    calls = missing = 0

    def spy(atoms, wanted):
        nonlocal calls, missing
        got = new(atoms, wanted)
        assert _same(got, remove_ref(atoms, wanted)), (atoms, wanted)
        calls += 1
        missing += got[1] is not None and bool(atoms)
        return got

    monkeypatch.setattr(pvgr.typing, "_remove", spy)
    statuses = []
    for i, (_, src) in enumerate(_programs()):
        f = tmp_path / f"p{i}.pvgr"
        f.write_text(src)
        statuses += [main(["check", str(f)]), main(["run", str(f), "--check"])]
        capsys.readouterr()
    assert statuses.count(0) > 40 and statuses.count(1) > 40
    assert calls > 3000 and missing >= 5


def test_remove_takes_the_first_convertible_atom_once():
    x, y, z, w = (parse_type(s) for s in ("!Int.End", "!Int.End", "?Int.End", "!Int.End"))
    for wanted in ([w], [w, w], [w, w, w], [z, w], [w, z, z]):
        assert _same(pvgr.typing._remove([z, x, y], wanted), remove_ref([z, x, y], wanted)), wanted
