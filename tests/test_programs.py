"""The shipped examples double as golden end-to-end tests."""

from pathlib import Path

import pytest

from cimp.cli import main
from cimp.difftest import DEFAULT_ENGINES
from cimp.frontend import parse_program, pretty
from cimp.mips import MulNotSupported, codegen
from cimp.semantics import Store

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"

FINAL_STORES = {
    "counting.imp": {"x": 10},
    "fibonacci.imp": {"a": 2584, "b": 4181, "i": 18, "t": 4181},
    "nested_conditionals.imp": {"x": 7, "y": 3, "z": 6},
    "mul_demo.imp": {"n": 6, "m": 7, "p": 42},
    "wraparound.imp": {"big": 2**32 - 1, "next": 0, "signed_view": 2**32 - 1},
}


def _load(name):
    return parse_program((PROGRAMS / name).read_text())


def test_corpus_is_complete():
    names = sorted(p.name for p in PROGRAMS.glob("*.imp"))
    assert names == sorted(FINAL_STORES)


@pytest.mark.parametrize("name", sorted(FINAL_STORES))
def test_examples_run_everywhere(name):
    p = _load(name)
    for engine, run in DEFAULT_ENGINES.items():
        kind, store = run(p, Store({}), 10**6, 10**7)
        assert (kind, dict(store.items())) == ("done", FINAL_STORES[name]), engine


@pytest.mark.parametrize("name", sorted(FINAL_STORES))
def test_examples_round_trip(name):
    p = _load(name)
    assert parse_program(pretty(p)) == p


def test_mul_demo_needs_flag():
    with pytest.raises(MulNotSupported):
        codegen(_load("mul_demo.imp"))


def test_counting_invariant_checks_out(capsys):
    code = main(
        [
            "vc",
            str(PROGRAMS / "counting.imp"),
            "--pre",
            "x = 0",
            "--post",
            "x = 10",
            "--bounded-check",
            "16",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.count(": valid") == 3
