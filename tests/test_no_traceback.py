"""Every command ends in a defined exit code on any input, never in a traceback.

Inputs are generated programs and token soups (``program_gen``), soups with
characters at the edges of the lexer's classes sprinkled in, wide nets
of independent ``Add 1+1`` pairs, and closed nets of up to 8 identical
disconnected pairs, whose canonical form is the most expensive to find.
"""

import contextlib
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inetkit.cli import main

import program_gen

COMMANDS = [
    ["check"],
    ["run", "--max-steps", "50"],
    ["trace", "--max-steps", "50"],
    ["trace", "--json", "--max-steps", "50"],
    ["expand"],
    ["fuzz", "--seeds", "2", "--max-steps", "50"],
]


@pytest.fixture(scope="module")
def program_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("generated") / "program.inet"

    def write(text: str) -> str:
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def assert_no_traceback(path: str) -> None:
    for command in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([command[0], path, *command[1:]])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        assert code in range(6), (command, code, err.getvalue())
        assert "Traceback" not in err.getvalue(), command


seeds = st.integers(min_value=0, max_value=2**32)


def sprinkled_soup(seed: int) -> str:
    rng = random.Random(seed)
    return program_gen.sprinkle(rng, program_gen.soup(rng))


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        seeds.map(lambda seed: program_gen.program(random.Random(seed))),
        seeds.map(lambda seed: program_gen.soup(random.Random(seed))),
        seeds.map(sprinkled_soup),
        st.integers(min_value=1, max_value=300).map(program_gen.wide_net),
    )
)
def test_generated_inputs_end_in_an_exit_code(program_path, text):
    assert_no_traceback(program_path(text))


@pytest.mark.parametrize("k", [1, 3, 6, 8])
def test_symmetric_closed_nets_end_in_an_exit_code(program_path, k):
    assert_no_traceback(program_path(program_gen.symmetric_net(k)))
