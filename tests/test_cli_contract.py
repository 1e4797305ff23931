"""The CLI's input contract, checked over generated command lines.

Every argv drawn from build_parser()'s own actions, their option strings,
choices and types, either succeeds or is refused: exit 0 with stdout that
parses in its --format, or exit 2 or 3 with empty stdout and exactly one
stderr line. Values come from pools of edge cases, in both the --flag value
and --flag=value spellings, and --config may name a file of KEY=VALUE lines
drawn from the same pools. The flags that set an amount of work (--shots,
--points, --threads and the gauss:<n> resolution) draw from small values and
from values refused before anything is allocated, so no example runs long or
starts more than one thread.
"""
import ast
import contextlib
import csv
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telecert.certify import Adversary, Criterion
from telecert.cli import _parse, build_parser, main
from telecert.protocols import InputFamily, ProtocolId

EDGES = ["nan", "inf", "-inf", "1e308", "-1e308", "5e-324", str(2**64), "-1", "0", "-0.0",
         "", "bogus", " GHZ", "gauss:1", "exact:3", "new\nline"]
NAMES = [e.value for enum in (ProtocolId, InputFamily, Adversary, Criterion) for e in enum]
# values each type accepts; an untyped flag whose help lists "a | b | c" accepts those names
TYPED = {int: ["1", "2", "3", "23"], float: ["0.5", "1", "-1e-3", "3.141592653589793"]}
# the amount of work grows with these: small values, and values refused before any allocation
BOUNDED = {
    "--shots": ["100", "1000", "99", "0", "-1", "1e3", "nan"],
    "--points": ["1", "2", "5", "0", "-1", "2.5"],
    "--threads": ["1", "2", "0", "-1", "x"],
    "--quadrature": ["exact", "gauss:2", "gauss:16", " GAUSS:4", "gauss:1", "exact:3",
                     "gauss:x", "gauss:-3", f"gauss:{2**64}", "grid:4", "bogus"],
}
STRAYS = ["--bogus", "--bo\ngus", "new\nline", "-1e308"]  # tokens no flag takes
STRAY_LINES = ["bogus=1", "no key", "# comment", "config=other.cfg"]
CONFIG = "<config>"  # stands for the path of the example's config file
NOT_A_FILE = "/nonexistent/telecert.cfg"

_PARSER = build_parser()
[_SUBCOMMANDS] = [a.choices for a in _PARSER._actions if a.dest == "command"]
ACTIONS = {name: [a for a in sub._actions if a.dest != "help"]
           for name, sub in _SUBCOMMANDS.items()}

# a --format table line: "key = value", "key:" or the "--" after a list item
TABLE_LINE = re.compile(r"( {2})*(\w+ = \S.*|\w+:|--)")


def _mostly(accepted: list, refused: list) -> st.SearchStrategy:
    """Three draws in four from accepted, so that most command lines get past parsing."""
    return st.integers(0, 3).flatmap(lambda i: st.sampled_from(refused if i == 3 else accepted))


def _values(action) -> st.SearchStrategy:
    if action.nargs == 0:  # --self: bare, or with a value it refuses
        return _mostly([None], ["true", "0"])
    if action.dest == "config":
        return _mostly([CONFIG], [NOT_A_FILE, "", "new\nline"])
    if action.option_strings[-1] in BOUNDED:
        return st.sampled_from(BOUNDED[action.option_strings[-1]])
    listed = (action.help or "").split(" | ")
    accepted = action.choices or TYPED.get(action.type) or (listed if len(listed) > 1 else NAMES)
    return _mostly(list(accepted), EDGES + NAMES)


@st.composite
def _flags(draw, command: str, required: bool, max_size: int) -> list:
    """(action, value) pairs of one subcommand, its required actions first if asked."""
    actions = ACTIONS[command]
    chosen = [a for a in actions if a.required and required]
    chosen += draw(st.lists(st.sampled_from(actions), max_size=max_size))
    return [(a, draw(_values(a))) for a in chosen]


@st.composite
def command_lines(draw) -> tuple[list[str], str]:
    """(argv, config file text): a subcommand, its flags in either spelling, maybe a stray."""
    command = draw(st.sampled_from(sorted(ACTIONS)))
    argv = [command]
    for action, value in draw(_flags(command, True, 4)):
        flag = draw(st.sampled_from(action.option_strings))
        if value is None:
            argv.append(flag)
        elif draw(st.booleans()):
            argv += [flag, value]
        else:
            argv.append(f"{flag}={value}")
    argv += draw(_mostly([[]], [[stray] for stray in STRAYS]))
    lines = [f"{a.option_strings[-1][2:]}={'true' if v is None else v}"
             for a, v in draw(_flags(command, False, 3))]
    lines += draw(_mostly([[]], [[stray] for stray in STRAY_LINES]))
    return argv, "".join(line + "\n" for line in lines)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _check_stdout(out: str, fmt: str) -> None:
    if fmt == "json":
        assert isinstance(json.loads(out, parse_constant=_reject_constant), dict)
    elif fmt == "csv":
        reader = csv.DictReader(io.StringIO(out))
        rows = list(reader)
        assert rows and all(None not in row and None not in row.values() for row in rows)
        assert reader.fieldnames == list(rows[0])
    else:
        assert all(TABLE_LINE.fullmatch(line) for line in out.splitlines()), out


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(command_lines())
def test_every_command_line_succeeds_or_is_refused_in_one_line(tmp_path_factory, drawn):
    argv, config = drawn
    path = tmp_path_factory.getbasetemp() / "contract.cfg"
    path.write_text(config.replace(CONFIG, str(path)), encoding="utf-8")
    argv = [token.replace(CONFIG, str(path)) for token in argv]
    code, out, err = _run(argv)
    assert code in (0, 2, 3), (argv, code, err)
    if code:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        assert err.startswith("error: " if code == 2 else "capacity error: "), (argv, err)
    else:
        assert err == "", (argv, err)
        _check_stdout(out, _parse(build_parser(), argv).format)


@pytest.mark.xfail(np.lib.NumpyVersion(np.__version__) >= "2.0.0", strict=True,
                   reason="Monte Carlo per-branch frequencies are numpy floats, which "
                          "--format table prints as np.float64(...) from numpy 2 on")
def test_table_values_are_python_literals():
    argv = ["run", "--protocol", "pb", "--m", "2", "--family", "ghz", "--theta", "0.7",
            "--mode", "monte_carlo", "--shots", "1000", "--seed", "7", "--format", "table"]
    code, out, _ = _run(argv)
    assert code == 0
    for line in out.splitlines():
        if " = " in line:
            ast.literal_eval(line.split(" = ", 1)[1])
