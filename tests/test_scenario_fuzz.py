"""Fuzzed scenario values through ``ussir``.

One value line of a bundled scenario holds text drawn from a small alphabet
of numerals, operators, quotes, comments, names and functions.  Whatever it
holds, no exception escapes ``main``, the exit code is 0 or 1, and at most
one ``error:`` line is printed; for ``criteria`` and ``validate`` that line
names the file.  ``simulate`` runs with its own ``--dt`` and ``--horizon``,
so a fuzzed time grid never reaches a real run.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from ussir.cli import main
from ussir.scenario import bundled_scenario_path

BASE = bundled_scenario_path("table3").read_text().splitlines()
VALUE_LINES = [i for i, line in enumerate(BASE) if "=" in line and not line.startswith("#")]
TOKENS = [*"0123456789eE.+-*/^(),_\"#", "²", "٣", "t", "x", "q", "sin", "cos", "ln", "abs", "min"]
TEXT = st.lists(st.sampled_from(TOKENS), max_size=12).map("".join)
SHORT = st.lists(st.sampled_from(TOKENS), min_size=1, max_size=3).map("".join)
# quoted text gets parsed as an expression; short text is more often a valid one
VALUES = st.one_of(TEXT, TEXT.map(lambda text: f'"{text}"'), SHORT, SHORT.map(lambda text: f'"{text}"'))
COMMANDS = (["criteria"], ["validate"], ["simulate", "--dt", "0.001", "--horizon", "0.01"])


@given(line=st.sampled_from(VALUE_LINES), value=VALUES)
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
def test_fuzzed_value_line_fails_cleanly(tmp_path_factory, line, value):
    lines = list(BASE)
    lines[line] = f"{lines[line].partition('=')[0]}= {value}"
    work = tmp_path_factory.getbasetemp() / "fuzz"
    work.mkdir(exist_ok=True)
    target = work / "fuzz.scn"
    target.write_text("\n".join(lines) + "\n")
    for command, *flags in COMMANDS:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(target), "--out", str(work), *flags])
        errors = [text for text in err.getvalue().splitlines() if text.startswith("error:")]
        assert code in (0, 1), (lines[line], command, code)
        assert len(errors) <= 1, (lines[line], command, errors)
        if errors and command != "simulate":
            assert errors[0].startswith(f"error: {target}"), (lines[line], command, errors)
