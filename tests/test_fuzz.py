"""Input fuzzing: mutated case and profile text parses or fails cleanly.

Each example applies a few single-character edits (replace, insert,
delete) to a bundled file.  The parsers must return a value or raise
their own located error; the CLI must exit 0 or 2 with a manifest.
The scenario JSON is fuzzed too: one top-level key of the CLI tests'
tiny scenario dropped or replaced by an ill-typed or out-of-range value,
on which every command ends with one of its exit codes.
"""

import json
import os
import pathlib
import shutil
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import data_path
from test_cli import SCENARIO, write_scenario
from energyshed.cli import main
from energyshed.netmodel import (
    CaseParseError,
    ProfileError,
    TimeGrid,
    parse_matpower_case,
    parse_profiles,
)

with open(data_path("case39.m")) as fh:
    CASE = fh.read()
with open(data_path("profiles39.csv")) as fh:
    PROFILES = fh.read()
NETWORK = parse_matpower_case(CASE)
GRID = TimeGrid(steps=len(PROFILES.splitlines()[0].split(",")) - 2)

# characters that matter to the parsers, plus plain letters and digits
ALPHABET = " \t\r\n%;,=[]().-+eE019abinfx"


@st.composite
def mutated(draw, text):
    """text with one to four single-character edits at drawn positions."""
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        ch = draw(st.sampled_from(ALPHABET))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        tail = text[i + 1:] if op != "insert" else text[i:]
        text = text[:i] + ("" if op == "delete" else ch) + tail
    return text


@given(mutated(CASE))
@settings(max_examples=300, deadline=None)
def test_mutated_case_parses_or_raises_case_error(text):
    try:
        parse_matpower_case(text)
    except CaseParseError:
        pass


@given(mutated(PROFILES))
@settings(max_examples=300, deadline=None)
def test_mutated_profiles_parse_or_raise_profile_error(text):
    try:
        parse_profiles(text, NETWORK, GRID)
    except ProfileError:
        pass


@given(st.sampled_from(["case39.m", "profiles39.csv"]), st.data())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_validate_on_mutated_scenario(capsys, name, data):
    with tempfile.TemporaryDirectory() as tmp:
        for f in ("scenario_medium.json", "case39.m", "profiles39.csv"):
            shutil.copy(data_path(f), tmp)
        text = data.draw(mutated(CASE if name == "case39.m" else PROFILES))
        with open(os.path.join(tmp, name), "w") as fh:
            fh.write(text)
        out = os.path.join(tmp, "out")
        code = main(["validate", "--scenario", os.path.join(tmp, "scenario_medium.json"),
                     "--out", out])
        assert code in (0, 2)
        with open(os.path.join(out, "manifest.json")) as fh:
            assert json.load(fh)["exit_code"] == code
    assert "Traceback" not in capsys.readouterr().err


# ill-typed, out-of-range and unknown-id values for any scenario key
POOL = [None, "x", -1, 0, 1e308, [], {}, True, [[]], {"1": -1}, {"1": [1, 2]},
        {"999": 1}, [[1], [1]]]


@given(key=st.sampled_from(sorted(SCENARIO)),
       value=st.one_of(st.just("drop"), st.sampled_from(POOL)))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_on_mutated_scenario_json(capsys, key, value):
    scenario = {k: v for k, v in SCENARIO.items() if k != key}
    if value != "drop":
        scenario[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = write_scenario(pathlib.Path(tmp), scenario)
        for cmd in ("validate", "analyze", "baseline"):
            out = os.path.join(tmp, cmd)
            code = main([cmd, "--scenario", path, "--out", out])
            assert code in (0, 2, 3, 4)
            with open(os.path.join(out, "manifest.json")) as fh:
                assert json.load(fh)["exit_code"] == code
    assert "Traceback" not in capsys.readouterr().err
