"""The deterministic JSON writer: string escaping against the per-character oracle."""

import json

from hspex.jsonio import dumps
from oracles import escape_loop

CONTROLS = [chr(c) for c in range(0x20)]


def test_every_code_point_escapes_as_the_loop():
    s = "".join(map(chr, range(0x110000)))
    assert dumps(s) == f'"{escape_loop(s)}"'


def test_control_character_keys_escape_as_the_loop():
    d = {ch: i for i, ch in enumerate(CONTROLS)}
    expected = ", ".join(f'"{escape_loop(ch)}": {i}' for i, ch in enumerate(CONTROLS))
    assert dumps(d) == "{" + expected + "}"


def test_round_trips_below_the_surrogates():
    s = "".join(map(chr, range(0xD800)))
    assert json.loads(dumps(s)) == s
    assert json.loads(dumps({s: [s]})) == {s: [s]}
