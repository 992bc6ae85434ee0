"""Transition-table text format: round trips and error positions."""

import pytest

from preimages import (AutomatonFormatError, StateSet, parse_automaton, serialize_automaton,
                       serialize_gadget, binarize, chain2, cerny_automaton)


def test_parse_chain2():
    assert parse_automaton("2 1\n1\n1") == chain2()


def test_round_trip(c4):
    text = serialize_automaton(c4)
    assert parse_automaton(text) == c4


def test_comments_and_whitespace_are_ignored():
    text = "# the two-state chain\n 2   1 # header\n1 # row 0\n\n1\n# trailing"
    assert parse_automaton(text) == chain2()


def test_out_of_range_entry_reports_line():
    with pytest.raises(AutomatonFormatError) as err:
        parse_automaton("2 1\n2\n0")
    assert err.value.line == 2
    assert "out of range" in str(err.value)


def test_malformed_header_reports_line():
    with pytest.raises(AutomatonFormatError) as err:
        parse_automaton("x 1\n0")
    assert err.value.line == 1
    with pytest.raises(AutomatonFormatError):
        parse_automaton("0 1\n")


@pytest.mark.parametrize("token", ["+1", "+0", "1_0", "0_1", "\u0660", "\uff11", "0x1", "1.0"])
def test_integers_are_ascii_decimal(token):
    # int() alone would read +1, 1_0, Arabic-Indic and fullwidth digits.
    with pytest.raises(AutomatonFormatError) as err:
        parse_automaton(f"2 1\n{token}\n0")
    assert str(err.value) == f"line 2: expected transition (0,0), got {token!r}"
    with pytest.raises(AutomatonFormatError) as err:
        parse_automaton(f"{token} 1\n0\n0")
    assert str(err.value) == f"line 1: expected state count, got {token!r}"


def test_negative_entries_are_out_of_range():
    with pytest.raises(AutomatonFormatError) as err:
        parse_automaton("2 1\n1\n-1")
    assert str(err.value) == "line 3: transition (1,0) -> -1 out of range [0, 2)"
    with pytest.raises(AutomatonFormatError) as err:
        parse_automaton("-2 1\n0\n0")
    assert str(err.value) == "line 1: header must hold two positive integers, got -2 1"


def test_row_count_mismatch_reports_line():
    with pytest.raises(AutomatonFormatError) as err:
        parse_automaton("2 1\n1")
    assert "end of input" in str(err.value)
    with pytest.raises(AutomatonFormatError) as err:
        parse_automaton("2 1\n1\n1\n0")
    assert err.value.line == 4


def test_gadget_serialization_round_trips_with_comments():
    out = binarize(cerny_automaton(4), StateSet.from_states(4, [1, 2]))
    text = serialize_gadget(out)
    assert parse_automaton(text) == out.automaton
    assert "# subset: " in text
    assert out.state_names[0] in text
