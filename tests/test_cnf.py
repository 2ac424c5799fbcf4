"""DIMACS parsing and 3-CNF validation."""

import re

import pytest

from instances import Index

from mret.cnf import CnfFormula, format_dimacs, parse_assignment, parse_dimacs
from mret.errors import ParseError

EXAMPLE = """\
c (x1 v x2 v x3) ^ (-x1 v x2 v x3) ^ (-x1 v -x2 v -x3)
p cnf 3 3
1 2 3 0
-1 2 3 0
-1 -2 -3 0
"""


def test_parse_example():
    f = parse_dimacs(EXAMPLE)
    assert f.variable_count == 3
    assert f.clause_count == 3
    assert f.clauses == (
        ((0, True), (1, True), (2, True)),
        ((0, False), (1, True), (2, True)),
        ((0, False), (1, False), (2, False)),
    )


def test_satisfies():
    f = parse_dimacs(EXAMPLE)
    assert f.satisfies((False, True, True))
    assert not f.satisfies((True, True, True))  # last clause fails
    with pytest.raises(ValueError, match="assignment has 2"):
        f.satisfies((True, False))


def test_clause_spanning_lines():
    f = parse_dimacs("p cnf 3 2\n1 2\n3 0\n-1 -2 -3 0\n")
    assert f.clauses[0] == ((0, True), (1, True), (2, True))
    assert f.clause_count == 2


def test_repeated_variable():
    with pytest.raises(ParseError, match="repeats a variable"):
        parse_dimacs("p cnf 2 1\n1 1 2 0\n")


def test_single_polarity_rejected():
    text = "p cnf 3 2\n1 2 3 0\n1 -2 -3 0\n"
    with pytest.raises(ParseError, match="variable 1 never appears negatively"):
        parse_dimacs(text)


def test_wrong_clause_size():
    with pytest.raises(ParseError, match="2 literals, expected 3"):
        parse_dimacs("p cnf 3 1\n1 2 0\n")
    with pytest.raises(ParseError, match="4 literals"):
        parse_dimacs("p cnf 4 1\n1 2 3 4 0\n")


def test_header_errors():
    with pytest.raises(ParseError, match="missing 'p cnf' header"):
        parse_dimacs("c nothing here\n")
    with pytest.raises(ParseError, match="before 'p cnf'"):
        parse_dimacs("1 2 3 0\np cnf 3 1\n")
    with pytest.raises(ParseError, match="second header"):
        parse_dimacs("p cnf 3 1\np cnf 3 1\n1 2 3 0\n")
    with pytest.raises(ParseError, match="malformed header"):
        parse_dimacs("p cnf three 1\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_dimacs("p dnf 3 1\n")
    with pytest.raises(ParseError, match="^line 1: bad counts in header 'p cnf 0 1'$"):
        parse_dimacs("p cnf 0 1\n")


def test_literal_errors():
    with pytest.raises(ParseError, match="out of range"):
        parse_dimacs("p cnf 2 1\n1 2 3 0\n")
    with pytest.raises(ParseError, match="non-integer"):
        parse_dimacs("p cnf 3 1\n1 two 3 0\n")
    with pytest.raises(ParseError, match="unterminated"):
        parse_dimacs("p cnf 3 1\n1 2 3\n")
    with pytest.raises(ParseError, match="declares 2 clauses, found 1"):
        parse_dimacs("p cnf 3 2\n1 2 3 0\n")


def test_format_round_trip():
    f = parse_dimacs(EXAMPLE)
    assert parse_dimacs(format_dimacs(f)) == f


def test_formula_invariants_direct():
    with pytest.raises(ValueError, match="out of range"):
        CnfFormula(2, (((0, True), (1, True), (2, True)),))
    with pytest.raises(ValueError, match="variable_count must be at least 1, got 0"):
        CnfFormula(0, ())
    with pytest.raises(ValueError, match="^clause 1 has 2 literals, expected 3$"):
        CnfFormula(2, (((0, True), (1, False)),))


CLAUSES = (((0, True), (1, True), (2, True)), ((0, False), (1, False), (2, False)))


@pytest.mark.parametrize("bad", [0.9, 0.0, "0", None],
                         ids=["float", "integral float", "str", "None"])
def test_formula_refuses_a_variable_that_is_not_an_integer(bad):
    # int() would truncate 0.9 to variable 0
    clauses = (CLAUSES[0], ((0, False), (bad, False), (2, False)))
    message = re.escape(f"clause 2 variable is not an integer: {bad!r}")
    with pytest.raises(ValueError, match=message):
        CnfFormula(3, clauses)


@pytest.mark.parametrize("bad", [1, 0, "no", "", None, 1.0])
def test_formula_refuses_a_polarity_that_is_not_a_bool(bad):
    # bool() would read "no" as true and "" as false
    clauses = (CLAUSES[0], ((0, False), (1, bad), (2, False)))
    with pytest.raises(ValueError, match=re.escape(f"clause 2 polarity is not a bool: {bad!r}")):
        CnfFormula(3, clauses)


def test_formula_accepts_index_objects_and_bool_variables():
    clauses = (((Index(0), True), (True, True), (2, True)), CLAUSES[1])
    f = CnfFormula(3, clauses)
    assert f.clauses == CLAUSES
    assert {type(v) for clause in f.clauses for v, _ in clause} == {int}


def test_parse_assignment():
    assert parse_assignment("FTT", 3) == (False, True, True)
    assert parse_assignment("011", 3) == (False, True, True)
    assert parse_assignment("ftt", 3) == (False, True, True)
    with pytest.raises(ParseError, match="bad assignment character"):
        parse_assignment("TXround", 7)
    with pytest.raises(ParseError, match="2 values for 3"):
        parse_assignment("TF", 3)
