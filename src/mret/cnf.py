"""3-CNF formulas: DIMACS parsing and validation.

Formulas here are strict 3-CNF: every clause has three literals over
three distinct variables, and every variable occurs somewhere positively
and somewhere negatively.  The second condition is a precondition of
the hardness construction, so violating formulas are rejected outright
rather than rewritten.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ParseError, Record, as_int

Literal = tuple[int, bool]  # (0-based variable index, is-positive)


class CnfFormula(Record):
    variable_count: int
    clauses: tuple[tuple[Literal, Literal, Literal], ...]

    def __post_init__(self):
        object.__setattr__(self, "variable_count",
                           as_int(self.variable_count, "variable_count", least=1))
        clauses = tuple(
            tuple((as_int(v, "clause {} variable", idx), p) for v, p in clause)
            for idx, clause in enumerate(self.clauses, start=1)
        )
        object.__setattr__(self, "clauses", clauses)
        for idx, clause in enumerate(clauses, start=1):
            if len(clause) != 3:
                raise ValueError(f"clause {idx} has {len(clause)} literals, expected 3")
            if len({v for v, _ in clause}) != 3:
                raise ValueError(f"clause {idx} repeats a variable")
            for v, positive in clause:
                if type(positive) is not bool:
                    raise ValueError(f"clause {idx} polarity is not a bool: {positive!r}")
                if not 0 <= v < self.variable_count:
                    raise ValueError(f"clause {idx} uses variable {v + 1}, out of range")
        seen = {literal for clause in clauses for literal in clause}
        for v in range(self.variable_count):
            for positive, how in ((True, "positively"), (False, "negatively")):
                if (v, positive) not in seen:
                    raise ValueError(f"variable {v + 1} never appears {how}")

    @property
    def clause_count(self) -> int:
        return len(self.clauses)

    def satisfies(self, assignment: Sequence[bool]) -> bool:
        if len(assignment) != self.variable_count:
            raise ValueError(
                f"assignment has {len(assignment)} values for "
                f"{self.variable_count} variables"
            )
        return all(
            any(bool(assignment[v]) == positive for v, positive in clause)
            for clause in self.clauses
        )


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF: 'c' comments, a 'p cnf n m' header, then
    0-terminated clauses (which may span lines)."""
    header: tuple[int, int] | None = None
    clauses: list[tuple[Literal, Literal, Literal]] = []
    pending: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise ParseError("second header line", lineno)
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise ParseError(f"malformed header {line!r}", lineno)
            try:
                header = (int(fields[2]), int(fields[3]))
            except ValueError:
                raise ParseError(f"malformed header {line!r}", lineno) from None
            if header[0] < 1 or header[1] < 0:
                raise ParseError(f"bad counts in header {line!r}", lineno)
            continue
        if header is None:
            raise ParseError("clause before 'p cnf' header", lineno)
        for token in line.split():
            try:
                lit = int(token)
            except ValueError:
                raise ParseError(f"non-integer literal {token!r}", lineno) from None
            if lit == 0:
                if len(pending) != 3:
                    raise ParseError(f"clause has {len(pending)} literals, expected 3", lineno)
                clauses.append(tuple((abs(v) - 1, v > 0) for v in pending))
                pending = []
                continue
            if abs(lit) > header[0]:
                raise ParseError(f"literal {lit} out of range", lineno)
            pending.append(lit)
    if header is None:
        raise ParseError("missing 'p cnf' header")
    if pending:
        raise ParseError("unterminated clause at end of input")
    if len(clauses) != header[1]:
        raise ParseError(f"header declares {header[1]} clauses, found {len(clauses)}")
    try:
        return CnfFormula(header[0], tuple(clauses))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_dimacs(f: CnfFormula) -> str:
    literals = tuple(v + 1 if p else -v - 1 for clause in f.clauses for v, p in clause)
    body = "%d %d %d 0\n" * f.clause_count % literals
    return f"p cnf {f.variable_count} {f.clause_count}\n{body}"


def parse_assignment(text: str, variable_count: int) -> tuple[bool, ...]:
    """Truth values as a compact string: 'T'/'1' true, 'F'/'0' false."""
    cleaned = text.strip().upper()
    values = []
    for ch in cleaned:
        if ch in "T1":
            values.append(True)
        elif ch in "F0":
            values.append(False)
        else:
            raise ParseError(f"bad assignment character {ch!r}")
    if len(values) != variable_count:
        raise ParseError(
            f"assignment has {len(values)} values for {variable_count} variables"
        )
    return tuple(values)
