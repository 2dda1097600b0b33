"""3SAT formulas and DIMACS parsing."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FormatError


@dataclass(frozen=True)
class CnfFormula:
    """Clauses are triples of signed 1-based literals; -k negates variable k."""

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        for c_idx, clause in enumerate(self.clauses):
            if len(clause) != 3:
                raise FormatError(
                    f"clause {c_idx} has {len(clause)} literals, need exactly 3"
                )
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise FormatError(f"clause {c_idx}: literal {lit} out of range")

    def evaluate(self, assignment: dict[int, bool]) -> bool:
        return all(
            any(assignment[abs(l)] == (l > 0) for l in clause)
            for clause in self.clauses
        )


def _integer(token: str, line_no: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"{token!r} is not an integer", f"line {line_no}") from None


def parse_dimacs(text: str | bytes) -> CnfFormula:
    """Parse a DIMACS cnf document; clauses must have exactly 3 literals."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"not valid UTF-8: {exc}") from None
    num_vars = None
    num_clauses = None
    clauses: list[tuple[int, int, int]] = []
    pending: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise FormatError("malformed problem line", f"line {line_no}")
            num_vars, num_clauses = (_integer(t, line_no) for t in parts[2:])
            continue
        if num_vars is None:
            raise FormatError("clause before the problem line", f"line {line_no}")
        for token in line.split():
            lit = _integer(token, line_no)
            if lit == 0:
                if len(pending) != 3:
                    raise FormatError(
                        f"clause {len(clauses)} has {len(pending)} literals, need 3",
                        f"line {line_no}",
                    )
                clauses.append(tuple(pending))
                pending = []
            else:
                pending.append(lit)
    if pending:
        raise FormatError("unterminated clause at end of input")
    if num_vars is None:
        raise FormatError("missing problem line")
    if num_clauses is not None and len(clauses) != num_clauses:
        raise FormatError(
            f"header promised {num_clauses} clauses, found {len(clauses)}"
        )
    return CnfFormula(num_vars, tuple(clauses))
