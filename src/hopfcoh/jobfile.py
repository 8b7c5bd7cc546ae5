"""Human-writable job files: key-value lines with nested blocks.

    algebra = group:Z3
    degree-cap = 3
    tasks = axioms, saturation, codiagonal, cohomology:dual:0-2

    begin cayley
      identity = 0
      row 0 1 2
      row 1 2 0
      row 2 0 1
    end

    begin comodule X
      dim = 2
      gamma = trivial
      begin beta
        row 1 0
        row 0 0
        row 0 0
        row 0 1
      end
    end

Matrices are row lists of scalar strings ("p/q" or "p/q+r/s i").
parse o render o parse is the identity on JobSpec.
"""
from __future__ import annotations

from typing import Optional

from .cochain import DEFAULT_DEGREE_CAP
from .comodule import CATALOG_NAMES
from .records import record
from .scalars import format_scalar, parse_scalar
from .tasks import lookup, task_degrees  # noqa: F401  (bench/checks.py imports task_degrees from here)


class JobParseError(ValueError):
    """A job-file error at line line_no, counted from 1; line_no is None for a whole-file error."""

    def __init__(self, line_no, message):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


@record
class CayleySpec:
    identity: Optional[int]
    table: tuple  # tuple of row tuples


@record
class ComoduleSpec:
    name: str
    dim: int
    beta: tuple  # rows of the (dim*s) x dim matrix, Scalars
    gamma: object  # "trivial" | "zero" | tuple of rows


@record
class JobSpec:
    algebra: str
    tasks: tuple
    degree_cap: int = DEFAULT_DEGREE_CAP
    format: str = "json"
    cayley: Optional[CayleySpec] = None
    comodules: tuple = ()  # ComoduleSpec, in file order


def _strip(line: str) -> str:
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()


class _Lines:
    def __init__(self, text):
        self.raw = text.splitlines()
        self.pos = 0

    def next_content(self):
        while self.pos < len(self.raw):
            self.pos += 1
            content = _strip(self.raw[self.pos - 1])
            if content:
                return self.pos, content
        return None, None


def parse_input(text: str) -> JobSpec:
    lines = _Lines(text)
    top: dict = {}
    cayley = None
    comodules = []
    while True:
        no, content = lines.next_content()
        if content is None:
            break
        if content.startswith("begin "):
            block = content[6:].strip().split()
            kind = block[0] if block else ""
            if kind == "cayley":
                if len(block) != 1:
                    raise JobParseError(no, f"unexpected words after 'begin cayley': {' '.join(block[1:])!r}")
                if cayley is not None:
                    raise JobParseError(no, "duplicate cayley block")
                cayley = _parse_cayley(lines, no)
            elif kind == "comodule":
                if len(block) != 2:
                    raise JobParseError(no, "comodule block needs a name")
                name = block[1]
                if name in CATALOG_NAMES:
                    raise JobParseError(no, f"comodule name {name!r} is taken by a catalog bicomodule")
                if any(c.name == name for c in comodules):
                    raise JobParseError(no, f"duplicate comodule name {name!r}")
                comodules.append(_parse_comodule(lines, no, name))
            else:
                raise JobParseError(no, f"unknown block {kind!r}")
            continue
        if "=" not in content:
            raise JobParseError(no, f"expected key = value, got {content!r}")
        key, _, value = content.partition("=")
        key, value = key.strip(), value.strip()
        while value.endswith(","):  # a trailing comma continues on the next line
            more_no, more = lines.next_content()
            if more is None:
                raise JobParseError(no, f"value of {key!r} ends with a dangling comma")
            value += " " + more
        if key in top:
            raise JobParseError(no, f"duplicate key {key!r}")
        top[key] = (value, no)
    keyed = dict(top)
    if "algebra" not in keyed:
        raise JobParseError(None, "missing required key 'algebra'")
    algebra = keyed.pop("algebra")[0]
    tasks_value, tasks_line = keyed.pop("tasks", ("axioms", None))
    tasks = tuple(t.strip() for t in tasks_value.split(",") if t.strip())
    for t in tasks:
        try:
            lookup(t)
        except ValueError as exc:
            raise JobParseError(tasks_line, str(exc)) from None
    cap_value, cap_line = keyed.pop("degree-cap", (str(DEFAULT_DEGREE_CAP), None))
    try:
        degree_cap = int(cap_value)
    except ValueError:
        raise JobParseError(cap_line, f"degree-cap must be an integer, got {cap_value!r}") from None
    if degree_cap < 1:
        raise JobParseError(cap_line, "degree-cap must be >= 1")
    fmt_value, fmt_line = keyed.pop("format", ("json", None))
    if fmt_value not in ("json", "markdown"):
        raise JobParseError(fmt_line, f"format must be json or markdown, got {fmt_value!r}")
    if keyed:
        stray = sorted(keyed)[0]
        raise JobParseError(keyed[stray][1], f"unknown key {stray!r}")
    return JobSpec(
        algebra=algebra,
        tasks=tasks,
        degree_cap=degree_cap,
        format=fmt_value,
        cayley=cayley,
        comodules=tuple(comodules),
    )


def _once(seen: set, what: str, no) -> None:
    """Refuse a block's second setting of `what`, naming its line."""
    if what in seen:
        raise JobParseError(no, f"duplicate {what}")
    seen.add(what)


def _parse_cayley(lines: _Lines, start) -> CayleySpec:
    identity: Optional[int] = 0
    rows, seen = [], set()
    while True:
        no, content = lines.next_content()
        if content is None:
            raise JobParseError(start, "unterminated cayley block")
        if content == "end":
            break
        key, eq, v = (part.strip() for part in content.partition("="))
        if eq and key == "identity":
            _once(seen, key, no)
            if v == "none":
                identity = None
            else:
                try:
                    identity = int(v)
                except ValueError:
                    raise JobParseError(no, f"identity must be an index or none, got {v!r}") from None
            continue
        if content.startswith("row "):
            try:
                rows.append(tuple(int(x) for x in content[4:].split()))
            except ValueError:
                raise JobParseError(no, f"malformed cayley row {content!r}") from None
            continue
        raise JobParseError(no, f"unexpected line in cayley block: {content!r}")
    if not rows:
        raise JobParseError(start, "empty cayley block")
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise JobParseError(start, "cayley table must be square")
    return CayleySpec(identity, tuple(rows))


def _parse_matrix_block(lines: _Lines, start) -> tuple:
    rows = []
    while True:
        no, content = lines.next_content()
        if content is None:
            raise JobParseError(start, "unterminated matrix block")
        if content == "end":
            break
        if not content.startswith("row "):
            raise JobParseError(no, f"expected row ..., got {content!r}")
        try:
            rows.append(tuple(parse_scalar(tok) for tok in content[4:].split()))
        except ValueError as exc:
            raise JobParseError(no, str(exc)) from None
    return tuple(rows)


def _parse_comodule(lines: _Lines, start, name: str) -> ComoduleSpec:
    dim = None
    beta = None
    gamma = "trivial"
    seen: set = set()  # "gamma = ..." and "begin gamma" both set gamma
    while True:
        no, content = lines.next_content()
        if content is None:
            raise JobParseError(start, f"unterminated comodule block {name!r}")
        if content == "end":
            break
        key, eq, v = (part.strip() for part in content.partition("="))
        if eq and key == "dim":
            _once(seen, key, no)
            try:
                dim = int(v)
            except ValueError:
                raise JobParseError(no, f"dim must be an integer, got {v!r}") from None
            if dim < 0:
                raise JobParseError(no, f"dim must be >= 0, got {dim}")
            continue
        if eq and key == "gamma":
            _once(seen, key, no)
            if v not in ("trivial", "zero"):
                raise JobParseError(no, f"gamma must be trivial or zero here, got {v!r}")
            gamma = v
            continue
        if content == "begin beta":
            _once(seen, "beta", no)
            beta = _parse_matrix_block(lines, no)
            continue
        if content == "begin gamma":
            _once(seen, "gamma", no)
            gamma = _parse_matrix_block(lines, no)
            continue
        raise JobParseError(no, f"unexpected line in comodule block: {content!r}")
    if dim is None:
        raise JobParseError(start, f"comodule {name!r} needs dim")
    if beta is None:
        raise JobParseError(start, f"comodule {name!r} needs a beta block")
    return ComoduleSpec(name, dim, beta, gamma)


# ---------------------------------------------------------------------------
# rendering


def render(job: JobSpec) -> str:
    out = [f"algebra = {job.algebra}"]
    out.append(f"degree-cap = {job.degree_cap}")
    out.append(f"format = {job.format}")
    out.append("tasks = " + ", ".join(job.tasks))
    if job.cayley is not None:
        out.append("begin cayley")
        ident = "none" if job.cayley.identity is None else str(job.cayley.identity)
        out.append(f"  identity = {ident}")
        for row in job.cayley.table:
            out.append("  row " + " ".join(str(x) for x in row))
        out.append("end")
    for com in job.comodules:
        out.append(f"begin comodule {com.name}")
        out.append(f"  dim = {com.dim}")
        if isinstance(com.gamma, str):
            out.append(f"  gamma = {com.gamma}")
        else:
            out.append("  begin gamma")
            for row in com.gamma:
                out.append("    row " + " ".join(format_scalar(x) for x in row))
            out.append("  end")
        out.append("  begin beta")
        for row in com.beta:
            out.append("    row " + " ".join(format_scalar(x) for x in row))
        out.append("  end")
        out.append("end")
    return "\n".join(out) + "\n"
