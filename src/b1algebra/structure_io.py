"""Plain-text files for modules, posets, algebras and monoids.

The format is line oriented: a `kind` line, a `size` line, an optional
`names` line, then one block per table. Entries are element names
separated by whitespace, `#` starts a comment, blank lines are
skipped. Example:

    kind algebra
    size 3
    names 0 1 a
    sum
    0 1 a
    1 1 1
    a 1 a
    mul
    0 0 0
    0 1 a
    0 a a

Modules and algebras must list the bottom at index 0; algebras must
list the unit at index 1; monoids name their unit in a `one` line.
A size above MAX_SIZE is refused before anything is allocated.
"""

from __future__ import annotations

from .algebra import FinAlgebra, validate_algebra
from .core_lattice import FinModule, FinPoset, validate_module
from .errors import NoBottom, NoUnit, StructureParseError
from .monoid_functor import FinMonoid, validate_monoid

KINDS = ("module", "poset", "algebra", "monoid")
# the largest structure the library builds itself: the free module of
# rank AUTOMORPHISM_LIMIT = 6
MAX_SIZE = 64


def _lines(text):
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if body.strip():
            out.append((i, body))
    return out


def _fail(msg, line, column=None):
    raise StructureParseError(msg, line, column)


def _take_keyword(lines, at, word):
    if at >= len(lines):
        _fail(f"expected `{word}`, got end of file", lines[-1][0] + 1 if lines else 1)
    num, body = lines[at]
    parts = body.split()
    if parts[0] != word:
        _fail(f"expected `{word}`, got `{parts[0]}`", num, body.index(parts[0]) + 1)
    return num, parts


def _read_block(
    lines, at, size, index, num_header, unknown="unknown element `{}`"
):
    """size rows of size entries, mapped through index; an entry
    outside it fails with the message unknown.format(entry)."""
    rows = []
    for r in range(size):
        if at >= len(lines):
            _fail(f"missing row {r + 1} of the block", num_header)
        num, body = lines[at]
        at += 1
        entries = body.split()
        if len(entries) != size:
            _fail(f"row has {len(entries)} entries, expected {size}", num, 1)
        row = []
        for e in entries:
            if e not in index:
                _fail(unknown.format(e), num, body.index(e) + 1)
            row.append(index[e])
        rows.append(tuple(row))
    return tuple(rows), at


def parse_structure(text):
    """Text to a validated module, poset, algebra or monoid."""
    lines = _lines(text)
    if not lines:
        _fail("empty input", 1)
    num, parts = _take_keyword(lines, 0, "kind")
    if len(parts) != 2 or parts[1] not in KINDS:
        _fail("kind must be one of " + ", ".join(KINDS), num)
    kind = parts[1]
    num, parts = _take_keyword(lines, 1, "size")
    size_text = parts[1] if len(parts) == 2 else ""
    digits = size_text.lstrip("0")
    if not (size_text.isascii() and size_text.isdigit()) or not digits:
        _fail("size must be a positive integer", num)
    # digit count first: int() refuses very long digit strings
    if len(digits) > len(str(MAX_SIZE)) or int(digits) > MAX_SIZE:
        _fail(f"size is above the limit of {MAX_SIZE}", num)
    size = int(digits)
    at = 2
    names = tuple(f"e{i}" for i in range(size))
    if at < len(lines) and lines[at][1].split()[0] == "names":
        num, body = lines[at]
        given = body.split()[1:]
        if len(given) != size:
            _fail(f"{len(given)} names for size {size}", num)
        if len(set(given)) != size:
            _fail("names are not distinct", num)
        names = tuple(given)
        at += 1
    index = {nm: i for i, nm in enumerate(names)}

    if kind == "poset":
        num, parts = _take_keyword(lines, at, "leq")
        leq, at = _read_block(
            lines, at + 1, size, {"0": 0, "1": 1}, num,
            "leq entries are 0 or 1, got `{}`",
        )
        _expect_end(lines, at)
        return FinPoset(names, leq)

    if kind == "module":
        num, parts = _take_keyword(lines, at, "sum")
        sum_t, at = _read_block(lines, at + 1, size, index, num)
        _expect_end(lines, at)
        mod = validate_module(names, sum_t)
        if mod.bottom != 0:
            raise NoBottom(f"element 0 must be the bottom, found `{names[mod.bottom]}`")
        return mod

    if kind == "algebra":
        num, parts = _take_keyword(lines, at, "sum")
        sum_t, at = _read_block(lines, at + 1, size, index, num)
        num, parts = _take_keyword(lines, at, "mul")
        mul_t, at = _read_block(lines, at + 1, size, index, num)
        _expect_end(lines, at)
        alg = validate_algebra(names, sum_t, mul_t)
        if alg.bottom != 0:
            raise NoBottom(f"element 0 must be the bottom, found `{names[alg.bottom]}`")
        if alg.unit != 1:
            raise NoUnit(f"element 1 must be the unit, found `{names[alg.unit]}`")
        return alg

    num, parts = _take_keyword(lines, at, "mul")
    mul_t, at = _read_block(lines, at + 1, size, index, num)
    num, parts = _take_keyword(lines, at, "one")
    if len(parts) != 2:
        _fail("one takes a single element name", num)
    if parts[1] not in index:
        _fail(f"unknown element `{parts[1]}`", num)
    _expect_end(lines, at + 1)
    mon = validate_monoid(names, mul_t)
    if mon.unit != index[parts[1]]:
        raise NoUnit(
            f"`{parts[1]}` is not the neutral element, `{names[mon.unit]}` is"
        )
    return mon


def _expect_end(lines, at):
    if at < len(lines):
        num, body = lines[at]
        _fail("unexpected trailing content", num, 1)


def _table_block(keyword, names, table):
    rows = [keyword]
    for row in table:
        rows.append(" ".join(names[v] for v in row))
    return rows


def render_structure(obj):
    """A structure back to its file form; parse round-trips."""
    if isinstance(obj, FinAlgebra):
        rows = ["kind algebra", f"size {obj.size}", "names " + " ".join(obj.names)]
        rows += _table_block("sum", obj.names, obj.sum)
        rows += _table_block("mul", obj.names, obj.mul)
    elif isinstance(obj, FinModule):
        rows = ["kind module", f"size {obj.size}", "names " + " ".join(obj.names)]
        rows += _table_block("sum", obj.names, obj.sum)
    elif isinstance(obj, FinPoset):
        rows = ["kind poset", f"size {obj.size}", "names " + " ".join(obj.names)]
        rows.append("leq")
        for row in obj.leq:
            rows.append(" ".join(str(v) for v in row))
    elif isinstance(obj, FinMonoid):
        rows = ["kind monoid", f"size {obj.size}", "names " + " ".join(obj.names)]
        rows += _table_block("mul", obj.names, obj.mul)
        rows.append(f"one {obj.names[obj.unit]}")
    else:
        raise TypeError(f"cannot render {type(obj).__name__}")
    return "\n".join(rows) + "\n"


def load_structure(path):
    with open(path, encoding="utf-8") as fh:
        return parse_structure(fh.read())
