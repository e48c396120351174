"""Text formats for hypergraphs, colorings and designs.

Hypergraph: first line "n k", then one edge per line as space-separated
1-based vertices. Coloring: first line "n k r", then either C(n,k) lines
holding one color each in colex edge order (compact) or lines
"v1 ... vk color" (explicit); the writer always emits compact. Design:
first line "n h k", then one block per line. Lines starting with '#' are
comments everywhere.

A coloring's body is read once. A body in the writer's form with one-digit
colors is read as bytes by one `translate`. Any other body of one int per
line is parsed in bulk, its comment and blank lines dropped as the parse
meets them; `int` takes padded lines, CRLF line ends, "+3" and "03" as the
line loop does. The line loop is left for explicit bodies, which fill one
list of m colors by rank, and for naming the bad line of an error. Every
path gives the same colors and the same errors.

Colors are checked once, when `Coloring` is built, and stored as bytes
(r <= 255) or a tuple. The writer takes them as stored, and the reader
hands what it read to `Coloring` as is: neither checks nor converts them.
Hypergraphs and designs share one set-list reader and writer. A design is
checked when it is read, as every `SteinerSystem` is when it is built: a
file that is not a Steiner system raises `FormatError`, as does a
hypergraph file with a repeated edge.
"""

from __future__ import annotations

import io
from collections import defaultdict
from typing import TYPE_CHECKING, Callable, Iterable, TextIO, TypeVar

from .core import (
    Coloring,
    Hypergraph,
    _kset_count,
    colex_rank,
    mask_to_vertices,
    vertices_to_mask,
)

if TYPE_CHECKING:
    from .designs import SteinerSystem


class FormatError(ValueError):
    """Malformed input file; message carries the offending line number."""


T = TypeVar("T")

_DIGITS = b"0123456789"
_DIGIT_VALUES = bytes.maketrans(_DIGITS, bytes(range(10)))
_DIGIT_CHARS = bytes.maketrans(bytes(range(10)), _DIGITS)


def _data_lines(raw_lines: Iterable[str], start: int = 1) -> Iterable[tuple[int, str]]:
    for lineno, raw in enumerate(raw_lines, start=start):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _ints(line: str, lineno: int) -> list[int]:
    try:
        return [int(tok) for tok in line.split()]
    except ValueError as exc:
        raise FormatError(f"line {lineno}: expected integers, got {line!r}") from exc


def _header(fh: TextIO, what: str, names: str) -> tuple[int, list[int]]:
    """The line number and values of the first data line, one int per name."""
    try:
        lineno, header = next(_data_lines(fh))
    except StopIteration:
        raise FormatError(f"empty {what} file") from None
    vals = _ints(header, lineno)
    if len(vals) != len(names.split()):
        raise FormatError(f"line {lineno}: header must be '{names}'")
    return lineno, vals


def _checked(make: Callable[..., T], *args) -> T:
    """make(*args), with its ValueError raised as a FormatError."""
    try:
        return make(*args)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _write_sets(fh: TextIO, head: Iterable[int], sets: Iterable[int]) -> None:
    fh.write(" ".join(map(str, head)) + "\n")
    for e in sets:
        fh.write(" ".join(str(v) for v in mask_to_vertices(e)) + "\n")


def _read_sets(fh: TextIO, what: str, names: str, make: Callable[..., T]) -> T:
    """A header "n size ...", then one set of `size` vertices of {1..n} per
    line; returns make(*header, sets)."""
    lineno, vals = _header(fh, what, names)
    n, size = vals[:2]
    sets = []
    for lineno, line in _data_lines(fh, start=lineno + 1):
        vs = _ints(line, lineno)
        if len(vs) != size:
            raise FormatError(f"line {lineno}: expected {size} vertices, got {len(vs)}")
        if any(not 1 <= v <= n for v in vs):
            raise FormatError(f"line {lineno}: vertex out of range [1, {n}]")
        sets.append(vertices_to_mask(vs))
    return _checked(make, *vals, sets)


def write_hypergraph(h: Hypergraph, fh: TextIO) -> None:
    _write_sets(fh, (h.n, h.k), h.edges)


def read_hypergraph(fh: TextIO) -> Hypergraph:
    return _read_sets(fh, "hypergraph", "n k", Hypergraph)


def write_coloring(c: Coloring, fh: TextIO) -> None:
    head = f"{c.n} {c.k} {c.r}\n"
    if c.r <= 9:
        # every color is one digit: digits at even offsets, "\n" at odd ones
        m = len(c.colors)
        body = bytearray(2 * m)
        body[::2] = c.colors.translate(_DIGIT_CHARS)
        body[1::2] = b"\n" * m
        fh.write(head + body.decode("ascii"))
        return
    # a lookup per color is ~10x faster than formatting each one; only the
    # colors that occur get a line, so the cost does not grow with r
    lines = {col: f"{col}\n" for col in set(c.colors)}
    fh.write(head + "".join(map(lines.__getitem__, c.colors)))


def read_coloring(fh: TextIO) -> Coloring:
    lineno, (n, k, r) = _header(fh, "coloring", "n k r")
    m = _checked(_kset_count, n, k)
    # The body is read once, as bytes; surrogatepass carries any str there
    # and back. The writer's form with one-digit colors is exactly 2m bytes,
    # the colors at the even ones and "\n" at the odd ones.
    raw = fh.read().encode("utf-8", "surrogatepass")
    if len(raw) == 2 * m:
        digits = raw[::2]
        if raw[1::2] == b"\n" * m and not digits.translate(None, _DIGITS):
            return _checked(Coloring, n, k, r, digits.translate(_DIGIT_VALUES))
    # Any other body is parsed in bulk, one `int` per line. A line that `int`
    # refuses ends the parse there; a blank or comment line is dropped and the
    # parse resumes after it, and any other line (an explicit one, or a bad
    # one) leaves the body to the line loop. `int` takes what the line loop
    # takes of a one-int line, so a parse that succeeds reads its colors;
    # `+=` keeps those before a refused line.
    buf = io.BytesIO(raw)
    colors: list[int] = []
    while True:
        try:
            colors += map(int, buf)
        except ValueError:
            end = buf.tell()
            line = raw[raw.rfind(b"\n", 0, end - 1) + 1 : end].strip()
            if not line or line.startswith(b"#"):
                continue
        else:
            if len(colors) == m:
                return _checked(Coloring, n, k, r, colors)
        break
    del colors  # a partial parse, freed before the line loop
    # Otherwise the line loop reads the bytes, split at "\n" as a text file
    # opened in Python's default mode ends each line (a StringIO would hold
    # four bytes per character).
    lines = io.TextIOWrapper(io.BytesIO(raw), "utf-8", "surrogatepass", newline="\n")
    compact: list[int] = []
    explicit: list[int | None] | defaultdict[int, int | None]
    listed = 0
    mode = None
    for lineno, line in _data_lines(lines, start=lineno + 1):
        vs = _ints(line, lineno)
        if len(vs) == 1:
            kind = "compact"
        elif len(vs) == k + 1:
            kind = "explicit"
        else:
            raise FormatError(
                f"line {lineno}: expected 1 (compact) or {k + 1} (explicit) integers"
            )
        if mode is None:
            mode = kind
            if kind == "explicit":
                # the colors by rank, None until listed: a list of m when the
                # body has a line for each edge, else a dict, as such a body
                # ends in the missing-edge error
                explicit = [None] * m if m <= raw.count(b"\n") + 1 else defaultdict(lambda: None)
        elif mode != kind:
            raise FormatError(f"line {lineno}: cannot mix compact and explicit lines")
        if kind == "compact":
            compact.append(vs[0])
        else:
            *vertices, col = vs
            try:
                rank = colex_rank(vertices, n, k)
            except ValueError as exc:
                raise FormatError(f"line {lineno}: {exc}") from exc
            if explicit[rank] is not None:
                raise FormatError(f"line {lineno}: duplicate edge {vertices}")
            explicit[rank] = col
            listed += 1
    if mode == "explicit":
        if listed != m:
            raise FormatError(f"explicit coloring lists {listed} of {m} edges")
        compact = explicit
    if len(compact) != m:
        raise FormatError(f"compact coloring lists {len(compact)} of {m} colors")
    return _checked(Coloring, n, k, r, compact)


def write_design(d: SteinerSystem, fh: TextIO) -> None:
    _write_sets(fh, (d.n, d.h, d.k), d.blocks)


def read_design(fh: TextIO) -> SteinerSystem:
    from .designs import SteinerSystem

    return _read_sets(fh, "design", "n h k", SteinerSystem)
