"""Text formats for hypergraphs, colorings and designs.

Hypergraph: first line "n k", then one edge per line as space-separated
1-based vertices. Coloring: first line "n k r", then either C(n,k) lines
holding one color each in colex edge order (compact) or lines
"v1 ... vk color" (explicit); the writer always emits compact. Design:
first line "n h k", then one block per line. Lines starting with '#' are
comments everywhere.

The writer's compact form for r <= 9, one ASCII digit and "\n" per line
with nothing else after the header, is read in bulk as bytes. Every other
accepted coloring body (comments, blank lines, padding, other line ends,
colors of two or more digits, explicit lines) is read line by line as
before, with the same colors and the same errors.

Colors are checked once, when `Coloring` is built, and stored as bytes
(r <= 255) or a tuple. The writer takes them as stored, and the reader
hands what it read to `Coloring` as is: neither checks nor converts them.
"""

from __future__ import annotations

import io
import math
import sys
from itertools import chain, islice
from typing import Iterable, Sequence, TextIO

from .core import (
    Coloring,
    Hypergraph,
    colex_rank,
    mask_to_vertices,
    vertices_to_mask,
)
from .designs import SteinerSystem


class FormatError(ValueError):
    """Malformed input file; message carries the offending line number."""


_CHUNK = 1 << 14  # lines per bulk conversion in read_coloring
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


def write_hypergraph(h: Hypergraph, fh: TextIO) -> None:
    fh.write(f"{h.n} {h.k}\n")
    for e in h.edges:
        fh.write(" ".join(str(v) for v in mask_to_vertices(e)) + "\n")


def read_hypergraph(fh: TextIO) -> Hypergraph:
    lines = _data_lines(fh)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise FormatError("empty hypergraph file") from None
    vals = _ints(header, lineno)
    if len(vals) != 2:
        raise FormatError(f"line {lineno}: header must be 'n k'")
    n, k = vals
    edges = []
    for lineno, line in lines:
        vs = _ints(line, lineno)
        if len(vs) != k:
            raise FormatError(f"line {lineno}: expected {k} vertices, got {len(vs)}")
        if any(not 1 <= v <= n for v in vs):
            raise FormatError(f"line {lineno}: vertex out of range [1, {n}]")
        edges.append(vertices_to_mask(vs))
    try:
        return Hypergraph(n, k, edges)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


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
    # a lookup per color is ~10x faster than formatting each one
    lines = {col: f"{col}\n" for col in range(1, c.r + 1)}
    fh.write(head + "".join(map(lines.__getitem__, c.colors)))


def read_coloring(fh: TextIO) -> Coloring:
    lines = _data_lines(fh)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise FormatError("empty coloring file") from None
    vals = _ints(header, lineno)
    if len(vals) != 3:
        raise FormatError(f"line {lineno}: header must be 'n k r'")
    n, k, r = vals
    m = math.comb(n, k)
    # The writer's form: m lines, each one ASCII digit and "\n", so exactly
    # 2m characters. Reading one more tells a longer body apart; its colors
    # are the even bytes.
    prefix = fh.read(min(2 * m + 1, sys.maxsize))
    if len(prefix) == 2 * m and prefix.isascii():
        raw = prefix.encode("ascii")
        digits = raw[::2]
        if raw[1::2] == b"\n" * m and not digits.translate(None, _DIGITS):
            return _coloring(n, k, r, digits.translate(_DIGIT_VALUES))
    # Otherwise the lines as the stream gives them: the prefix completed to
    # a line end, split at "\n" (which a text file opened in Python's default
    # mode ends each line with), then the rest of the stream. int() parses a
    # raw line exactly when the loop below would read it as one compact
    # color, so runs of such lines convert in bulk. The first other line
    # hands over to the loop, at its own line number.
    if prefix and not prefix.endswith("\n"):
        prefix += fh.readline()
    lines = chain(io.StringIO(prefix), fh)
    del prefix  # the StringIO keeps its own copy
    compact: list[int] = []
    rest: Iterable[str] = ()
    while chunk := list(islice(lines, _CHUNK)):
        done = len(compact)
        try:
            compact.extend(map(int, chunk))
        except ValueError:
            # CPython's list.extend keeps the items appended before the
            # error, so the first line it could not parse is at this offset.
            rest = chain(chunk[len(compact) - done :], lines)
            break
    explicit: dict[int, int] = {}
    mode = "compact" if compact else None
    for lineno, line in _data_lines(rest, start=lineno + len(compact) + 1):
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
            if rank in explicit:
                raise FormatError(f"line {lineno}: duplicate edge {vertices}")
            explicit[rank] = col
    if mode == "explicit":
        if len(explicit) != m:
            raise FormatError(f"explicit coloring lists {len(explicit)} of {m} edges")
        compact = [explicit[rank] for rank in range(m)]
    if len(compact) != m:
        raise FormatError(f"compact coloring lists {len(compact)} of {m} colors")
    return _coloring(n, k, r, compact)


def _coloring(n: int, k: int, r: int, colors: Sequence[int]) -> Coloring:
    try:
        return Coloring(n, k, r, colors)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def write_design(d: SteinerSystem, fh: TextIO) -> None:
    fh.write(f"{d.n} {d.h} {d.k}\n")
    for b in d.blocks:
        fh.write(" ".join(str(v) for v in mask_to_vertices(b)) + "\n")


def read_design(fh: TextIO) -> SteinerSystem:
    lines = _data_lines(fh)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise FormatError("empty design file") from None
    vals = _ints(header, lineno)
    if len(vals) != 3:
        raise FormatError(f"line {lineno}: header must be 'n h k'")
    n, h, k = vals
    blocks = []
    for lineno, line in lines:
        vs = _ints(line, lineno)
        if len(vs) != h:
            raise FormatError(f"line {lineno}: expected {h} vertices, got {len(vs)}")
        if any(not 1 <= v <= n for v in vs):
            raise FormatError(f"line {lineno}: vertex out of range [1, {n}]")
        blocks.append(vertices_to_mask(vs))
    return SteinerSystem(n=n, h=h, k=k, blocks=blocks)
