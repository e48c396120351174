import io
import math

import pytest

from monotight import fileio
from monotight.constructions import majority_coloring
from monotight.core import Coloring, Hypergraph
from monotight.designs import builtin_design
from monotight.fileio import (
    FormatError,
    read_coloring,
    read_design,
    read_hypergraph,
    write_coloring,
    write_design,
    write_hypergraph,
)


def roundtrip(write, read, obj):
    buf = io.StringIO()
    write(obj, buf)
    buf.seek(0)
    return read(buf)


def test_hypergraph_roundtrip():
    h = Hypergraph.from_vertex_lists(7, 3, [[1, 2, 3], [3, 4, 5], [5, 6, 7]])
    back = roundtrip(write_hypergraph, read_hypergraph, h)
    assert (back.n, back.k, back.edges) == (h.n, h.k, h.edges)


def test_coloring_roundtrip_compact():
    c = majority_coloring(7)
    back = roundtrip(write_coloring, read_coloring, c)
    assert (back.n, back.k, back.r, back.colors) == (c.n, c.k, c.r, c.colors)


def test_coloring_reader_accepts_explicit():
    c = majority_coloring(5)
    lines = ["5 3 2", "# explicit form"]
    from monotight.core import colex_edges, mask_to_vertices

    for rank, e in enumerate(colex_edges(5, 3)):
        vs = " ".join(str(v) for v in mask_to_vertices(e))
        lines.append(f"{vs} {c.colors[rank]}")
    back = read_coloring(io.StringIO("\n".join(lines)))
    assert back.colors == c.colors


def test_design_roundtrip():
    d = builtin_design("s348")
    back = roundtrip(write_design, read_design, d)
    assert back.blocks == d.blocks
    back.validate()


def test_comments_and_blank_lines_ignored():
    text = "# comment\n\n5 3\n1 2 3\n# another\n2 3 4\n"
    h = read_hypergraph(io.StringIO(text))
    assert len(h.edges) == 2


@pytest.mark.parametrize(
    "text",
    [
        "",
        "5\n1 2 3\n",
        "5 3\n1 2\n",
        "5 3\n1 2 9\n",
        "5 3\n1 2 3\n1 2 3\n",
    ],
)
def test_hypergraph_malformed(text):
    with pytest.raises(FormatError):
        read_hypergraph(io.StringIO(text))


def test_coloring_malformed():
    with pytest.raises(FormatError):
        read_coloring(io.StringIO("5 3 2\n1\n2\n"))  # too few colors
    with pytest.raises(FormatError):
        read_coloring(io.StringIO("5 3 2\n1 2\n"))  # wrong arity
    with pytest.raises(FormatError) as exc:
        read_coloring(io.StringIO("5 3 2\n" + "1\n" * 9 + "1 2 3 1\n"))
    assert "mix" in str(exc.value)


def test_format_error_carries_line_number():
    with pytest.raises(FormatError) as exc:
        read_hypergraph(io.StringIO("5 3\n1 2 3\nx y z\n"))
    assert "line 3" in str(exc.value)


def test_write_coloring_golden():
    buf = io.StringIO()
    write_coloring(Coloring(4, 3, 3, [1, 3, 2, 1]), buf)
    assert buf.getvalue() == "4 3 3\n1\n3\n2\n1\n"


def test_compact_coloring_with_comments_and_blank_lines():
    text = "# header next\n4 3 2\n1\n# between colors\n\n2\n  1  \n\n2\n# end\n"
    assert read_coloring(io.StringIO(text)).colors == [1, 2, 1, 2]


@pytest.mark.parametrize("chunk", [1, 2, 3, 1 << 14])
def test_compact_reader_names_the_bad_line(monkeypatch, chunk):
    monkeypatch.setattr(fileio, "_CHUNK", chunk)
    with pytest.raises(FormatError) as exc:
        read_coloring(io.StringIO("4 3 2\n1\n2\n1x\n2\n"))
    assert "line 4" in str(exc.value) and "1x" in str(exc.value)
    with pytest.raises(FormatError) as exc:
        read_coloring(io.StringIO("4 3 2\n1\n# c\n2\nx\n2\n"))
    assert "line 5" in str(exc.value)
    text = "4 3 2\n" + "1\n" * 3 + "# c\n1\n"
    assert read_coloring(io.StringIO(text)).colors == [1, 1, 1, 1]


def test_coloring_rejects_explicit_then_compact():
    with pytest.raises(FormatError) as exc:
        read_coloring(io.StringIO("4 3 2\n1 2 3 1\n2\n1\n1\n"))
    assert "line 3" in str(exc.value) and "mix" in str(exc.value)
