import io
import math
import random
import time
import tracemalloc

import pytest

from monotight import fileio
from monotight.constructions import (
    all_red,
    majority_coloring,
    parity_coloring,
    steiner_coloring,
    two_clique_coloring,
)
from monotight.core import Coloring, Hypergraph, colex_edges, mask_to_vertices
from monotight.designs import affine_plane, builtin_design
from monotight.search import random_coloring
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


def test_set_list_files_keep_their_format():
    h = Hypergraph.from_vertex_lists(7, 3, [[5, 6, 7], [1, 2, 3]])
    buf = io.StringIO()
    write_hypergraph(h, buf)
    assert buf.getvalue() == "7 3\n5 6 7\n1 2 3\n"
    buf = io.StringIO()
    write_design(builtin_design("fano"), buf)
    assert buf.getvalue() == "7 3 2\n1 2 3\n1 4 5\n1 6 7\n2 4 6\n2 5 7\n3 4 7\n3 5 6\n"


def fano_text(blocks):
    buf = io.StringIO()
    write_design(builtin_design("fano"), buf)
    head, *lines = buf.getvalue().splitlines(keepends=True)
    return head + "".join(lines[i] for i in blocks)


@pytest.mark.parametrize(
    "text, message",
    [
        (fano_text(range(6)), "expected 7 blocks, got 6"),
        (fano_text([0, 1, 2, 3, 4, 5, 0]), "2-set (2, 3) covered by blocks 0 and 6"),
        (fano_text([0, 1, 2, 3, 4, 5, 5]), "covered by blocks 5 and 6"),
        ("7 7 2\n", "need n > h >= k"),
        ("", "empty design file"),
        ("7 3\n1 2 3\n", "line 1: header must be 'n h k'"),
        ("# c\n7 3 2\n1 2 3\n1 4\n", "line 4: expected 3 vertices, got 2"),
        ("7 3 2\n1 2 3\n\n1 4 8\n", "line 4: vertex out of range [1, 7]"),
    ],
    ids=range(8),
)
def test_design_reader_raises_format_error(text, message):
    with pytest.raises(FormatError) as exc:
        read_design(io.StringIO(text))
    assert message in str(exc.value)


@pytest.mark.parametrize(
    "read, text, message",
    [
        (read_hypergraph, "", "empty hypergraph file"),
        (read_hypergraph, "5\n", "line 1: header must be 'n k'"),
        (read_hypergraph, "5 x\n", "line 1: expected integers, got '5 x'"),
        (read_hypergraph, "5 3\n\n1 2\n", "line 3: expected 3 vertices, got 2"),
        (read_hypergraph, "5 3\n1 2 9\n", "line 2: vertex out of range [1, 5]"),
        (read_hypergraph, "5 3\n1 2 3\n3 2 1\n", "duplicate edge (1, 2, 3)"),
        (read_hypergraph, "2 3\n", "need 2 <= k <= n, got k=3, n=2"),
        (read_coloring, "", "empty coloring file"),
        (read_coloring, "# c\n4 3\n", "line 2: header must be 'n k r'"),
    ],
    ids=range(9),
)
def test_header_and_set_errors_keep_their_text(read, text, message):
    with pytest.raises(FormatError) as exc:
        read(io.StringIO(text))
    assert message in str(exc.value)


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


# explicit lines of K^3_4, one edge per line; each case breaks one of them
EXPLICIT_K34 = ["4 3 2", "1 2 3 2", "1 2 4 1", "1 3 4 1", "2 3 4 1"]


@pytest.mark.parametrize(
    "line, lineno, message",
    [
        ("1 1 3 2", 2, "line 2: expected a 3-subset, got 2 distinct vertices"),
        ("1 3 5 1", 4, "line 4: vertex out of range [1, 4]: (1, 3, 5)"),
        ("4 2 1 1", 5, "line 5: duplicate edge [4, 2, 1]"),
        (None, 5, "explicit coloring lists 3 of 4 edges"),
    ],
    ids=["repeated", "out-of-range", "duplicate", "too-few"],
)
def test_explicit_coloring_errors(line, lineno, message):
    lines = EXPLICIT_K34.copy()
    if line is None:
        del lines[lineno - 1]
    else:
        lines[lineno - 1] = line
    with pytest.raises(FormatError) as exc:
        read_coloring(io.StringIO("\n".join(lines) + "\n"))
    assert str(exc.value) == message


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
    assert list(read_coloring(io.StringIO(text)).colors) == [1, 2, 1, 2]


# the bulk parse refuses each of these bodies, whatever r, so the line loop
# reads them and names the bad line; r = 16384 stores the colors as a tuple
@pytest.mark.parametrize("r", [1, 2, 3, 1 << 14])
def test_compact_reader_names_the_bad_line(r):
    with pytest.raises(FormatError) as exc:
        read_coloring(io.StringIO(f"4 3 {r}\n1\n2\n1x\n2\n"))
    assert "line 4" in str(exc.value) and "1x" in str(exc.value)
    with pytest.raises(FormatError) as exc:
        read_coloring(io.StringIO(f"4 3 {r}\n1\n# c\n2\nx\n2\n"))
    assert "line 5" in str(exc.value)
    text = f"4 3 {r}\n" + "1\n" * 3 + "# c\n1\n"
    assert list(read_coloring(io.StringIO(text)).colors) == [1, 1, 1, 1]


@pytest.mark.parametrize("r", [2, 9, 10, 12, 38, 300])
def test_writers_form_is_read_in_bulk(monkeypatch, r):
    colors = [1 + i % r for i in range(math.comb(7, 3))]
    colors[-1] = r  # a color of r's full width
    c = Coloring(7, 3, r, colors)
    buf = io.StringIO()
    write_coloring(c, buf)
    buf.seek(0)
    # the header is the one data line the line reader may give
    data_lines = fileio._data_lines
    calls = []

    def header_only(raw_lines, start=1):
        calls.append(start)
        assert len(calls) == 1, "the writer's form fell back to the line loop"
        return data_lines(raw_lines, start)

    monkeypatch.setattr(fileio, "_data_lines", header_only)
    got = read_coloring(buf)
    assert (got.n, got.k, got.r, got.colors) == (c.n, c.k, c.r, c.colors)
    assert calls == [1]


BULK_EDITS = {
    "padded lines": lambda lines: [f"  {line} " for line in lines],
    "CRLF line ends": lambda lines: [f"{line}\r" for line in lines],
    "a color as +3": lambda lines: ["+3", *lines[1:]],
    "a color as 03": lambda lines: ["03", *lines[1:]],
    "comment and blank lines": lambda lines: ["# first", *lines[:5], "", "  ", "\r", "  # mid", *lines[5:], "# end"],
}


@pytest.mark.parametrize("edit", sorted(BULK_EDITS))
def test_one_int_per_line_is_read_in_bulk(monkeypatch, edit):
    colors = [1 + i % 3 for i in range(math.comb(7, 3))]
    colors[0] = 3
    c = Coloring(7, 3, 3, colors)
    buf = io.StringIO()
    write_coloring(c, buf)
    head, *lines = buf.getvalue().splitlines()
    text = "\n".join([head, *BULK_EDITS[edit](lines)]) + "\n"
    data_lines = fileio._data_lines
    calls = []

    def header_only(raw_lines, start=1):
        calls.append(start)
        assert len(calls) == 1, "the body fell back to the line loop"
        return data_lines(raw_lines, start)

    monkeypatch.setattr(fileio, "_data_lines", header_only)
    assert read_coloring(io.StringIO(text)) == c
    assert calls == [1]


def test_a_commented_body_reads_as_fast_as_a_plain_one():
    # r = 12: two-digit colors, so the plain body takes the bulk int parse;
    # a line loop over the commented one took about 6x as long
    buf = io.StringIO()
    write_coloring(random_coloring(60, 12, 3, seed=1), buf)
    plain = buf.getvalue()
    commented = "# a K^3_60 coloring\n" + plain + "\n# end\n"
    times = {plain: [], commented: []}
    for _ in range(5):
        for text in times:
            start = time.perf_counter()
            read_coloring(io.StringIO(text))
            times[text].append(time.perf_counter() - start)
    assert read_coloring(io.StringIO(commented)) == read_coloring(io.StringIO(plain))
    assert min(times[commented]) < 1.5 * min(times[plain]), times


def test_an_explicit_body_is_read_in_bounded_memory():
    # K^3_40 explicit, 9,880 lines and 102 kB: with a dict entry and a rank
    # int kept per line the read peaked at 0.72 MB
    c = random_coloring(40, 3, 3, seed=2)
    text = "40 3 3\n" + "".join(
        " ".join(map(str, mask_to_vertices(e))) + f" {col}\n" for e, col in zip(colex_edges(40, 3), c.colors)
    )
    fh = io.StringIO(text)
    tracemalloc.start()
    try:
        got = read_coloring(fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == c
    assert peak < 0.36e6, peak


def test_a_short_explicit_body_under_a_huge_header_is_a_format_error():
    # the body cannot list C(999995, 3) edges, so no table of that size is made;
    # a duplicate line is still named
    with pytest.raises(FormatError, match="^explicit coloring lists 2 of 166663666684499965 edges$"):
        read_coloring(io.StringIO("999995 3 10\n1 2 3 1\n1 2 4 1\n"))
    with pytest.raises(FormatError, match=r"^line 3: duplicate edge \[3, 2, 1\]$"):
        read_coloring(io.StringIO("999995 3 10\n1 2 3 1\n3 2 1 1\n"))


def test_short_file_under_a_huge_header_is_a_format_error(tmp_path):
    # C(999995, 3) colors are far more than the file holds, or than a read
    # sized by them could allocate
    path = tmp_path / "huge.col"
    path.write_text("999995 3 10\n1\n2\n")
    with open(path) as fh, pytest.raises(FormatError, match="lists 2 of 166663666684499965 colors"):
        read_coloring(fh)


def test_header_past_the_index_range_is_a_format_error_naming_its_size():
    # C(1000000, 5000) has more digits than an int converts to a str
    with pytest.raises(FormatError, match=r"^C\(1000000, 5000\) = about 10\^13668\.9 k-sets exceed"):
        read_coloring(io.StringIO("1000000 5000 2\n1\n2\n"))


def test_coloring_rejects_explicit_then_compact():
    with pytest.raises(FormatError) as exc:
        read_coloring(io.StringIO("4 3 2\n1 2 3 1\n2\n1\n1\n"))
    assert "line 3" in str(exc.value) and "mix" in str(exc.value)


def reference_read_coloring(fh):
    """The coloring reader's rules for compact bodies, applied one line at a
    time with no bulk path. No input below has a line of k + 1 integers,
    which would start the explicit form."""
    rows = [(no, raw.strip()) for no, raw in enumerate(fh, start=1)]
    rows = [(no, line) for no, line in rows if line and not line.startswith("#")]
    if not rows:
        raise FormatError("empty coloring file")

    def ints(no, line):
        try:
            return [int(tok) for tok in line.split()]
        except ValueError:
            raise FormatError(f"line {no}: expected integers, got {line!r}") from None

    (no, header), *body = rows
    vals = ints(no, header)
    if len(vals) != 3:
        raise FormatError(f"line {no}: header must be 'n k r'")
    n, k, r = vals
    m = math.comb(n, k)
    compact = []
    for no, line in body:
        vs = ints(no, line)
        if len(vs) != 1:
            raise FormatError(f"line {no}: expected 1 (compact) or {k + 1} (explicit) integers")
        compact.append(vs[0])
    if len(compact) != m:
        raise FormatError(f"compact coloring lists {len(compact)} of {m} colors")
    try:
        return Coloring(n, k, r, compact)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def outcome(read, fh):
    """What a reader makes of a stream: the coloring's fields, or the error text."""
    try:
        c = read(fh)
    except FormatError as exc:
        return f"FormatError: {exc}"
    return c.n, c.k, c.r, c.colors


def small_colorings(seed, count=25):
    """Seeded colorings with n <= 7; with r >= 10, color r is used, so some
    lines have two digits."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, 7)
        k = rng.randint(2, min(n, 4))
        r = rng.choice([1, 2, 3, 9, 10, 12])
        colors = [rng.randint(1, r) for _ in range(math.comb(n, k))]
        colors[rng.randrange(len(colors))] = r
        yield rng, Coloring(n, k, r, colors)


def _put(lines, i, line):
    return lines[:i] + [line] + lines[i + 1 :]


BODY_MUTATIONS = {
    "as written": lambda lines, i: lines,
    "padded line": lambda lines, i: _put(lines, i, f"  {lines[i]}  "),
    "plus sign": lambda lines, i: _put(lines, i, "+1"),
    "leading zero": lambda lines, i: _put(lines, i, "01"),
    "underscore": lambda lines, i: _put(lines, i, "1_0"),
    "non-ascii digit": lambda lines, i: _put(lines, i, "١"),
    "color 0": lambda lines, i: _put(lines, i, "0"),
    "letter": lambda lines, i: _put(lines, i, "x"),
    "two colors on one line": lambda lines, i: lines[:i] + [" ".join(lines[i : i + 2])] + lines[i + 2 :],
    "lone carriage return": lambda lines, i: lines[:i] + ["\r".join(lines[i : i + 2])] + lines[i + 2 :],
    "comment and blank line": lambda lines, i: lines[:i] + ["# c", ""] + lines[i:],
    "too few lines": lambda lines, i: lines[:i] + lines[i + 1 :],
    "too many lines": lambda lines, i: lines[:i] + ["1"] + lines[i:],
}


@pytest.mark.parametrize("source", ["buffer", "file"])
@pytest.mark.parametrize("final_newline", [True, False])
@pytest.mark.parametrize("mutation", sorted(BODY_MUTATIONS))
def test_reader_matches_line_by_line_reference(mutation, final_newline, source, tmp_path):
    # A file is opened in Python's default text mode, as the CLI opens it.
    path = tmp_path / "mutated.col"

    def stream(text):
        if source == "buffer":
            return io.StringIO(text)
        path.write_bytes(text.encode())
        return open(path)

    for rng, c in small_colorings(seed=41):
        buf = io.StringIO()
        write_coloring(c, buf)
        head, *lines = buf.getvalue().splitlines()
        lines = BODY_MUTATIONS[mutation](lines, rng.randrange(len(lines)))
        text = "\n".join([head, *lines]) + ("\n" if final_newline else "")
        with stream(text) as fh:
            got = outcome(read_coloring, fh)
        with stream(text) as fh:
            assert got == outcome(reference_read_coloring, fh), text
        if mutation == "as written":
            assert got == (c.n, c.k, c.r, c.colors)


def test_reader_matches_reference_on_crlf_files(tmp_path):
    path = tmp_path / "crlf.col"
    for rng, c in small_colorings(seed=43, count=10):
        buf = io.StringIO()
        write_coloring(c, buf)
        text = buf.getvalue().replace("\n", "\r\n")
        path.write_bytes(text.encode())
        with open(path) as fh:
            got = outcome(read_coloring, fh)
        assert got == (c.n, c.k, c.r, c.colors)
        assert outcome(read_coloring, io.StringIO(text)) == got


@pytest.mark.parametrize("n", [3, 4, 5, 17, 60, 120])
def test_writer_matches_one_line_per_color(n):
    builders = [majority_coloring, parity_coloring, two_clique_coloring]
    colorings = [build(n) for build in builders] + [all_red(n, 3, 2)]
    if n == 120:
        ap11 = affine_plane(11)
        colorings.append(steiner_coloring(ap11, ap11.parallel_classes()))
    for c in colorings:
        buf = io.StringIO()
        write_coloring(c, buf)
        # a bool, not the strings: a diff of two long texts takes minutes
        same = buf.getvalue() == f"{c.n} {c.k} {c.r}\n" + "".join(f"{x}\n" for x in c.colors)
        assert same, (n, c.k, c.r)

