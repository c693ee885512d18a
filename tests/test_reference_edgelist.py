"""The edge-list reader against a frozen copy of its line-at-a-time version.

``edgelist._edge_pairs`` reads ``_BATCH`` lines at a time and parses a batch
at once when it is whole ``u v`` lines of ASCII digits within the edge count;
any other batch is replayed line by line.  ``reference_edgelist`` parses each
line on its own.  On every text both must return an equal graph, or raise
the same exception class with the same message, so the line numbers and
the order of faults are the same too.  The texts are read through a stream
that offers only ``readline``, and cover each rule of the ``edgelist``
docstring, faults at the batch boundaries, long comments whose pieces
straddle a batch, other spellings of a line (CRLF, tabs, ``+7``, ``007``,
``٣``, no final newline), more or fewer lines than the header's count, and
out-of-range vertices and self-loops after a clean batch.
"""

import io
import random
import sys

import pytest

from topocompat import edgelist
from topocompat.edgelist import read_edge_list
import reference_edgelist as reference
from test_edgelist import ReadlineOnly

B = edgelist._BATCH
SEEDS = range(20)
TEXTS_PER_SEED = 100
# faults land here among the edge lines (1-based): about a batch's ends
BOUNDARIES = (1, B - 1, B, B + 1, 2 * B, 2 * B + 1)
LONG = 4096 + 1  # the first length past the line cap


def outcome(read, text):
    """What read makes of text: a graph, or the class and message it raised."""
    try:
        return read(ReadlineOnly(io.StringIO(text).readline))
    except Exception as exc:  # the readers' faults are compared, whatever they are
        return type(exc).__name__, str(exc)


def long_comment(rng):
    """A comment line past the cap, read in 2 to 4 pieces."""
    return rng.choice(("#", "  #", "\t# ")) + "x" * rng.randint(LONG, 3 * LONG)


def odd_line(rng, n):
    """An edge line that a batch cannot take whole: another spelling, a
    comment, a blank, a long line, or a fault."""
    u, v = rng.randrange(n), rng.randrange(n)
    return rng.choice([
        f"{u}\t{v}", f" {u} {v} ", f"{u}  {v}", f"+{u} {v}", f"00{u} {v}", f"{u} {v}\r",
        "٣ 1", f"{u} {v} # an edge", f"{u}_0 {v}", f"{u} {v}\x0c",
        "# a comment", "  # indented", "", "   ", "\t",
        long_comment(rng),
        "0" + " " * (LONG - 3) + "1",  # 4096 characters: the longest line read
        "0" + " " * (LONG - 2) + "1",  # one past it
        # digits and one space past the cap: two pieces that a batch would join
        "1" * rng.randint(2000, 2100) + " " + "2" * rng.randint(2000, 2100),
        f"{u} {n + rng.randrange(3)}", f"{n} {v}", f"-1 {v}", f"{u} {u}",
        f"{u}", f"{u} {v} {v}", "x y", f"{u} y", f"{u} {v}.0",
    ])


def clean_line(rng, n, edges):
    """A ``u v`` line of ASCII digits, now and then a reversed or repeated edge."""
    if edges and rng.random() < 0.1:
        u, v = rng.choice(edges)
        return f"{v} {u}" if rng.random() < 0.5 else f"{u} {v}"
    if n == 1:
        return "0 0"  # the one vertex has no edge: a self-loop
    u, v = rng.sample(range(n), 2)
    edges.append((u, v))
    return f"{u} {v}"


def header(rng, n, count):
    """Usually ``n m`` with m near the edge line count, now and then a bad one."""
    if rng.random() < 0.05:
        return rng.choice(["3", "a b", f"{n} -1", f"0 {count}", f"-2 {count}", f"{n} {count} 1",
                           f"{n} 10485761", f"{(1 << 20) + 1} 0", f"{n}.0 {count}"])
    m = rng.choice((count, count, count, count - rng.randint(1, 3), count + rng.randint(1, 3),
                    rng.randint(0, count + 2)))
    return f"{n} {max(m, 0)}"


def text(rng):
    """A header and edge lines, mostly clean, now and then a fault, a comment
    or another spelling, and most often about a batch's ends."""
    n = rng.choice((1, 2, 3, 5, 12, 40, 300, 5000))
    count = rng.choice((0, 1, B - 1, B, B + 1, 2 * B, 2 * B + 1, rng.randint(2, 4 * B)))
    odd = rng.choice((0, 0, 0.01, 0.05, 0.3))
    edges, lines = [], []
    for _ in range(count):
        lines.append(odd_line(rng, n) if rng.random() < odd else clean_line(rng, n, edges))
    for _ in range(rng.choice((0, 0, 1, 2))):  # a fault or a long comment at a batch's end
        at = rng.choice(BOUNDARIES) - 1
        if at < len(lines):
            lines[at] = long_comment(rng) if rng.random() < 0.3 else odd_line(rng, n)
    head = [header(rng, n, count)]
    if rng.random() < 0.2:
        head.insert(0, rng.choice(("# a graph", "", long_comment(rng))))
    ends = "\r\n" if rng.random() < 0.05 else "\n"
    out = ends.join(head + lines)
    return out if rng.random() < 0.2 else out + ends


@pytest.mark.parametrize("seed", SEEDS)
def test_the_reader_matches_the_line_at_a_time_reader(seed):
    rng = random.Random(seed)
    for _ in range(TEXTS_PER_SEED):
        t = text(rng)
        assert outcome(read_edge_list, t) == outcome(reference.read_edge_list, t), t[:300]


def clean(count):
    """count edge lines on vertices 0..7: the path 0-1-...-7 again and again."""
    return [f"{v % 7} {v % 7 + 1}" for v in range(count)]


# per text, a graph or the fault both readers must give, so the cases stay decided
@pytest.mark.parametrize("text,expected", [
    # the docstring's fault order, the header first
    pytest.param("3 2\n0 5\n0 1 2\n", "vertex 5 out of range 0..2", id="vertex-before-shape"),
    pytest.param("0 1\nx y\n", "graph order must be positive, got 0", id="order-first"),
    pytest.param("3 2\n1 1\n", "self-loop at vertex 1", id="loop-before-count"),
    pytest.param("3 1\n0 1\n1 5\n", "line 3: more than 1 edge lines", id="count-before-vertex"),
    pytest.param("3 1\n0 1 # an edge\n", "line 2: expected 'u v', got '0 1 # an edge'",
                 id="no-trailing-comment"),
    # a clean batch past m is refused at line m + 1, before its later faults
    pytest.param("9 3\n" + "\n".join(clean(B - 2) + ["0 99"]) + "\n",
                 "line 5: more than 3 edge lines", id="batch-past-m"),
    # a fault after a clean batch, then at each end of the next one
    pytest.param(f"9 {3 * B}\n" + "\n".join(clean(B) + ["3 3"]) + "\n", "self-loop at vertex 3",
                 id="loop-after-batch"),
    pytest.param(f"9 {3 * B}\n" + "\n".join(clean(2 * B - 1) + ["0 9"]) + "\n",
                 "vertex 9 out of range 0..8", id="vertex-at-2B"),
    pytest.param(f"9 {2 * B}\n" + "\n".join(clean(2 * B)) + "\n", 7,  # 0-1, 1-2, ..., 6-7
                 id="two-clean-batches"),
    pytest.param(f"9 {2 * B}\n" + "\n".join(clean(2 * B - 1)) + "\n",
                 f"expected {2 * B} edge lines, found {2 * B - 1}", id="one-line-short"),
    # digits and one space past the cap, in two pieces of one batch
    pytest.param("2 9\n0 1\n" + "1" * 2100 + " " + "1" * 2100 + "\n0 1\n",
                 "line 3: longer than 4096 characters", id="long-digit-line"),
    # a long comment that ends a batch, then clean lines and a fault
    pytest.param(f"9 {B + 1}\n" + "\n".join(clean(B - 1) + ["#" + "x" * 3 * LONG] + clean(2)
                                           + ["1 x"]),
                 f"line {B + 4}: non-integer edge '1 x'", id="comment-across-batches"),
])
def test_decided_cases(text, expected):
    got = outcome(read_edge_list, text)
    assert got == outcome(reference.read_edge_list, text)
    if isinstance(expected, int):
        assert got.num_edges == expected
    else:
        assert got[1] == expected


def test_a_long_run_of_digits_is_read_a_line_at_a_time():
    # int() refuses a run past the interpreter's digit limit, so a batch takes
    # only short runs, and a long one is the line-at-a-time reader's
    text = "2 2\n0 1\n" + "1" * 700 + " 1\n"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the least limit there is
    try:
        got = outcome(read_edge_list, text)
        assert got == outcome(reference.read_edge_list, text)
        assert got[1].startswith("line 3: non-integer edge '111")
    finally:
        sys.set_int_max_str_digits(limit)
