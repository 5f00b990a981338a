"""Digraph core: immutable arc-list digraphs with one adjacency array.

Conventions used across the package:

- Vertices are integers 0..n-1, held as int64. from_arc_list takes an (m, 2)
  integer array as it is, or any iterable of (tail, head) pairs; an id that
  is not an integer (float, bool, beyond int64) is a VertexOutOfRangeError.
- An arc is an ordered pair (tail, head). Loops and duplicate same-direction
  arcs are rejected at construction; anti-parallel pairs (u, v) and (v, u) are
  allowed and count as two arcs.
- e(A, B) counts arcs with tail in A and head in B; A and B need not be
  disjoint from the rest of the graph, only valid vertex sets. Vertex sets
  become boolean masks through vertex_mask, which rejects a vertex id that is
  not an integer in 0..n-1 (a float such as 2.5 included) with
  VertexOutOfRangeError.
- The analysis splits V into X and Y = V - X. A function takes X (or its
  parts x1, x2), never Y, tau's tight components included: it derives Y as
  the complement, so the two sets cannot disagree. Parts are checked in one
  place, split_masks: a vertex outside 0..n-1 or in two parts raises
  PartitionError. Every quantity the analysis counts across a split reads
  from arc_census: the per-vertex counts e(v, S) and e(S, v) of a set S.
- A bipartition assigns every vertex side 1 or side 2; the two directed cut
  counts are e12 (side 1 -> side 2) and e21 (side 2 -> side 1).

An edge list is a header line 'n m', then one 'tail head' line per arc: two
int64 integers per line; '#' starts a comment anywhere on a line. A check of
the bytes, 64 KiB at a time, proves that every line holds zero or two
integers, and np.fromstring then reads all the digits in one call. Only a
refused text, or one holding a value at an int64 extreme, gets a line scan in
Python, which names the first bad line.

The arc arrays keep construction order, so serializing and re-parsing a graph
is an identity on both the vertex count and the arc sequence. Adjacency is one
array over both directions (incidence()), built on first use, so a graph that
is only parsed, counted or cut never pays for it.
"""
from __future__ import annotations

import io
import re
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DuplicateArcError,
    EdgeListParseError,
    EmptyGraphError,
    LoopArcError,
    PartitionError,
    TooLargeError,
    VertexOutOfRangeError,
)


def index_dtype(largest: int) -> type:
    """The integer width for arrays whose values lie in 0..largest: int32
    when largest < 2**31, else int64."""
    return np.int32 if largest < 2**31 else np.int64


def stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """np.argsort(keys, kind="stable") for nonnegative integer keys below
    bound, as an LSD radix sort: one stable argsort per 16-bit digit, which
    numpy runs as a radix sort on uint16, so ceil(bitlen(bound - 1) / 16)
    passes, one when bound <= 2**16."""
    order = keys.astype(np.uint16).argsort(kind="stable")
    for shift in range(16, (bound - 1).bit_length(), 16):
        # gather the 16-bit digits, not the wide keys
        digit = (keys >> shift).astype(np.uint16)[order]
        order = order[digit.argsort(kind="stable")]
    return order


@dataclass(frozen=True)
class CutValue:
    e12: int
    e21: int
    minval: int


class Digraph:
    """Immutable digraph over vertices 0..n-1.

    Build via :func:`from_arc_list` or :func:`parse_edge_list`; the raw
    constructor trusts its inputs.
    """

    __slots__ = ("n", "m", "tails", "heads", "out_degrees", "in_degrees", "_incidence")

    def __init__(self, n: int, tails: np.ndarray, heads: np.ndarray):
        self.n = int(n)
        self.m = int(len(tails))
        self.tails = tails
        self.heads = heads
        self.out_degrees = np.bincount(tails, minlength=n).astype(np.int64)
        self.in_degrees = np.bincount(heads, minlength=n).astype(np.int64)
        self._incidence = None
        for arr in (self.tails, self.heads, self.out_degrees, self.in_degrees):
            arr.setflags(write=False)

    def incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, ends): ends[indptr[v]:indptr[v + 1]] holds the other end of
        every arc at v, out-arcs first, then in-arcs, each in arc order, so an
        anti-parallel pair shows twice. This is the graph's one adjacency
        array; it is built on the first call by stable_order over the arcs'
        ends and kept. Both arrays have index_dtype(max(2m, n)): int32 on
        every graph whose 2m and n fit, else int64."""
        if self._incidence is None:
            dtype = index_dtype(max(2 * self.m, self.n))
            order = stable_order(np.concatenate((self.tails, self.heads), dtype=dtype),
                                 self.n)
            ends = np.concatenate((self.heads, self.tails), dtype=dtype)[order]
            indptr = np.zeros(self.n + 1, dtype=dtype)
            np.cumsum(self.out_degrees + self.in_degrees, out=indptr[1:])
            for arr in (indptr, ends):
                arr.setflags(write=False)
            self._incidence = indptr, ends
        return self._incidence

    def degrees(self) -> np.ndarray:
        return self.out_degrees + self.in_degrees

    def __eq__(self, other) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and bool(np.array_equal(self.tails, other.tails))
            and bool(np.array_equal(self.heads, other.heads))
        )

    def __hash__(self):
        return hash((self.n, self.m, self.tails.tobytes(), self.heads.tobytes()))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.m})"


def from_arc_list(n: int, arcs: np.ndarray | Iterable[tuple[int, int]]) -> Digraph:
    """Validate and build a digraph from an (m, 2) integer array of
    (tail, head) rows, or from any iterable of such pairs."""
    if n < 0:
        raise VertexOutOfRangeError(f"vertex count must be nonnegative, got {n}")
    if n >= np.iinfo(np.intp).max // 8:  # n + 1 int64 entries must be addressable
        raise TooLargeError(f"vertex count n={n} is too large for per-vertex arrays")
    arr = np.asarray(arcs if isinstance(arcs, np.ndarray) else list(arcs))
    if arr.size == 0:
        arr = np.zeros((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise EdgeListParseError("arcs must be (tail, head) pairs")
    if arr.dtype.kind not in "iu":
        raise VertexOutOfRangeError(
            f"arcs must hold integer vertex ids that fit in int64, got {arr.dtype}"
        )
    # min and max first: the per-row scan that names the first bad arc runs
    # only when some id is out of range
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        bad = ((arr < 0) | (arr >= n)).any(axis=1)
        u, v = arr[np.argmax(bad)].tolist()
        raise VertexOutOfRangeError(f"arc ({u}, {v}) out of range for n={n}")
    tails = arr[:, 0].astype(np.int64)
    heads = arr[:, 1].astype(np.int64)
    loops = tails == heads
    if loops.any():
        i = int(np.argmax(loops))
        raise LoopArcError(f"loop arc at vertex {int(tails[i])}")
    # codes that strictly increase repeat no arc, and format_edge_list and the
    # generators write arcs so; other codes take a sort and a neighbour
    # compare, as np.unique may take a hash path that is tens of times slower
    # on large inputs. The scan names the first repeat
    codes = tails * n + heads
    if not (codes[1:] > codes[:-1]).all():
        codes.sort()
        if (codes[1:] == codes[:-1]).any():
            seen = set()
            for u, v in zip(tails.tolist(), heads.tolist()):
                if (u, v) in seen:
                    raise DuplicateArcError(f"duplicate arc ({u}, {v})")
                seen.add((u, v))
    return Digraph(n, tails, heads)


def vertex_mask(n: int, vs: Iterable[int], what: str) -> np.ndarray:
    """Membership mask over 0..n-1 of the vertex set vs (repeats allowed).

    The ids keep their own type, so a float or bool id is refused, not
    converted; an empty set of any type is the all-false mask."""
    items = vs if isinstance(vs, (list, tuple, np.ndarray)) else list(vs)
    idx = np.asarray(items)
    if idx.size == 0:
        return np.zeros(n, dtype=bool)
    dtype = idx.dtype
    # asarray makes [3, True] an int array: look for the bool among the items
    if not isinstance(items, np.ndarray) and any(
            isinstance(v, (bool, np.bool_)) for v in items):
        dtype = np.dtype(bool)
    if dtype.kind not in "iu":
        raise VertexOutOfRangeError(
            f"{what} contains non-integer vertex ids ({dtype}), n={n}"
        )
    bad = (idx < 0) | (idx >= n)
    if bad.any():
        v = int(idx[np.argmax(bad)])
        raise VertexOutOfRangeError(f"{what} contains vertex {v}, n={n}")
    mask = np.zeros(n, dtype=bool)
    mask[idx] = True
    return mask


def split_masks(n: int, parts: Sequence[Iterable[int]], names: str) -> list[np.ndarray]:
    """Masks over 0..n-1 of disjoint vertex sets.

    A vertex outside 0..n-1 or a vertex in two parts raises PartitionError."""
    try:
        masks = [vertex_mask(n, p, names) for p in parts]
    except VertexOutOfRangeError as exc:
        raise PartitionError(str(exc)) from None
    # one AND per further part: a single part has nothing to overlap
    seen = masks[0] if masks else None
    for mask in masks[1:]:
        if (seen & mask).any():
            raise PartitionError(f"{names} overlap")
        seen = seen | mask
    return masks


# arc_census takes _CENSUS_BLOCK arcs at a time, so its temporaries (a mask
# and the selected int64 ends, 2.25 MiB) stay the same for any m
_CENSUS_BLOCK = 1 << 18


def arc_census(D: Digraph, in_s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex (e(v, S), e(S, v)) for the vertex set S marked by in_s,
    counted against the smaller of S and V - S, as e(v, S) = outdeg(v) -
    e(v, V - S) and e(S, v) = indeg(v) - e(V - S, v) when S is the larger:
    for S = Y = V - X the bincounts then take only the arcs at X."""
    flip = 2 * np.count_nonzero(in_s) > D.n
    side = ~in_s if flip else in_s
    to_s, from_s = np.zeros(D.n, dtype=np.intp), np.zeros(D.n, dtype=np.intp)
    for lo in range(0, D.m, _CENSUS_BLOCK):
        tails, heads = D.tails[lo:lo + _CENSUS_BLOCK], D.heads[lo:lo + _CENSUS_BLOCK]
        # compress, not a boolean index: 3-4x faster on a mask of mixed bits
        to_s += np.bincount(tails.compress(side[heads]), minlength=D.n)
        from_s += np.bincount(heads.compress(side[tails]), minlength=D.n)
    return (D.out_degrees - to_s, D.in_degrees - from_s) if flip else (to_s, from_s)


def e_between(D: Digraph, a: Iterable[int], b: Iterable[int]) -> int:
    """Number of arcs with tail in a and head in b."""
    ma = vertex_mask(D.n, a, "A")
    mb = vertex_mask(D.n, b, "B")
    return int(np.count_nonzero(ma[D.tails] & mb[D.heads]))


def max_degree(D: Digraph) -> int:
    if D.n == 0:
        raise EmptyGraphError("max degree of an empty graph is undefined")
    return int((D.out_degrees + D.in_degrees).max())


def min_outdegree(D: Digraph) -> int:
    if D.n == 0:
        raise EmptyGraphError("min outdegree of an empty graph is undefined")
    return int(D.out_degrees.min())


class Bipartition:
    """Assignment of every vertex to side 1 or side 2."""

    __slots__ = ("sides",)

    def __init__(self, sides: Sequence[int] | np.ndarray):
        try:
            arr = np.asarray(sides)
        except ValueError:  # a ragged nesting such as [1, [2]]
            raise PartitionError("side assignment must be one-dimensional") from None
        if arr.ndim != 1:
            raise PartitionError("side assignment must be one-dimensional")
        # tested before the cast, which reads 257, -255 and 1.5 as 1; np.isin
        # costs ~10x on small n
        if arr.size and not (arr.dtype.kind in "iu" and ((arr == 1) | (arr == 2)).all()):
            raise PartitionError("sides must be integers 1 or 2")
        arr = arr.astype(np.uint8)
        arr.setflags(write=False)
        self.sides = arr

    @classmethod
    def from_side1(cls, n: int, side1: Iterable[int]) -> "Bipartition":
        return cls(np.where(vertex_mask(n, side1, "side 1"), 1, 2))

    @property
    def n(self) -> int:
        return int(self.sides.size)

    def side1(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.sides == 1).tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Bipartition):
            return NotImplemented
        return bool(np.array_equal(self.sides, other.sides))

    def __hash__(self):
        return hash(self.sides.tobytes())

    def __repr__(self) -> str:
        return f"Bipartition(side1={list(self.side1())})"


def cut_counts(D: Digraph, P: Bipartition) -> CutValue:
    """Directed cut counts of a bipartition."""
    if P.n != D.n:
        raise PartitionError(f"bipartition covers {P.n} vertices, graph has {D.n}")
    ts = P.sides[D.tails]
    hs = P.sides[D.heads]
    e12 = int(np.count_nonzero((ts == 1) & (hs == 2)))
    e21 = int(np.count_nonzero((ts == 2) & (hs == 1)))
    return CutValue(e12, e21, min(e12, e21))


# a sign, then leading zeros apart, so int() never sees more than 19 digits
_INT_TOKEN = re.compile(r"([+-]?)0*([0-9]{1,19})")

# every str.isspace() character beyond ASCII, in UTF-8: a blank inside a line
_WIDE_BLANKS = re.compile(b"|".join(re.escape(c.encode()) for c in (
    "\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009"
    "\u200a\u2028\u2029\u202f\u205f\u3000")))

# A text of digits, line ends and the blanks C's isspace knows goes to
# np.fromstring as it is. Any other block is cleaned first, by byte class:
# comments and the blanks C does not know (_SPACED) are written over with
# spaces, and a byte that can stand neither in an integer nor in a comment
# refuses the text.
_PLAIN_BYTES = b"0123456789 \t\v\f\n\r"
_DIGIT, _SIGN, _BLANK, _SPACED, _EOL, _HASH, _STRAY = range(7)
_BYTE_CLASS = np.full(256, _STRAY, dtype=np.uint8)
_BYTE_CLASS[list(b"0123456789")] = _DIGIT
_BYTE_CLASS[list(b"+-")] = _SIGN
_BYTE_CLASS[list(b" \t\v\f")] = _BLANK
_BYTE_CLASS[list(b"\x1c\x1d\x1e\x1f")] = _SPACED
_BYTE_CLASS[list(b"\n\r")] = _EOL
_BYTE_CLASS[ord("#")] = _HASH

# the line check takes about this many bytes at a time, cut at a line end, so
# that its temporaries stay small and in cache
_SCAN_BLOCK = 1 << 16


def _data_lines(text: str):
    """(line number, line, tokens) of every line that holds data once its
    comment is cut off; a line ends at LF, CRLF or a lone CR."""
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield lineno, raw.rstrip("\n"), tokens


def _is_int64(token: str) -> bool:
    match = _INT_TOKEN.fullmatch(token)
    return match is not None and -(2**63) <= int(match[1] + match[2]) < 2**63


def _first_bad_line(text: str) -> EdgeListParseError | None:
    """The error for the first data line that is not two int64 integers, if
    there is one."""
    for lineno, line, tokens in _data_lines(text):
        if len(tokens) != 2 or not all(map(_is_int64, tokens)):
            return EdgeListParseError(
                f"line {lineno}: expected two integers, got {line!r}"
            )
    return None


def _bad_line_error(text: str) -> EdgeListParseError:
    """The error for text the block check or np.fromstring refused: the first
    bad data line, found by a line scan with the same rules."""
    return _first_bad_line(text) or EdgeListParseError("edge list unreadable")


def _block_end(raw: bytes, lo: int) -> int:
    """The end of the scan block that starts at lo: just past the last line
    end in the _SCAN_BLOCK bytes from lo, else just past the first line end
    after them, else len(raw)."""
    hi = lo + _SCAN_BLOCK
    if hi >= len(raw):
        return len(raw)
    cut = max(raw.rfind(b"\n", lo, hi), raw.rfind(b"\r", lo, hi))
    if cut >= 0:
        return cut + 1
    lf = raw.find(b"\n", hi)
    end = len(raw) if lf < 0 else lf + 1
    cr = raw.find(b"\r", hi, end)
    return end if cr < 0 else cr + 1


def _clean_block(block: np.ndarray) -> bool:
    """Overwrite the comments and the blanks C's isspace does not know (0x1C
    to 0x1F and the wide ones) in block, whole lines of UTF-8, with spaces in
    place. False when a byte outside the comments cannot stand in a decimal
    integer: a stray byte, or a sign that does not start a token or is not
    followed by a digit."""
    if (block >= 0x80).any():
        # a wide blank, two or three bytes, becomes as many spaces
        block[:] = np.frombuffer(_WIDE_BLANKS.sub(lambda m: b" " * len(m[0]),
                                                  block.tobytes()), dtype=np.uint8)
    cls = _BYTE_CLASS.take(block)
    if (cls == _HASH).any():
        # a comment runs from a '#' that follows a line end (or the block's
        # start) to the next line end: the marks where '#' and line end swap
        marks = np.flatnonzero((cls == _HASH) | (cls == _EOL))
        is_hash = cls[marks] == _HASH
        swap = np.empty_like(is_hash)
        swap[0] = is_hash[0]
        np.not_equal(is_hash[1:], is_hash[:-1], out=swap[1:])
        bounds = marks[swap]
        inside = np.zeros(bounds.size + 1, dtype=bool)
        inside[1::2] = True
        np.putmask(cls, np.repeat(inside, np.diff(bounds, prepend=0, append=cls.size)),
                   _SPACED)
    if (cls == _STRAY).any():
        return False
    np.putmask(block, cls == _SPACED, ord(" "))
    signs = np.flatnonzero(cls == _SIGN)
    if signs.size == 0:
        return True
    # a sign starts a token, after a blank or a line end, and a digit follows
    around = np.concatenate(([_EOL], cls, [_EOL]))
    return bool(((around[signs] >= _BLANK) & (around[signs + 2] == _DIGIT)).all())


def _block_tokens(block: np.ndarray) -> int:
    """The number of tokens in block, whole lines of clean text, or -1 when
    a line holds other than zero or two tokens. Clean text has its token
    bytes (digits and signs) above the space and its blanks at or below."""
    digit = block > ord(" ")
    start = np.empty_like(digit)
    start[0] = digit[0]
    np.greater(digit[1:], digit[:-1], out=start[1:])
    # token starts (True) and line ends (False) in text order: with a line end
    # added at each side, every start must have exactly one start beside it
    seq = start.compress(start | (block == ord("\n")) | (block == ord("\r")))
    padded = np.zeros(seq.size + 2, dtype=bool)
    padded[1:-1] = seq
    if (seq & (padded[:-2] == padded[2:])).any():
        return -1
    return int(np.count_nonzero(seq))


def _read_values(text: str) -> np.ndarray | None:
    """Every int64 value of the edge-list text, in order, or None when some
    line does not hold zero or two decimal integers.

    The bytes are checked _SCAN_BLOCK at a time for the line layout, then
    np.fromstring reads the digits in one call. fromstring clamps a value
    beyond int64 to an extreme, so a value at an extreme is the caller's to
    check."""
    raw = text.encode("utf-8", "surrogatepass")
    data = np.frombuffer(raw, dtype=np.uint8)
    count = lo = 0
    while lo < len(raw):
        hi = _block_end(raw, lo)
        if raw[lo:hi].translate(None, _PLAIN_BYTES):
            if not data.flags.writeable:  # copied at the first block to clean
                data = data.copy()
            if not _clean_block(data[lo:hi]):
                return None
        tokens = _block_tokens(data[lo:hi])
        if tokens < 0:
            return None
        count += tokens
        lo = hi
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    # as bytes, which end in a NUL: fromstring's digit reader stops there,
    # where it reads on past the end of an array
    if data.flags.writeable:
        raw = data.tobytes()
    # numpy 1.x warns and returns the values read so far where 2.x raises
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            values = np.fromstring(raw, dtype=np.int64, sep=" ")
    except ValueError:
        return None
    return values if values.size == count else None


def parse_edge_list(text: str) -> Digraph:
    """Parse the package edge-list format.

    Blank lines are ignored and '#' starts a comment, on a line of its own or
    after data. The first data line is 'n m'; exactly m data lines 'u v'
    follow (0-based vertex ids). Every value is a decimal int64: an optional
    sign, then digits. Tokens are separated by any whitespace character
    (str.isspace) other than the line ends LF, CRLF and CR. A text that breaks
    these rules raises EdgeListParseError naming its first bad line.
    """
    values = _read_values(text)
    if values is None:
        raise _bad_line_error(text)
    if values.size == 0:
        raise EdgeListParseError("no header line 'n m' found")
    info = np.iinfo(np.int64)
    if values.max() == info.max or values.min() == info.min:
        bad = _first_bad_line(text)
        if bad is not None:
            raise bad
    n, m = values[:2].tolist()
    if n < 0 or m < 0:
        lineno = next(_data_lines(text))[0]
        raise EdgeListParseError(f"line {lineno}: header values must be nonnegative")
    rows = values.reshape(-1, 2)
    if len(rows) - 1 != m:
        raise EdgeListParseError(f"header declares m={m} arcs but {len(rows) - 1} follow")
    try:
        return from_arc_list(n, rows[1:])
    except (LoopArcError, DuplicateArcError, VertexOutOfRangeError) as exc:
        raise type(exc)(f"edge list invalid: {exc}") from exc


def format_edge_list(D: Digraph) -> str:
    lines = [f"{D.n} {D.m}"]
    lines.extend(f"{u} {v}" for u, v in zip(D.tails.tolist(), D.heads.tolist()))
    return "\n".join(lines) + "\n"


def load_edge_list(path) -> Digraph:
    # a byte that is not UTF-8 becomes U+FFFD, which the parser refuses with
    # its line number (or ignores inside a comment)
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return parse_edge_list(fh.read())


def save_edge_list(D: Digraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(D))
