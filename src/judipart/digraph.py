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
int64 integers per line; '#' starts a comment anywhere on a line. numpy's
tokenizer reads it in one pass; only a malformed text gets a line scan, which
names the first bad line.

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
    # a sort and a neighbour compare: np.unique may take a hash path that is
    # tens of times slower on large inputs; the scan names the first repeat
    codes = np.sort(tails * n + heads)
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
        arr = np.asarray(sides)
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


def _bad_line_error(text: str) -> EdgeListParseError:
    """The error for the first data line that is not two int64 integers.

    Runs only on text numpy's tokenizer refused, with the same rules."""
    for lineno, line, tokens in _data_lines(text):
        if len(tokens) != 2 or not all(map(_is_int64, tokens)):
            return EdgeListParseError(
                f"line {lineno}: expected two integers, got {line!r}"
            )
    return EdgeListParseError("edge list unreadable")


def parse_edge_list(text: str) -> Digraph:
    """Parse the package edge-list format.

    Blank lines are ignored and '#' starts a comment, on a line of its own or
    after data. The first data line is 'n m'; exactly m data lines 'u v'
    follow (0-based vertex ids). Every value is a decimal int64.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(io.StringIO(text, newline=None), dtype=np.int64,
                              comments="#", ndmin=2)
    except ValueError as exc:
        raise _bad_line_error(text) from exc
    if rows.shape[0] == 0:
        raise EdgeListParseError("no header line 'n m' found")
    if rows.shape[1] != 2:
        raise _bad_line_error(text)
    n, m = rows[0].tolist()
    if n < 0 or m < 0:
        lineno = next(_data_lines(text))[0]
        raise EdgeListParseError(f"line {lineno}: header values must be nonnegative")
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
