"""Digraph core: immutable arc-list digraphs with one adjacency array.

Conventions used across the package:

- Vertices are integers 0..n-1, held as int64. Every vertex id, (tail, head)
  pair and side label that enters the library passes one typing rule,
  stated in id_array: from_arc_list (arcs and n), vertex_mask (so every
  vertex set and part) and Bipartition call it, and nothing else types ids.
- An arc is an ordered pair (tail, head). Loops and duplicate same-direction
  arcs are rejected at construction; anti-parallel pairs (u, v) and (v, u) are
  allowed and count as two arcs.
- e(A, B) counts arcs with tail in A and head in B; A and B need not be
  disjoint from the rest of the graph, only valid vertex sets. Vertex sets
  become boolean masks through vertex_mask, which refuses an id outside
  0..n-1 with VertexOutOfRangeError.
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
is only parsed, counted or cut never pays for it. Each vertex's run lists the
other ends of all its arcs in ascending order: the build sorts one code
key * n + other per arc end in place, in uint32 up to n = 2^16 and uint64
beyond (code_dtype), and so holds 2m codes and 2m ends and nothing of the
arc order.
"""
from __future__ import annotations

import io
import re
import warnings
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain

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


def code_dtype(n: int) -> type:
    """The unsigned integer width for codes key * n + other over vertices
    0..n-1, the largest n^2 - 1: uint32 when n <= 2**16, else uint64.
    Raises TooLargeError when n > 2**32, where n^2 - 1 needs more than 64
    bits."""
    if n > 2**32:
        raise TooLargeError(f"vertex count n={n} is too large for 64-bit arc codes")
    return np.uint32 if n <= 2**16 else np.uint64


def stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """np.argsort(keys, kind="stable") for nonnegative integer keys below
    bound, as an LSD radix sort: one stable argsort per 16-bit digit, which
    numpy runs as a radix sort on uint16, so ceil(bitlen(bound - 1) / 16)
    passes, one when bound <= 2**16. Its one user is the local search's
    rank order (engine._rank_order)."""
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
        every arc at v, out- and in-arcs together, ascending, so an
        anti-parallel pair shows twice. This is the graph's one adjacency
        array, built on the first call and kept. Every arc end gets one code,
        key * n + other, of width code_dtype(n) (uint32 up to n = 2^16, else
        uint64); one in-place sort groups the codes by vertex, and the codes
        % n, taken in place, are the other ends. So the build costs one sort
        of 2m integers and holds the 2m codes and the 2m ends. Both arrays
        have index_dtype(max(2m, n)): int32 on every graph whose 2m and n
        fit, else int64. Raises TooLargeError when n > 2^32."""
        if self._incidence is None:
            n, m = self.n, self.m
            wide = code_dtype(n)
            dtype = index_dtype(max(2 * m, n))
            indptr = np.zeros(n + 1, dtype=dtype)
            np.cumsum(self.out_degrees + self.in_degrees, out=indptr[1:])
            codes = np.empty(2 * m, dtype=wide)
            for key, other, part in ((self.tails, self.heads, codes[:m]),
                                     (self.heads, self.tails, codes[m:])):
                np.multiply(key, n, out=part, dtype=wide, casting="unsafe")
                np.add(part, other, out=part, dtype=wide, casting="unsafe")
            codes.sort()
            np.remainder(codes, n, out=codes)
            ends = codes.astype(dtype)
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


def _ill_shaped(what: str, pairs: bool) -> Exception:
    if pairs:
        return EdgeListParseError(f"{what} must be (tail, head) pairs")
    return VertexOutOfRangeError(f"{what} must be one-dimensional")


def _non_integer(what: str, types) -> Exception:
    return VertexOutOfRangeError(
        f"non-integer vertex ids ({', '.join(sorted(map(str, types)))}) in {what}")


def id_array(values, what: str, pairs: bool = False) -> np.ndarray:
    """The one typing rule for vertex ids, (tail, head) pairs and side
    labels, applied at every library entry point: values as an integer
    array of shape (k,), or (m, 2) with pairs. Whether the values lie in
    their range is the caller's to check.

    An ndarray is judged by its dtype and shape alone, and one of an integer
    dtype passes as it is. Any other collection is materialised once and
    must be flat, or with pairs hold only sequences of length 2; every id
    must be a Python int or a numpy integer (a bool or np.bool_ never) that
    fits in int64, and the ids become one int64 array. An empty collection
    of any dtype is the empty array.

    Input that breaks the rule raises VertexOutOfRangeError naming what, or
    EdgeListParseError when pairs are not (tail, head) pairs."""
    shape = (-1, 2) if pairs else (-1,)
    if isinstance(values, np.ndarray):
        if values.size == 0:
            return np.zeros(0, dtype=np.int64).reshape(shape)
        if values.shape[1:] != shape[1:] or values.ndim != len(shape):
            raise _ill_shaped(what, pairs)
        if values.dtype.kind not in "iu":
            raise _non_integer(what, [values.dtype])
        return values
    if not isinstance(values, (list, tuple)):
        try:
            values = iter(values)
        except TypeError:  # a scalar or None
            raise VertexOutOfRangeError(
                f"{what} must be a collection of vertex ids, "
                f"not {type(values).__name__}") from None
        values = list(values)
    flat = values
    if pairs and values:
        if not all(issubclass(t, Sequence) for t in set(map(type, values))) \
                or set(map(len, values)) != {2}:
            raise _ill_shaped(what, pairs)
        flat = list(chain.from_iterable(values))
    bad = {t.__name__ for t in set(map(type, flat))
           if t is bool or not issubclass(t, (int, np.integer))}
    if bad:
        raise _non_integer(what, bad)
    try:
        arr = np.array(flat, dtype=np.int64)
    except OverflowError:
        raise VertexOutOfRangeError(f"vertex ids beyond int64 in {what}") from None
    return arr.reshape(shape) if pairs else arr


def from_arc_list(n: int, arcs: np.ndarray | Iterable[tuple[int, int]]) -> Digraph:
    """Validate and build a digraph on n vertices from (tail, head) pairs:
    an (m, 2) integer array or any collection of pairs, typed by id_array.
    n must be an integer too (a numpy one included, a bool not)."""
    (n,) = id_array((n,), "the vertex count n").tolist()
    if n < 0:
        raise VertexOutOfRangeError(f"vertex count must be nonnegative, got {n}")
    if n >= np.iinfo(np.intp).max // 8:  # n + 1 int64 entries must be addressable
        raise TooLargeError(f"vertex count n={n} is too large for per-vertex arrays")
    arr = id_array(arcs, "arcs", pairs=True)
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
    """Membership mask over 0..n-1 of the vertex set vs (repeats allowed),
    typed by id_array; an id outside 0..n-1 raises VertexOutOfRangeError."""
    mask = np.zeros(n, dtype=bool)
    if isinstance(vs, (tuple, list)) and not vs:  # the commonest X skips the gate
        return mask
    idx = id_array(vs, what)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        v = int(idx[np.argmax((idx < 0) | (idx >= n))])
        raise VertexOutOfRangeError(f"{what} contains vertex {v}, n={n}")
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
    for S = Y = V - X the bincounts then take only the arcs at X, and none
    when X is empty."""
    size = np.count_nonzero(in_s)
    flip = 2 * size > D.n
    side = ~in_s if flip else in_s
    to_s, from_s = np.zeros(D.n, dtype=np.intp), np.zeros(D.n, dtype=np.intp)
    # no arc has an end on an empty smaller side
    for lo in range(0, D.m if 0 < size < D.n else 0, _CENSUS_BLOCK):
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
        """sides[v] is 1 or 2, typed by id_array."""
        try:
            arr = id_array(sides, "sides")
        except VertexOutOfRangeError as exc:
            raise PartitionError(str(exc)) from None
        if not ((arr == 1) | (arr == 2)).all():
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
    # sides are 1 or 2: tail side below head side is an arc from 1 to 2
    e12 = int(np.count_nonzero(ts < hs))
    e21 = int(np.count_nonzero(ts > hs))
    return CutValue(e12, e21, min(e12, e21))


# a sign, then leading zeros apart, so int() never sees more than 19 digits
_INT_TOKEN = re.compile(r"([+-]?)0*([0-9]{1,19})")

# every str.isspace() character beyond ASCII, in UTF-8: a blank inside a line.
# Each is two bytes led by C2 or three led by E1, E2 or E3; _WIDE_KEYS holds
# their bytes as big-endian integers, sorted, a two-byte one padded with a 0
_WIDE_KEYS = np.array(sorted(int.from_bytes(c.encode().ljust(3, b"\0"), "big") for c in (
    "\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009"
    "\u200a\u2028\u2029\u202f\u205f\u3000")), dtype=np.int32)

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


def _blank_wide(block: np.ndarray) -> int:
    """Overwrite each wide blank in block, whole lines of UTF-8, with as many
    spaces as it has bytes, and return how many bytes that was. Every byte
    from C2 up leads a character of two or more bytes, and the bytes after it
    lie in the block, so each lead's character is looked up in _WIDE_KEYS by
    its first two bytes, plus the third when the lead (E0 up) starts three or
    more."""
    lead = np.flatnonzero(block >= 0xC2)
    first = block[lead]
    three = first >= 0xE0
    keys = (first.astype(np.int32) << 16 | block[lead + 1].astype(np.int32) << 8
            | np.where(three, block.take(lead + 2, mode="clip"), 0))
    found = _WIDE_KEYS.take(_WIDE_KEYS.searchsorted(keys), mode="clip") == keys
    lead, three = lead[found], three[found]
    block[lead] = block[lead + 1] = ord(" ")
    block[lead[three] + 2] = ord(" ")
    return 2 * lead.size + int(np.count_nonzero(three))


def _clean_block(block: np.ndarray, odd: bytes) -> bool:
    """Overwrite the comments and the blanks C's isspace does not know (0x1C
    to 0x1F and the wide ones) in block, whole lines of UTF-8 whose bytes
    outside _PLAIN_BYTES are odd, with spaces in place. False when a byte
    outside the comments cannot stand in a decimal integer: a stray byte, or
    a sign that does not start a token or is not followed by a digit."""
    if not odd.isascii() and _blank_wide(block) == len(odd):
        return True  # every odd byte was in a wide blank
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
        odd = raw[lo:hi].translate(None, _PLAIN_BYTES)
        if odd:
            if not data.flags.writeable:  # copied at the first block to clean
                data = data.copy()
            if not _clean_block(data[lo:hi], odd):
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
