"""Compact closure tables: one row per vertex, one column per color.

Cell ``(u, c)`` holds the unique member of ``D[u]`` colored ``c``, when
a valid down-coloring backs the table.  The full transitive closure is
recoverable from the non-empty cells, at n*k cells instead of n^2.
A table is one n-by-k int32 array of vertex ids, -1 for an empty cell;
the labels appear only at its text boundaries, and its rows by label
are built only when asked for.  The build, refused first past the
byte budget, gathers the cached down-set rows in the table's row order
and scatters them once into that array by color, its fill count the
one rainbow check.  The AC check counts the filled cells and reads each
u of D[v] as a query does.  The CSV writer works on the id
table a block of rows at a time and writes only its filled cells and
the runs of commas between them, each gathered from one object table
of the labels, quoted once; the CLI writes its blocks as they are made.
The build reads the rows' label order that the digraph keeps.
The CSV reader is one scan of numpy arrays that reads text as
``csv.reader`` does, quoted fields found by the parity of their quotes;
its labels are sorted and decoded by the word kernels of ``_kernels``
that the edge-list parser shares, and each cell finds its row by a
fingerprint of its words, in a bucket index.
The JSON reader maps each cell to its id once.  :func:`is_below` and
:func:`is_below_ids` answer reachability from a valid table, one cell
per query.
"""

from __future__ import annotations

import csv
import json
from bisect import bisect_left
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from types import MappingProxyType, SimpleNamespace

import numpy as np

from . import _kernels
from .coloring import (Coloring, _columns, _load_json, _rainbow,
                       find_down_violation)
from .digraph import Digraph
from .errors import ColoringError, ParseError


class CompactMatrix:
    """k columns; rows keyed and ordered by vertex label.

    The cells live in ``table``, one read-only n-by-k int32 array whose
    row i is ``labels[i]``'s: a cell holds an index into ``labels +
    foreign``, or -1 when empty.  ``foreign`` lists, sorted, the cell
    values that name no row (only an edited table has any), so tables
    with equal cells have equal arrays.  ``rows``, the cells by label as
    tuples with None for empty, is built on first use.
    """

    def __init__(self, k: int, labels: tuple[str, ...],
                 rows: Mapping[str, Sequence[str | None]]):
        if set(labels) != set(rows):
            raise ValueError("row keys must match the label list")
        if tuple(sorted(labels)) != labels:
            raise ValueError("rows must be ordered by label")
        for lab, cells in rows.items():
            if len(cells) != k:
                raise ValueError(f"row {lab!r} has {len(cells)} cells, expected {k}")
        self._set(k, labels, *_id_table(labels, [rows[lab] for lab in labels], k))

    def _set(self, k: int, labels: tuple[str, ...], table: np.ndarray,
             foreign: tuple[str, ...]) -> None:
        table.flags.writeable = False
        self.__dict__.update(k=k, labels=labels, table=table, foreign=foreign)

    def __setattr__(self, name, value):
        raise AttributeError("a CompactMatrix is read-only")

    @classmethod
    def _of(cls, k: int, labels: tuple[str, ...], table: np.ndarray,
            foreign: tuple[str, ...] = ()) -> CompactMatrix:
        """A table from its id array, taken as valid and not copied."""
        m = cls.__new__(cls)
        m._set(k, labels, table, foreign)
        return m

    @cached_property
    def rows(self) -> Mapping[str, tuple[str | None, ...]]:
        cells = _names(self)[self.table].tolist()
        return MappingProxyType(dict(zip(self.labels, map(tuple, cells))))

    @cached_property
    def _own_columns(self) -> np.ndarray:
        """Each row's first column that holds the row's own vertex, -1
        where none does."""
        n, k = self.table.shape
        if k == 0:
            return np.full(n, -1, dtype=np.int32)
        hit = self.table == np.arange(n, dtype=np.int32)[:, None]
        col = hit.argmax(axis=1).astype(np.int32)
        col[~hit[np.arange(n), col]] = -1
        return col

    def __eq__(self, other) -> bool:
        if not isinstance(other, CompactMatrix):
            return NotImplemented
        return (self.k == other.k and self.labels == other.labels
                and self.foreign == other.foreign
                and np.array_equal(self.table, other.table))

    def __repr__(self) -> str:
        return f"CompactMatrix(k={self.k}, labels={self.labels!r}, rows={dict(self.rows)!r})"


def _names(m: CompactMatrix) -> np.ndarray:
    """Every cell value of ``m`` by id, None last, as an object array that
    ``table`` indexes (-1 picks None)."""
    return np.array(m.labels + m.foreign + (None,), dtype=object)


def _id_table(labels: tuple[str, ...], rows: list[Sequence],
              width: int) -> tuple[np.ndarray, tuple[str, ...]]:
    """``rows`` of ``width`` cells each as an int32 id table: ``labels[i]``
    is i, None is -1, and every other value, sorted, takes an id from
    ``len(labels)`` on; returns the table and those other values.

    Each cell costs one dict lookup, streamed into the array: no list or
    buffer of the cells is made on the way."""
    code = dict(zip(labels, range(len(labels))))
    code[None] = -1
    foreign: tuple[str, ...] = ()
    try:
        ids = np.fromiter(map(code.__getitem__, chain.from_iterable(rows)),
                          np.int32, len(rows) * width)
    except KeyError:
        foreign = tuple(sorted(set(chain.from_iterable(rows)).difference(code)))
        code.update(zip(foreign, range(len(labels), len(labels) + len(foreign))))
        ids = np.fromiter(map(code.__getitem__, chain.from_iterable(rows)),
                          np.int32, len(rows) * width)
    return ids.reshape(len(rows), width), foreign


def build_compact(g: Digraph, c: Coloring) -> CompactMatrix:
    """Lay the closed down-sets out by color; rejects invalid colorings
    with the offending pair and witness ancestor, and over-budget tables."""
    col = _columns(g, c)
    _kernels.check_bytes(f"the compact table of {g.n} vertices and {c.k} colors",
                         "cells", 4 * g.n * c.k)
    order = g._label_order()
    indptr, ids = _kernels.gather_rows(*g._down_sets(), order)
    rank = np.empty(g.n, dtype=np.int32)
    rank[order] = np.arange(g.n, dtype=np.int32)
    table, short = _rainbow(indptr, col[ids], rank[ids], c.k)
    if short.size:
        u, v, w = violation = find_down_violation(g, c)
        raise ColoringError(
            f"not a down-coloring: {u} and {v} share a color inside the "
            f"closed down-set of {w}", witness=violation)
    return CompactMatrix._of(c.k, tuple(map(g.labels.__getitem__, order.tolist())),
                             table)


# ------------------------------------------------------------ validation

@dataclass(frozen=True)
class AcCheck:
    """Falsy on failure; names the first violated clause and a witness."""

    ok: bool
    clause: int | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def verify_ac_property(m: CompactMatrix, g: Digraph) -> AcCheck:
    """Check the three clauses of a valid compact table against ``g``:
    (1) every vertex sits in one column wherever it appears, (2) the
    non-empty cells of row u are exactly D[u], (3) vertices sharing a
    column have disjoint closed ancestor sets.  Clauses 1 and 2 imply 3:
    a common ancestor ``a`` of two vertices of one column would hold both
    in row ``a`` (2), in that column's single cell (1).

    The verdict is the query's own read: for each u of D[v], row v at
    u's own column must hold u, and the filled cells must number sum |D|.
    Clauses 1 and 2 give both, each u in its own column only and row v
    holding D[v] once.  Both give the clauses: the cells read in row v
    are distinct, one value to a cell, and the count leaves none other
    filled, so row v holds just D[v], each u in its own column.  The
    clause scans run only on failure, to name a witness.
    """
    n = len(m.labels)
    if n != g.n:
        return _violated_clause(m, g)
    try:  # g's id of each row; with n labels found, the label sets match
        gid = np.fromiter(map(g._index.__getitem__, m.labels), np.int64, n)
    except KeyError:
        return _violated_clause(m, g)
    if np.any(m._own_columns < 0):  # a vertex missing from its own row
        return _violated_clause(m, g)
    row = np.empty(n, dtype=np.int32)  # the row of each id of g
    row[gid] = np.arange(n, dtype=np.int32)
    indptr, ids = g._down_sets()
    if (np.count_nonzero(m.table >= 0) == ids.size
            and _reads(m, row[ids], np.repeat(row, np.diff(indptr))).all()):
        return AcCheck(True)
    return _violated_clause(m, g)


def _violated_clause(m: CompactMatrix, g: Digraph) -> AcCheck:
    """Scan clause 1, then clause 2, for the first witness."""
    column: dict[str, int] = {}
    for lab in m.labels:
        for j, cell in enumerate(m.rows[lab]):
            if cell is None:
                continue
            if cell in column and column[cell] != j:
                return AcCheck(False, 1,
                               f"{cell} appears in columns {column[cell] + 1} "
                               f"and {j + 1}")
            column.setdefault(cell, j)

    if set(m.labels) != set(g.labels):
        return AcCheck(False, 2, "row labels differ from the digraph's vertices")
    indptr, ids = g._down_sets()
    for lab in m.labels:
        u = g.id_of(lab)
        want = {g.label_of(v) for v in ids[indptr[u]:indptr[u + 1]].tolist()}
        got = {cell for cell in m.rows[lab] if cell is not None}
        if got != want:
            extra = sorted(got - want)
            missing = sorted(want - got)
            return AcCheck(False, 2,
                           f"row {lab}: extra {extra}, missing {missing}")
    return AcCheck(True)


# ----------------------------------------------------------------- query

def _row(m: CompactMatrix, label: str) -> int:
    i = bisect_left(m.labels, label)
    if i == len(m.labels) or m.labels[i] != label:
        raise ValueError(f"unknown vertex label {label!r}")
    return i


def is_below(m: CompactMatrix, u: str, v: str) -> bool:
    """Whether ``u`` lies in the closed down-set of ``v`` (``v`` reaches
    ``u``, or is ``u``), read from one cell: row v at u's own column.
    The answer is the digraph's when ``m`` passes ``verify_ac_property``."""
    return bool(is_below_ids(m, _row(m, u), _row(m, v)))


def is_below_ids(m: CompactMatrix, u, v) -> np.ndarray:
    """:func:`is_below` for arrays of row ids (indices into ``m.labels``),
    pair by pair, in one fancy index of the table.  Ids must be integers:
    a non-empty array of any other dtype is refused, not cast."""
    u, v = np.asarray(u), np.asarray(v)
    if any(x.size and x.dtype.kind not in "iu" for x in (u, v)):
        raise ValueError("row ids must be integers")
    u, v = u.astype(np.int64), v.astype(np.int64)
    n = len(m.labels)
    if any(x.size and (x.min() < 0 or x.max() >= n) for x in (u, v)):
        raise ValueError(f"row ids must lie in 0..{n - 1}")
    if m.k == 0:
        return np.zeros(np.broadcast(u, v).shape, dtype=bool)
    return _reads(m, u, v)


def _reads(m: CompactMatrix, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Whether row ``v`` holds ``u`` at ``u``'s own column, pair by pair."""
    col = m._own_columns[u]
    return (col >= 0) & (m.table[v, col] == u)


# --------------------------------------------------------- serialization

# rows of the CSV writer's and array reader's blocks: the writer gathers
# a block's cells as one object array and the reader holds int64 arrays
# of a block's fields, so its size bounds their memory
_CSV_ROWS = 4096


def _quoted(names: tuple[str, ...]) -> list[str]:
    """Each name as a CSV field of a longer record, quoted by the csv
    module's own rules for records that end in CR LF, so that a CR in a
    name is quoted on every Python version, as a LF is.  All names are
    written as one record first: when it comes out as their plain join,
    none was quoted."""
    out: list[str] = []
    writer = csv.writer(SimpleNamespace(write=out.append), lineterminator="\r\n")
    writer.writerow(names)
    if out.pop() == ",".join(names) + "\r\n":
        return list(names)
    writer.writerows(zip(names, repeat("")))
    return [x[:-3] for x in out]  # less the "," and the CR LF


def _header(k: int) -> list[str]:
    """The CSV header's fields: ``vertex``, then ``c1..ck``."""
    return ["vertex"] + [f"c{i}" for i in range(1, k + 1)]


def to_csv(m: CompactMatrix) -> str:
    """The table as CSV: a header ``vertex,c1..ck``, then one record per
    row, empty fields for empty cells; the join of :func:`csv_chunks`."""
    return "".join(csv_chunks(m))


def csv_chunks(m: CompactMatrix) -> Iterator[str]:
    """:func:`to_csv`'s text in pieces: the header line, then the records
    of ``_CSV_ROWS`` rows at a time.

    A block is an id grid of k+2 columns: the row's own field, its cells,
    and a last column that holds the line's LF.  Each filled field is one
    piece, and each run of empty fields one more, found at its first
    field: ``j`` commas for a run of ``j``.  All are gathered from one
    object table built once per table: the runs' slots, each name quoted
    once with its comma, each row's own field and the LF.  A run's slot
    is filled when a block first holds it, so the commas never cost more
    than the blocks' own text."""
    n, k = len(m.labels), m.k
    yield ",".join(_header(k)) + "\n"
    quoted = _quoted(m.labels + m.foreign)
    names = len(quoted)
    # ids: the slot of a run of j empty fields at j, for j = 1..k, then
    # a cell's id + k + 1 (so an empty cell is k), a row's own field, the LF
    lf = k + 1 + names + n
    pieces = np.empty(lf + 1, dtype=object)
    pieces[k + 1:k + 1 + names] = [f",{x}" for x in quoted]
    pieces[k + 1 + names:lf] = quoted[:n] if k else [x or '""' for x in quoted[:n]]
    pieces[lf] = "\n"
    grid = np.full((min(n, _CSV_ROWS), k + 2), lf, dtype=np.int32)
    for a in range(0, n, _CSV_ROWS):
        b = min(a + _CSV_ROWS, n)
        grid[:b - a, 0] = np.arange(lf - n + a, lf - n + b)
        np.add(m.table[a:b], k + 1, out=grid[:b - a, 1:-1])
        flat = grid[:b - a].ravel()
        mark = flat > k  # filled, or the first empty field after a filled one
        mark[1:] |= mark[:-1]
        at = np.flatnonzero(mark)
        piece = flat[at]
        run = np.flatnonzero(piece <= k)  # never last: a LF ends the block
        size = at[run + 1] - at[run]
        piece[run] = size
        for j in np.flatnonzero(np.bincount(size)).tolist():
            if pieces[j] is None:
                pieces[j] = "," * j
        yield "".join(pieces[piece].tolist())


def from_csv(text: str) -> CompactMatrix:
    """Read a table from CSV as Python 3.11's ``csv.reader`` reads it in
    its default dialect, fields of any length: a field opening with ``"``
    is quoted up to a ``"`` not doubled, and text after that joins it; a
    ``"`` elsewhere, and NUL, are text; blank records are skipped; a CR
    outside quotes ends its record, and other text after it on its line
    raises a ``ParseError`` with the line.  Other errors raise
    ``ValueError``, each at the first record that fails, in file order.

    One array scan reads all text (:func:`_syntax`, :func:`_records`).  The
    labels sort by their UTF-8 bytes (:func:`_kernels.byte_order`); each
    filled cell finds its row by a fingerprint of its words in a bucket
    index (:func:`_kernels.key_index`), checked word by word, and the
    cells of a block that fails the check are mapped by name."""
    if not text:
        raise ValueError("empty CSV document")
    raw = text.encode("utf-8", "surrogatepass") + bytes(8)  # word reads stay inside
    end = len(raw) - 8
    buf = np.frombuffer(raw, dtype=np.uint8)
    sep, drop = _syntax(buf, end) if '"' in text or "\r" in text else (None, None)
    brk = np.flatnonzero(buf == 10 if sep is None else sep & (buf != 44))  # record breaks
    cr = brk[(buf[brk] == 13) & (np.append(brk[1:], end) != brk + 1)]  # CRs before other text
    late = None  # a CR before other text, raised after the records before its line
    if cr.size:
        late = ParseError("new-line character seen in unquoted field - do you need to "
                          "open the file in universal-newline mode?",
                          raw.count(b"\n", 0, cr[0]) + 1)
        brk = brk[brk < raw.rfind(b"\n", 0, cr[0]) + 1]
        if not brk.size:
            raise late
    cbuf = buf if drop is None else np.delete(buf, drop)
    word_at = np.ndarray((cbuf.size - 7,), dtype=">u8", buffer=cbuf, strides=(1,))
    h = brk[0] if brk.size else end
    header = (raw[:h].decode("utf-8", "surrogatepass").split(",") if sep is None
              else _kernels.decode_fields(cbuf, *_records(buf, 0, h, sep, drop)[:2]))
    if not header or header[0] != "vertex":
        raise ValueError("first CSV column must be 'vertex'")
    k, width = len(header) - 1, len(header)
    if list(header) != _header(k):
        raise ValueError("CSV columns must be named c1..ck")
    # the lines after the header: from each break to the next, or to the end
    bound = brk if late is not None or end - 1 in brk[-1:] else np.append(brk, end)
    fields = [(np.empty(0, dtype=np.int64),) * 3]  # per block: labels, field counts
    cells = []  # per block: places in the file-order grid, starts and sizes
    row = 0
    for a in range(0, bound.size - 1, _CSV_ROWS):
        start, length, count = _records(
            buf, bound[a] + 1, bound[min(a + _CSV_ROWS, bound.size - 1)], sep, drop)
        first = np.cumsum(count) - count
        fields.append((start[first], length[first], count))
        if np.any(count != width):
            break
        filled = length != 0
        filled[::width] = False
        place = np.flatnonzero(filled)
        cells.append((place + row * width, start[place], length[place]))
        row += count.size
    at, size, count = (np.concatenate(x) for x in zip(*fields))
    bad = np.flatnonzero(count != width)
    n = int(bad[0]) if bad.size else at.size  # the records before one of other width
    words, first = _kernels.field_words(word_at, at[:n], size[:n])
    order, head = _kernels.byte_order(words, first, size[:n] if "\0" in text else None)
    name = lambda i: _kernels.decode_fields(cbuf, at[i:i + 1], size[i:i + 1])[0]  # noqa: E731
    if not head.all():  # the first row, in file order, repeating one before it
        group = np.flatnonzero(head)
        lowest = np.repeat(np.minimum.reduceat(order, group), np.diff(group, append=n))
        raise ValueError(f"duplicate row {name(order[order != lowest].min())!r}")
    if bad.size:
        raise ValueError(f"row {name(n)!r} has {count[n] - 1} cells, expected {k}")
    if late is not None:
        raise late
    rank = np.empty(n, dtype=np.int32)
    rank[order] = np.arange(n, dtype=np.int32)
    find = _kernels.key_index(_kernels.fingerprints(words, first))
    ids = np.full(n * width, -1, dtype=np.int32)  # the file-order grid
    miss = []  # the cells of blocks where a row found fails the check
    for place, start, length in cells:
        cw, cfirst = _kernels.field_words(word_at, start, length)
        lab = find(_kernels.fingerprints(cw, cfirst))[0]
        # the fingerprint's row, if it has the same bytes: size and words
        if (np.array_equal(size[lab], length)
                and _kernels.same_words(words, first[lab], cw, cfirst)):
            ids[place] = rank[lab]
        else:
            miss.append((place, start, length))
    del find, cells  # freed before the table is gathered
    table = ids.reshape(n, width)[order, 1:]
    del ids  # freed before the labels are decoded
    labels = _kernels.decode_fields(cbuf, at[order], size[order])
    foreign = ()
    if miss:  # those cells by name, as the constructor maps them
        place, start, length = (np.concatenate(x) for x in zip(*miss))
        cell, foreign = _id_table(labels, [_kernels.decode_fields(cbuf, start, length)],
                                  place.size)
        table[rank[place // width], place % width - 1] = cell[0]
    return CompactMatrix._of(k, labels, table, foreign)


def _syntax(buf: np.ndarray, end: int) -> tuple[np.ndarray, np.ndarray]:
    """The field ends of text holding a ``"`` or CR as a mask over ``buf``
    (its ``end`` bytes and the padding): commas, LFs and CRs outside
    quoted fields; and the sorted places of the ``"`` unquoting drops.
    A field opening with ``"``, at the text's start or after a comma or
    LF outside quotes, is quoted until the count of ``"`` since then is
    even before another byte: the prefix parity of Langdale and Lemire
    (VLDB J. 2019), per run of ``"``.  Inside, ``""`` is one ``"``;
    outside, ``"`` is text, as is an opening inside an earlier field."""
    q = op = close = np.flatnonzero(buf[:end] == 34)
    inside = np.zeros(buf.size, dtype=np.int8)
    if q.size:
        new = np.flatnonzero(np.diff(q, prepend=-2) != 1)  # each run's first quote
        run, rlen = q[new], np.diff(new, append=q.size)
        last, odd = run + rlen - 1, rlen % 2 == 1  # each run's last quote
        can = np.flatnonzero((run == 0) | (buf[run - 1] == 44) | (buf[run - 1] == 10))
        shut = np.append(last[odd], end)[np.searchsorted(np.flatnonzero(odd), can, "right")]
        op, close = run[can], np.where(odd[can], shut, last[can])
        if np.any(op[1:] <= np.maximum.accumulate(close)[:-1]):  # walk the openings
            nxt, keep = np.searchsorted(op, close, "right").tolist(), [0]
            while nxt[keep[-1]] < len(nxt):
                keep.append(nxt[keep[-1]])
            op, close = op[keep], close[keep]
        inside[op + 1] += 1
        inside[close] -= 1
    quoted = np.cumsum(inside, dtype=np.int8).view(bool)
    drop = np.sort(np.concatenate((op, close[close < end], q[quoted[q]][1::2])))
    return ((buf == 44) | (buf == 10) | (buf == 13)) & ~quoted, drop


def _records(buf: np.ndarray, lo: int, hi: int, sep: np.ndarray | None,
             drop: np.ndarray | None):
    """The fields of the records on the lines of ``buf[lo:hi]``, blank
    lines skipped: their starts and sizes in the bytes less ``drop``, and
    each record's count of fields.  Fields end at commas and LFs, or
    where ``sep`` marks them."""
    block = buf[lo:hi + 1]  # with the break or the padding after it
    end_of_field = (block == 44) | (block == 10) if sep is None else sep[lo:hi + 1].copy()
    end_of_field[-1] = True
    stop = np.flatnonzero(end_of_field)
    stop += lo
    start = np.empty_like(stop)
    start[0] = lo
    np.add(stop[:-1], 1, out=start[1:])
    last = np.flatnonzero(buf[stop] != 44)  # each line's last field
    count = np.diff(last, prepend=-1)
    blank = (count == 1) & (stop[last] == start[last])
    if blank.any():
        keep = np.repeat(~blank, count)
        start, stop, count = start[keep], stop[keep], count[~blank]
    if drop is not None:  # less the quotes dropped before each place
        start -= np.searchsorted(drop, start)
        stop -= np.searchsorted(drop, stop)
    return start, stop - start, count


def to_json(m: CompactMatrix) -> str:
    rows = dict(zip(m.labels, _names(m)[m.table].tolist()))
    return json.dumps({"k": m.k, "rows": rows}, indent=2, sort_keys=True) + "\n"


def from_json(text: str) -> CompactMatrix:
    doc = _load_json(text)
    if not isinstance(doc, dict) or "k" not in doc or "rows" not in doc:
        raise ValueError("compact document needs 'k' and 'rows'")
    k = doc["k"]
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ValueError("'k' must be a natural number")
    raw = doc["rows"]
    if not isinstance(raw, dict) or not all(
            isinstance(cells, list)
            and all(x is None or isinstance(x, str) for x in cells)
            for cells in raw.values()):
        raise ValueError("'rows' must map labels to lists of strings or nulls")
    rows = {lab: tuple(cells) for lab, cells in raw.items()}
    return CompactMatrix(k, tuple(sorted(rows)), rows)


def serialize(m: CompactMatrix, fmt: str = "csv") -> str:
    if fmt == "csv":
        return to_csv(m)
    if fmt == "json":
        return to_json(m)
    raise ValueError(f"unknown format {fmt!r}")


def parse_compact(text: str, fmt: str = "csv") -> CompactMatrix:
    if fmt == "csv":
        return from_csv(text)
    if fmt == "json":
        return from_json(text)
    raise ValueError(f"unknown format {fmt!r}")


# ----------------------------------------------------------------- stats

@dataclass(frozen=True)
class CompressionStats:
    n: int
    k: int
    dense_cells: int
    compact_cells: int
    fill_ratio: float


def stats(m: CompactMatrix) -> CompressionStats:
    n = len(m.labels)
    compact_cells = n * m.k
    nonempty = int(np.count_nonzero(m.table >= 0))
    fill = nonempty / compact_cells if compact_cells else 1.0
    return CompressionStats(n=n, k=m.k, dense_cells=n * n,
                            compact_cells=compact_cells, fill_ratio=fill)


def canonical_columns(m: CompactMatrix) -> CompactMatrix:
    """Permute columns into first-use order.

    Scanning rows by label and cells left to right, columns are
    renumbered in order of first occupied appearance; empty columns
    trail in their old order.  Tables that differ only by a color
    permutation canonicalize identically.
    """
    # under a full row, an empty column's first use is row n
    full = np.vstack((m.table >= 0, np.ones((1, m.k), dtype=bool)))
    perm = np.lexsort((np.arange(m.k), full.argmax(axis=0)))
    return CompactMatrix._of(m.k, m.labels, m.table[:, perm], m.foreign)
