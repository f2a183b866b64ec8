"""Compact closure tables: one row per vertex, one column per color.

Cell ``(u, c)`` holds the unique member of ``D[u]`` colored ``c``, when
a valid down-coloring backs the table.  The full transitive closure is
recoverable from the non-empty cells, at n*k cells instead of n^2.
Building and the AC check share one scatter of the cached down-set rows
into an n-by-k table, by color or by each vertex's own column; its fill
count is the one rainbow check, and the AC verdict compares its rebuild.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .coloring import (Coloring, _check_total, _load_json, _rainbow,
                       find_down_violation)
from .digraph import Digraph
from .errors import ColoringError, ParseError


@dataclass(frozen=True)
class CompactMatrix:
    """k columns; rows keyed and ordered by vertex label."""

    k: int
    labels: tuple[str, ...]
    rows: dict[str, tuple[str | None, ...]]

    def __post_init__(self):
        if set(self.labels) != set(self.rows):
            raise ValueError("row keys must match the label list")
        if tuple(sorted(self.labels)) != self.labels:
            raise ValueError("rows must be ordered by label")
        for lab, cells in self.rows.items():
            if len(cells) != self.k:
                raise ValueError(f"row {lab!r} has {len(cells)} cells, expected {self.k}")


def _scatter(g: Digraph, col: np.ndarray, k: int) -> np.ndarray | None:
    """Row u holds D[u] by ``col``, each id's 0-based column, as an n-by-k
    object array of labels and None; None instead when ``_rainbow`` finds
    a row short: two members of that down-set share a column."""
    cells, short = _rainbow(*g._down_sets(), col, k)
    if short.size:
        return None
    return np.array(g.labels + (None,), dtype=object)[cells]


def build_compact(g: Digraph, c: Coloring) -> CompactMatrix:
    """Lay the closed down-sets out by color; rejects invalid colorings
    with the offending pair and witness ancestor."""
    _check_total(g, c)
    color = np.array([c.colors[lab] for lab in g.labels], dtype=np.int64)
    table = _scatter(g, color - 1, c.k)
    if table is None:
        u, v, w = violation = find_down_violation(g, c)
        raise ColoringError(
            f"not a down-coloring: {u} and {v} share a color inside the "
            f"closed down-set of {w}", witness=violation)
    labels = tuple(sorted(g.labels))
    rows = {lab: tuple(table[g.id_of(lab)].tolist()) for lab in labels}
    return CompactMatrix(c.k, labels, rows)


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

    The verdict rebuilds the table from its own columns, each vertex's
    position in its own row, and compares: clauses 1 and 2 hold exactly
    when the two are equal.  Given both, row u holds each v of D[u] in
    v's column and nothing else, which is the rebuild; given equality, v
    sits only in v's column and row u holds D[u] and nothing else, none
    of it lost to a shared column by the fill count.  The clause scans
    run only on failure, to name a witness.
    """
    if set(m.labels) != set(g.labels):
        return _violated_clause(m, g)
    try:
        col = np.array([m.rows[lab].index(lab) for lab in g.labels],
                       dtype=np.int64)
    except ValueError:  # a vertex missing from its own row
        return _violated_clause(m, g)
    table = _scatter(g, col, m.k)
    if table is not None and all(tuple(table[u].tolist()) == m.rows[lab]
                                 for u, lab in enumerate(g.labels)):
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


# --------------------------------------------------------- serialization

def to_csv(m: CompactMatrix) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["vertex"] + [f"c{i}" for i in range(1, m.k + 1)])
    writer.writerows((lab,) + m.rows[lab] for lab in m.labels)  # None: ""
    return buf.getvalue()


def from_csv(text: str) -> CompactMatrix:
    """Read a table from CSV; a record the reader rejects (say, a field
    over ``csv.field_size_limit()``) raises a ``ParseError`` with its line."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, None)
        if header is None:
            raise ValueError("empty CSV document")
        if not header or header[0] != "vertex":
            raise ValueError("first CSV column must be 'vertex'")
        k = len(header) - 1
        if header[1:] != [f"c{i}" for i in range(1, k + 1)]:
            raise ValueError("CSV columns must be named c1..ck")
        rows: dict[str, tuple[str | None, ...]] = {}
        for rec in reader:
            if not rec:
                continue
            if len(rec) != k + 1:
                raise ValueError(f"row {rec[0]!r} has {len(rec) - 1} cells, expected {k}")
            if rec[0] in rows:
                raise ValueError(f"duplicate row {rec[0]!r}")
            rows[rec[0]] = tuple([x or None for x in rec[1:]])
    except csv.Error as exc:
        raise ParseError(str(exc), reader.line_num) from None
    return CompactMatrix(k, tuple(sorted(rows)), rows)


def to_json(m: CompactMatrix) -> str:
    doc = {"k": m.k, "rows": {lab: list(m.rows[lab]) for lab in m.labels}}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


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
    nonempty = sum(m.k - m.rows[lab].count(None) for lab in m.labels)
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
    first_use = dict.fromkeys(j for lab in m.labels
                              for j, cell in enumerate(m.rows[lab])
                              if cell is not None)
    perm = [*first_use, *(j for j in range(m.k) if j not in first_use)]
    rows = {lab: tuple(m.rows[lab][j] for j in perm) for lab in m.labels}
    return CompactMatrix(m.k, m.labels, rows)
