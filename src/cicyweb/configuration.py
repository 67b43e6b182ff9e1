"""Configuration matrices for complete intersections in products of projective spaces.

A configuration matrix [n || q] records the ambient factors P^{n_i} (one per
row) and the k x m matrix of multidegrees q^i_j of the defining line bundles
(one column per bundle).  Two matrices describe the same configuration when
one is carried to the other by permuting rows and/or degree columns; the
ambient column n_i travels with its row and is never permuted into the
degree columns.

This module provides the data model, the text serialization used by the
CLI, validity/Calabi-Yau checks, block-diagonality, normalization, and an
exact canonical form under row/column permutation.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .chow import AmbientSpace, MultiDegree


class ConfigurationMatrix:
    """A configuration matrix [n || q].

    Parameters
    ----------
    factors : iterable of int
        Ambient dimensions (n_1, ..., n_k), each >= 1.
    rows : iterable of iterables of int
        The k x m degree matrix, row i holding (q^i_1, ..., q^i_m); all
        entries non-negative, m >= 1, and the dimension sum(n_i) - m must
        be >= 1.

    Examples
    --------
    >>> quintic = ConfigurationMatrix([4], [[5]])
    >>> quintic.dimension
    3
    >>> print(quintic.render())
    4 | 5
    """

    __slots__ = ("factors", "rows")

    def __init__(self, factors: Iterable[int], rows: Iterable[Iterable[int]]):
        factors = tuple(map(operator.index, factors))
        rows = tuple(tuple(map(operator.index, row)) for row in rows)
        if not factors or any(n < 1 for n in factors):
            raise ValueError(f"ambient factors must all be >= 1, got {factors}")
        if len(rows) != len(factors):
            raise ValueError(
                f"{len(factors)} ambient factors but {len(rows)} degree rows"
            )
        m = len(rows[0]) if rows else 0
        if m < 1:
            raise ValueError("a configuration matrix needs at least one column")
        if any(len(row) != m for row in rows):
            raise ValueError("ragged degree rows: all rows must share one length")
        if any(q < 0 for row in rows for q in row):
            raise ValueError("degree entries must be non-negative")
        if sum(factors) - m < 1:
            raise ValueError(
                f"dimension {sum(factors) - m} < 1: too many columns for the ambient"
            )
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("ConfigurationMatrix is immutable")

    # ------------------------------------------------------------------
    # basic structure

    @property
    def k(self) -> int:
        """Number of rows (projective factors)."""
        return len(self.factors)

    @property
    def m(self) -> int:
        """Number of degree columns (defining bundles)."""
        return len(self.rows[0])

    @property
    def dimension(self) -> int:
        """Dimension of a generic complete-intersection member, sum(n_i) - m."""
        return sum(self.factors) - self.m

    @property
    def ambient(self) -> AmbientSpace:
        return AmbientSpace(self.factors)

    def column(self, j: int) -> MultiDegree:
        """The j-th multidegree (q^1_j, ..., q^k_j)."""
        return tuple(row[j] for row in self.rows)

    def columns(self) -> list[MultiDegree]:
        return [self.column(j) for j in range(self.m)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConfigurationMatrix):
            return NotImplemented
        return self.factors == other.factors and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.factors, self.rows))

    def __repr__(self) -> str:
        return f"ConfigurationMatrix({list(self.factors)}, {[list(r) for r in self.rows]})"

    # ------------------------------------------------------------------
    # text format

    def render(self) -> str:
        """Serialize in the text matrix format, one ``n_i | q ...`` line per row."""
        lines = []
        for n, row in zip(self.factors, self.rows):
            lines.append(f"{n} | " + " ".join(str(q) for q in row))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


class ParseError(ValueError):
    """A malformed text matrix, with the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_matrix(text: str) -> ConfigurationMatrix:
    """Parse the text matrix format.

    One row per line, ``n_i | q^i_1 q^i_2 ... q^i_m``; ``#`` starts a
    comment and blank lines are ignored.  Round-trips bit-exactly with
    :meth:`ConfigurationMatrix.render`.
    """
    factors: list[int] = []
    rows: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "|" not in line:
            raise ParseError("expected 'n | q1 q2 ...'", lineno)
        left, _, right = line.partition("|")
        try:
            n = int(left.strip())
        except ValueError:
            raise ParseError(f"ambient dimension {left.strip()!r} is not an integer", lineno) from None
        entries = right.split()
        if not entries:
            raise ParseError("row has no degree entries", lineno)
        try:
            row = [int(tok) for tok in entries]
        except ValueError:
            raise ParseError("degree entries must be integers", lineno) from None
        factors.append(n)
        rows.append(row)
    if not rows:
        raise ParseError("no matrix rows found", 1)
    widths = {len(row) for row in rows}
    if len(widths) > 1:
        raise ParseError("ragged rows: every row needs the same number of entries", 1)
    return ConfigurationMatrix(factors, rows)


# ----------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    """Structural and Calabi-Yau flags for a configuration matrix."""

    dimension: int
    entries_nonnegative: bool
    column_sums_ok: bool  # every column sum >= 2 (normalized form)
    cy_condition: bool  # sum_j q^i_j = n_i + 1 for every row
    block_diagonal: bool
    has_forbidden_block: bool  # a [1 || 2] direct factor
    is_cicy: bool  # dimension 3 and the CY condition

    def summary_lines(self) -> list[str]:
        flags = [
            ("dimension", self.dimension),
            ("entries non-negative", self.entries_nonnegative),
            ("column sums >= 2 (normalized)", self.column_sums_ok),
            ("Calabi-Yau row condition", self.cy_condition),
            ("block-diagonal", self.block_diagonal),
            ("[1 | 2] block present", self.has_forbidden_block),
            ("CICY 3-fold", self.is_cicy),
        ]
        return [f"{name}: {value}" for name, value in flags]


def _components(cfg: ConfigurationMatrix) -> list[tuple[set[int], set[int]]]:
    """Connected components of the row/column bipartite incidence graph.

    Returns (row_indices, column_indices) pairs; an edge joins row i and
    column j whenever q^i_j > 0.  Zero columns and zero rows form their own
    singleton components.
    """
    seen_rows: set[int] = set()
    seen_cols: set[int] = set()
    comps = []
    for start in range(cfg.k):
        if start in seen_rows:
            continue
        rows_todo = [start]
        comp_rows: set[int] = set()
        comp_cols: set[int] = set()
        while rows_todo:
            i = rows_todo.pop()
            if i in comp_rows:
                continue
            comp_rows.add(i)
            for j in range(cfg.m):
                if cfg.rows[i][j] > 0 and j not in comp_cols:
                    comp_cols.add(j)
                    for i2 in range(cfg.k):
                        if cfg.rows[i2][j] > 0 and i2 not in comp_rows:
                            rows_todo.append(i2)
        seen_rows |= comp_rows
        seen_cols |= comp_cols
        comps.append((comp_rows, comp_cols))
    for j in range(cfg.m):
        if j not in seen_cols:
            comps.append((set(), {j}))
    return comps


def is_block_diagonal(cfg: ConfigurationMatrix) -> bool:
    """True when the row/column incidence graph is disconnected.

    A disconnected graph means some simultaneous row/column permutation
    exhibits the matrix as a direct product of smaller configurations.
    """
    return len(_components(cfg)) > 1


def is_cicy(cfg: ConfigurationMatrix) -> bool:
    """True when the member is a 3-fold and every row satisfies sum_j q^i_j = n_i + 1."""
    if cfg.dimension != 3:
        return False
    return all(sum(row) == n + 1 for n, row in zip(cfg.factors, cfg.rows))


def validate(cfg: ConfigurationMatrix) -> ValidationReport:
    """Report validity flags; never normalizes or mutates."""
    col_sums = [sum(cfg.rows[i][j] for i in range(cfg.k)) for j in range(cfg.m)]
    components = _components(cfg)
    return ValidationReport(
        dimension=cfg.dimension,
        entries_nonnegative=all(q >= 0 for row in cfg.rows for q in row),
        column_sums_ok=all(s >= 2 for s in col_sums),
        cy_condition=all(sum(row) == n + 1 for n, row in zip(cfg.factors, cfg.rows)),
        block_diagonal=len(components) > 1,
        # a [1 || 2] direct factor: a P^1 row alone with a single 2-column
        has_forbidden_block=any(
            cfg.factors[i] == 1 and cfg.rows[i][j] == 2
            for comp_rows, comp_cols in components
            if len(comp_rows) == len(comp_cols) == 1
            for i in comp_rows
            for j in comp_cols
        ),
        is_cicy=is_cicy(cfg),
    )


def normalize(cfg: ConfigurationMatrix) -> ConfigurationMatrix:
    """Remove hyperplane-section columns until every column sum is >= 2.

    A column whose sum is 1 (a single 1 in row i) is a hyperplane section of
    the factor P^{n_i} only; it is deleted and n_i decremented, removing the
    row entirely when n_i reaches 0.  The member dimension is preserved.
    Already-normalized matrices come back unchanged (the same object).
    Inputs that cannot reach column sums >= 2 this way (a zero column, or
    one stranded by a vanishing factor) are rejected.
    """
    factors = list(cfg.factors)
    rows = [list(r) for r in cfg.rows]
    changed = True
    touched = False
    while changed:
        changed = False
        m = len(rows[0]) if rows else 0
        for j in range(m):
            col = [rows[i][j] for i in range(len(rows))]
            if sum(col) == 1:
                i = col.index(1)
                for row in rows:
                    del row[j]
                factors[i] -= 1
                if factors[i] == 0:
                    del factors[i]
                    del rows[i]
                if not rows or not rows[0]:
                    raise ValueError("normalization annihilated the matrix")
                changed = True
                touched = True
                break
    if any(sum(rows[i][j] for i in range(len(rows))) < 2 for j in range(len(rows[0]))):
        raise ValueError("cannot normalize: a column with sum < 2 remains")
    if not touched:
        return cfg
    return ConfigurationMatrix(factors, rows)


# ----------------------------------------------------------------------
# canonical form under row/column permutation
#
# The canonical form minimizes, over all row permutations, the tuple
# (n_{sigma(1)}, ..., n_{sigma(k)}) ++ row-major degree entries, where for
# each row order the columns are sorted lexicographically as top-down
# vectors (which is optimal for row-major reading).  Key soundness fact:
# sorting columns by the full vector refines sorting by any prefix, so the
# serialized word through the first t chosen rows depends on those rows
# only -- exact prefix comparison during the DFS is therefore a valid
# pruning rule.  Identical candidate rows are interchangeable and explored
# once, and candidates are visited best-word-first so the incumbent is
# optimal almost immediately.


def _canonical_form_tuple(
    factors: tuple[int, ...], rows: tuple[tuple[int, ...], ...]
) -> tuple[
    tuple[int, ...],
    tuple[tuple[int, ...], ...],
    tuple[int, ...],
    tuple[int, ...],
]:
    """Lex-minimal (factors, rows) over simultaneous row/column permutation.

    Also returns the witnessing orders: ``row_order[t]``/``col_order[p]``
    are the input row/column sitting at canonical position t/p.
    """
    k, m = len(rows), len(rows[0])
    best: dict = {"word": None, "rows": None}

    def serialize(chosen: list[int]) -> tuple[int, ...]:
        """Row-major word of the chosen prefix with prefix-sorted columns."""
        cols = sorted(tuple(rows[i][j] for i in chosen) for j in range(m))
        word = []
        for t in range(len(chosen)):
            word.extend(col[t] for col in cols)
        return tuple(word)

    def dfs(chosen: list[int], word: tuple[int, ...], remaining: list[int]) -> None:
        if best["word"] is not None and word > best["word"][: len(word)]:
            return
        if not remaining:
            if best["word"] is None or word < best["word"]:
                best["word"] = word
                best["rows"] = list(chosen)
            return
        next_n = min(factors[i] for i in remaining)
        candidates = []
        seen: set[tuple[int, ...]] = set()
        for i in remaining:
            if factors[i] != next_n or rows[i] in seen:
                continue
            seen.add(rows[i])
            candidates.append((serialize(chosen + [i]), i))
        candidates.sort()
        for next_word, i in candidates:
            dfs(chosen + [i], next_word, [r for r in remaining if r != i])

    dfs([], (), list(range(k)))
    chosen = best["rows"]
    col_order = sorted(range(m), key=lambda j: tuple(rows[i][j] for i in chosen))
    out_factors = tuple(factors[i] for i in chosen)
    out_rows = tuple(tuple(rows[i][j] for j in col_order) for i in chosen)
    return out_factors, out_rows, tuple(chosen), tuple(col_order)


@lru_cache(maxsize=4096)
def _canonical_cached(
    factors: tuple[int, ...], rows: tuple[tuple[int, ...], ...]
) -> tuple[
    tuple[int, ...],
    tuple[tuple[int, ...], ...],
    tuple[int, ...],
    tuple[int, ...],
]:
    return _canonical_form_tuple(factors, rows)


def canonical_form(cfg: ConfigurationMatrix) -> ConfigurationMatrix:
    """The equivalence-class representative: lex-minimal row/column layout."""
    factors, rows, _, _ = _canonical_cached(cfg.factors, cfg.rows)
    return ConfigurationMatrix(factors, rows)


def canonical_key(cfg: ConfigurationMatrix) -> bytes:
    """A total-order key equal for two matrices iff they are equivalent.

    Equivalence means equality after some permutation of rows and/or degree
    columns; the ambient entries n_i always travel with their rows.
    """
    factors, rows, _, _ = _canonical_cached(cfg.factors, cfg.rows)
    payload = ",".join(str(n) for n in factors)
    payload += ";" + ";".join(",".join(str(q) for q in row) for row in rows)
    return payload.encode("ascii")


def layout_map(
    a: ConfigurationMatrix, b: ConfigurationMatrix
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A row/column relabeling carrying ``a`` exactly onto ``b``.

    Returns ``(row_map, col_map)`` with ``b.rows[row_map[i]][col_map[j]] ==
    a.rows[i][j]`` and ``b.factors[row_map[i]] == a.factors[i]`` for all
    i, j; raises :class:`ValueError` when the matrices are not equivalent.
    Both matrices route through the canonical layout, so interchangeable
    (identical) rows or columns get some consistent assignment.
    """
    fa, ra, a_rows, a_cols = _canonical_cached(a.factors, a.rows)
    fb, rb, b_rows, b_cols = _canonical_cached(b.factors, b.rows)
    if (fa, ra) != (fb, rb):
        raise ValueError("matrices are not equivalent: no layout map exists")
    row_map = [0] * a.k
    col_map = [0] * a.m
    for a_index, b_index in zip(a_rows, b_rows):
        row_map[a_index] = b_index
    for a_index, b_index in zip(a_cols, b_cols):
        col_map[a_index] = b_index
    return tuple(row_map), tuple(col_map)


def equivalent(a: ConfigurationMatrix, b: ConfigurationMatrix) -> bool:
    """True when the two matrices differ only by row/column permutation."""
    return canonical_key(a) == canonical_key(b)


#: The terminal configuration of the transition web: four [1 || 2] rows.
C1111 = ConfigurationMatrix([1, 1, 1, 1], [[2], [2], [2], [2]])

#: Canonical key of the hub, precomputed for end-state checks.
C1111_KEY = canonical_key(C1111)
