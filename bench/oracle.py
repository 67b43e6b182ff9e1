"""Independent intersection-number oracle for CICY 3-folds.

Imports nothing from ``cicyweb``: the benchmark checks the program's
outputs against these values.  A configuration is given as
``(factors, rows)``: the projective dimensions n_1..n_k and the k degree
rows of m columns.  With H_r the hyperplane class of P^{n_r} and D_j the
class of column j, the triple intersection numbers are

    kappa(a, b, c) = int_A a . b . c . prod_j D_j ,

read off a plain truncated polynomial expansion over prod_r P^{n_r}.
For a Calabi-Yau 3-fold member (c1 = 0) they give, with J = sum_r H_r,

    e         = (1/3) [ sum_r (n_r+1) kappa(H_r,H_r,H_r) - sum_j kappa(D_j,D_j,D_j) ]
    c2 . J    = (1/2) [ sum_j kappa(D_j,D_j,J) - sum_r (n_r+1) kappa(H_r,H_r,J) ]
    chi(O(lJ)) = kappa(J,J,J) l^3 / 6 + (c2 . J) l / 12 .

The Euler number is c3 = p3/3 and c2 = -p2/2 from the power sums of the
Chern roots (c1 = 0), and chi follows from Hirzebruch-Riemann-Roch with
chi(O_X) = 0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product

Factors = tuple[int, ...]
Rows = tuple[tuple[int, ...], ...]


class OracleError(ValueError):
    """The configuration is not a CICY 3-fold, so no formula applies."""


def columns_of(rows: Rows) -> tuple[tuple[int, ...], ...]:
    return tuple(zip(*rows)) if rows and rows[0] else ()


def cy3_problems(factors: Factors, rows: Rows) -> list[str]:
    """Why ``(factors, rows)`` is not a normalized CICY 3-fold (empty if it is)."""
    problems = []
    if len(rows) != len(factors) or any(len(row) != len(rows[0]) for row in rows):
        return ["ragged matrix"]
    m = len(rows[0])
    if any(q < 0 for row in rows for q in row):
        problems.append("negative entry")
    if sum(factors) - m != 3:
        problems.append(f"dimension {sum(factors) - m} != 3")
    if any(sum(row) != n + 1 for n, row in zip(factors, rows)):
        problems.append("row sums differ from n + 1")
    if any(sum(col) < 2 for col in columns_of(rows)):
        problems.append("column sum < 2")
    return problems


def is_connected(rows: Rows) -> bool:
    """True when the row/column incidence graph is connected (not block-diagonal)."""
    k, m = len(rows), len(rows[0])
    reached, todo = {("r", 0)}, [("r", 0)]
    while todo:
        kind, index = todo.pop()
        if kind == "r":
            nbrs = [("c", j) for j in range(m) if rows[index][j] > 0]
        else:
            nbrs = [("r", i) for i in range(k) if rows[i][index] > 0]
        for node in nbrs:
            if node not in reached:
                reached.add(node)
                todo.append(node)
    return len(reached) == k + m


def sites(factors: Factors, rows: Rows) -> list[tuple[int, tuple[int, ...]]]:
    """Contraction sites: rows holding exactly n+1 ones and zeros elsewhere."""
    if len(factors) < 2:
        return []
    found = []
    for i, (n, row) in enumerate(zip(factors, rows)):
        ones = tuple(j for j, q in enumerate(row) if q == 1)
        if len(ones) == n + 1 and sum(row) == n + 1:
            found.append((i, ones))
    return found


def contract(factors: Factors, rows: Rows, row: int, ones: tuple[int, ...]) -> tuple[Factors, Rows]:
    """Drop ``row`` and merge its unit columns into one column at ``ones[0]``."""
    if (row, ones) not in sites(factors, rows):
        raise OracleError(f"row {row} with columns {ones} is not a contraction site")
    kept = [i for i in range(len(factors)) if i != row]
    out_rows = []
    for i in kept:
        out = []
        for j, q in enumerate(rows[i]):
            if j == ones[0]:
                out.append(sum(rows[i][c] for c in ones))
            elif j not in ones:
                out.append(q)
        out_rows.append(tuple(out))
    return tuple(factors[i] for i in kept), tuple(out_rows)


def _triple_numbers(factors: Factors, columns: tuple[tuple[int, ...], ...]) -> dict:
    """K[(i, j, l)] = int_A H_i H_j H_l prod_j D_j for i <= j <= l."""
    k = len(factors)
    mu = {(0,) * k: 1}
    for col in columns:
        nxt: dict = {}
        for exp, c in mu.items():
            for i, d in enumerate(col):
                if d and exp[i] < factors[i]:
                    e2 = exp[:i] + (exp[i] + 1,) + exp[i + 1:]
                    nxt[e2] = nxt.get(e2, 0) + c * d
        mu = nxt
    table = {}
    for i in range(k):
        for j in range(i, k):
            for l in range(j, k):
                exp = list(factors)
                for r in (i, j, l):
                    exp[r] -= 1
                table[(i, j, l)] = mu.get(tuple(exp), 0) if min(exp) >= 0 else 0
    return table


def _kappa(table: dict, a, b, c) -> int:
    total = 0
    for i, j, l in product(range(len(a)), repeat=3):
        if a[i] and b[j] and c[l]:
            total += a[i] * b[j] * c[l] * table[tuple(sorted((i, j, l)))]
    return total


@lru_cache(maxsize=16384)
def _invariants(factors: Factors, columns: tuple[tuple[int, ...], ...]) -> tuple[int, int, int]:
    table = _triple_numbers(factors, columns)
    k = len(factors)
    hyper = [tuple(int(r == i) for r in range(k)) for i in range(k)]
    ones = (1,) * k
    three_e = sum((n + 1) * table[(r, r, r)] for r, n in enumerate(factors)) - sum(
        _kappa(table, d, d, d) for d in columns
    )
    two_c2j = sum(_kappa(table, d, d, ones) for d in columns) - sum(
        (n + 1) * _kappa(table, h, h, ones) for n, h in zip(factors, hyper)
    )
    if three_e % 3 or two_c2j % 2:
        raise OracleError(f"non-integral e or c2.J for {factors} {columns}")
    return three_e // 3, _kappa(table, ones, ones, ones), two_c2j // 2


def invariants(factors: Factors, rows: Rows) -> tuple[int, int, int]:
    """(e, kappa(J,J,J), c2.J) with J the sum of the hyperplane classes."""
    factors, rows = tuple(factors), tuple(tuple(row) for row in rows)
    problems = cy3_problems(factors, rows)
    if problems:
        raise OracleError("; ".join(problems))
    return _invariants(factors, tuple(sorted(columns_of(rows))))


def euler(factors: Factors, rows: Rows) -> int:
    return invariants(factors, rows)[0]


def hilbert(factors: Factors, rows: Rows) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Coefficients of chi(O(lJ)) in l^0..l^3, J the all-ones polarization."""
    _, jjj, c2j = invariants(factors, rows)
    return (Fraction(0), Fraction(c2j, 12), Fraction(0), Fraction(jjj, 6))
