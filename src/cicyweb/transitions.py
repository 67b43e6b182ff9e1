"""Determinantal contractions between configuration matrices.

A row of shape [n || 1 ... 1 0 ... 0] (exactly n+1 ones) presents the member
as a family of linear systems over the reduced ambient P; collapsing the
P^n directions contracts the n+1 unit columns into their tensor product.
The contracted member X is determinantal with finitely many ordinary double
points for a general choice, the original member is a small resolution
X-hat -> X, and a general member of the contracted configuration is a
smoothing X-tilde.

The ODP count N comes from the closed Chern-class formula

    N = int_P ( c2(E)^2 - c1(E) c3(E) ) * c_{m-n-1}(F)

with E the n+1 unit-column bundles on P and F the remaining columns, and
is certified against the independent Gauss-Bonnet computation
e(X-hat) - e(X-tilde) = 2N on every call that builds a report.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .chow import AmbientSpace, ChowClass, MultiDegree
from .configuration import ConfigurationMatrix
from .invariants import InternalConsistencyError, euler_number


@dataclass(frozen=True)
class ContractionSite:
    """A contractible row of a configuration matrix.

    ``row`` indexes a row whose entries are exactly n+1 ones (n = ambient
    dimension of that row) and zeros elsewhere; ``one_columns`` lists the
    columns carrying the ones, in increasing order.
    """

    config: ConfigurationMatrix
    row: int
    one_columns: tuple[int, ...]

    @property
    def n(self) -> int:
        """Dimension of the projective factor being collapsed."""
        return self.config.factors[self.row]

    @property
    def reduced_ambient(self) -> AmbientSpace:
        """The ambient P with the contracted factor removed."""
        return AmbientSpace(
            n for i, n in enumerate(self.config.factors) if i != self.row
        )

    def _restrict(self, j: int) -> MultiDegree:
        """Column j as a multidegree on the reduced ambient."""
        return tuple(
            self.config.rows[i][j] for i in range(self.config.k) if i != self.row
        )

    @property
    def collapsing_bundles(self) -> list[MultiDegree]:
        """E: the n+1 unit-column bundles restricted to the reduced ambient."""
        return [self._restrict(j) for j in self.one_columns]

    @property
    def residual_bundles(self) -> list[MultiDegree]:
        """F: the remaining m-n-1 columns restricted to the reduced ambient."""
        return [
            self._restrict(j)
            for j in range(self.config.m)
            if j not in self.one_columns
        ]


@dataclass(frozen=True)
class TransitionReport:
    """Bookkeeping of one determinantal contraction.

    ``euler_resolved`` is e of the small resolution (the split-side member),
    ``euler_smoothed`` is e of a general member of the contracted
    configuration.  Every report is certified: :func:`analyze` raises
    instead of building one unless the closed Chern-class count and the
    Gauss-Bonnet difference agree exactly.
    """

    odp_count: int
    euler_resolved: int
    euler_smoothed: int
    ineffective: bool


def find_contraction_sites(cfg: ConfigurationMatrix) -> list[ContractionSite]:
    """All rows of shape [n || 1...1 0...0] (n+1 ones, rest zero).

    Single-row matrices have no reduced ambient and yield no sites.
    """
    if cfg.k < 2:
        return []
    sites = []
    for i, (n, row) in enumerate(zip(cfg.factors, cfg.rows)):
        ones = tuple(j for j, q in enumerate(row) if q == 1)
        if len(ones) == n + 1 and sum(row) == n + 1:
            sites.append(ContractionSite(config=cfg, row=i, one_columns=ones))
    return sites


def contract(site: ContractionSite) -> ConfigurationMatrix:
    """Collapse the site's projective factor, merging its unit columns.

    The n+1 unit columns are replaced (at the first of their positions) by
    their entrywise sum over the remaining rows; the site row disappears.
    """
    cfg = site.config
    merged = tuple(
        sum(cfg.rows[i][j] for j in site.one_columns)
        for i in range(cfg.k)
        if i != site.row
    )
    target = site.one_columns[0]
    factors = [n for i, n in enumerate(cfg.factors) if i != site.row]
    rows: list[list[int]] = [[] for _ in factors]
    kept = [i for i in range(cfg.k) if i != site.row]
    for j in range(cfg.m):
        if j == target:
            for out_row, value in zip(rows, merged):
                out_row.append(value)
        elif j in site.one_columns:
            continue
        else:
            for out_row, i in zip(rows, kept):
                out_row.append(cfg.rows[i][j])
    return ConfigurationMatrix(factors, rows)


def split(
    cfg: ConfigurationMatrix,
    column: int,
    n: int,
    parts: list[MultiDegree],
) -> ConfigurationMatrix:
    """Replace a column by n+1 parts tensored against a new P^n factor.

    The parts must be non-negative multidegrees summing to the chosen
    column; the new row (appended last) carries a 1 on each of the n+1 new
    columns, which sit where the old column was.  Inverse of
    :func:`contract` up to the layout conventions above.
    """
    column, n = operator.index(column), operator.index(n)
    if not 0 <= column < cfg.m:
        raise ValueError(f"column {column} out of range")
    if n < 1:
        raise ValueError("the new factor needs dimension n >= 1")
    parts = [tuple(map(operator.index, part)) for part in parts]
    if len(parts) != n + 1:
        raise ValueError(f"need n+1 = {n + 1} parts, got {len(parts)}")
    if any(len(part) != cfg.k for part in parts):
        raise ValueError("every part needs one entry per existing row")
    if any(x < 0 for part in parts for x in part):
        raise ValueError("parts must be non-negative")
    col = cfg.column(column)
    sums = tuple(sum(part[i] for part in parts) for i in range(cfg.k))
    if sums != col:
        raise ValueError(f"parts sum to {sums}, column {column} is {col}")
    factors = list(cfg.factors) + [n]
    rows: list[list[int]] = [[] for _ in range(cfg.k + 1)]
    for j in range(cfg.m):
        if j == column:
            for part in parts:
                for i in range(cfg.k):
                    rows[i].append(part[i])
                rows[cfg.k].append(1)
        else:
            for i in range(cfg.k):
                rows[i].append(cfg.rows[i][j])
            rows[cfg.k].append(0)
    return ConfigurationMatrix(factors, rows)


def _low_chern_classes(
    ambient: AmbientSpace, bundles: list[MultiDegree]
) -> tuple[ChowClass, ChowClass, ChowClass]:
    """c1, c2 and c3 of a direct sum of line bundles.

    Adding a summand of first Chern class D multiplies the total Chern
    class by 1 + D, so c3 gains c2 * D, c2 gains c1 * D and c1 gains D;
    no class of degree above 3 is built.
    """
    c1 = c2 = c3 = ChowClass.zero(ambient)
    for d in bundles:
        form = ChowClass.linear_form(ambient, d)
        c3 = c3 + c2 * form
        c2 = c2 + c1 * form
        c1 = c1 + form
    return c1, c2, c3


def odp_count(site: ContractionSite) -> int:
    """Number of ordinary double points of the contracted member.

    int_P ( c2(E)^2 - c1(E) c3(E) ) * c_{rank F}(F), all exact.  F is a sum
    of line bundles, so its top Chern class is the product of their first
    Chern classes c1(F_j); the integral is the pairing of that product
    with the E-part.  The result must be non-negative (a negative value
    signals a bad site).
    """
    P = site.reduced_ambient
    c1, c2, c3 = _low_chern_classes(P, site.collapsing_bundles)
    f_top = ChowClass.one(P)
    for d in site.residual_bundles:
        f_top = f_top * ChowClass.linear_form(P, d)
    value = (c2 * c2 - c1 * c3).pair(f_top)
    if value < 0:
        raise ValueError(f"negative ODP count {value}: not a valid contraction site")
    return value


def analyze(site: ContractionSite) -> TransitionReport:
    """Full transition report for one contraction site.

    Certifies e(X-hat) - e(X-tilde) = 2 * odp_count on every call and raises
    :class:`InternalConsistencyError` if the two computations disagree.
    """
    count = odp_count(site)
    resolved = euler_number(site.config)
    smoothed = euler_number(contract(site))
    if resolved - smoothed != 2 * count:
        raise InternalConsistencyError(
            f"ODP count {count} does not match Euler difference "
            f"{resolved} - {smoothed} for row {site.row + 1} of:\n{site.config.render()}"
        )
    return TransitionReport(
        odp_count=count,
        euler_resolved=resolved,
        euler_smoothed=smoothed,
        ineffective=(count == 0),
    )
