"""Topological invariants of complete-intersection members.

Everything here is exact integer/rational arithmetic in the Chow ring of
the ambient product of projective spaces:

* Euler numbers via Gauss-Bonnet: for a CICY 3-fold, where c1 = 0, one
  pairing of the top Chern class of the defining bundle with the cubic
  power sum of the Chern roots (3 c3 = p3); for every other member the
  division pass (tangent Chern class over the total Chern class of the
  defining bundle, capped with its top Chern class);
* second Betti numbers via the alternating-sum recursion coming from the
  Lefschetz-type exact sequence for the ample divisor sum;
* Hodge pairs (h11, h21) for Calabi-Yau 3-fold members;
* Hilbert polynomials: for a CICY 3-fold from its triple intersection
  numbers (Hirzebruch-Riemann-Roch with c1 = 0), checked against the
  division pass's Euler number and the integrality of chi(O_X(J)); for any
  other member from the Koszul resolution;
* complete-intersection point counts and branched double-cover Euler
  numbers for the composite double-solid bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial
from typing import Iterable, Sequence

from .chow import (
    AmbientSpace,
    ChowClass,
    MultiDegree,
    chern_of_sum,
    chi_line_bundle,
    cubic_power_sum,
    divide_by_units,
    segre_inverse,
    tangent_chern,
    tangent_pairing,
)
from .configuration import ConfigurationMatrix, is_block_diagonal, is_cicy


class InternalConsistencyError(ArithmeticError):
    """An exact identity the code relies on failed (a bug, not bad input).

    Raised when two independent routes to one number disagree (the closed
    ODP formula against the Gauss-Bonnet Euler difference, the intersection
    numbers' Euler number against the Chern-class pass), when an Euler
    number that must be even is odd or a sheaf Euler characteristic
    chi(O_X(J)) comes out non-integral, and when a web-walk invariant (a
    termination measure, the hub end state, a generated matrix) does not
    hold.
    """


# ----------------------------------------------------------------------
# Euler numbers


def _euler_from_columns(
    factors: tuple[int, ...], columns: tuple[MultiDegree, ...]
) -> int:
    """The integral of c_m(E) * c(TV) / c(E), with E = sum_j L_j.

    The route is read off the key: a CICY 3-fold (sum(n_i) - m = 3 and
    every row sum n_i + 1) takes :func:`_euler_by_power_sum`, every other
    input :func:`_euler_by_division`; :func:`euler_number` says why.
    """
    row_sums = tuple(map(sum, zip(*columns)))
    if sum(factors) - len(columns) == 3 and row_sums == tuple(n + 1 for n in factors):
        return _euler_by_power_sum(factors, columns)
    return _euler_by_division(factors, columns)


def _euler_by_division(
    factors: tuple[int, ...], columns: tuple[MultiDegree, ...]
) -> int:
    """Gauss-Bonnet for any member: the integral of c_m(E) * c(TV) / c(E).

    The order of the ring operations is chosen for cost; the ring is
    commutative, so the integral is the Gauss-Bonnet one.  Each column's
    class c_1(L_j) is built once.  Their product c_m(E) is a class of
    degree m, so it is built first: its support is the small set of
    degree-m cells.  Dividing it by the m units 1 + c_1(L_j) is then one
    forward pass per unit over a single dict (:func:`divide_by_units`),
    touching only cells of degree >= m.  Of c(TV) only the cells
    complementary to the quotient's support reach the point class, so the
    pass ends in :func:`tangent_pairing`, which reads those coefficients
    without building c(TV).  The reference route
    (:func:`euler_number_by_definition`) multiplies whole Segre classes.
    """
    ambient = AmbientSpace(factors)
    forms = [ChowClass.linear_form(ambient, col) for col in columns]
    top = ChowClass.one(ambient)
    for form in forms:
        top = top * form
    return tangent_pairing(divide_by_units(top, forms))


def _euler_by_power_sum(
    factors: tuple[int, ...], columns: tuple[MultiDegree, ...]
) -> int:
    """Gauss-Bonnet for a CICY 3-fold: e = (1/3) int_V mu * p3.

    mu = prod_j D_j is c_m(E) and p3 the cubic power sum of the Chern roots
    of TV - E (:func:`cubic_power_sum`); :func:`euler_number` derives
    3 c3 = p3 from c1 = 0.  The pairing must be divisible by 3; if it is
    not, :class:`InternalConsistencyError` is raised.
    """
    ambient = AmbientSpace(factors)
    three_e = _column_product(ambient, columns).pair(cubic_power_sum(ambient, columns))
    if three_e % 3:
        raise InternalConsistencyError(
            f"int mu * p3 = {three_e} is not divisible by 3 for factors {factors}, "
            f"columns {columns}"
        )
    return three_e // 3


def _column_product(ambient: AmbientSpace, columns: Iterable[MultiDegree]) -> ChowClass:
    """prod_j c_1(L_j): the top Chern class c_m(E) of E = sum_j L_j."""
    product = ChowClass.one(ambient)
    for col in columns:
        product = product * ChowClass.linear_form(ambient, col)
    return product


@lru_cache(maxsize=65536)
def _euler_cached(factors: tuple[int, ...], columns: tuple[MultiDegree, ...]) -> int:
    return _euler_from_columns(factors, columns)


def _euler_key(cfg: ConfigurationMatrix) -> tuple[tuple[int, ...], tuple[MultiDegree, ...]]:
    """The arguments of :func:`_euler_cached` for a configuration.

    The rows are sorted together with their factors, then the columns are
    sorted.  The result is a permutation of the matrix, so it has the same
    Euler number, and matrices that differ by a permutation of the rows
    share one key.  It is not a canonical form: a permutation of the
    columns can reorder rows with equal factors, and the copy then takes a
    pass of its own.
    """
    rows = sorted(zip(cfg.factors, cfg.rows))
    factors = tuple([n for n, _ in rows])
    return factors, tuple(sorted(zip(*[row for _, row in rows])))


def euler_number(cfg: ConfigurationMatrix) -> int:
    """Topological Euler number of a general smooth member.

    Gauss-Bonnet: with E the direct sum of the defining line bundles,
    e = int_V { c(TV) * s(E) }_dimension * c_m(E).  Defined for members of
    any dimension >= 1 (the Betti recursion and double-solid bookkeeping
    need surfaces, not only 3-folds).

    Two routes, chosen by the input.  On a CICY 3-fold X (dimension 3,
    every row sum n_i + 1), TX = (TV - E)|_X, whose Chern roots are the
    s_i, n_i + 1 times each, and the column classes D_j, each counted -1.
    Their power sums are p_r = sum_i (n_i + 1) s_i^r - sum_j D_j^r, and
    Newton's identity gives 6 c3 = p1^3 - 3 p1 p2 + 2 p3.  Every row sum is
    n_i + 1, so p1 = sum_i (n_i + 1) s_i - sum_j D_j is the zero class
    (c1 = 0) and 3 c3 = p3; the Chow ring Z[s] / (s_i^(n_i + 1)) is
    torsion-free, so this holds over the integers.  Hence
    e = int_X c3(TX) = (1/3) int_V c_m(E) * p3, one pairing
    (:func:`_euler_by_power_sum`).  Every other member (surfaces, among
    them the dimension-2 pieces of the Betti recursion, K3s such as
    ``3 | 4``, 3-folds with c1 != 0 such as ``4 | 4``, other dimensions)
    takes the division pass (:func:`_euler_by_division`), its only route.

    Examples
    --------
    >>> euler_number(ConfigurationMatrix([4], [[5]]))
    -200
    """
    # Row-permuted variants share one pass; see _euler_key.
    return _euler_cached(*_euler_key(cfg))


def euler_number_by_definition(cfg: ConfigurationMatrix) -> int:
    """Euler number via the public Chow-ring operations, term by term.

    Slower than :func:`euler_number`, and built on :func:`segre_inverse`
    rather than division, so tests use it as an independent reference.
    """
    ambient = cfg.ambient
    columns = cfg.columns()
    total = tangent_chern(ambient) * segre_inverse(chern_of_sum(ambient, columns))
    integrand = total.graded_part(cfg.dimension) * chern_of_sum(
        ambient, columns
    ).graded_part(cfg.m)
    return integrand.integrate()


def ci_point_count(ambient: AmbientSpace, bundles: Sequence[Iterable[int]]) -> int:
    """Number of intersection points of sum(n_i) general divisors.

    The expected dimension must be zero: the number of bundles has to equal
    the ambient dimension.  Returns int prod_j c_1(L_j).

    Examples
    --------
    >>> ci_point_count(AmbientSpace([3]), [(4,), (4,), (4,)])
    64
    """
    bundles = [ambient.check_degree(d) for d in bundles]
    if len(bundles) != ambient.dim:
        raise ValueError(
            f"need {ambient.dim} divisors for a point count on {ambient}, got {len(bundles)}"
        )
    return _column_product(ambient, bundles).integrate()


def double_cover_euler(e_base: int, e_branch: int) -> int:
    """Euler number of a double cover: 2 * e(base) - e(branch divisor)."""
    return 2 * e_base - e_branch


# ----------------------------------------------------------------------
# second Betti number


class BettiBaseCaseError(ValueError):
    """A Betti recursion reached a piece of dimension <= 1 (no rule applies)."""


def betti2(cfg: ConfigurationMatrix) -> int:
    """Second Betti number of a general smooth member.

    For dimension >= 3 the Lefschetz-type exact sequence for the ample
    divisor sum gives the alternating recursion

        b2(X) = (-1)^(m+1) * ( k + sum_{r=1}^{m-1} (-1)^r sum_{|J|=r} b2(D_J) )

    with b2 of the ambient equal to the number k of factors.  Every partial
    intersection D_J splits off the projective factors on which all selected
    columns vanish (each contributes 1 by Kunneth; first Betti numbers all
    vanish), and the complementary complete intersection recurses.  Base
    cases: no columns -> number of factors; dimension 2 -> e - 2 (simply
    connected surface); dimension <= 1 -> error.

    Examples
    --------
    >>> betti2(ConfigurationMatrix([4], [[5]]))
    1
    """
    if is_block_diagonal(cfg):
        raise ValueError("betti2 needs a non-block-diagonal configuration")
    return _betti2_cached(cfg.factors, tuple(sorted(cfg.columns())))


@lru_cache(maxsize=65536)
def _betti2_cached(factors: tuple[int, ...], columns: tuple[MultiDegree, ...]) -> int:
    k, m = len(factors), len(columns)
    dim = sum(factors) - m
    if dim <= 1:
        raise BettiBaseCaseError(
            f"no rule for a piece of dimension {dim} (factors {factors}, {m} columns)"
        )
    if dim == 2:
        return _euler_cached(factors, columns) - 2
    total = k
    sign = 1
    for r in range(1, m):
        sign = -sign
        subtotal = 0
        for subset in combinations(range(m), r):
            subtotal += _betti2_piece(factors, tuple(columns[j] for j in subset))
        total += sign * subtotal
    return total if m % 2 == 1 else -total


def _betti2_piece(factors: tuple[int, ...], columns: tuple[MultiDegree, ...]) -> int:
    """b2 of a partial intersection D_J, splitting off untouched factors."""
    live = [i for i in range(len(factors)) if any(col[i] for col in columns)]
    split_off = len(factors) - len(live)  # each P^{n} factor adds b2 = 1
    if not live:
        return split_off
    sub_factors = tuple(factors[i] for i in live)
    sub_columns = tuple(sorted(tuple(col[i] for i in live) for col in columns))
    return split_off + _betti2_cached(sub_factors, sub_columns)


# ----------------------------------------------------------------------
# Hodge numbers


@dataclass(frozen=True)
class HodgePair:
    """The interesting Hodge numbers of a Calabi-Yau 3-fold member."""

    h11: int
    h21: int

    @property
    def euler(self) -> int:
        return 2 * (self.h11 - self.h21)


def hodge_numbers(cfg: ConfigurationMatrix) -> HodgePair:
    """Hodge pair (h11, h21) of a CICY 3-fold member.

    h11 equals b2 (simply connected Calabi-Yau 3-fold, h20 = 0), and h21
    follows from e = 2 (h11 - h21).
    """
    if not is_cicy(cfg):
        raise ValueError("hodge_numbers needs a CICY 3-fold configuration")
    h11 = betti2(cfg)
    e = euler_number(cfg)
    if e % 2:
        raise InternalConsistencyError(f"odd Euler number {e} for a CICY 3-fold")
    return HodgePair(h11=h11, h21=h11 - e // 2)


# ----------------------------------------------------------------------
# Hilbert polynomials


@dataclass(frozen=True)
class HilbertPolynomial:
    """chi(O_X(l * polarization)) as an exact polynomial in l.

    ``coefficients[p]`` is the exact rational coefficient of l^p, with the
    list running up to the member dimension.
    """

    coefficients: tuple[Fraction, ...]
    polarization: MultiDegree

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, l: int) -> Fraction:
        value = Fraction(0)
        power = Fraction(1)
        for c in self.coefficients:
            value += c * power
            power *= l
        return value

    def value_at(self, l: int) -> int:
        """Evaluate at an integer, checking integrality."""
        value = self(l)
        if value.denominator != 1:
            raise ArithmeticError(f"chi({l}) = {value} is not an integer")
        return int(value)

    def render(self) -> str:
        """Human form, highest power first: ``(5/6)*l^3 + (25/6)*l`` style."""
        pieces = []
        for p in range(self.degree, -1, -1):
            c = self.coefficients[p]
            if c == 0:
                continue
            if p == 0:
                body = str(abs(c))
            else:
                mag = abs(c)
                prefix = "" if mag == 1 else (
                    f"{mag}*" if mag.denominator == 1 else f"({mag})*"
                )
                body = prefix + ("l" if p == 1 else f"l^{p}")
            pieces.append(("-" if c < 0 else "+", body))
        if not pieces:
            return "0"
        sign, body = pieces[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    __str__ = render


def _chi_member(cfg: ConfigurationMatrix, twist: MultiDegree) -> int:
    """chi(O_X(twist)) by the Koszul alternating sum over column subsets."""
    ambient = cfg.ambient
    columns = cfg.columns()
    total = 0
    for r in range(cfg.m + 1):
        sign = -1 if r % 2 else 1
        for subset in combinations(columns, r):
            shifted = tuple(
                t - sum(col[i] for col in subset) for i, t in enumerate(twist)
            )
            total += sign * chi_line_bundle(ambient, shifted)
    return total


def hilbert_polynomial(
    cfg: ConfigurationMatrix, polarization: Iterable[int]
) -> HilbertPolynomial:
    """Exact Hilbert polynomial chi(O_X(l * polarization)) of a member.

    Two routes, chosen by the input:

    * a CICY 3-fold (:func:`is_cicy`: dimension 3, every row sum n_i + 1)
      takes its triple intersection numbers.  Hirzebruch-Riemann-Roch gives
      chi(O_X(lJ)) = J^3 l^3 / 6 + c1 J^2 l^2 / 4 + (c1^2 + c2) J l / 12
      + chi(O_X), and c1 = 0 kills the l^2 term and chi(O_X) = c1 c2 / 24,
      so the polynomial is kappa(J,J,J) l^3 / 6 + (c2 . J) l / 12 exactly.
      The Euler number read off the same intersection numbers must equal
      the Gauss-Bonnet division pass, and chi(O_X(J)) must
      be an integer, or :class:`InternalConsistencyError` is raised.
    * every other member (surfaces, K3s, other dimensions) takes the Koszul
      resolution by the defining bundles, an alternating sum of ambient
      line-bundle Euler characteristics interpolated exactly through
      dim V + 1 sample points; all coefficients above the member dimension
      must cancel (checked).

    Examples
    --------
    >>> hilbert_polynomial(ConfigurationMatrix([4], [[5]]), [1]).render()
    '(5/6)*l^3 + (25/6)*l'
    """
    polarization = cfg.ambient.check_degree(polarization)
    if any(p < 1 for p in polarization):
        raise ValueError(f"polarization must be ample (all entries >= 1), got {polarization}")
    if is_cicy(cfg):
        coeffs = _hilbert_by_intersection(cfg, polarization)
    else:
        coeffs = _hilbert_by_koszul(cfg, polarization)
    return HilbertPolynomial(coefficients=coeffs, polarization=polarization)


def _hilbert_by_koszul(
    cfg: ConfigurationMatrix, polarization: MultiDegree
) -> tuple[Fraction, ...]:
    """Hilbert coefficients of any member through the Koszul resolution."""
    bound = cfg.ambient.dim
    samples = [
        _chi_member(cfg, tuple(l * p for p in polarization)) for l in range(bound + 1)
    ]
    coeffs = _interpolate(samples)
    d = cfg.dimension
    for p in range(d + 1, bound + 1):
        if coeffs[p] != 0:
            raise ArithmeticError(
                f"chi polynomial has unexpected degree-{p} coefficient {coeffs[p]}"
            )
    return tuple(coeffs[: d + 1])


def _hilbert_by_intersection(
    cfg: ConfigurationMatrix, polarization: MultiDegree
) -> tuple[Fraction, ...]:
    """Hilbert coefficients of a CICY 3-fold from its intersection numbers.

    Two exact identities are checked before returning.  The Euler number
    read off mu must equal the division pass (:func:`_euler_by_division`,
    which shares mu but not the power-sum formula; :func:`euler_number`
    takes the power sum for these inputs, so it is not read here), and
    chi(O_X(J)) = (4 kappa(J,J,J) + 2 c2.J) / 24,
    a sheaf Euler characteristic, must be an integer, which ties the two
    returned coefficients together.  A fault in mu itself passes both; the
    tests compare this route with the Koszul sum for that.
    """
    columns = tuple(cfg.columns())
    three_e, two_c2j, jjj = _cy3_numbers(cfg.factors, columns, polarization)
    e = _euler_by_division(cfg.factors, columns)
    if three_e != 3 * e or (4 * jjj + two_c2j) % 24:
        raise InternalConsistencyError(
            f"intersection numbers give 3e = {three_e}, 2 c2.J = {two_c2j} and "
            f"kappa(J,J,J) = {jjj}, Euler number {e}, for:\n{cfg.render()}"
        )
    return (Fraction(0), Fraction(two_c2j, 24), Fraction(0), Fraction(jjj, 6))


def _cy3_numbers(
    factors: tuple[int, ...],
    columns: tuple[MultiDegree, ...],
    polarization: MultiDegree,
) -> tuple[int, int, int]:
    """(3e, 2 c2.J, kappa(J,J,J)) of a CICY 3-fold, J the polarization.

    Each is the pairing of mu = prod_j c1(L_j), a class of codimension 3 in
    the ambient, with a cubic form in the hyperplane classes s_i, so only
    mu's codimension-3 cells (the triple intersection numbers) contribute.
    The Chern roots x of TX = TV - E are the s_i, n_i + 1 times each, and
    the column classes D_j, each counted -1; with c1 = 0 the power sums
    p3 = sum_x x^3 = 3 c3 and p2 = sum_x x^2 = -2 c2 give

        3e      = int mu * sum_x x^3
        2 c2.J  = -int mu * J * sum_x x^2
        J^3     = int mu * J^3 .

    The first is the pairing :func:`_euler_by_power_sum` takes, p3 built by
    :func:`cubic_power_sum`.
    """
    ambient = AmbientSpace(factors)
    mu = _column_product(ambient, columns)
    J = ChowClass.linear_form(ambient, polarization)
    mu_j = mu * J
    roots = [(n + 1, ChowClass.hyperplane(ambient, i)) for i, n in enumerate(factors)]
    roots += [(-1, ChowClass.linear_form(ambient, col)) for col in columns]
    two_c2j = -sum([count * mu_j.pair(x * x) for count, x in roots])
    return mu.pair(cubic_power_sum(ambient, columns)), two_c2j, mu_j.pair(J * J)


def _interpolate(values: Sequence[int]) -> list[Fraction]:
    """Coefficients of the unique polynomial through (0, v0), (1, v1), ...

    Newton forward differences with exact rationals.
    """
    n = len(values)
    diffs = [Fraction(v) for v in values]
    newton = [diffs[0]]
    for order in range(1, n):
        diffs = [diffs[i + 1] - diffs[i] for i in range(len(diffs) - 1)]
        newton.append(diffs[0] / factorial(order))
    # expand sum_j newton[j] * l(l-1)...(l-j+1) into monomial coefficients
    coeffs = [Fraction(0)] * n
    falling = [Fraction(1)]  # coefficients of the rising product, start with 1
    for j in range(n):
        for p, c in enumerate(falling):
            coeffs[p] += newton[j] * c
        # multiply the falling factorial by (l - j) for the next round
        falling = [Fraction(0)] + falling
        for p in range(len(falling) - 1):
            falling[p] -= j * falling[p + 1]
    return coeffs
