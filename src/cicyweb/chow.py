"""Exact arithmetic in the Chow ring of a product of projective spaces.

The Chow ring of V = P^{n_1} x ... x P^{n_k} is the truncated polynomial
ring Z[s_1, ..., s_k] / (s_i^{n_i + 1}), where s_i is the hyperplane class
pulled back from the i-th factor.  A class is stored by its nonzero terms
only: a dict from the packed exponent vector of each monomial to its
nonzero integer coefficient.  Classes met in practice hold a handful of
terms out of the prod(n_i + 1) monomials of the lattice (linear forms k,
products of column classes a few dozen, out of a few hundred cells), so
every operation costs the size of its operands' supports, never of the
lattice.  Every computation is exact; there is no floating point anywhere
in this module.

Key layout.  The exponent e_i of factor i sits in a bit field of
w_i + 1 bits, w_i = n_i.bit_length(), the first factor in the highest
bits, so the integer order of keys is the lexicographic order of the
exponent vectors.  The top bit of each field is an overflow bit, zero in
every stored key.  Two monomials multiply to key i + j, and the product
survives truncation exactly when ``(i + bias + j) & overflow`` is zero,
where ``bias`` holds 2^w_i - 1 - n_i in each field: e_i + f_i + bias_i
reaches the overflow bit exactly when e_i + f_i > n_i, and no field
carries into the next.  The point class s_1^{n_1} * ... * s_k^{n_k} is
the key ``point``, and s^e pairs with s^f to it exactly when
f = point - e (field by field, without borrow).

The operations are +, -, * and ** (truncating), / by a unit (a class with
constant term 1) or by several units in one pass, graded parts,
integration and the intersection pairing ``a.pair(b)``, the integral of
a * b without the product; ``tangent_pairing(a)``, the integral of
a * c(TV), reads c(TV) off the exponents without building it, and
``cubic_power_sum`` writes the cubes of linear classes straight into cells.
"""

from __future__ import annotations

import operator
from bisect import insort
from itertools import combinations_with_replacement, product
from math import comb, factorial
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

#: A multidegree is a plain tuple of integers, one entry per ambient factor.
#: Entries may be negative (duals inside Koszul-type alternating sums).
MultiDegree = tuple[int, ...]

# Why by terms (CPython 3.11.7, shared 2-vCPU machine, medians of three
# best-of-5 timeit runs): on P^4 x P^3 x P^3 x P^2 x P^1, N = 480 cells,
# with D a linear form (5 terms), a dense list of N coefficients took 27 us
# for one * D and 24 us for 1 + D; by terms these took 4 and 3.4 us.
# Nothing is built or cached per factor tuple: an ambient computes its
# fields, bias, overflow and point in O(k) when it is made.
#
# The per-matrix passes build only the cells their pairing reads.  Timed
# the same way on the same ambient, with mu the product of ten seeded
# linear forms (12 terms): divide_by_units(mu, forms) takes 71 us, where
# ten chained divisions, each copying and sorting its quotient, took 100
# us; tangent_pairing reads the quotient's 25 cells in 9 us, where pairing
# it with tangent_chern(V), which fills all N cells, takes 62 us.
# tangent_chern is left to the reference route.


class AmbientSpace:
    """A product of projective spaces P^{n_1} x ... x P^{n_k}.

    Parameters
    ----------
    factors : iterable of int
        The dimensions (n_1, ..., n_k); every n_i must be >= 1 and k >= 1.

    Examples
    --------
    >>> V = AmbientSpace([3, 1])
    >>> V.dim
    4
    >>> V.point_exponent
    (3, 1)
    """

    __slots__ = ("factors", "_fields", "_bias", "_overflow", "_point")

    def __init__(self, factors: Iterable[int]):
        factors = tuple(map(operator.index, factors))
        if not factors:
            raise ValueError("ambient needs at least one projective factor")
        if any(n < 1 for n in factors):
            raise ValueError(f"every factor dimension must be >= 1, got {factors}")
        fields = []
        bias = overflow = shift = 0
        for n in reversed(factors):
            width = n.bit_length()
            fields.append((shift, (1 << width) - 1))
            bias += ((1 << width) - 1 - n) << shift
            overflow |= 1 << (shift + width)
            shift += width + 1
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "_fields", tuple(reversed(fields)))
        object.__setattr__(self, "_bias", bias)
        object.__setattr__(self, "_overflow", overflow)
        object.__setattr__(self, "_point", self._pack(factors))

    def __setattr__(self, name, value):
        raise AttributeError("AmbientSpace is immutable")

    def _pack(self, exp: tuple[int, ...]) -> int:
        """The key of an in-range exponent vector."""
        return sum([e << s for e, (s, _) in zip(exp, self._fields)])

    def _unpack(self, key: int) -> tuple[int, ...]:
        """The exponent vector of a key."""
        return tuple([(key >> s) & mask for s, mask in self._fields])

    @property
    def k(self) -> int:
        """Number of projective factors."""
        return len(self.factors)

    @property
    def dim(self) -> int:
        """Total dimension sum(n_i)."""
        return sum(self.factors)

    @property
    def point_exponent(self) -> tuple[int, ...]:
        """Exponent vector of the point class, (n_1, ..., n_k)."""
        return self.factors

    def exponents(self) -> Iterator[tuple[int, ...]]:
        """Iterate over all exponent vectors of the monomial lattice, in lexicographic order."""
        return product(*(range(n + 1) for n in self.factors))

    def check_degree(self, d: Iterable[int]) -> MultiDegree:
        """Validate a multidegree against this ambient and return it as a tuple."""
        d = tuple(map(operator.index, d))
        if len(d) != self.k:
            raise ValueError(f"multidegree {d} has length {len(d)}, ambient has k={self.k}")
        return d

    def __eq__(self, other) -> bool:
        return isinstance(other, AmbientSpace) and self.factors == other.factors

    def __hash__(self) -> int:
        return hash(("AmbientSpace", self.factors))

    def __repr__(self) -> str:
        return "AmbientSpace(%s)" % (list(self.factors),)

    def __str__(self) -> str:
        return " x ".join(f"P^{n}" for n in self.factors)


class ChowClass:
    """An element of the Chow ring of an :class:`AmbientSpace`.

    Built from a map of exponent vectors (e_1, ..., e_k) to integers; any
    monomial with some e_i > n_i is discarded (s_i^{n_i+1} = 0), and all
    ring operations truncate the same way.  ``terms`` is a read-only map of
    the nonzero coefficients, in lexicographic order of the exponents.

    Instances are immutable; arithmetic returns new objects.
    """

    __slots__ = ("ambient", "_cells")

    def __init__(self, ambient: AmbientSpace, terms: Mapping[tuple[int, ...], int]):
        cells = {}
        for exp, coeff in terms.items():
            coeff = operator.index(coeff)
            if coeff == 0:
                continue
            exp = tuple(map(operator.index, exp))
            if len(exp) != ambient.k or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp} for ambient {ambient}")
            if any(e > n for e, n in zip(exp, ambient.factors)):
                continue  # truncated away by s_i^{n_i+1} = 0
            cells[ambient._pack(exp)] = coeff
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "_cells", cells)

    @classmethod
    def _of(cls, ambient: AmbientSpace, cells: dict[int, int]) -> "ChowClass":
        """Take ownership of a map from keys to nonzero coefficients, unvalidated."""
        self = object.__new__(cls)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "_cells", cells)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("ChowClass is immutable")

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def zero(ambient: AmbientSpace) -> "ChowClass":
        return ChowClass.constant(ambient, 0)

    @staticmethod
    def constant(ambient: AmbientSpace, value: int) -> "ChowClass":
        value = operator.index(value)
        return ChowClass._of(ambient, {0: value} if value else {})

    @staticmethod
    def one(ambient: AmbientSpace) -> "ChowClass":
        return ChowClass.constant(ambient, 1)

    @staticmethod
    def hyperplane(ambient: AmbientSpace, i: int) -> "ChowClass":
        """The hyperplane class s_i of the i-th factor (0-based)."""
        if not 0 <= i < ambient.k:
            raise ValueError(f"factor index {i} out of range for {ambient}")
        d = [0] * ambient.k
        d[i] = 1
        return ChowClass.linear_form(ambient, d)

    @staticmethod
    def linear_form(ambient: AmbientSpace, d: Iterable[int]) -> "ChowClass":
        """The degree-1 class sum_i d_i s_i, i.e. c_1 of the line bundle O(d)."""
        d = ambient.check_degree(d)
        return ChowClass._of(
            ambient, {1 << s: di for di, (s, _) in zip(d, ambient._fields) if di}
        )

    # ------------------------------------------------------------------
    # ring structure

    def _coerce(self, other) -> "ChowClass":
        if isinstance(other, ChowClass):
            if other.ambient is not self.ambient and other.ambient != self.ambient:
                raise ValueError(
                    f"ambient mismatch: {self.ambient} vs {other.ambient}"
                )
            return other
        if isinstance(other, int):
            return ChowClass.constant(self.ambient, other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "ChowClass":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        cells = dict(self._cells)
        for key, c in other._cells.items():
            c += cells.get(key, 0)
            if c:
                cells[key] = c
            else:
                del cells[key]
        return ChowClass._of(self.ambient, cells)

    __radd__ = __add__

    def __neg__(self) -> "ChowClass":
        return ChowClass._of(self.ambient, {key: -c for key, c in self._cells.items()})

    def __sub__(self, other) -> "ChowClass":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "ChowClass":
        return (-self) + other

    def __mul__(self, other) -> "ChowClass":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        bias, overflow = self.ambient._bias, self.ambient._overflow
        right = list(other._cells.items())
        cells: dict[int, int] = {}
        for i, a in self._cells.items():
            room = i + bias
            for j, c in right:
                if not (room + j) & overflow:
                    cells[i + j] = cells.get(i + j, 0) + a * c
        if 0 in cells.values():
            cells = {key: c for key, c in cells.items() if c}
        return ChowClass._of(self.ambient, cells)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ChowClass":
        """Quotient by a unit u, a class with constant term 1.

        The one-unit case of :func:`divide_by_units`; any other divisor
        raises ValueError.
        """
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return divide_by_units(self, [other - 1])

    def __pow__(self, power: int) -> "ChowClass":
        if not isinstance(power, int) or power < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = ChowClass.one(self.ambient)
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base
            power >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = ChowClass.constant(self.ambient, other)
        elif not isinstance(other, ChowClass):
            return NotImplemented
        return self.ambient == other.ambient and self._cells == other._cells

    def __hash__(self) -> int:
        return hash((self.ambient, frozenset(self._cells.items())))

    def __bool__(self) -> bool:
        return bool(self._cells)

    # ------------------------------------------------------------------
    # graded structure

    @property
    def terms(self) -> Mapping[tuple[int, ...], int]:
        """Read-only map from exponent vectors to the nonzero coefficients."""
        unpack, cells = self.ambient._unpack, self._cells
        return MappingProxyType({unpack(key): cells[key] for key in sorted(cells)})

    def graded_part(self, p: int) -> "ChowClass":
        """The homogeneous piece of total degree p."""
        unpack = self.ambient._unpack
        return ChowClass._of(
            self.ambient, {key: c for key, c in self._cells.items() if sum(unpack(key)) == p}
        )

    def constant_term(self) -> int:
        return self._cells.get(0, 0)

    def coefficient(self, exp: Iterable[int]) -> int:
        """The coefficient of s^exp; 0 for an exponent truncated away.

        The exponent vector is validated as by the constructor.
        """
        ambient = self.ambient
        exp = tuple(map(operator.index, exp))
        if len(exp) != ambient.k or any(e < 0 for e in exp):
            raise ValueError(f"bad exponent vector {exp} for ambient {ambient}")
        if any(e > n for e, n in zip(exp, ambient.factors)):
            return 0
        return self._cells.get(ambient._pack(exp), 0)

    def integrate(self) -> int:
        """Integral over the fundamental class: coefficient of the point class."""
        return self._cells.get(self.ambient._point, 0)

    def pair(self, other: "ChowClass") -> int:
        """The intersection pairing: the integral of self * other.

        Only complementary monomials multiply to the point class, so this
        sums a[key] * b[point - key] over the smaller of the two supports;
        no product is built.

        Examples
        --------
        >>> V = AmbientSpace([3, 1])
        >>> h = ChowClass.linear_form(V, (1, 0))
        >>> (h ** 3).pair(ChowClass.linear_form(V, (5, 2)))
        2
        """
        dual = self._coerce(other)
        if dual is NotImplemented:
            raise TypeError(f"cannot pair a ChowClass with {type(other).__name__}")
        small, large = self._cells, dual._cells
        if len(small) > len(large):
            small, large = large, small
        point = self.ambient._point
        return sum([c * large.get(point - key, 0) for key, c in small.items()])

    # ------------------------------------------------------------------
    # rendering

    def __repr__(self) -> str:
        return f"ChowClass({self.ambient!r}, {self.render()!r})"

    def render(self) -> str:
        """Debug rendering with terms in graded-lex order, e.g. ``5*s1^2 + 4*s1*s2``."""
        terms = self.terms
        if not terms:
            return "0"
        pieces = []
        for exp in sorted(terms, key=lambda e: (sum(e), tuple(-x for x in e))):
            coeff = terms[exp]
            factors = []
            for i, e in enumerate(exp):
                if e == 1:
                    factors.append(f"s{i + 1}")
                elif e > 1:
                    factors.append(f"s{i + 1}^{e}")
            if not factors:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(coeff))] + factors)
            sign = "-" if coeff < 0 else "+"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    __str__ = render


# ----------------------------------------------------------------------
# module-level operations


def chern_of_sum(ambient: AmbientSpace, bundles: Iterable[Iterable[int]]) -> ChowClass:
    """Total Chern class of a direct sum of line bundles.

    For line bundles L_j of multidegree d_j, returns
    prod_j (1 + sum_i d_{ji} s_i), truncated; the degree-p graded part
    is c_p of the direct sum.  An empty list gives 1 (the rank-0 bundle).
    """
    total = ChowClass.one(ambient)
    for d in bundles:
        total = total * (ChowClass.one(ambient) + ChowClass.linear_form(ambient, d))
    return total


def cubic_power_sum(ambient: AmbientSpace, bundles: Iterable[Iterable[int]]) -> ChowClass:
    """p3 of TV - E for E = sum_j O(d_j): the sum of the cubes of its Chern roots.

    The roots of TV are the s_i, n_i + 1 times each (Euler sequence), and
    those of E the column classes D_j = c_1(O(d_j)), so
    p3 = sum_i (n_i + 1) s_i^3 - sum_j D_j^3.  Each cube is expanded by the
    multinomial theorem straight into cells, the term d_a d_b d_c s_a s_b s_c
    of a <= b <= c taking 3! over the factorials of its repeated indices,
    so no product of classes is formed.  An exponent of at most 3 fits its
    bit field, so the sum of three unit keys carries into no other field
    and the overflow test of ``*`` drops the monomials past s_i^{n_i}.
    """
    units = [1 << shift for shift, _ in ambient._fields]
    bias, overflow = ambient._bias, ambient._overflow
    cells = {3 * unit: n + 1 for unit, n in zip(units, ambient.factors) if n >= 3}
    for d in bundles:
        terms = [(unit, c) for unit, c in zip(units, ambient.check_degree(d)) if c]
        for (a, x), (b, y), (c, z) in combinations_with_replacement(terms, 3):
            key = a + b + c
            if (key + bias) & overflow:
                continue
            weight = 1 if a == c else 3 if a == b or b == c else 6
            cells[key] = cells.get(key, 0) - weight * x * y * z
    return ChowClass._of(ambient, {key: c for key, c in cells.items() if c})


def divide_by_units(a: ChowClass, nilpotents: Iterable[ChowClass]) -> ChowClass:
    """The quotient a / ((1 + N_1) * ... * (1 + N_m)), each N_j without constant term.

    Each unit 1 + N solves q = a - N * q in one forward pass: every
    monomial that feeds key i + j sits at the smaller key i, so q there is
    final before it is used.  The m passes run over one dict and one key
    list kept sorted across them, so no quotient in between is copied.
    An N_j with a constant term (1 + N_j not a unit) raises ValueError.
    """
    terms = []
    for n in nilpotents:
        n = a._coerce(n)
        if n is NotImplemented:
            raise TypeError("a divisor must be a ChowClass or an int")
        if n.constant_term():
            raise ValueError("division needs a divisor with constant term 1")
        terms.append(list(n._cells.items()))
    bias, overflow = a.ambient._bias, a.ambient._overflow
    q = dict(a._cells)
    order = sorted(q)
    for nilpotent in terms:
        # a key that the pass fills is inserted into the sorted order when
        # it first appears; it lies above the key being read, so the loop
        # reaches it later and the cells filled during the pass are visited
        for i in order:
            qi = q[i]
            if not qi:
                continue
            room = i + bias
            for j, c in nilpotent:
                if not (room + j) & overflow:
                    if i + j in q:
                        q[i + j] -= c * qi
                    else:
                        q[i + j] = -c * qi
                        insort(order, i + j)
    if 0 in q.values():
        q = {key: c for key, c in q.items() if c}
    return ChowClass._of(a.ambient, q)


def segre_inverse(c: ChowClass) -> ChowClass:
    """Multiplicative inverse of a class with constant term 1.

    Computed degree by degree through the Newton-style recursion
    s_p = -sum_{i=1}^{p} c_i * s_{p-i}, which stays inside the truncated
    ring and never needs rational arithmetic.  For c the total Chern class
    of a bundle this is its total Segre class.  It deliberately does not
    use division, so that it can serve as an independent reference for it.
    """
    if c.constant_term() != 1:
        raise ValueError("segre_inverse needs a class with constant term 1")
    ambient = c.ambient
    top = ambient.dim
    c_parts = [c.graded_part(p) for p in range(top + 1)]
    s_parts = [ChowClass.one(ambient)]
    for p in range(1, top + 1):
        acc = ChowClass.zero(ambient)
        for i in range(1, p + 1):
            if c_parts[i]:
                acc = acc + c_parts[i] * s_parts[p - i]
        s_parts.append(-acc)
    total = ChowClass.zero(ambient)
    for part in s_parts:
        total = total + part
    return total


def tangent_chern(ambient: AmbientSpace) -> ChowClass:
    """Total Chern class of the tangent bundle, prod_i (1 + s_i)^{n_i+1}.

    Each factor expands by the Euler sequence on P^{n_i} and is truncated
    at s_i^{n_i}; the factors touch disjoint variables, so every monomial
    of the lattice appears, with the product of the C(n_i + 1, e_i).
    """
    cells = {0: 1}
    for n, (shift, _) in zip(ambient.factors, ambient._fields):
        row = [(e << shift, comb(n + 1, e)) for e in range(n + 1)]
        cells = {key + step: c * r for key, c in cells.items() for step, r in row}
    return ChowClass._of(ambient, cells)


def tangent_pairing(c: ChowClass) -> int:
    """The integral of c * c(TV), read off the cells of c alone.

    c(TV) holds C(n_1 + 1, f_1) * ... * C(n_k + 1, f_k) at every exponent
    vector f (see :func:`tangent_chern`), so this is the sum of
    c[key] times that product at f = point - key; c(TV) is not built.
    """
    ambient = c.ambient
    point = ambient._point
    rows = [
        (shift, mask, [comb(n + 1, f) for f in range(n + 1)])
        for n, (shift, mask) in zip(ambient.factors, ambient._fields)
    ]
    total = 0
    for key, coeff in c._cells.items():
        dual = point - key
        for shift, mask, row in rows:
            coeff *= row[(dual >> shift) & mask]
        total += coeff
    return total


def binomial_poly(a: int, n: int) -> int:
    """The polynomial binomial C(a, n) = a(a-1)...(a-n+1)/n!, any integer a."""
    if n < 0:
        raise ValueError("n must be non-negative")
    num = 1
    for i in range(n):
        num *= a - i
    return num // factorial(n)


def chi_line_bundle(ambient: AmbientSpace, d: Iterable[int]) -> int:
    """Euler characteristic of the line bundle O(d) on the ambient.

    chi(O(d)) = prod_i C(d_i + n_i, n_i) with the polynomial binomial, so
    negative twists (as in Koszul-complex alternating sums) need no case
    split.
    """
    d = ambient.check_degree(d)
    chi = 1
    for di, n in zip(d, ambient.factors):
        chi *= binomial_poly(di + n, n)
    return chi
