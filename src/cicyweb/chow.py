"""Exact arithmetic in the Chow ring of a product of projective spaces.

The Chow ring of V = P^{n_1} x ... x P^{n_k} is the truncated polynomial
ring Z[s_1, ..., s_k] / (s_i^{n_i + 1}), where s_i is the hyperplane class
pulled back from the i-th factor.  A class is stored densely: one Python
integer per monomial of the lattice 0 <= e_i <= n_i, at the mixed-radix
index sum_i e_i * stride_i (last factor fastest).  Sums and graded parts
are one pass over the prod(n_i + 1) cells; products and quotients visit
only the nonzero cells of their operands, found at C speed, so they cost
the size of the support, not of the lattice.  Each layout is built once
per factor tuple and shared by every ambient with those factors.  Every
computation is exact; there is no floating point anywhere in this module.

The operations are +, -, * and ** (truncating), / by a unit (a class with
constant term 1), graded parts, integration and the intersection pairing.
Integration over the fundamental class extracts the coefficient of the
point class s_1^{n_1} * ... * s_k^{n_k}, the last cell of the lattice.
The pairing ``a.pair(b)`` is the integral of a * b without the product:
the monomials s^e and s^{n-e} multiply to the point class, and they sit
at complementary indices i and N - 1 - i of the N-cell lattice.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import compress, product
from math import comb, factorial
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

#: A multidegree is a plain tuple of integers, one entry per ambient factor.
#: Entries may be negative (duals inside Koszul-type alternating sums).
MultiDegree = tuple[int, ...]


class _Lattice:
    """Mixed-radix layout of the monomials of one ambient's Chow ring.

    Monomial e sits at index sum_i e_i * strides[i], last factor fastest
    (the order of :meth:`AmbientSpace.exponents`).  ``packed[i]`` holds the
    exponent vector of cell i in bit fields one bit wider than n_i needs,
    and ``bias`` puts 2^w_i - 1 - n_i in each field (2^w_i > n_i): the
    product of cells i and j survives truncation exactly when
    ``(packed[i] + bias + packed[j]) & overflow`` is zero, and then it sits
    at index i + j, because no exponent of the product exceeds its bound
    and the mixed-radix sum has no carry.

    One layout serves every ambient with the same factors, so ``degrees``
    and ``packed`` are tuples.  The layouts sit in an 8-entry LRU cache;
    :func:`_lattice_for` gives the measurements behind that bound.
    """

    __slots__ = ("strides", "degrees", "packed", "bias", "overflow")

    def __init__(self, factors: tuple[int, ...]):
        strides = []
        degrees, packed = [0], [0]
        bias = overflow = shift = 0
        for n in factors:
            strides = [s * (n + 1) for s in strides] + [1]
            degrees = [d + e for d in degrees for e in range(n + 1)]
            packed = [p + (e << shift) for p in packed for e in range(n + 1)]
            width = n.bit_length()
            bias += ((1 << width) - 1 - n) << shift
            overflow |= 1 << (shift + width)
            shift += width + 1
        self.strides = tuple(strides)
        self.degrees = tuple(degrees)
        self.packed = tuple(packed)
        self.bias = bias
        self.overflow = overflow

    def index(self, exp: tuple[int, ...]) -> int:
        """Mixed-radix index of an in-range exponent vector."""
        return sum(e * s for e, s in zip(exp, self.strides))


@lru_cache(maxsize=8)
def _lattice_for(factors: tuple[int, ...]) -> _Lattice:
    """The shared layout of the ambient with these factors.

    Reuse is temporal: ``analyze`` builds the reduced ambient for the node
    count and then runs the Euler pass of the contraction on the same
    factors, and chain verification re-walks the waypoints the search just
    visited.  One layout per ambient object meant 1451 builds per benchmark
    round on ``sweep`` and 1896 on ``invariants``.  8 entries spare 65% and
    61% of them; 16 spare 68% / 62%, 64 spare 73% / 64% and an unbounded
    cache 80% / 73%.  On ``sweep`` the unbounded cache raised the peak RSS
    from 24.5 to 30.3 MB and 64 entries by 1.3 MB (5%), for no speed-up
    that stood out of the noise; 8 entries hold about 0.2 MB.
    Being a module-level ``lru_cache``, it is emptied with the package's
    other caches.
    """
    return _Lattice(factors)


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

    __slots__ = ("factors",)

    def __init__(self, factors: Iterable[int]):
        factors = tuple(map(operator.index, factors))
        if not factors:
            raise ValueError("ambient needs at least one projective factor")
        if any(n < 1 for n in factors):
            raise ValueError(f"every factor dimension must be >= 1, got {factors}")
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, name, value):
        raise AttributeError("AmbientSpace is immutable")

    def _layout(self) -> _Lattice:
        """The monomial lattice layout, shared by all ambients with these factors."""
        return _lattice_for(self.factors)

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
        """Iterate over all exponent vectors of the monomial lattice, in index order."""
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
    the nonzero coefficients.

    Instances are immutable; arithmetic returns new objects.
    """

    __slots__ = ("ambient", "_coeffs")

    def __init__(self, ambient: AmbientSpace, terms: Mapping[tuple[int, ...], int]):
        lattice = ambient._layout()
        coeffs = [0] * len(lattice.packed)
        for exp, coeff in terms.items():
            coeff = operator.index(coeff)
            if coeff == 0:
                continue
            exp = tuple(map(operator.index, exp))
            if len(exp) != ambient.k or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp} for ambient {ambient}")
            if any(e > n for e, n in zip(exp, ambient.factors)):
                continue  # truncated away by s_i^{n_i+1} = 0
            coeffs[lattice.index(exp)] = coeff
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "_coeffs", coeffs)

    @classmethod
    def _dense(cls, ambient: AmbientSpace, coeffs: list[int]) -> "ChowClass":
        """Take ownership of a full coefficient list in lattice order, unvalidated."""
        self = object.__new__(cls)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "_coeffs", coeffs)
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
        coeffs = [0] * len(ambient._layout().packed)
        coeffs[0] = operator.index(value)
        return ChowClass._dense(ambient, coeffs)

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
        lattice = ambient._layout()
        coeffs = [0] * len(lattice.packed)
        for di, stride in zip(d, lattice.strides):
            coeffs[stride] = di
        return ChowClass._dense(ambient, coeffs)

    # ------------------------------------------------------------------
    # ring structure

    def _coerce(self, other) -> "ChowClass":
        if isinstance(other, ChowClass):
            if other.ambient != self.ambient:
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
        return ChowClass._dense(
            self.ambient, list(map(operator.add, self._coeffs, other._coeffs))
        )

    __radd__ = __add__

    def __neg__(self) -> "ChowClass":
        return ChowClass._dense(self.ambient, list(map(operator.neg, self._coeffs)))

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
        lattice = self.ambient._layout()
        packed, bias, overflow = lattice.packed, lattice.bias, lattice.overflow
        cells = range(len(packed))
        mine, theirs = self._coeffs, other._coeffs
        right = [(j, packed[j], theirs[j]) for j in compress(cells, theirs)]
        out = [0] * len(packed)
        for i in compress(cells, mine):
            a, room = mine[i], packed[i] + bias
            for j, pj, c in right:
                if not (room + pj) & overflow:
                    out[i + j] += a * c
        return ChowClass._dense(self.ambient, out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ChowClass":
        """Quotient by a unit u, a class with constant term 1.

        Solves q = a - (u - 1) * q in one forward pass: every monomial that
        feeds cell i + j sits at a smaller mixed-radix index i, so q there
        is final before it is used.  Any other divisor raises ValueError.
        """
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.constant_term() != 1:
            raise ValueError("division needs a divisor with constant term 1")
        lattice = self.ambient._layout()
        packed, bias, overflow = lattice.packed, lattice.bias, lattice.overflow
        cells = range(len(packed))
        u = other._coeffs
        # u[0] == 1, so cell 0 leads the support; the rest is nilpotent
        nilpotent = [(j, packed[j], u[j]) for j in compress(cells, u)][1:]
        q = list(self._coeffs)
        # compress reads q lazily, one cell at a time: cell i is tested only
        # after every write into it (all from smaller indices) is done, so
        # cells that become nonzero during the pass are visited too
        for i in compress(cells, q):
            qi, room = q[i], packed[i] + bias
            for j, pj, c in nilpotent:
                if not (room + pj) & overflow:
                    q[i + j] -= c * qi
        return ChowClass._dense(self.ambient, q)

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
        return self.ambient == other.ambient and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self.ambient, tuple(self._coeffs)))

    def __bool__(self) -> bool:
        return any(self._coeffs)

    # ------------------------------------------------------------------
    # graded structure

    @property
    def terms(self) -> Mapping[tuple[int, ...], int]:
        """Read-only map from exponent vectors to the nonzero coefficients."""
        return MappingProxyType(
            {e: c for e, c in zip(self.ambient.exponents(), self._coeffs) if c}
        )

    def graded_part(self, p: int) -> "ChowClass":
        """The homogeneous piece of total degree p."""
        degrees = self.ambient._layout().degrees
        return ChowClass._dense(
            self.ambient, [c if d == p else 0 for c, d in zip(self._coeffs, degrees)]
        )

    def constant_term(self) -> int:
        return self._coeffs[0]

    def coefficient(self, exp: Iterable[int]) -> int:
        return self.terms.get(tuple(exp), 0)

    def integrate(self) -> int:
        """Integral over the fundamental class: coefficient of the point class."""
        return self._coeffs[-1]

    def pair(self, other: "ChowClass") -> int:
        """The intersection pairing: the integral of self * other.

        Only complementary cells multiply to the point class, so this is
        sum_i a[i] * b[N - 1 - i]; no product is built.

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
        return sum(map(operator.mul, self._coeffs, reversed(dual._coeffs)))

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
    at s_i^{n_i}; the factors touch disjoint variables, so the coefficient
    list is the mixed-radix product of the rows C(n_i + 1, e).
    """
    coeffs = [1]
    for n in ambient.factors:
        row = [comb(n + 1, e) for e in range(n + 1)]
        coeffs = [c * r for c in coeffs for r in row]
    return ChowClass._dense(ambient, coeffs)


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
