"""Chow-ring arithmetic on products of projective spaces."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cicyweb.chow import (
    AmbientSpace,
    ChowClass,
    binomial_poly,
    chern_of_sum,
    chi_line_bundle,
    cubic_power_sum,
    divide_by_units,
    segre_inverse,
    tangent_chern,
    tangent_pairing,
)

P4 = AmbientSpace([4])
P3xP1 = AmbientSpace([3, 1])
P1x4 = AmbientSpace([1, 1, 1, 1])


def h(power: int = 1) -> ChowClass:
    return ChowClass(P4, {(power,): 1})


# ----------------------------------------------------------------------
# addition


def test_add_inverse_cancels():
    s = ChowClass.hyperplane(P4, 0)
    assert s + (-s) == ChowClass.zero(P4)
    assert not (s + (-s)).terms


def test_add_identity():
    assert h(2) + ChowClass.zero(P4) == h(2)


def test_add_partial_cancellation():
    a = ChowClass(P3xP1, {(2, 0): 5, (1, 1): 4})
    b = ChowClass(P3xP1, {(1, 1): -4})
    assert a + b == ChowClass(P3xP1, {(2, 0): 5})


def test_add_rejects_ambient_mismatch():
    with pytest.raises(ValueError):
        ChowClass.one(P4) + ChowClass.one(P3xP1)


# ----------------------------------------------------------------------
# multiplication and truncation


def test_mul_truncates_at_top_power():
    assert h(1) * h(4) == ChowClass.zero(P4)


def test_mul_modulo_relations_two_factors():
    c = ChowClass(P3xP1, {(2, 0): 5, (1, 1): 4})
    assert (c * c) == ChowClass(P3xP1, {(3, 1): 40})
    assert (c * c).render() == "40*s1^3*s2"


def test_mul_square_of_4h2():
    assert (4 * h(2)) * (4 * h(2)) == 16 * h(4)


def test_mul_rejects_ambient_mismatch():
    with pytest.raises(ValueError):
        ChowClass.one(P4) * ChowClass.one(P1x4)


def test_truncation_idempotence_every_factor():
    for ambient in (P4, P3xP1, P1x4):
        for i, n in enumerate(ambient.factors):
            top = ChowClass.hyperplane(ambient, i) ** n
            assert top * ChowClass.hyperplane(ambient, i) == ChowClass.zero(ambient)


def test_div_rejects_non_unit_divisor():
    c = ChowClass(P3xP1, {(1, 0): 2, (0, 1): -3, (0, 0): 1})
    for divisor in (ChowClass.hyperplane(P3xP1, 0), 2 + ChowClass.hyperplane(P3xP1, 1), 0):
        with pytest.raises(ValueError):
            c / divisor


def test_div_forward_pass_reads_cells_it_fills():
    # the numerator 1 has one nonzero cell; every other cell of the quotient
    # is filled during the pass and must still be visited by it
    P3 = AmbientSpace([3])
    s = ChowClass.hyperplane(P3, 0)
    assert ChowClass.one(P3) / (1 + s) == 1 - s + s ** 2 - s ** 3
    V = AmbientSpace([2, 1])
    s1, s2 = ChowClass.hyperplane(V, 0), ChowClass.hyperplane(V, 1)
    # sum_m (-(s1 + s2))^m with s1^3 = s2^2 = 0
    expected = {(0, 0): 1, (1, 0): -1, (0, 1): -1, (2, 0): 1, (1, 1): 2, (2, 1): -3}
    assert ChowClass.one(V) / (1 + s1 + s2) == ChowClass(V, expected)


def test_pow_matches_repeated_mul():
    c = ChowClass(P3xP1, {(1, 0): 2, (0, 1): -3, (0, 0): 1})
    assert c ** 3 == c * c * c
    assert c ** 0 == ChowClass.one(P3xP1)


# ----------------------------------------------------------------------
# integration


def test_integrate_point_class_multiples():
    assert (16 * h(4)).integrate() == 16
    assert ChowClass(P3xP1, {(3, 1): 28}).integrate() == 28
    assert ChowClass.zero(P4).integrate() == 0


def test_integrate_vanishes_below_top_degree():
    assert h(3).integrate() == 0
    assert ChowClass(P3xP1, {(3, 0): 7, (0, 1): 5}).integrate() == 0


def test_integrate_is_linear():
    rng = random.Random(20260814)
    for _ in range(100):
        a = _random_class(rng, P3xP1)
        b = _random_class(rng, P3xP1)
        x, y = rng.randint(-9, 9), rng.randint(-9, 9)
        assert (x * a + y * b).integrate() == x * a.integrate() + y * b.integrate()


# ----------------------------------------------------------------------
# Chern classes of direct sums


def test_chern_of_sum_collapsing_bundle():
    c = chern_of_sum(P3xP1, [(1, 0), (1, 0), (2, 2)])
    assert c == ChowClass(
        P3xP1,
        {(0, 0): 1, (1, 0): 4, (0, 1): 2, (2, 0): 5, (1, 1): 4, (3, 0): 2, (2, 1): 2},
    )
    assert c.graded_part(1).render() == "4*s1 + 2*s2"
    assert c.graded_part(2).render() == "5*s1^2 + 4*s1*s2"
    assert c.graded_part(3).render() == "2*s1^3 + 2*s1^2*s2"


def test_chern_of_sum_empty_is_one():
    assert chern_of_sum(P4, []) == ChowClass.one(P4)


def test_chern_of_sum_quintic_pair():
    assert chern_of_sum(P4, [(4,), (1,)]) == ChowClass(
        P4, {(0,): 1, (1,): 5, (2,): 4}
    )


# ----------------------------------------------------------------------
# Segre inverses


def test_segre_inverse_of_one():
    assert segre_inverse(ChowClass.one(P4)) == ChowClass.one(P4)


def test_segre_inverse_geometric_series():
    c = ChowClass(P4, {(0,): 1, (1,): 5})
    assert segre_inverse(c) == ChowClass(
        P4, {(0,): 1, (1,): -5, (2,): 25, (3,): -125, (4,): 625}
    )


def test_segre_inverse_requires_unit_constant():
    with pytest.raises(ValueError):
        segre_inverse(h(1))
    with pytest.raises(ValueError):
        segre_inverse(2 * ChowClass.one(P4))


def test_segre_inverse_seeded_sweep():
    rng = random.Random(1111)
    for ambient in (P4, P3xP1, P1x4, AmbientSpace([2, 2])):
        one = ChowClass.one(ambient)
        for _ in range(50):
            c = one + _random_class(rng, ambient, constant=0)
            assert c * segre_inverse(c) == one


# ----------------------------------------------------------------------
# tangent Chern classes


def test_tangent_chern_p1():
    P1 = AmbientSpace([1])
    assert tangent_chern(P1) == ChowClass(P1, {(0,): 1, (1,): 2})


def test_tangent_chern_p4():
    assert tangent_chern(P4) == ChowClass(
        P4, {(0,): 1, (1,): 5, (2,): 10, (3,): 10, (4,): 5}
    )


def test_tangent_chern_p1_fourth_power():
    expected = ChowClass.one(P1x4)
    for i in range(4):
        expected = expected * ChowClass(
            P1x4, {tuple(0 for _ in range(4)): 1, tuple(1 if j == i else 0 for j in range(4)): 2}
        )
    assert tangent_chern(P1x4) == expected


def test_tangent_chern_matches_ring_product_seeded_sweep():
    rng = random.Random(4417)
    for _ in range(40):
        ambient = AmbientSpace([rng.randint(1, 4) for _ in range(rng.randint(1, 4))])
        expected = ChowClass.one(ambient)
        for i, n in enumerate(ambient.factors):
            expected = expected * (1 + ChowClass.hyperplane(ambient, i)) ** (n + 1)
        assert tangent_chern(ambient) == expected, ambient


# ----------------------------------------------------------------------
# line-bundle Euler characteristics


def test_chi_line_bundle_small_twists():
    assert chi_line_bundle(P4, (0,)) == 1
    assert chi_line_bundle(P4, (-1,)) == 0
    assert chi_line_bundle(P4, (-5,)) == 1
    assert chi_line_bundle(P4, (2,)) == 15


def test_chi_line_bundle_trivial_on_any_ambient():
    for ambient in (P4, P3xP1, P1x4, AmbientSpace([2, 3, 1])):
        assert chi_line_bundle(ambient, tuple(0 for _ in ambient.factors)) == 1


def test_chi_line_bundle_kunneth_product():
    rng = random.Random(5)
    for _ in range(100):
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        da, db = rng.randint(-6, 6), rng.randint(-6, 6)
        combined = chi_line_bundle(AmbientSpace([a, b]), (da, db))
        assert combined == chi_line_bundle(AmbientSpace([a]), (da,)) * chi_line_bundle(
            AmbientSpace([b]), (db,)
        )


def test_binomial_poly_negative_arguments():
    assert binomial_poly(-1, 4) == 1
    assert binomial_poly(3, 4) == 0
    assert binomial_poly(-5, 3) == -35
    assert binomial_poly(7, 0) == 1


# ----------------------------------------------------------------------
# ring axioms


def _random_class(rng: random.Random, ambient: AmbientSpace, constant=None) -> ChowClass:
    terms = {}
    exps = list(ambient.exponents())
    for _ in range(rng.randint(0, 4)):
        exp = rng.choice(exps)
        terms[exp] = rng.randint(-20, 20)
    if constant is not None:
        terms[tuple(0 for _ in ambient.factors)] = constant
    return ChowClass(ambient, terms)


def test_ring_axioms_seeded_sweep():
    rng = random.Random(99)
    for ambient in (P4, P3xP1, AmbientSpace([2, 2]), P1x4):
        one = ChowClass.one(ambient)
        zero = ChowClass.zero(ambient)
        for _ in range(250):
            a = _random_class(rng, ambient)
            b = _random_class(rng, ambient)
            c = _random_class(rng, ambient)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * one == a
            assert a * zero == zero


def _dict_product(a: ChowClass, b: ChowClass) -> ChowClass:
    """Truncated product over exponent-vector maps: a reference for ``*``."""
    bound = a.ambient.factors
    out: dict = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if all(x <= n for x, n in zip(e, bound)):
                out[e] = out.get(e, 0) + ca * cb
    return ChowClass(a.ambient, out)


def test_mul_and_div_match_dict_product_seeded_sweep():
    # mixed radices up to k = 4, n_i = 4: field widths of 1 to 3 bits, with
    # and without bias, so every overflow bit of the packed test is exercised
    rng = random.Random(7)
    ambients = [AmbientSpace([4, 1, 3, 2]), AmbientSpace([1, 4]), AmbientSpace([2, 2, 2])]
    for _ in range(30):
        ambients.append(AmbientSpace([rng.randint(1, 4) for _ in range(rng.randint(1, 4))]))

    def random_terms(exps, count):
        return {rng.choice(exps): rng.randint(-9, 9) for _ in range(count)}

    for ambient in ambients:
        exps = list(ambient.exponents())
        for _ in range(6):
            a = ChowClass(ambient, random_terms(exps, 8))
            b = ChowClass(ambient, random_terms(exps, 8))
            u = ChowClass(ambient, {**random_terms(exps, 5), (0,) * ambient.k: 1})
            assert a * b == _dict_product(a, b)
            assert a.pair(b) == _dict_product(a, b).integrate()
            assert _dict_product(a / u, u) == a
            assert (a / u) * u == a


_exponents = st.tuples(st.integers(0, 3), st.integers(0, 1))
_classes = st.builds(
    lambda terms: ChowClass(P3xP1, terms),
    st.dictionaries(_exponents, st.integers(-10 ** 9, 10 ** 9), max_size=5),
)


@given(_classes, _classes, _classes)
def test_ring_axioms_hypothesis(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60)
@given(st.dictionaries(_exponents, st.integers(-50, 50), max_size=4))
def test_segre_identity_hypothesis(terms):
    terms = dict(terms)
    terms[(0, 0)] = 1
    c = ChowClass(P3xP1, terms)
    assert c * segre_inverse(c) == ChowClass.one(P3xP1)


_units = st.builds(
    lambda terms: ChowClass(P3xP1, {**terms, (0, 0): 1}),
    st.dictionaries(_exponents.filter(any), st.integers(-50, 50), max_size=4),
)


@settings(max_examples=60)
@given(_classes, _units)
def test_div_inverts_mul_by_units(a, u):
    assert (a / u) * u == a
    assert a / u == a * segre_inverse(u)


@given(_classes, _classes)
def test_pair_is_integral_of_product(a, b):
    assert a.pair(b) == (a * b).integrate()
    assert a.pair(b) == b.pair(a)


def test_pair_rejects_ambient_mismatch():
    with pytest.raises(ValueError):
        ChowClass.one(P4).pair(ChowClass.one(P3xP1))


@given(_classes)
def test_terms_round_trip_and_read_only(c):
    assert ChowClass(P3xP1, c.terms) == c
    with pytest.raises(TypeError):
        c.terms[(0, 0)] = 1


def test_big_integer_coefficients_survive():
    c = ChowClass(P4, {(0,): 1, (1,): 10 ** 30})
    s = segre_inverse(c)
    assert s.coefficient((4,)) == 10 ** 120
    assert c * s == ChowClass.one(P4)


def test_rejects_non_integral_numbers():
    # truncation would read each of these as a valid input
    P3 = AmbientSpace([3])
    with pytest.raises(TypeError):
        AmbientSpace([3.5])
    with pytest.raises(TypeError):
        P3.check_degree([1.9])
    with pytest.raises(TypeError):
        ChowClass(P3, {(1,): 2.7})
    with pytest.raises(TypeError):
        ChowClass(P3, {(1.0,): 2})
    with pytest.raises(TypeError):
        ChowClass.constant(P3, 0.5)


# ----------------------------------------------------------------------
# storage by nonzero terms


def _seeded_classes(rng: random.Random, ambient: AmbientSpace, count: int) -> list:
    exps = list(ambient.exponents())
    return [
        ChowClass(ambient, {rng.choice(exps): rng.randint(-3, 3) for _ in range(6)})
        for _ in range(count)
    ]


def test_equal_classes_from_different_routes_are_hash_equal():
    rng = random.Random(31)
    for factors in ([4, 1, 3, 2], [1, 4], [2, 2, 2], [3]):
        ambient = AmbientSpace(factors)
        one = ChowClass.one(ambient)
        for _ in range(20):
            a, b = _seeded_classes(rng, ambient, 2)
            u = one + b - b.constant_term()
            for other in (
                (a / u) * u,
                a * u / u,
                ChowClass(ambient, dict(reversed(a.terms.items()))),
                (a + b) - b,
            ):
                assert other == a
                assert hash(other) == hash(a)
        s = ChowClass.hyperplane(ambient, 0)
        assert hash(s - s) == hash(ChowClass.zero(ambient))


def test_terms_hold_no_zero_and_iterate_in_lexicographic_order():
    rng = random.Random(12)
    for factors in ([4, 1, 3, 2], [1, 4], [2, 2, 2], [3], [1, 1, 1, 1]):
        ambient = AmbientSpace(factors)
        one = ChowClass.one(ambient)
        for _ in range(20):
            a, b = _seeded_classes(rng, ambient, 2)
            # half of a's terms negated into b, so that the sum cancels them
            b = b + ChowClass(ambient, {e: -c for e, c in list(a.terms.items())[::2]})
            u = one + b - b.constant_term()
            results = (
                a, a + b, a - a, -a, a * b, a / u, a * u, u ** 3,
                a.graded_part(2), tangent_chern(ambient) - one, segre_inverse(u),
            )
            for c in results:
                exps = list(c.terms)
                assert exps == sorted(exps)
                assert 0 not in c.terms.values()
        s = ChowClass.hyperplane(ambient, 0)
        assert (1 + s) * (1 - s) == 1 - s ** 2  # the s terms cancel


def test_coefficient_validates_the_exponent_like_the_constructor():
    c = ChowClass(P3xP1, {(1, 0): 2, (3, 1): -7})
    assert c.coefficient((1, 0)) == 2
    assert c.coefficient([3, 1]) == -7
    assert c.coefficient((2, 1)) == 0
    # in range for the ambient's length but truncated away: 0, as the
    # constructor drops such a monomial
    assert c.coefficient((4, 0)) == 0
    assert c.coefficient((0, 2)) == 0
    for bad in ((1,), (1, 0, 0), (-1, 0), (0, -2)):
        with pytest.raises(ValueError):
            ChowClass(P3xP1, {bad: 1})
        with pytest.raises(ValueError):
            c.coefficient(bad)
    with pytest.raises(TypeError):
        c.coefficient((1.0, 0))


# ----------------------------------------------------------------------
# one-pass division by several units, and the pairing with c(TV)


def _seeded_ambients(rng: random.Random) -> list:
    # n_i = 4 gives a 3-bit field with bias 3, n_i = 3 a full 2-bit field
    ambients = [AmbientSpace([4, 1, 3, 2]), AmbientSpace([4, 4]), AmbientSpace([1, 4, 2]), P4]
    for _ in range(12):
        ambients.append(AmbientSpace([rng.randint(1, 4) for _ in range(rng.randint(1, 4))]))
    return ambients


def test_divide_by_units_matches_chained_division_and_segre_inverse():
    rng = random.Random(23)
    for ambient in _seeded_ambients(rng):
        exps = list(ambient.exponents())
        one = ChowClass.one(ambient)
        for _ in range(6):
            a = ChowClass(ambient, {rng.choice(exps): rng.randint(-9, 9) for _ in range(6)})
            nilpotents = [
                ChowClass(ambient, {rng.choice(exps[1:]): rng.randint(-4, 4) for _ in range(3)})
                for _ in range(rng.randint(1, 4))
            ]
            if rng.random() < 0.5:
                nilpotents.append(-nilpotents[0])  # (1 + N)(1 - N) = 1 - N^2
            chained = a
            unit_product = one
            for n in nilpotents:
                chained = chained / (1 + n)
                unit_product = unit_product * (1 + n)
            q = divide_by_units(a, nilpotents)
            assert q == chained
            assert q == a * segre_inverse(unit_product)
            assert 0 not in q.terms.values()
            # forced cancellation: the numerator is a multiple of every
            # unit, so most cells the pass fills must cancel back to zero
            assert divide_by_units(a * unit_product, nilpotents) == a
        assert divide_by_units(one, []) == one


def test_divide_by_units_rejects_a_constant_term():
    s = ChowClass.hyperplane(P3xP1, 0)
    with pytest.raises(ValueError):
        divide_by_units(ChowClass.one(P3xP1), [s, 1 + s])
    with pytest.raises(ValueError):
        divide_by_units(ChowClass.one(P3xP1), [ChowClass.hyperplane(P4, 0)])
    with pytest.raises(TypeError):
        divide_by_units(ChowClass.one(P3xP1), [0.5])


def test_tangent_pairing_matches_pair_with_tangent_chern():
    rng = random.Random(29)
    for ambient in _seeded_ambients(rng):
        exps = list(ambient.exponents())
        tangent = tangent_chern(ambient)
        one = ChowClass.one(ambient)
        # e(V) = prod_i (n_i + 1)
        euler = 1
        for n in ambient.factors:
            euler *= n + 1
        assert tangent_pairing(one) == euler
        for _ in range(8):
            a = ChowClass(ambient, {rng.choice(exps): rng.randint(-9, 9) for _ in range(8)})
            b = a + ChowClass(ambient, {e: -c for e, c in list(a.terms.items())[::2]})
            for c in (a, b, a - a, a * a):
                assert tangent_pairing(c) == c.pair(tangent)


def test_cubic_power_sum_matches_cubes_of_classes():
    rng = random.Random(31)
    for ambient in _seeded_ambients(rng):
        for _ in range(6):
            bundles = [
                tuple(rng.randint(-3, 4) for _ in ambient.factors) for _ in range(rng.randint(0, 5))
            ]
            expected = ChowClass.zero(ambient)
            for i, n in enumerate(ambient.factors):
                expected = expected + (n + 1) * ChowClass.hyperplane(ambient, i) ** 3
            for d in bundles:
                expected = expected - ChowClass.linear_form(ambient, d) ** 3
            got = cubic_power_sum(ambient, bundles)
            assert got == expected
            assert 0 not in got.terms.values()


def test_cubic_power_sum_of_the_quintic():
    # p3 = 5 H^3 - (5H)^3 = -120 H^3, so int 5H * p3 = -600 = 3 e
    p3 = cubic_power_sum(P4, [(5,)])
    assert p3 == -120 * h(3)
    assert ChowClass.linear_form(P4, (5,)).pair(p3) == 3 * -200
    with pytest.raises(ValueError):
        cubic_power_sum(P4, [(1, 1)])
