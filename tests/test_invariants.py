"""Euler numbers, Betti numbers, Hodge pairs, Hilbert polynomials."""

import random
from fractions import Fraction

import pytest

from cicyweb.catalog import (
    BETTI_EXAMPLE,
    BETTI_SURFACE,
    DOUBLE_SOLID_RESOLVED,
    MIXED_CONTRACTION_EXAMPLE,
    OCTIC_SURFACE,
    QUINTIC,
    QUINTIC_SPLIT,
    SCHOEN_CONTRACTED,
    SCHOEN_RESOLVED,
)
from cicyweb import invariants
from cicyweb.chow import AmbientSpace, ChowClass
from cicyweb.configuration import C1111, ConfigurationMatrix, is_cicy
from cicyweb.invariants import (
    BettiBaseCaseError,
    HodgePair,
    InternalConsistencyError,
    betti2,
    ci_point_count,
    double_cover_euler,
    euler_number,
    euler_number_by_definition,
    hilbert_polynomial,
    hodge_numbers,
)
from cicyweb.transitions import analyze, contract, find_contraction_sites
from cicyweb.web import random_cicy


def _shuffled(cfg: ConfigurationMatrix, rng: random.Random) -> ConfigurationMatrix:
    row_order = list(range(cfg.k))
    col_order = list(range(cfg.m))
    rng.shuffle(row_order)
    rng.shuffle(col_order)
    return ConfigurationMatrix(
        [cfg.factors[i] for i in row_order],
        [[cfg.rows[i][j] for j in col_order] for i in row_order],
    )


# ----------------------------------------------------------------------
# Euler numbers


def test_euler_pinned_threefolds():
    assert euler_number(QUINTIC) == -200
    assert euler_number(QUINTIC_SPLIT) == -168
    assert euler_number(C1111) == -128
    assert euler_number(MIXED_CONTRACTION_EXAMPLE) == -112
    assert euler_number(DOUBLE_SOLID_RESOLVED) == -168
    assert euler_number(BETTI_EXAMPLE) == -72
    assert euler_number(SCHOEN_RESOLVED) == 0
    assert euler_number(SCHOEN_CONTRACTED) == -162


def test_euler_pinned_surfaces():
    assert euler_number(OCTIC_SURFACE) == 304
    assert euler_number(BETTI_SURFACE) == 6
    assert euler_number(ConfigurationMatrix([3], [[4]])) == 24  # quartic K3
    assert euler_number(ConfigurationMatrix([5], [[2, 2, 2]])) == 24  # (2,2,2) K3


def test_euler_c1111_by_hand_expansion():
    # int over (P^1)^4 of {prod (1+s_i)^2 / (1+t)}_3 * t with t = 2*sum(s_i):
    # the quartic term of prod(1+s_i)^2 * (t - t^2 + t^3 - t^4) integrates to
    # 64 - 192 + 384 - 384 = -128
    assert 64 - 192 + 384 - 384 == -128
    assert euler_number(C1111) == -128


def test_euler_matches_definition():
    for cfg in (
        QUINTIC,
        QUINTIC_SPLIT,
        C1111,
        MIXED_CONTRACTION_EXAMPLE,
        OCTIC_SURFACE,
        BETTI_SURFACE,
        SCHOEN_RESOLVED,
        BETTI_EXAMPLE,
        *(random_cicy(seed, 6, 8) for seed in range(20)),
    ):
        assert euler_number(cfg) == euler_number_by_definition(cfg)


def test_euler_permutation_invariance():
    rng = random.Random(11)
    for cfg in (QUINTIC_SPLIT, MIXED_CONTRACTION_EXAMPLE, BETTI_EXAMPLE):
        e = euler_number(cfg)
        for _ in range(30):
            assert euler_number(_shuffled(cfg, rng)) == e


def test_euler_key_shares_one_pass_across_row_permutations():
    rng = random.Random(13)
    for s in range(30):
        cfg = random_cicy(s, 7, 9)
        invariants._euler_cached.cache_clear()
        e = euler_number(cfg)
        for _ in range(5):
            order = list(range(cfg.k))
            rng.shuffle(order)
            copy = ConfigurationMatrix(
                [cfg.factors[i] for i in order], [cfg.rows[i] for i in order]
            )
            assert euler_number(copy) == e
            hilbert_polynomial(copy, [i + 1 for i in range(cfg.k)])  # its Euler check hits
        assert invariants._euler_cached.cache_info().currsize == 1
        # the key is not a canonical form: a copy with its columns shuffled
        # too may take a pass of its own, but it has the same number
        for _ in range(3):
            assert euler_number(_shuffled(cfg, rng)) == e
    invariants._euler_cached.cache_clear()


def test_euler_multiplies_over_blocks():
    k3_pair = ConfigurationMatrix([3, 3], [[4, 0], [0, 4]])
    assert euler_number(k3_pair) == 24 * 24 == 576
    k3_times_curve = ConfigurationMatrix([3, 2], [[4, 0], [0, 3]])
    assert euler_number(k3_times_curve) == 24 * 0 == 0


def test_euler_nonpositive_on_cicy_corpus():
    for cfg in (
        QUINTIC,
        QUINTIC_SPLIT,
        C1111,
        MIXED_CONTRACTION_EXAMPLE,
        DOUBLE_SOLID_RESOLVED,
        BETTI_EXAMPLE,
        SCHOEN_RESOLVED,
        SCHOEN_CONTRACTED,
    ):
        assert euler_number(cfg) <= 0


@pytest.fixture
def cold_euler():
    """Empty the Euler and Betti caches around a test that patches a route."""
    invariants._euler_cached.cache_clear()
    invariants._betti2_cached.cache_clear()
    yield
    invariants._euler_cached.cache_clear()
    invariants._betti2_cached.cache_clear()


def _count_calls(monkeypatch, name):
    """Wrap ``invariants.<name>`` so that each call is counted."""
    calls = []
    original = getattr(invariants, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(invariants, name, counted)
    return calls


def test_power_sum_route_matches_division_and_definition():
    # every input is a CICY 3-fold; the definition (Segre classes of the
    # whole lattice, about 20 ms each) runs on one seed in ten
    for s in range(100):
        cfg = random_cicy(s, 7, 9)
        for member in [cfg] + [contract(site) for site in find_contraction_sites(cfg)]:
            assert is_cicy(member)
            key = invariants._euler_key(member)
            e = invariants._euler_by_power_sum(*key)
            assert e == invariants._euler_by_division(*key) == euler_number(member)
            if s % 10 == 0:
                assert e == euler_number_by_definition(member)


def test_cy3_euler_makes_no_division(monkeypatch, cold_euler):
    divisions = _count_calls(monkeypatch, "divide_by_units")
    for cfg in (QUINTIC, QUINTIC_SPLIT, C1111, SCHOEN_RESOLVED, *map(random_cicy, range(10))):
        euler_number(cfg)
    assert divisions == []
    euler_number(OCTIC_SURFACE)
    assert len(divisions) == 1


@pytest.mark.parametrize(
    "cfg, e",
    [
        (ConfigurationMatrix([3], [[4]]), 24),  # quartic K3
        (ConfigurationMatrix([4], [[4]]), -56),  # quartic 3-fold, c1 = H
        (ConfigurationMatrix([2, 3], [[1, 1], [4, 0]]), -60),  # 3-fold, c1 = s_1
        (OCTIC_SURFACE, 304),
    ],
    ids=["3|4", "4|4", "2|1 1/3|4 0", "3|8"],
)
def test_non_cy3_inputs_take_the_division_pass(monkeypatch, cold_euler, cfg, e):
    divisions = _count_calls(monkeypatch, "divide_by_units")
    power_sums = _count_calls(monkeypatch, "_euler_by_power_sum")
    assert euler_number(cfg) == euler_number_by_definition(cfg) == e
    assert len(divisions) == 1 and power_sums == []


def test_betti_surface_pieces_take_the_division_pass(monkeypatch, cold_euler):
    # the recursion for BETTI_EXAMPLE reads e of dimension-2 pieces only
    divisions = _count_calls(monkeypatch, "divide_by_units")
    power_sums = _count_calls(monkeypatch, "_euler_by_power_sum")
    assert betti2(BETTI_EXAMPLE) == 5
    assert divisions and power_sums == []


def test_two_row_cy3_takes_the_power_sum_route(monkeypatch, cold_euler):
    # 2 | 1 2 / 3 | 4 0 has row sums 3 and 4 = n_i + 1: a CICY 3-fold
    cfg = ConfigurationMatrix([2, 3], [[1, 2], [4, 0]])
    power_sums = _count_calls(monkeypatch, "_euler_by_power_sum")
    divisions = _count_calls(monkeypatch, "divide_by_units")
    assert euler_number(cfg) == euler_number_by_definition(cfg) == -168
    assert len(power_sums) == 1 and divisions == []
    assert invariants._euler_by_division(*invariants._euler_key(cfg)) == -168


def test_power_sum_not_divisible_by_three_is_internal_inconsistency(monkeypatch, cold_euler):
    # int mu * (p3 + H^3) = -600 + 5 on the quintic
    p3 = invariants.cubic_power_sum
    monkeypatch.setattr(
        invariants,
        "cubic_power_sum",
        lambda ambient, bundles: p3(ambient, bundles) + ChowClass.hyperplane(ambient, 0) ** 3,
    )
    with pytest.raises(InternalConsistencyError, match="-595 is not divisible by 3"):
        euler_number(QUINTIC)


def test_off_by_two_power_sum_is_caught_by_the_node_count(monkeypatch, cold_euler):
    # shift e by 2 on multi-row inputs only: the split quintic's e moves,
    # the quintic's does not, and analyze's 2N certification fails
    power_sum = invariants._euler_by_power_sum
    monkeypatch.setattr(
        invariants,
        "_euler_by_power_sum",
        lambda f, c: power_sum(f, c) + (2 if len(f) > 1 else 0),
    )
    (site,) = find_contraction_sites(QUINTIC_SPLIT)
    with pytest.raises(InternalConsistencyError, match="ODP count 16 does not match"):
        analyze(site)


# ----------------------------------------------------------------------
# point counts and double covers


def test_ci_point_count_spatial_quartics():
    assert ci_point_count(AmbientSpace([3]), [(4,), (4,), (4,)]) == 64


def test_ci_point_count_plane_lines():
    assert ci_point_count(AmbientSpace([2]), [(1,), (1,)]) == 1


def test_ci_point_count_same_ruling_misses():
    assert ci_point_count(AmbientSpace([1, 1]), [(1, 0), (1, 0)]) == 0
    assert ci_point_count(AmbientSpace([1, 1]), [(1, 0), (0, 1)]) == 1


def test_ci_point_count_needs_expected_dimension_zero():
    with pytest.raises(ValueError):
        ci_point_count(AmbientSpace([3]), [(4,), (4,)])


def test_double_cover_euler():
    assert double_cover_euler(4, 304) == -296
    assert double_cover_euler(24, 0) == 48
    assert double_cover_euler(4, 8) == 0


def test_double_solid_bookkeeping():
    # the degree-(4,2) model: the octic branch surface carries 64 points
    # where three general quartics meet; resolving the double solid
    # recovers the split-side Euler number
    branch_points = ci_point_count(AmbientSpace([3]), [(4,), (4,), (4,)])
    octic = euler_number(OCTIC_SURFACE)
    cover = double_cover_euler(4, octic)
    resolved = euler_number(DOUBLE_SOLID_RESOLVED)
    assert branch_points == 64
    assert octic == 304
    assert cover == -296
    assert resolved == -168
    assert resolved - cover == 2 * branch_points == 128


# ----------------------------------------------------------------------
# second Betti numbers


def test_betti2_pinned_values():
    assert betti2(QUINTIC) == 1
    assert betti2(QUINTIC_SPLIT) == 2
    assert betti2(C1111) == 4
    assert betti2(BETTI_EXAMPLE) == 5
    assert betti2(BETTI_SURFACE) == 4
    assert betti2(MIXED_CONTRACTION_EXAMPLE) == 3
    assert betti2(SCHOEN_RESOLVED) == 19


def test_betti2_surface_rule_uses_euler():
    k3 = ConfigurationMatrix([5], [[2, 2, 2]])
    assert euler_number(k3) == 24
    assert betti2(k3) == 22
    assert betti2(OCTIC_SURFACE) == euler_number(OCTIC_SURFACE) - 2 == 302


def test_betti2_rejects_block_diagonal():
    with pytest.raises(ValueError):
        betti2(ConfigurationMatrix([3, 3], [[4, 0], [0, 4]]))


def test_betti2_base_case_error_on_curves():
    with pytest.raises(BettiBaseCaseError):
        betti2(ConfigurationMatrix([2], [[3]]))  # a cubic curve
    assert issubclass(BettiBaseCaseError, ValueError)


def test_betti2_permutation_invariance():
    rng = random.Random(17)
    for cfg in (QUINTIC_SPLIT, BETTI_EXAMPLE, MIXED_CONTRACTION_EXAMPLE):
        b = betti2(cfg)
        for _ in range(20):
            assert betti2(_shuffled(cfg, rng)) == b


def test_betti2_at_least_one_on_cicys():
    for cfg in (
        QUINTIC,
        QUINTIC_SPLIT,
        C1111,
        MIXED_CONTRACTION_EXAMPLE,
        DOUBLE_SOLID_RESOLVED,
        BETTI_EXAMPLE,
        SCHOEN_RESOLVED,
    ):
        assert betti2(cfg) >= 1


# ----------------------------------------------------------------------
# Hodge pairs


def test_hodge_pinned_values():
    assert hodge_numbers(QUINTIC) == HodgePair(h11=1, h21=101)
    assert hodge_numbers(QUINTIC_SPLIT) == HodgePair(h11=2, h21=86)
    assert hodge_numbers(C1111) == HodgePair(h11=4, h21=68)
    assert hodge_numbers(MIXED_CONTRACTION_EXAMPLE) == HodgePair(h11=3, h21=59)


def test_hodge_euler_consistency():
    for cfg in (QUINTIC, QUINTIC_SPLIT, C1111, MIXED_CONTRACTION_EXAMPLE, BETTI_EXAMPLE):
        pair = hodge_numbers(cfg)
        assert pair.euler == euler_number(cfg)
        assert pair.h11 == betti2(cfg)


def test_hodge_odd_euler_is_internal_inconsistency(monkeypatch):
    euler = invariants._euler_cached
    monkeypatch.setattr(invariants, "_euler_cached", lambda f, c: euler(f, c) + 1)
    with pytest.raises(InternalConsistencyError, match="odd Euler number -199"):
        hodge_numbers(QUINTIC)


def test_hodge_rejects_non_cicy():
    with pytest.raises(ValueError):
        hodge_numbers(OCTIC_SURFACE)
    with pytest.raises(ValueError):
        hodge_numbers(ConfigurationMatrix([4], [[4]]))


# ----------------------------------------------------------------------
# Hilbert polynomials


def test_hilbert_quintic():
    hp = hilbert_polynomial(QUINTIC, (1,))
    assert hp.render() == "(5/6)*l^3 + (25/6)*l"
    assert hp.coefficients == (Fraction(0), Fraction(25, 6), Fraction(0), Fraction(5, 6))
    assert [hp.value_at(l) for l in range(6)] == [0, 5, 15, 35, 70, 125]


def test_hilbert_c1111():
    hp = hilbert_polynomial(C1111, (1, 1, 1, 1))
    assert hp.render() == "8*l^3 + 8*l"
    assert [hp.value_at(l) for l in range(6)] == [0, 16, 80, 240, 544, 1040]


def test_hilbert_mixed_example():
    hp = hilbert_polynomial(MIXED_CONTRACTION_EXAMPLE, (1, 1, 1))
    assert hp.render() == "(34/3)*l^3 + (26/3)*l"
    assert [hp.value_at(l) for l in range(6)] == [0, 20, 108, 332, 760, 1460]


def test_hilbert_chi_vanishes_at_zero_for_cicys():
    for cfg in (QUINTIC, QUINTIC_SPLIT, C1111, MIXED_CONTRACTION_EXAMPLE, SCHOEN_RESOLVED):
        hp = hilbert_polynomial(cfg, tuple(1 for _ in range(cfg.k)))
        assert hp.value_at(0) == 0


def test_hilbert_integrality_sweep():
    for cfg in (QUINTIC, C1111, MIXED_CONTRACTION_EXAMPLE, BETTI_EXAMPLE):
        hp = hilbert_polynomial(cfg, tuple(1 for _ in range(cfg.k)))
        for l in range(0, cfg.dimension + 4):
            assert hp(l).denominator == 1
            assert hp.value_at(l) == hp(l)


def test_hilbert_degree_equals_dimension():
    assert hilbert_polynomial(QUINTIC, (1,)).degree == 3
    assert hilbert_polynomial(OCTIC_SURFACE, (1,)).degree == 2


def test_hilbert_polarization_must_be_ample():
    with pytest.raises(ValueError):
        hilbert_polynomial(QUINTIC_SPLIT, (1, 0))
    with pytest.raises(ValueError):
        hilbert_polynomial(QUINTIC, (-1,))


def test_hilbert_rejects_non_integral_polarization():
    # truncation would read 1.9 as the polarization J = 1
    with pytest.raises(TypeError):
        hilbert_polynomial(QUINTIC, (1.9,))


def test_hilbert_intersection_route_matches_koszul():
    # the Koszul sum is the independent reference for the CY3 route
    rng = random.Random(3)
    for cfg in (
        QUINTIC,
        QUINTIC_SPLIT,
        MIXED_CONTRACTION_EXAMPLE,
        C1111,
        *(random_cicy(seed, 7, 9) for seed in range(10)),
    ):
        for polarization in (
            (1,) * cfg.k,
            tuple(rng.randint(1, 3) for _ in range(cfg.k - 1)) + (2,),
        ):
            assert invariants._hilbert_by_intersection(
                cfg, polarization
            ) == invariants._hilbert_by_koszul(cfg, polarization)


def test_cy3_numbers_quintic_by_hand():
    # H^3 . 5H = 5, c(TX) = (1 + H)^5 / (1 + 5H) gives c2 = 10 H^2, c3 = -40 H^3
    three_e, two_c2j, jjj = invariants._cy3_numbers((4,), ((5,),), (1,))
    assert (three_e, two_c2j, jjj) == (3 * -200, 2 * 50, 5)
    assert invariants._cy3_numbers((4,), ((5,),), (2,))[1:] == (2 * 100, 40)


def test_hilbert_euler_mismatch_is_internal_inconsistency(monkeypatch):
    # the check compares the intersection numbers with the division pass
    euler = invariants._euler_by_division
    monkeypatch.setattr(invariants, "_euler_by_division", lambda f, c: euler(f, c) + 2)
    with pytest.raises(InternalConsistencyError, match="Euler number -198"):
        hilbert_polynomial(QUINTIC, (1,))


def test_hilbert_non_integral_chi_is_internal_inconsistency(monkeypatch):
    # 3e still matches, but chi(O_X(H)) = (4*6 + 2*50) / 24 is not an integer
    monkeypatch.setattr(invariants, "_cy3_numbers", lambda f, c, p: (3 * -200, 2 * 50, 6))
    with pytest.raises(InternalConsistencyError, match=r"kappa\(J,J,J\) = 6"):
        hilbert_polynomial(QUINTIC, (1,))


def test_hilbert_respects_polarization_scaling():
    hp1 = hilbert_polynomial(QUINTIC, (1,))
    hp2 = hilbert_polynomial(QUINTIC, (2,))
    for l in range(5):
        assert hp2.value_at(l) == hp1.value_at(2 * l)


# ----------------------------------------------------------------------
# configuration identities


def test_conic_identity_euler_and_hilbert():
    # A (2, 0) column on a P^2 row cuts a conic, a P^1 embedded by O(2):
    # dropping the column and turning the row into a P^1 row with its other
    # entries doubled gives the same member, polarized by (2a, b) for (a, b).
    conic = ConfigurationMatrix([2, 3], [[1, 2], [4, 0]])
    line = ConfigurationMatrix([1, 3], [[2], [4]])
    assert euler_number(conic) == euler_number(line) == -168
    for (a, b) in ((1, 1), (2, 1), (1, 2)):
        left = hilbert_polynomial(conic, (a, b)).coefficients
        assert left == hilbert_polynomial(line, (2 * a, b)).coefficients
    hp = hilbert_polynomial(line, (4, 1))
    assert hp.render() == "(25/3)*l^3 + (35/3)*l"
