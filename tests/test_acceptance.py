"""Acceptance battery: the pinned end-to-end results, one pass/fail line each.

Every number here is exact integer arithmetic — the tolerance is zero.  Each
criterion is a single test emitting a single verdict line, so `pytest -v`
gives the full scoreboard.
"""

import random

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
    quintic_chain,
)
from cicyweb.chow import AmbientSpace, ChowClass, chern_of_sum, segre_inverse
from cicyweb.configuration import (
    C1111,
    C1111_KEY,
    ConfigurationMatrix,
    canonical_key,
    equivalent,
)
from cicyweb.invariants import (
    betti2,
    ci_point_count,
    double_cover_euler,
    euler_number,
    hilbert_polynomial,
)
from cicyweb.transitions import ContractionSite, analyze, contract, find_contraction_sites, split
from cicyweb.web import connect_to_c1111, random_cicy, verify_chain

CICY_CORPUS = (
    QUINTIC,
    QUINTIC_SPLIT,
    DOUBLE_SOLID_RESOLVED,
    MIXED_CONTRACTION_EXAMPLE,
    BETTI_EXAMPLE,
    SCHOEN_RESOLVED,
    SCHOEN_CONTRACTED,
    C1111,
)


def _line(index: int, name: str, ok: bool) -> None:
    print(f"acceptance {index} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance {index} ({name}) failed"


def _shuffled(cfg: ConfigurationMatrix, rng: random.Random) -> ConfigurationMatrix:
    row_order = list(range(cfg.k))
    col_order = list(range(cfg.m))
    rng.shuffle(row_order)
    rng.shuffle(col_order)
    return ConfigurationMatrix(
        [cfg.factors[i] for i in row_order],
        [[cfg.rows[i][j] for j in col_order] for i in row_order],
    )


@pytest.fixture(scope="module")
def web_sweep():
    """(chain, report) pairs for the named corpus plus 200 generated CICYs."""
    pairs = []
    for cfg in (
        QUINTIC,
        DOUBLE_SOLID_RESOLVED,
        MIXED_CONTRACTION_EXAMPLE,
        BETTI_EXAMPLE,
        SCHOEN_RESOLVED,
    ):
        chain = connect_to_c1111(cfg)
        pairs.append((chain, verify_chain(chain)))
    for seed in range(200):
        cfg = random_cicy(seed, max_rows=7, max_cols=9)
        chain = connect_to_c1111(cfg)
        pairs.append((chain, verify_chain(chain)))
    return pairs


def test_acceptance_1_quintic_contraction():
    (site,) = find_contraction_sites(QUINTIC_SPLIT)
    report = analyze(site)
    ok = (
        report.odp_count == 16
        and euler_number(QUINTIC_SPLIT) - euler_number(QUINTIC) == 32 == 2 * 16
        and contract(site) == QUINTIC
    )
    _line(1, "quintic determinantal contraction: N = 16, e-difference 32", ok)


def test_acceptance_2_mixed_contraction_numbers_and_chern_classes():
    (site,) = find_contraction_sites(MIXED_CONTRACTION_EXAMPLE)
    contracted = contract(site)
    total = chern_of_sum(site.reduced_ambient, site.collapsing_bundles)
    ok = (
        euler_number(MIXED_CONTRACTION_EXAMPLE) == -112
        and euler_number(contracted) == -168
        and analyze(site).odp_count == 28
        and total.graded_part(1).render() == "4*s1 + 2*s2"
        and total.graded_part(2).render() == "5*s1^2 + 4*s1*s2"
        and total.graded_part(3).render() == "2*s1^3 + 2*s1^2*s2"
    )
    _line(2, "mixed contraction: e = -112/-168, N = 28, Chern classes verbatim", ok)


def test_acceptance_3_double_solid_bookkeeping():
    branch_points = ci_point_count(AmbientSpace([3]), [(4,), (4,), (4,)])
    octic = euler_number(OCTIC_SURFACE)
    cover = double_cover_euler(4, octic)
    ok = (
        branch_points == 64
        and octic == 304
        and cover == -296
        and euler_number(DOUBLE_SOLID_RESOLVED) - cover == 128 == 2 * 64
    )
    _line(3, "double solid: 64 points, e = 304/-296, difference 128", ok)


def test_acceptance_4_second_betti_recursion():
    ok = (
        betti2(BETTI_EXAMPLE) == 5
        and euler_number(BETTI_SURFACE) == 6
        and betti2(BETTI_SURFACE) == 4
    )
    _line(4, "Betti recursion: b2 = 5 with nested surface e = 6, b2 = 4", ok)


def test_acceptance_5_web_connectivity(web_sweep):
    all_verified = all(report.ok for _, report in web_sweep)
    all_reach_hub = all(canonical_key(chain.end) == C1111_KEY for chain, _ in web_sweep)
    stored = verify_chain(quintic_chain())
    first = stored.checks[0]
    stored_ok = stored.ok and first.site_row + 1 == 2 and first.odp_count == 16
    ok = all_verified and all_reach_hub and len(web_sweep) == 205 and stored_ok
    _line(5, "web connectivity: 205 verified chains to the hub, stored chain N = 16 at row 2", ok)


def test_acceptance_6_conifold_certification(web_sweep):
    # every contraction site encountered: the direct sites of the worked
    # examples plus every step of every chain in the sweep (splits are
    # certified through their reverse contraction)
    disagreements = 0
    sites_seen = 0
    for cfg in (QUINTIC_SPLIT, MIXED_CONTRACTION_EXAMPLE, SCHOEN_RESOLVED):
        for site in find_contraction_sites(cfg):
            report = analyze(site)  # raises on any closed-vs-direct mismatch
            sites_seen += 1
            if report.euler_resolved - report.euler_smoothed != 2 * report.odp_count:
                disagreements += 1
    for _, chain_report in web_sweep:
        for check in chain_report.checks:
            sites_seen += 1
            if check.euler_resolved - check.euler_smoothed != 2 * check.odp_count:
                disagreements += 1
    ok = disagreements == 0 and sites_seen > 205
    _line(6, f"conifold certification: {sites_seen} sites, zero disagreements", ok)


def test_acceptance_7_exactness_battery():
    rng = random.Random(20260814)
    ambients = [
        AmbientSpace([4]),
        AmbientSpace([3, 1]),
        AmbientSpace([2, 2]),
        AmbientSpace([1, 1, 1, 1]),
    ]
    exponent_pools = {ambient: list(ambient.exponents()) for ambient in ambients}

    def random_class(ambient: AmbientSpace, constant=None) -> ChowClass:
        terms = {}
        for _ in range(rng.randint(0, 4)):
            exp = rng.choice(exponent_pools[ambient])
            terms[exp] = rng.randint(-99, 99)
        if constant is not None:
            terms[tuple(0 for _ in ambient.factors)] = constant
        return ChowClass(ambient, terms)

    # 10^4 randomized exact-arithmetic cases: ring axioms and Segre inverses
    algebra_ok = True
    for case in range(10_000):
        ambient = ambients[case % len(ambients)]
        if case % 2 == 0:
            a, b, c = (random_class(ambient) for _ in range(3))
            algebra_ok = algebra_ok and (
                a + b == b + a
                and (a * b) * c == a * (b * c)
                and a * (b + c) == a * b + a * c
            )
        else:
            u = random_class(ambient, constant=1)
            algebra_ok = algebra_ok and u * segre_inverse(u) == ChowClass.one(ambient)
        if not algebra_ok:
            break

    # permutation invariance of e, b2, and the node count
    invariance_ok = True
    for cfg, n_expected in ((QUINTIC_SPLIT, 16), (MIXED_CONTRACTION_EXAMPLE, 28), (SCHOEN_RESOLVED, 81)):
        e, b = euler_number(cfg), betti2(cfg)
        for _ in range(10):
            shuffled = _shuffled(cfg, rng)
            (site,) = find_contraction_sites(shuffled)
            invariance_ok = invariance_ok and (
                euler_number(shuffled) == e
                and betti2(shuffled) == b
                and analyze(site).odp_count == n_expected
            )

    # chi(O) = 0 for every catalog CICY 3-fold
    chi_ok = all(
        hilbert_polynomial(cfg, tuple(1 for _ in range(cfg.k))).value_at(0) == 0
        for cfg in CICY_CORPUS
    )

    # e <= 0 for every tested non-block-diagonal CICY
    euler_sign_ok = all(euler_number(cfg) <= 0 for cfg in CICY_CORPUS) and all(
        euler_number(random_cicy(seed)) <= 0 for seed in range(50)
    )

    # split/contract round-trip identity up to canonical form
    round_trip_ok = True
    for trial in range(40):
        cfg = random_cicy(3000 + trial, max_rows=5, max_cols=6)
        j = rng.randrange(cfg.m)
        col = cfg.column(j)
        if sum(col) < 2:
            continue
        units = [i for i in range(cfg.k) for _ in range(col[i])]
        rng.shuffle(units)
        cut = rng.randint(1, len(units) - 1)
        parts = [
            tuple(units[:cut].count(i) for i in range(cfg.k)),
            tuple(units[cut:].count(i) for i in range(cfg.k)),
        ]
        out = split(cfg, j, 1, parts)
        site = ContractionSite(config=out, row=out.k - 1, one_columns=(j, j + 1))
        round_trip_ok = round_trip_ok and contract(site) == cfg and equivalent(out, _shuffled(out, rng))

    # the hub's Euler number against the hand-expansion oracle
    hub_ok = euler_number(C1111) == 64 - 192 + 384 - 384 == -128

    ok = algebra_ok and invariance_ok and chi_ok and euler_sign_ok and round_trip_ok and hub_ok
    _line(7, "exactness battery: 10^4 algebra cases, invariances, chi(O) = 0, e <= 0, round trips, hub = -128", ok)
