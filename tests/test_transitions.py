"""Determinantal contractions: sites, splits, node counts, certification."""

import random

import pytest

from cicyweb.catalog import (
    DOUBLE_SOLID_RESOLVED,
    MIXED_CONTRACTION_EXAMPLE,
    QUINTIC,
    QUINTIC_SPLIT,
    SCHOEN_CONTRACTED,
    SCHOEN_RESOLVED,
)
from cicyweb.chow import AmbientSpace, chern_of_sum
from cicyweb.configuration import C1111, ConfigurationMatrix, equivalent, is_block_diagonal, is_cicy
from cicyweb.invariants import euler_number
from cicyweb.transitions import (
    ContractionSite,
    InternalConsistencyError,
    _low_chern_classes,
    analyze,
    contract,
    find_contraction_sites,
    odp_count,
    split,
)
from cicyweb.web import random_cicy


# ----------------------------------------------------------------------
# finding sites


def test_find_sites_quintic_split():
    sites = find_contraction_sites(QUINTIC_SPLIT)
    assert len(sites) == 1
    assert sites[0].row == 1
    assert sites[0].one_columns == (0, 1)
    assert sites[0].n == 1


def test_find_sites_none_on_single_row():
    assert find_contraction_sites(QUINTIC) == []


def test_find_sites_mixed_example():
    sites = find_contraction_sites(MIXED_CONTRACTION_EXAMPLE)
    assert len(sites) == 1
    assert sites[0].row == 0
    assert sites[0].one_columns == (0, 1, 2)
    assert sites[0].n == 2


def test_find_sites_schoen():
    sites = find_contraction_sites(SCHOEN_RESOLVED)
    assert len(sites) == 1
    assert sites[0].row == 2
    assert sites[0].one_columns == (0, 1)


def test_find_sites_c1111():
    # every row of the hub is [1 || 2]: a lone 2, not two 1s -> no sites
    assert find_contraction_sites(C1111) == []


def test_site_bundle_bookkeeping():
    (site,) = find_contraction_sites(MIXED_CONTRACTION_EXAMPLE)
    assert site.reduced_ambient.factors == (3, 1)
    assert site.collapsing_bundles == [(1, 0), (1, 0), (2, 2)]
    assert site.residual_bundles == []
    # reduced ambient dimension always equals m - n + 3 for a CICY site
    cfg = site.config
    assert site.reduced_ambient.dim == cfg.m - site.n + 3


# ----------------------------------------------------------------------
# contract


def test_contract_quintic_split():
    (site,) = find_contraction_sites(QUINTIC_SPLIT)
    assert contract(site) == QUINTIC


def test_contract_mixed_example():
    (site,) = find_contraction_sites(MIXED_CONTRACTION_EXAMPLE)
    assert contract(site) == DOUBLE_SOLID_RESOLVED


def test_contract_schoen():
    (site,) = find_contraction_sites(SCHOEN_RESOLVED)
    assert contract(site) == SCHOEN_CONTRACTED


def test_contract_merges_at_first_one_column():
    # site columns 1 and 3: merged column lands at position 1
    cfg = ConfigurationMatrix([4, 1], [[2, 0, 1, 1], [0, 1, 0, 1]])
    site = ContractionSite(config=cfg, row=1, one_columns=(1, 3))
    assert contract(site) == ConfigurationMatrix([4], [[2, 1, 1]])


# ----------------------------------------------------------------------
# split


def test_split_quintic():
    assert split(QUINTIC, 0, 1, [(4,), (1,)]) == QUINTIC_SPLIT


def test_split_double_solid_three_parts():
    out = split(DOUBLE_SOLID_RESOLVED, 0, 2, [(1, 1), (1, 0), (2, 1)])
    assert out == ConfigurationMatrix(
        [3, 1, 2], [[1, 1, 2], [1, 0, 1], [1, 1, 1]]
    )
    assert is_cicy(out)


def test_split_keeps_other_columns_in_place():
    out = split(MIXED_CONTRACTION_EXAMPLE, 2, 1, [(1, 1, 1), (0, 1, 1)])
    assert out == ConfigurationMatrix(
        [2, 3, 1, 1],
        [[1, 1, 1, 0], [1, 1, 1, 1], [0, 0, 1, 1], [0, 0, 1, 1]],
    )


def test_split_rejects_bad_parts():
    with pytest.raises(ValueError):
        split(QUINTIC, 0, 1, [(4,)])  # needs n+1 parts
    with pytest.raises(ValueError):
        split(QUINTIC, 0, 1, [(4,), (2,)])  # parts sum to 6, column is 5
    with pytest.raises(ValueError):
        split(QUINTIC, 0, 1, [(6,), (-1,)])  # negative part
    with pytest.raises(ValueError):
        split(QUINTIC, 1, 1, [(4,), (1,)])  # column out of range
    with pytest.raises(ValueError):
        split(QUINTIC, 0, 0, [(5,)])  # new factor needs n >= 1
    with pytest.raises(ValueError):
        split(DOUBLE_SOLID_RESOLVED, 0, 1, [(4,), (0, 2)])  # ragged part


def test_split_rejects_non_integral_numbers():
    # int() truncation read 3.5 + 2.5 = 6 as the parts 3 and 2 of the column 5
    with pytest.raises(TypeError):
        split(QUINTIC, 0, 1, [(3.5,), (2.5,)])
    with pytest.raises(TypeError):
        split(QUINTIC, 0.0, 1, [(4,), (1,)])
    with pytest.raises(TypeError):
        split(QUINTIC, 0, 1.0, [(4,), (1,)])


def test_split_allows_zero_parts():
    out = split(QUINTIC, 0, 1, [(5,), (0,)])
    assert out == ConfigurationMatrix([4, 1], [[5, 0], [1, 1]])
    assert is_cicy(out)


def test_split_preserves_cicy_shape():
    rng = random.Random(2)
    for trial in range(100):
        cfg = random_cicy(trial, max_rows=5, max_cols=6)
        j = rng.randrange(cfg.m)
        col = cfg.column(j)
        total = sum(col)
        if total < 2:
            continue
        n = rng.randint(1, min(3, total - 1))
        units = [i for i in range(cfg.k) for _ in range(col[i])]
        rng.shuffle(units)
        cuts = sorted(rng.sample(range(1, len(units)), n))
        groups = [units[a:b] for a, b in zip([0] + cuts, cuts + [len(units)])]
        parts = [tuple(g.count(i) for i in range(cfg.k)) for g in groups]
        out = split(cfg, j, n, parts)
        assert out.dimension == cfg.dimension
        assert is_cicy(out)
        assert out.k == cfg.k + 1
        assert out.m == cfg.m + n


# ----------------------------------------------------------------------
# split and contract invert each other


def test_contract_after_split_is_literal_identity():
    for cfg, j, n, parts in (
        (QUINTIC, 0, 1, [(4,), (1,)]),
        (DOUBLE_SOLID_RESOLVED, 0, 2, [(1, 1), (1, 0), (2, 1)]),
        (MIXED_CONTRACTION_EXAMPLE, 2, 1, [(1, 1, 1), (0, 1, 1)]),
    ):
        out = split(cfg, j, n, parts)
        site = ContractionSite(
            config=out,
            row=out.k - 1,
            one_columns=tuple(range(j, j + n + 1)),
        )
        assert contract(site) == cfg


def test_split_after_contract_is_equivalence():
    for cfg in (QUINTIC_SPLIT, MIXED_CONTRACTION_EXAMPLE, SCHOEN_RESOLVED):
        (site,) = find_contraction_sites(cfg)
        contracted = contract(site)
        kept = [i for i in range(cfg.k) if i != site.row]
        parts = [
            tuple(cfg.rows[i][j] for i in kept) for j in site.one_columns
        ]
        rebuilt = split(contracted, site.one_columns[0], site.n, parts)
        assert equivalent(rebuilt, cfg)


def test_random_split_contract_round_trip():
    rng = random.Random(13)
    for trial in range(60):
        cfg = random_cicy(1000 + trial, max_rows=5, max_cols=6)
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
        assert contract(site) == cfg


# ----------------------------------------------------------------------
# node counts and certification


def test_odp_count_pinned():
    (site,) = find_contraction_sites(QUINTIC_SPLIT)
    assert odp_count(site) == 16
    (site,) = find_contraction_sites(MIXED_CONTRACTION_EXAMPLE)
    assert odp_count(site) == 28
    (site,) = find_contraction_sites(SCHOEN_RESOLVED)
    assert odp_count(site) == 81


def test_low_chern_classes_match_chern_of_sum_graded_parts():
    def check(ambient, bundles):
        total = chern_of_sum(ambient, bundles)
        expected = tuple(total.graded_part(r) for r in (1, 2, 3))
        assert _low_chern_classes(ambient, bundles) == expected

    for s in range(40):
        for site in find_contraction_sites(random_cicy(s, 7, 9)):
            check(site.reduced_ambient, site.collapsing_bundles)
    rng = random.Random(17)
    for factors in ([4, 1, 3], [4, 4], [2, 4, 1, 1], [3]):
        ambient = AmbientSpace(factors)
        check(ambient, [])
        for _ in range(10):
            bundles = [
                tuple(rng.randint(-2, 3) for _ in factors) for _ in range(rng.randint(1, 5))
            ]
            check(ambient, bundles)
            # beside its dual a bundle gives (1 + D)(1 - D) = 1 - D^2: the
            # c1 and c3 terms cancel
            dual = tuple(-d for d in bundles[-1])
            check(ambient, [bundles[-1], dual])
            check(ambient, bundles + [dual])


def test_euler_difference_pinned():
    for cfg, difference in (
        (QUINTIC_SPLIT, 32),
        (MIXED_CONTRACTION_EXAMPLE, 56),
        (SCHOEN_RESOLVED, 162),
    ):
        (site,) = find_contraction_sites(cfg)
        report = analyze(site)
        assert report.euler_resolved - report.euler_smoothed == difference


def test_analyze_quintic_split():
    (site,) = find_contraction_sites(QUINTIC_SPLIT)
    report = analyze(site)
    assert report.odp_count == 16
    assert report.euler_resolved == -168
    assert report.euler_smoothed == -200
    assert not report.ineffective
    assert report.euler_resolved - report.euler_smoothed == 2 * report.odp_count


def test_analyze_schoen():
    (site,) = find_contraction_sites(SCHOEN_RESOLVED)
    report = analyze(site)
    assert report.odp_count == 81
    assert report.euler_resolved == 0
    assert report.euler_smoothed == -162


def test_analyze_ineffective_split():
    out = split(QUINTIC, 0, 1, [(5,), (0,)])
    (site,) = find_contraction_sites(out)
    report = analyze(site)
    assert report.odp_count == 0
    assert report.ineffective
    assert report.euler_resolved == report.euler_smoothed == -200


def test_certification_runs_on_every_analyze_call():
    rng = random.Random(4)
    for trial in range(40):
        cfg = random_cicy(2000 + trial, max_rows=6, max_cols=7)
        for site in find_contraction_sites(cfg):
            report = analyze(site)  # raises InternalConsistencyError on any mismatch
            assert report.euler_resolved - report.euler_smoothed == 2 * report.odp_count
            assert report.ineffective == (report.odp_count == 0)


def test_internal_consistency_error_is_arithmetic_error():
    assert issubclass(InternalConsistencyError, ArithmeticError)


def test_contraction_preserves_cicy_shape():
    for cfg in (QUINTIC_SPLIT, MIXED_CONTRACTION_EXAMPLE, SCHOEN_RESOLVED):
        (site,) = find_contraction_sites(cfg)
        out = contract(site)
        assert out.dimension == 3
        assert is_cicy(out)
        assert not is_block_diagonal(out)
        assert euler_number(cfg) - euler_number(out) == 2 * odp_count(site)
