"""Configuration-matrix model: parsing, validation, normalization, canonical form."""

import random

import pytest

from cicyweb.catalog import (
    BETTI_EXAMPLE,
    MIXED_CONTRACTION_EXAMPLE,
    QUINTIC,
    QUINTIC_SPLIT,
    QUINTIC_WEB_WAYPOINTS,
    SCHOEN_RESOLVED,
)
from cicyweb.configuration import (
    C1111,
    C1111_KEY,
    ConfigurationMatrix,
    ParseError,
    canonical_form,
    canonical_key,
    equivalent,
    is_block_diagonal,
    is_cicy,
    layout_map,
    normalize,
    parse_matrix,
    validate,
)


# ----------------------------------------------------------------------
# construction


def test_basic_shape_properties():
    cfg = ConfigurationMatrix([2, 3, 1], [[1, 1, 1], [1, 1, 2], [0, 0, 2]])
    assert cfg.k == 3
    assert cfg.m == 3
    assert cfg.dimension == 3
    assert cfg.factors == (2, 3, 1)
    assert cfg.column(2) == (1, 2, 2)
    assert cfg.columns() == [(1, 1, 0), (1, 1, 0), (1, 2, 2)]


def test_constructor_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ConfigurationMatrix([], [])
    with pytest.raises(ValueError):
        ConfigurationMatrix([0], [[2]])
    with pytest.raises(ValueError):
        ConfigurationMatrix([4, 1], [[5]])
    with pytest.raises(ValueError):
        ConfigurationMatrix([4], [[5, -1]])
    with pytest.raises(ValueError):
        ConfigurationMatrix([2, 2], [[1, 1], [1, 1, 1]])


def test_constructor_rejects_non_integral_entries():
    # truncation would read both as the quintic 4 | 5
    with pytest.raises(TypeError):
        ConfigurationMatrix([4.6], [[5]])
    with pytest.raises(TypeError):
        ConfigurationMatrix([4], [[5.2]])


def test_constructor_rejects_dimension_below_one():
    # a P^1 factor cut by one divisor would leave dimension 0
    with pytest.raises(ValueError, match="dimension 0"):
        ConfigurationMatrix([1], [[1]])
    with pytest.raises(ValueError):
        ConfigurationMatrix([1, 1], [[2, 0], [0, 2]])


def test_matrix_is_immutable_and_hashable():
    cfg = ConfigurationMatrix([4], [[5]])
    with pytest.raises(AttributeError):
        cfg.factors = (3,)
    assert hash(cfg) == hash(ConfigurationMatrix([4], [[5]]))
    assert cfg == ConfigurationMatrix([4], [[5]])
    assert cfg != ConfigurationMatrix([4], [[4, 1]])


# ----------------------------------------------------------------------
# text format


def test_render_format():
    assert QUINTIC.render() == "4 | 5"
    assert MIXED_CONTRACTION_EXAMPLE.render() == "2 | 1 1 1\n3 | 1 1 2\n1 | 0 0 2"


def test_parse_render_round_trip_bit_exact():
    for cfg in (
        QUINTIC,
        QUINTIC_SPLIT,
        MIXED_CONTRACTION_EXAMPLE,
        BETTI_EXAMPLE,
        SCHOEN_RESOLVED,
        C1111,
    ):
        assert parse_matrix(cfg.render()) == cfg
        assert parse_matrix(cfg.render()).render() == cfg.render()


def test_parse_ignores_comments_and_blank_lines():
    text = """
    # the quintic 3-fold
    4 | 5   # one septuple... no, quintic column

    """
    assert parse_matrix(text) == QUINTIC


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_matrix("4 | 5\n3 | x 2")
    assert err.value.line == 2
    assert "line 2" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_matrix("# only a comment\n\n4 5")
    assert err.value.line == 3

    with pytest.raises(ParseError) as err:
        parse_matrix("4 |")
    assert err.value.line == 1


def test_parse_error_on_ragged_rows():
    with pytest.raises(ParseError, match="ragged"):
        parse_matrix("2 | 1 1\n2 | 1 1 1")


def test_parse_error_on_empty_input():
    with pytest.raises(ParseError):
        parse_matrix("")
    with pytest.raises(ParseError):
        parse_matrix("# nothing here\n")


def test_parse_error_is_a_value_error():
    assert issubclass(ParseError, ValueError)


# ----------------------------------------------------------------------
# validation flags


def test_validate_quintic():
    report = validate(QUINTIC)
    assert report.dimension == 3
    assert report.entries_nonnegative
    assert report.column_sums_ok
    assert report.cy_condition
    assert not report.block_diagonal
    assert not report.has_forbidden_block
    assert report.is_cicy


def test_validate_c1111():
    report = validate(C1111)
    assert report.is_cicy
    assert not report.block_diagonal
    assert not report.has_forbidden_block


def test_validate_flags_hyperplane_column():
    report = validate(ConfigurationMatrix([4], [[4, 1]]))
    assert not report.column_sums_ok
    assert report.cy_condition
    assert report.dimension == 2
    assert not report.is_cicy


def test_validate_flags_forbidden_block():
    cfg = ConfigurationMatrix([1, 4], [[2, 0], [0, 5]])
    report = validate(cfg)
    assert report.block_diagonal
    assert report.has_forbidden_block
    assert not validate(QUINTIC).has_forbidden_block


def test_validate_searches_components_once(monkeypatch):
    import cicyweb.configuration as configuration

    calls = []
    search = configuration._components
    monkeypatch.setattr(configuration, "_components", lambda cfg: calls.append(cfg) or search(cfg))
    cfg = ConfigurationMatrix([1, 4], [[2, 0], [0, 5]])
    report = validate(cfg)
    assert report.block_diagonal and report.has_forbidden_block
    assert calls == [cfg]


def test_is_cicy_examples():
    assert is_cicy(QUINTIC)
    assert is_cicy(QUINTIC_SPLIT)
    assert is_cicy(C1111)
    assert not is_cicy(ConfigurationMatrix([4], [[4]]))  # wrong row sum
    assert not is_cicy(ConfigurationMatrix([3], [[4]]))  # a K3 surface
    assert not is_cicy(ConfigurationMatrix([5], [[2, 2, 2]]))  # dimension 2
    assert is_cicy(ConfigurationMatrix([5, 1], [[2, 2, 2], [1, 1, 0]]))


def test_is_block_diagonal():
    assert is_block_diagonal(ConfigurationMatrix([3, 3], [[4, 0], [0, 4]]))
    assert is_block_diagonal(ConfigurationMatrix([1, 4], [[2, 0], [0, 5]]))
    assert not is_block_diagonal(C1111)
    assert not is_block_diagonal(BETTI_EXAMPLE)
    assert not is_block_diagonal(SCHOEN_RESOLVED)


def test_block_diagonal_detection_ignores_layout():
    # interleaved rows/columns of [3 || 4] x [3 || 4] still disconnect
    cfg = ConfigurationMatrix([3, 3], [[0, 4], [4, 0]])
    assert is_block_diagonal(cfg)


# ----------------------------------------------------------------------
# normalization


def test_normalize_removes_hyperplane_column():
    cfg = ConfigurationMatrix([4], [[5, 1]])
    assert normalize(cfg) == ConfigurationMatrix([3], [[5]])
    assert normalize(cfg).render() == "3 | 5"


def test_normalize_cascades_and_drops_rows():
    # the second column forces n=1 -> 0, deleting the row entirely
    cfg = ConfigurationMatrix([4, 1], [[5, 0], [0, 1]])
    assert normalize(cfg) == ConfigurationMatrix([4], [[5]])
    assert normalize(cfg).dimension == cfg.dimension


def test_normalize_fixpoint_returns_same_object():
    for cfg in (QUINTIC, C1111, MIXED_CONTRACTION_EXAMPLE):
        assert normalize(cfg) is cfg


def test_normalize_keeps_sum_one_free_matrices():
    # unit entries everywhere, but every column sum is already 2
    cfg = ConfigurationMatrix([2, 2], [[1, 1, 1], [1, 1, 1]])
    assert normalize(cfg) is cfg


def test_normalize_rejects_unreachable_inputs():
    with pytest.raises(ValueError):
        normalize(ConfigurationMatrix([3], [[0, 4]]))  # zero column
    # cascade: removing two hyperplane columns deletes both P^1 rows and
    # leaves the column they shared empty
    stranded = ConfigurationMatrix(
        [1, 1, 3], [[1, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 4]]
    )
    with pytest.raises(ValueError):
        normalize(stranded)


def test_normalize_preserves_dimension():
    rng = random.Random(7)
    for _ in range(50):
        base = rng.choice([QUINTIC, MIXED_CONTRACTION_EXAMPLE, SCHOEN_RESOLVED])
        factors = list(base.factors)
        rows = [list(r) for r in base.rows]
        i = rng.randrange(len(factors))
        factors[i] += 1
        for r, row in enumerate(rows):
            row.append(1 if r == i else 0)
        padded = ConfigurationMatrix(factors, rows)
        assert normalize(padded).dimension == padded.dimension
        assert equivalent(normalize(padded), base)


# ----------------------------------------------------------------------
# canonical form and equivalence


def _shuffled(cfg: ConfigurationMatrix, rng: random.Random) -> ConfigurationMatrix:
    row_order = list(range(cfg.k))
    col_order = list(range(cfg.m))
    rng.shuffle(row_order)
    rng.shuffle(col_order)
    return ConfigurationMatrix(
        [cfg.factors[i] for i in row_order],
        [[cfg.rows[i][j] for j in col_order] for i in row_order],
    )


def test_canonical_key_is_permutation_invariant():
    rng = random.Random(20260814)
    for cfg in (
        QUINTIC,
        QUINTIC_SPLIT,
        MIXED_CONTRACTION_EXAMPLE,
        BETTI_EXAMPLE,
        SCHOEN_RESOLVED,
        C1111,
    ):
        key = canonical_key(cfg)
        for _ in range(100):
            assert canonical_key(_shuffled(cfg, rng)) == key


def test_canonical_form_is_in_its_own_class():
    for cfg in (QUINTIC_SPLIT, BETTI_EXAMPLE, SCHOEN_RESOLVED):
        form = canonical_form(cfg)
        assert equivalent(form, cfg)
        assert canonical_form(form) == form
        assert sorted(form.factors) == sorted(cfg.factors)


def test_canonical_key_distinguishes_different_configs():
    a = ConfigurationMatrix([1, 1], [[2], [2]])
    b = ConfigurationMatrix([2], [[3]])
    assert canonical_key(a) != canonical_key(b)
    assert not equivalent(a, b)


def test_canonical_key_distinguishes_all_quintic_waypoints():
    keys = [canonical_key(w) for w in QUINTIC_WEB_WAYPOINTS]
    assert len(set(keys)) == len(keys) == 6
    assert keys[-1] == C1111_KEY


def test_equivalent_detects_row_and_column_swaps():
    cfg = ConfigurationMatrix([2, 3], [[1, 2], [3, 1]])
    swapped = ConfigurationMatrix([3, 2], [[1, 3], [2, 1]])
    assert equivalent(cfg, swapped)
    assert not equivalent(cfg, ConfigurationMatrix([2, 3], [[2, 1], [3, 1]]))


def test_ambient_column_travels_with_row():
    # same degree rows, different ambient labels -> different classes
    a = ConfigurationMatrix([2, 3], [[1, 1, 1], [1, 1, 1]])
    b = ConfigurationMatrix([3, 2], [[1, 1, 1], [1, 1, 1]])
    assert equivalent(a, b)  # row swap carries the labels along
    c = ConfigurationMatrix([2, 2], [[1, 1, 1], [1, 1, 1]])
    assert not equivalent(a, c)


def test_c1111_key_matches_its_definition():
    assert C1111.factors == (1, 1, 1, 1)
    assert C1111.rows == ((2,), (2,), (2,), (2,))
    assert canonical_key(C1111) == C1111_KEY
    assert is_cicy(C1111)


def test_layout_map_carries_matrices_exactly():
    rng = random.Random(21)
    for base in (QUINTIC_SPLIT, MIXED_CONTRACTION_EXAMPLE, BETTI_EXAMPLE, SCHOEN_RESOLVED):
        for _ in range(10):
            other = _shuffled(base, rng)
            row_map, col_map = layout_map(base, other)
            assert sorted(row_map) == list(range(base.k))
            assert sorted(col_map) == list(range(base.m))
            for i in range(base.k):
                assert other.factors[row_map[i]] == base.factors[i]
                for j in range(base.m):
                    assert other.rows[row_map[i]][col_map[j]] == base.rows[i][j]


def test_layout_map_on_equal_layouts():
    # interchangeable duplicate rows may trade places, but the relabeled
    # matrix must coincide entry by entry
    row_map, col_map = layout_map(C1111, C1111)
    for i in range(C1111.k):
        for j in range(C1111.m):
            assert C1111.rows[row_map[i]][col_map[j]] == C1111.rows[i][j]


def test_layout_map_rejects_inequivalent():
    with pytest.raises(ValueError):
        layout_map(QUINTIC, C1111)
    with pytest.raises(ValueError):
        layout_map(
            ConfigurationMatrix([2, 3], [[1, 2], [3, 1]]),
            ConfigurationMatrix([2, 3], [[2, 1], [3, 1]]),
        )


def test_canonical_form_on_repeated_rows():
    # three identical rows must not blow up the search
    cfg = ConfigurationMatrix(
        [1, 1, 1, 1, 1, 1, 1],
        [
            [1, 1, 0, 0, 0],
            [1, 1, 0, 0, 0],
            [1, 1, 0, 0, 0],
            [0, 0, 1, 1, 0],
            [0, 0, 1, 1, 0],
            [1, 0, 0, 0, 1],
            [0, 1, 0, 0, 1],
        ],
    )
    rng = random.Random(3)
    key = canonical_key(cfg)
    for _ in range(20):
        assert canonical_key(_shuffled(cfg, rng)) == key
