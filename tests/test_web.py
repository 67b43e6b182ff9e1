"""The transition web: chains to the hub, verification, reversal, serialization."""

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cicyweb.catalog import (
    BETTI_EXAMPLE,
    DOUBLE_SOLID_RESOLVED,
    MIXED_CONTRACTION_EXAMPLE,
    QUINTIC,
    QUINTIC_SPLIT,
    SCHOEN_RESOLVED,
    quintic_chain,
)
from cicyweb.configuration import (
    C1111,
    C1111_KEY,
    ConfigurationMatrix,
    canonical_key,
    is_block_diagonal,
    is_cicy,
    normalize,
    validate,
)
from cicyweb.web import (
    TransitionChain,
    chain_from_json,
    chain_to_json,
    connect_pair,
    connect_to_c1111,
    random_cicy,
    reverse_chain,
    verify_chain,
)

WEB_CORPUS = (
    QUINTIC,
    QUINTIC_SPLIT,
    DOUBLE_SOLID_RESOLVED,
    MIXED_CONTRACTION_EXAMPLE,
    BETTI_EXAMPLE,
    SCHOEN_RESOLVED,
    C1111,
)


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
# connecting to the hub


def test_connect_corpus_reaches_hub_verified():
    for cfg in WEB_CORPUS:
        chain = connect_to_c1111(cfg)
        assert chain.start == cfg
        assert chain.end == C1111
        assert canonical_key(chain.end) == C1111_KEY
        report = verify_chain(chain)
        assert report.ok, report.failures
        assert report.failures == ()
        assert len(report.checks) == len(chain.steps)


def test_connect_hub_is_empty_chain():
    chain = connect_to_c1111(C1111)
    assert chain.steps == ()
    assert chain.start == chain.end == C1111
    assert verify_chain(chain).ok


def test_connect_chain_lengths_are_deterministic():
    assert len(connect_to_c1111(QUINTIC).steps) == 5
    assert len(connect_to_c1111(DOUBLE_SOLID_RESOLVED).steps) == 4
    assert len(connect_to_c1111(MIXED_CONTRACTION_EXAMPLE).steps) == 5
    assert len(connect_to_c1111(BETTI_EXAMPLE).steps) == 7
    assert len(connect_to_c1111(SCHOEN_RESOLVED).steps) == 7
    # equal inputs give equal chains
    assert connect_to_c1111(QUINTIC) == connect_to_c1111(QUINTIC)


def test_connect_quintic_step_numbers():
    chain = connect_to_c1111(QUINTIC)
    report = verify_chain(chain)
    assert [c.kind for c in report.checks] == ["split"] * 4 + ["contract"]
    assert [c.odp_count for c in report.checks] == [16, 15, 14, 13, 22]
    last = report.checks[-1]
    assert (last.euler_resolved, last.euler_smoothed) == (-84, -128)


def test_connect_waypoints_are_anchored():
    chain = connect_to_c1111(MIXED_CONTRACTION_EXAMPLE)
    points = chain.waypoints()
    assert len(points) == len(chain.steps) + 1
    assert points[0] == chain.start
    assert points[-1] == chain.end
    for step, after in zip(chain.steps, points[1:]):
        assert step.after_matrix == after
        # every waypoint stays a valid normalized CICY
        report = validate(after)
        assert report.is_cicy and not report.block_diagonal and report.column_sums_ok


def test_connect_rejects_bad_inputs():
    with pytest.raises(ValueError):
        connect_to_c1111(ConfigurationMatrix([3], [[4]]))  # not a 3-fold
    with pytest.raises(ValueError):
        connect_to_c1111(ConfigurationMatrix([3, 3], [[4, 0], [0, 4]]))  # block-diagonal
    with pytest.raises(ValueError):
        connect_to_c1111(ConfigurationMatrix([4, 1], [[5, 1], [1, 0]]))  # not normalized


def test_connect_shuffled_inputs_still_reach_hub():
    rng = random.Random(6)
    for cfg in (QUINTIC_SPLIT, MIXED_CONTRACTION_EXAMPLE, BETTI_EXAMPLE):
        for _ in range(5):
            chain = connect_to_c1111(_shuffled(cfg, rng))
            assert canonical_key(chain.end) == C1111_KEY
            assert verify_chain(chain).ok


def test_stored_quintic_chain_matches_algorithm_contract():
    chain = quintic_chain()
    report = verify_chain(chain)
    assert report.ok
    first = report.checks[0]
    assert first.kind == "split"
    assert first.site_row == 1
    assert first.odp_count == 16
    assert (first.euler_resolved, first.euler_smoothed) == (-168, -200)


# ----------------------------------------------------------------------
# verification catches corruption


def test_verify_flags_tampered_split_parts_legal_variant():
    chain = connect_to_c1111(QUINTIC)
    step = chain.steps[0]
    # a different legal split of the same column: lands on a different matrix
    tampered = dataclasses.replace(step, parts=((3,), (2,)))
    bad = TransitionChain(chain.start, (tampered,) + chain.steps[1:], chain.end)
    report = verify_chain(bad)
    assert not report.ok
    assert any(failure.startswith("step 0:") for failure in report.failures)
    # later steps still verify against their own stored waypoints
    assert len(report.checks) == len(chain.steps)


def test_verify_flags_tampered_split_parts_illegal_variant():
    chain = connect_to_c1111(QUINTIC)
    step = chain.steps[0]
    tampered = dataclasses.replace(step, parts=((4,), (2,)))  # sums to 6, not 5
    bad = TransitionChain(chain.start, (tampered,) + chain.steps[1:], chain.end)
    report = verify_chain(bad)
    assert not report.ok
    assert any("illegal split" in failure for failure in report.failures)


def test_verify_flags_tampered_contract_columns():
    chain = connect_to_c1111(QUINTIC)
    index = next(i for i, s in enumerate(chain.steps) if s.kind == "contract")
    step = chain.steps[index]
    tampered = dataclasses.replace(step, one_columns=step.one_columns[:-1])
    bad = TransitionChain(
        chain.start,
        chain.steps[:index] + (tampered,) + chain.steps[index + 1:],
        chain.end,
    )
    report = verify_chain(bad)
    assert not report.ok
    assert any(f"step {index}: illegal contract" in failure for failure in report.failures)


def test_verify_flags_out_of_range_contract_row():
    chain = connect_to_c1111(QUINTIC)
    payload = json.loads(chain_to_json(chain))
    index = next(i for i, s in enumerate(payload["steps"]) if s["kind"] == "contract")
    payload["steps"][index]["row"] = 99
    report = verify_chain(chain_from_json(json.dumps(payload)))
    assert not report.ok
    assert any(
        failure.startswith(f"step {index}: illegal contract: row 100 is not a contraction site")
        for failure in report.failures
    )


def test_verify_flags_swapped_waypoint():
    chain = connect_to_c1111(MIXED_CONTRACTION_EXAMPLE)
    step = chain.steps[1]
    tampered = dataclasses.replace(step, after_matrix=C1111)
    bad = TransitionChain(
        chain.start, (chain.steps[0], tampered) + chain.steps[2:], chain.end
    )
    # the guarantee survives the JSON round trip
    reloaded = chain_from_json(chain_to_json(bad))
    for report in (verify_chain(bad), verify_chain(reloaded)):
        assert not report.ok
        assert any("stored waypoint" in failure for failure in report.failures)


def test_verify_flags_wrong_end():
    chain = connect_to_c1111(QUINTIC)
    bad = TransitionChain(chain.start, chain.steps, QUINTIC)
    report = verify_chain(bad)
    assert not report.ok
    assert any("end matrix" in failure for failure in report.failures)


def test_verify_accepts_a_permuted_end(monkeypatch):
    # the end check falls back to canonical keys when the recorded end is
    # another layout of the last waypoint
    import cicyweb.web as web

    back = reverse_chain(connect_to_c1111(MIXED_CONTRACTION_EXAMPLE))
    rng = random.Random(7)
    end = _shuffled(back.end, rng)
    while end == back.end:
        end = _shuffled(back.end, rng)
    calls = []
    monkeypatch.setattr(web, "canonical_key", lambda cfg: calls.append(cfg) or canonical_key(cfg))
    report = verify_chain(TransitionChain(back.start, back.steps, end))
    assert report.ok, report.failures
    assert end in calls


def test_forward_chains_compute_no_canonical_key(monkeypatch):
    # every forward waypoint is the literal step result and the hub has one
    # layout, so connecting and verifying never needs a key, nor does the
    # JSON reload
    import cicyweb.web as web

    calls = []
    monkeypatch.setattr(web, "canonical_key", lambda cfg: calls.append(cfg) or canonical_key(cfg))
    corpus = WEB_CORPUS + tuple(random_cicy(seed, 7, 9) for seed in range(20))
    for cfg in corpus:
        chain = connect_to_c1111(cfg)
        reloaded = chain_from_json(chain_to_json(chain))
        assert verify_chain(chain).ok
        assert verify_chain(reloaded).ok
    assert calls == []


# ----------------------------------------------------------------------
# reversal and pairing


def test_reverse_chain_verifies():
    for cfg in (QUINTIC, MIXED_CONTRACTION_EXAMPLE, SCHOEN_RESOLVED):
        chain = connect_to_c1111(cfg)
        back = reverse_chain(chain)
        assert back.start == chain.end
        assert back.end == chain.start
        assert len(back.steps) == len(chain.steps)
        report = verify_chain(back)
        assert report.ok, report.failures


def test_reverse_twice_restores_waypoints():
    chain = connect_to_c1111(DOUBLE_SOLID_RESOLVED)
    twice = reverse_chain(reverse_chain(chain))
    assert twice.start == chain.start
    assert twice.end == chain.end
    assert twice.waypoints() == chain.waypoints()
    assert verify_chain(twice).ok


def test_reverse_empty_chain():
    chain = connect_to_c1111(C1111)
    back = reverse_chain(chain)
    assert back.steps == ()
    assert verify_chain(back).ok


def test_connect_pair_endpoints_are_literal():
    chain = connect_pair(QUINTIC, SCHOEN_RESOLVED)
    assert chain.start == QUINTIC
    assert chain.end == SCHOEN_RESOLVED
    assert len(chain.steps) == 12
    report = verify_chain(chain)
    assert report.ok, report.failures


def test_connect_pair_same_config():
    chain = connect_pair(QUINTIC, QUINTIC)
    assert chain.start == chain.end == QUINTIC
    assert verify_chain(chain).ok


def test_connect_pair_through_hub():
    chain = connect_pair(QUINTIC_SPLIT, BETTI_EXAMPLE)
    keys = {canonical_key(w) for w in chain.waypoints()}
    assert C1111_KEY in keys
    assert verify_chain(chain).ok


def test_reverse_of_connect_pair():
    # paired chains mix algorithm steps with already-reversed steps; the
    # reversal must stay total on them
    chain = connect_pair(QUINTIC, SCHOEN_RESOLVED)
    back = reverse_chain(chain)
    assert back.start == SCHOEN_RESOLVED
    assert back.end == QUINTIC
    report = verify_chain(back)
    assert report.ok, report.failures


# ----------------------------------------------------------------------
# serialization


def test_chain_json_round_trip():
    for cfg in (QUINTIC, MIXED_CONTRACTION_EXAMPLE, C1111):
        chain = connect_to_c1111(cfg)
        text = chain_to_json(chain)
        rebuilt = chain_from_json(text)
        assert rebuilt.start == chain.start
        assert rebuilt.end == chain.end
        assert len(rebuilt.steps) == len(chain.steps)
        assert verify_chain(rebuilt).ok
        assert chain_to_json(rebuilt) == text


def test_chain_json_preserves_reports():
    chain = connect_to_c1111(QUINTIC)
    rebuilt = chain_from_json(chain_to_json(chain))
    for before, after in zip(chain.steps, rebuilt.steps):
        assert before.kind == after.kind
        assert before.after_matrix == after.after_matrix
        if before.kind == "split":
            assert (before.column, before.n, before.parts) == (
                after.column,
                after.n,
                after.parts,
            )
        else:
            assert (before.row, before.one_columns) == (after.row, after.one_columns)
            assert before.report == after.report


def test_chain_json_detects_tampered_numbers():
    import json as jsonlib

    chain = connect_to_c1111(QUINTIC)
    payload = jsonlib.loads(chain_to_json(chain))
    for entry in payload["steps"]:
        if "odp_count" in entry:
            entry["odp_count"] += 1
            break
    rebuilt = chain_from_json(jsonlib.dumps(payload))
    report = verify_chain(rebuilt)
    assert not report.ok
    assert any("stored report" in failure for failure in report.failures)


@pytest.mark.parametrize(
    "kind, field",
    [
        ("split", "column"),
        ("split", "n"),
        ("split", "parts"),
        ("contract", "row"),
        ("contract", "one_columns"),
        ("contract", "odp_count"),
        ("contract", "euler_before"),
    ],
)
def test_chain_json_rejects_non_integral_fields(kind, field):
    # truncation would drop the 0.7 and rebuild the stored chain unchanged
    chain = connect_to_c1111(QUINTIC)
    payload = json.loads(chain_to_json(chain))
    entry = next(entry for entry in payload["steps"] if entry["kind"] == kind)
    if field == "parts":
        entry["parts"][0][0] += 0.7
    elif field == "one_columns":
        entry["one_columns"][0] += 0.7
    else:
        entry[field] += 0.7
    with pytest.raises(TypeError):
        chain_from_json(json.dumps(payload))


@pytest.mark.parametrize(
    "kind, field",
    [
        ("split", "column"),
        ("split", "n"),
        ("split", "parts"),
        ("contract", "row"),
        ("contract", "one_columns"),
        ("contract", "odp_count"),
        ("contract", "euler_before"),
        ("contract", "euler_after"),
    ],
)
def test_chain_json_rejects_booleans_in_integer_fields(kind, field):
    # operator.index(True) is 1, so a JSON true would pass for the integer 1
    chain = connect_to_c1111(QUINTIC)
    payload = json.loads(chain_to_json(chain))
    entry = next(entry for entry in payload["steps"] if entry["kind"] == kind)
    if field == "parts":
        entry["parts"][0][0] = True
    elif field == "one_columns":
        entry["one_columns"][0] = True
    else:
        entry[field] = True
    with pytest.raises(TypeError):
        chain_from_json(json.dumps(payload))


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_chain_json_ineffective_must_be_a_json_boolean(value):
    # bool("false") is True: the step would load with the wrong report
    chain = connect_to_c1111(QUINTIC)
    payload = json.loads(chain_to_json(chain))
    entry = next(entry for entry in payload["steps"] if "ineffective" in entry)
    entry["ineffective"] = value
    with pytest.raises(TypeError):
        chain_from_json(json.dumps(payload))
    entry["ineffective"] = False
    assert verify_chain(chain_from_json(json.dumps(payload))).ok


@pytest.mark.parametrize("step_kind, bad_kind", [("contract", "bogus"), ("split", "Split")])
def test_chain_json_rejects_unknown_step_kinds(step_kind, bad_kind):
    # an unknown kind must not load as a contract step and verify
    chain = connect_to_c1111(QUINTIC)
    payload = json.loads(chain_to_json(chain))
    entry = next(entry for entry in payload["steps"] if entry["kind"] == step_kind)
    entry["kind"] = bad_kind
    with pytest.raises(ValueError, match=f"unknown step kind '{bad_kind}'"):
        chain_from_json(json.dumps(payload))


@pytest.mark.parametrize("field", ["start", "end", "steps"])
def test_chain_json_names_a_missing_top_level_field(field):
    payload = json.loads(chain_to_json(connect_to_c1111(QUINTIC_SPLIT)))
    del payload[field]
    with pytest.raises(ValueError, match=f"chain JSON lacks field '{field}'"):
        chain_from_json(json.dumps(payload))


@pytest.mark.parametrize(
    "kind, field",
    [
        ("split", "kind"),
        ("split", "matrix"),
        ("split", "column"),
        ("split", "n"),
        ("split", "parts"),
        ("contract", "kind"),
        ("contract", "matrix"),
        ("contract", "row"),
        ("contract", "one_columns"),
        ("contract", "euler_before"),
        ("contract", "euler_after"),
        ("contract", "ineffective"),
    ],
)
def test_chain_json_names_a_missing_step_field(kind, field):
    # a bare KeyError would name neither the step nor what the field is
    payload = json.loads(chain_to_json(connect_to_c1111(QUINTIC)))
    index = next(i for i, entry in enumerate(payload["steps"]) if entry["kind"] == kind)
    del payload["steps"][index][field]
    with pytest.raises(ValueError, match=f"chain JSON step {index} lacks field '{field}'"):
        chain_from_json(json.dumps(payload))


def test_chain_json_report_fields_are_optional_together():
    payload = json.loads(chain_to_json(connect_to_c1111(QUINTIC)))
    entry = next(entry for entry in payload["steps"] if "odp_count" in entry)
    for field in ("odp_count", "euler_before", "euler_after", "ineffective"):
        del entry[field]
    assert verify_chain(chain_from_json(json.dumps(payload))).ok


def test_chain_json_detects_report_on_split_step():
    import json as jsonlib

    chain = connect_to_c1111(QUINTIC_SPLIT)
    payload = jsonlib.loads(chain_to_json(chain))
    index = next(i for i, entry in enumerate(payload["steps"]) if entry["kind"] == "split")
    payload["steps"][index].update(
        odp_count=999, euler_before=1, euler_after=-1997, ineffective=False
    )
    rebuilt = chain_from_json(jsonlib.dumps(payload))
    report = verify_chain(rebuilt)
    assert not report.ok
    assert f"step {index}: split step carries a report" in report.failures


# ----------------------------------------------------------------------
# the random generator


def test_random_cicy_is_deterministic():
    for seed in range(20):
        assert random_cicy(seed) == random_cicy(seed)
    assert random_cicy(3, max_rows=5) == random_cicy(3, max_rows=5)
    # bounds participate in the stream, so they change the draw
    assert any(
        random_cicy(seed) != random_cicy(seed, max_rows=5) for seed in range(20)
    )


def test_random_cicy_produces_valid_web_states():
    for seed in range(60):
        cfg = random_cicy(seed)
        report = validate(cfg)
        assert report.is_cicy
        assert not report.block_diagonal
        assert report.column_sums_ok
        assert normalize(cfg) is cfg
        assert cfg.k <= 7 and cfg.m <= 9


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9), st.integers(2, 6), st.integers(2, 8))
def test_random_cicy_respects_bounds(seed, max_rows, max_cols):
    cfg = random_cicy(seed, max_rows=max_rows, max_cols=max_cols)
    assert cfg.k <= max_rows
    assert cfg.m <= max_cols
    assert is_cicy(cfg) and not is_block_diagonal(cfg)


def test_random_cicy_rejects_bad_bounds():
    with pytest.raises(ValueError):
        random_cicy(0, max_rows=0)
    with pytest.raises(ValueError):
        random_cicy(0, max_cols=0)


def test_random_chains_verify():
    for seed in range(30):
        cfg = random_cicy(seed)
        chain = connect_to_c1111(cfg)
        report = verify_chain(chain)
        assert report.ok, (cfg.render(), report.failures)
        assert canonical_key(chain.end) == C1111_KEY
