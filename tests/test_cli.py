"""Command-line interface: subcommands, exit codes, JSON reports."""

import io
import json

import pytest

from cicyweb import invariants, web
from cicyweb.cli import main
from cicyweb.web import chain_from_json, verify_chain


@pytest.fixture
def quintic_file(tmp_path):
    path = tmp_path / "quintic.txt"
    path.write_text("4 | 5\n")
    return str(path)


@pytest.fixture
def quintic_split_file(tmp_path):
    path = tmp_path / "split.txt"
    path.write_text("4 | 4 1\n1 | 1 1\n")
    return str(path)


@pytest.fixture
def mixed_file(tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_text("2 | 1 1 1\n3 | 1 1 2\n1 | 0 0 2\n")
    return str(path)


# ----------------------------------------------------------------------
# validate


def test_validate_text_output(quintic_file, capsys):
    assert main(["validate", quintic_file]) == 0
    out = capsys.readouterr().out
    assert "4 | 5" in out
    assert "CICY 3-fold: True" in out
    assert "block-diagonal: False" in out


def test_validate_json_schema(quintic_file, capsys):
    assert main(["validate", quintic_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"tool_version", "input", "results", "checks"}
    assert payload["input"] == quintic_file
    assert payload["results"]["is_cicy"] is True
    assert payload["results"]["dimension"] == 3
    assert payload["results"]["matrix"] == ["4 | 5"]
    assert payload["checks"] == []


def test_validate_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("4 | 5\n"))
    assert main(["validate", "-"]) == 0
    assert "CICY 3-fold: True" in capsys.readouterr().out


def test_validate_reports_parse_errors(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("4 | 5\n3 | x\n")
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "line 2" in err


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.txt")]) == 1
    assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# invariants


def test_invariants_quintic(quintic_file, capsys):
    assert main(["invariants", quintic_file]) == 0
    out = capsys.readouterr().out
    assert "euler number: -200" in out
    assert "second Betti number: 1" in out
    assert "h11 = 1, h21 = 101" in out
    assert "(5/6)*l^3 + (25/6)*l" in out
    assert "0  5  15  35  70  125" in out


def test_invariants_json(mixed_file, capsys):
    assert main(["invariants", mixed_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    results = payload["results"]
    assert results["euler_number"] == -112
    assert results["betti2"] == 3
    assert results["hodge"] == {"h11": 3, "h21": 59}
    assert results["hilbert"]["polynomial"] == "(34/3)*l^3 + (26/3)*l"
    assert results["hilbert"]["values"]["5"] == 1460


def test_invariants_json_intersection_numbers(quintic_file, capsys):
    assert main(["invariants", quintic_file, "--json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["intersection"] == {"kappa_JJJ": 5, "c2_J": 50}
    assert main(["invariants", quintic_file, "--polarization", "2", "--json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["intersection"] == {"kappa_JJJ": 40, "c2_J": 100}


@pytest.mark.parametrize(
    "route, offset, message",
    [
        # the Hodge pair reads the cached Euler number; the Hilbert check
        # compares the intersection numbers with the division pass
        pytest.param("_euler_cached", 1, "odd Euler number", id="1-odd Euler number"),
        pytest.param(
            "_euler_by_division", 2, "intersection numbers", id="2-intersection numbers"
        ),
    ],
)
def test_invariants_euler_mismatch_exits_three(
    quintic_file, capsys, monkeypatch, route, offset, message
):
    euler = getattr(invariants, route)
    monkeypatch.setattr(invariants, route, lambda f, c: euler(f, c) + offset)
    assert main(["invariants", quintic_file]) == 3
    captured = capsys.readouterr()
    assert f"internal consistency failure: {message}" in captured.err
    assert "unavailable" not in captured.out
    assert "Traceback" not in captured.err


def test_invariants_polarization_flag(quintic_file, capsys):
    assert main(["invariants", quintic_file, "--polarization", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["hilbert"]["polarization"] == [2]
    assert payload["results"]["hilbert"]["values"]["1"] == 15


def test_invariants_polarization_takes_one_entry_per_row(tmp_path, capsys):
    path = tmp_path / "two_rows.txt"
    path.write_text("2 | 1 2\n3 | 4 0\n")
    assert main(["invariants", str(path), "--polarization", "2", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["hilbert"]["polarization"] == [2, 1]


@pytest.mark.parametrize(
    "polarization, message",
    [(["0"], "must be positive"), (["1", "2"], "1 expected, got 2")],
)
def test_invariants_bad_polarization_exits_one(quintic_file, capsys, polarization, message):
    assert main(["invariants", quintic_file, "--polarization", *polarization]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --polarization")
    assert message in captured.err
    assert captured.out == ""


def test_invariants_degrade_gracefully_on_surfaces(tmp_path, capsys):
    path = tmp_path / "octic.txt"
    path.write_text("3 | 8\n")
    assert main(["invariants", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["euler_number"] == 304
    assert payload["results"]["betti2"] == 302
    assert "hodge" not in payload["results"]
    assert "intersection" not in payload["results"]


def test_invariants_report_betti_errors(tmp_path, capsys):
    path = tmp_path / "curve.txt"
    path.write_text("2 | 3\n")
    assert main(["invariants", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "betti2" not in payload["results"]
    assert "betti2_error" in payload["results"]


# ----------------------------------------------------------------------
# transition


def test_transition_row(quintic_split_file, capsys):
    assert main(["transition", quintic_split_file, "--row", "2"]) == 0
    out = capsys.readouterr().out
    assert "row 2: N = 16, e = -168 -> -200" in out
    assert "4 | 5" in out  # the contracted matrix
    assert "PASS" in out


def test_transition_row_without_site(quintic_split_file, capsys):
    assert main(["transition", quintic_split_file, "--row", "1"]) == 1
    assert "no contraction site at row 1" in capsys.readouterr().err


def test_transition_all_empty(quintic_file, capsys):
    assert main(["transition", quintic_file, "--all"]) == 0
    assert "no contraction sites" in capsys.readouterr().out


def test_transition_json(mixed_file, capsys):
    assert main(["transition", mixed_file, "--all", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    (site,) = payload["results"]["sites"]
    assert site["row"] == 1
    assert site["one_columns"] == [1, 2, 3]
    assert site["odp_count"] == 28
    assert site["euler_resolved"] == -112
    assert site["euler_smoothed"] == -168
    assert site["certified"] is True
    assert site["contracted"] == ["3 | 4", "1 | 2"]
    assert all(check["pass"] for check in payload["checks"])


def test_transition_ineffective_flag(tmp_path, capsys):
    path = tmp_path / "ineffective.txt"
    path.write_text("4 | 5 0\n1 | 1 1\n")
    assert main(["transition", str(path), "--row", "2"]) == 0
    out = capsys.readouterr().out
    assert "N = 0" in out and "ineffective" in out


# ----------------------------------------------------------------------
# connect


def test_connect_quintic(quintic_file, capsys):
    assert main(["connect", quintic_file]) == 0
    out = capsys.readouterr().out
    assert "chain length: 5" in out
    assert "verified: PASS" in out
    assert "step 0: split (reverse contract)" in out
    assert "N = 16" in out


def test_connect_json(quintic_file, capsys):
    assert main(["connect", quintic_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    results = payload["results"]
    assert results["verified"] is True
    assert results["failures"] == []
    assert results["end"] == ["1 | 2", "1 | 2", "1 | 2", "1 | 2"]
    assert [s["odp_count"] for s in results["steps"]] == [16, 15, 14, 13, 22]
    assert any("smoothness" in a for a in results["assumptions"])
    assert all(check["pass"] for check in payload["checks"])


def test_connect_emit_chain(quintic_file, tmp_path, capsys):
    out_path = tmp_path / "chain.json"
    assert main(["connect", quintic_file, "--emit-chain", str(out_path)]) == 0
    assert f"chain written to {out_path}" in capsys.readouterr().out
    chain = chain_from_json(out_path.read_text())
    assert len(chain.steps) == 5
    assert verify_chain(chain).ok


def test_connect_broken_web_invariant_exits_three(quintic_file, capsys, monkeypatch):
    # a contraction that changes nothing stalls the Phase B measure
    monkeypatch.setattr(web, "contract", lambda site: site.config)
    assert main(["connect", quintic_file]) == 3
    err = capsys.readouterr().err
    assert "internal consistency failure: Phase B measure failed to decrease" in err
    assert "Traceback" not in err


def test_connect_rejects_non_cicy(tmp_path, capsys):
    path = tmp_path / "k3.txt"
    path.write_text("3 | 4\n")
    assert main(["connect", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# catalog


def test_catalog_list(capsys):
    assert main(["catalog", "--list"]) == 0
    out = capsys.readouterr().out
    for name in (
        "quintic-web",
        "example-3-7",
        "double-solid",
        "betti-example",
        "c1111",
        "schoen-fiber-product",
    ):
        assert name in out


def test_catalog_run_single(capsys):
    assert main(["catalog", "--run", "quintic-web"]) == 0
    out = capsys.readouterr().out
    assert "quintic-web:" in out
    assert "PASS" in out
    assert "FAIL" not in out


def test_catalog_run_unknown_name(capsys):
    assert main(["catalog", "--run", "no-such-entry"]) == 1
    assert "error:" in capsys.readouterr().err


def test_catalog_run_all_json(capsys):
    assert main(["catalog", "--run-all", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["results"]) == 6
    assert payload["checks"]
    for check in payload["checks"]:
        assert set(check) == {"name", "expected", "got", "provenance", "pass"}
        assert check["provenance"] in ("literature", "derived", "trivial")
        assert check["pass"] is True


# ----------------------------------------------------------------------
# usage errors, color, version


def test_usage_errors_exit_two(quintic_file):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["transition", quintic_file])  # needs --row or --all
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["catalog"])  # needs --list, --run, or --run-all
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert "cicyweb" in capsys.readouterr().out


def test_no_ansi_codes_when_not_a_tty(quintic_split_file, capsys):
    assert main(["transition", quintic_split_file, "--row", "2"]) == 0
    assert "\x1b[" not in capsys.readouterr().out


def test_color_enabled_on_tty(quintic_split_file, capsys, monkeypatch):
    monkeypatch.delenv("CICY_NO_COLOR", raising=False)
    monkeypatch.setattr("sys.stdout.isatty", lambda: True)
    assert main(["transition", quintic_split_file, "--row", "2"]) == 0
    assert "\x1b[32mPASS\x1b[0m" in capsys.readouterr().out


def test_color_suppressed_by_env(quintic_split_file, capsys, monkeypatch):
    monkeypatch.setenv("CICY_NO_COLOR", "1")
    monkeypatch.setattr("sys.stdout.isatty", lambda: True)
    assert main(["transition", quintic_split_file, "--row", "2"]) == 0
    assert "\x1b[" not in capsys.readouterr().out
