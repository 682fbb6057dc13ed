"""The paper's claims table (``repro.harness.claims``) in tier-1.

One test per claim x check, each claim run once per module, plus the
freshness test: the committed ``RESULTS.md`` must equal a fresh render
byte for byte.  The ``repro claims`` verb tests run a two-claim stand-in
table.
"""

from __future__ import annotations

import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.harness import claims
from repro.harness.claims import Claim, Verdict

RESULTS_MD = Path(__file__).resolve().parents[2] / "RESULTS.md"


@pytest.fixture(scope="module")
def results() -> dict:
    """Claim id -> rows, filled as the tests first need each claim."""
    return {}


def rows_of(results: dict, claim: Claim) -> list[dict]:
    if claim.id not in results:
        results[claim.id] = claim.rows()
    return results[claim.id]


@pytest.mark.parametrize(
    "claim,verdict",
    [(claim, verdict) for claim in claims.CLAIMS for verdict in claim.checks],
    ids=[f"{claim.id}/{verdict.name}" for claim in claims.CLAIMS for verdict in claim.checks],
)
def test_check(results, claim, verdict):
    rows = rows_of(results, claim)
    assert verdict.check(rows), f"{claim.id}: {verdict.claim}\n{claim.table(rows)}"


def test_results_md_is_fresh(results):
    for claim in claims.CLAIMS:
        rows_of(results, claim)
    assert RESULTS_MD.read_text() == claims.render(results), (
        "RESULTS.md is stale; regenerate it with `make results`"
    )


def test_results_md_is_host_independent():
    text = RESULTS_MD.read_text()
    needles = (
        str(RESULTS_MD.parent),
        sys.prefix,
        platform.python_version(),
        platform.node(),
        np.__version__,
    )
    for needle in filter(None, needles):
        assert needle not in text


STAND_IN = (
    Claim(
        "good",
        "A passing claim",
        lambda: [{"x": 1.0}],
        (Verdict("positive", "x is positive", lambda rows: rows[0]["x"] > 0),),
    ),
    Claim(
        "bad",
        "A failing claim",
        lambda: [{"x": 1.0}],
        (
            Verdict("positive", "x is positive", lambda rows: rows[0]["x"] > 0),
            Verdict("large", "x exceeds 2", lambda rows: rows[0]["x"] > 2),
        ),
    ),
)


def test_verb_exits_1_and_names_the_failed_check(monkeypatch, capsys):
    monkeypatch.setattr(claims, "CLAIMS", STAND_IN)
    assert main(["claims"]) == 1
    out, err = capsys.readouterr()
    assert out == claims.render({"good": [{"x": 1.0}], "bad": [{"x": 1.0}]})
    assert "[FAILS] bad: large" in err
    assert "good" not in err and "positive" not in err
    assert "- [FAILS] `large`: x exceeds 2" in out
    assert "- [holds] `positive`: x is positive" in out


def test_verb_exits_0_when_every_check_holds(monkeypatch, capsys):
    monkeypatch.setattr(claims, "CLAIMS", STAND_IN[:1])
    assert main(["claims"]) == 0
    assert capsys.readouterr().err == ""


def test_verb_takes_no_options():
    with pytest.raises(SystemExit):
        main(["claims", "--smoke"])


def test_verb_runs_only_the_named_claims(monkeypatch, capsys):
    monkeypatch.setattr(claims, "CLAIMS", STAND_IN)
    assert main(["claims", "good"]) == 0
    out, err = capsys.readouterr()
    assert out == claims.render({"good": [{"x": 1.0}]})
    assert "## good" in out and "## bad" not in out
    assert err == ""
    assert main(["claims", "bad", "good"]) == 1  # rendered in table order
    assert capsys.readouterr().out == claims.render({"good": [{"x": 1.0}], "bad": [{"x": 1.0}]})


def test_verb_exits_2_on_an_unknown_id(monkeypatch, capsys):
    monkeypatch.setattr(claims, "CLAIMS", STAND_IN)
    assert main(["claims", "good", "no-such-claim"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "no-such-claim" in err
