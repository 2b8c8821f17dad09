"""The scorecard: every claim of the paper, checked against a run."""

import re
from pathlib import Path

import pytest

from repro.bench import score

EXPERIMENTS = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"

#: The claims the reproduction fails (EXPERIMENTS "Known deviations",
#: DESIGN §5.1).  A row joins this set only when the program is
#: shown not to reproduce the paper; a row leaves it when it is fixed.
KNOWN_FAILING = {"t2.lan-indirect.bw4k", "t2.indirect-4k-order"}


def test_claim_keys_are_unique():
    keys = [c.key for c in score.CLAIMS]
    assert len(keys) == len(set(keys))


@pytest.mark.slow
def test_scorecard_matches_experiments_and_fails_only_known_rows():
    rows = score.evaluate(score.Measurements(jobs=2))
    text = EXPERIMENTS.read_text(encoding="utf-8")
    block = re.search(
        r"^<!-- score:begin[^\n]*-->\n(.*?)\n<!-- score:end -->$", text, re.S | re.M
    )
    assert block is not None, "EXPERIMENTS.md has no score block"
    assert block.group(1) == score.render(rows), (
        "EXPERIMENTS.md's score block is stale: regenerate it with "
        "`repro-bench score`"
    )
    assert {r.claim.key for r in rows if not r.ok} == KNOWN_FAILING
