import json

import pytest

import golden
from rvqlab.evalstats import PESQ_TOOL_ENV


def test_toy_model_outputs_match_golden_digests(toy_model, toy_corpus, tmp_path, monkeypatch):
    stored = json.loads(golden.GOLDEN.read_text())
    here = golden.fingerprint()
    fields = golden.differing(stored["fingerprint"], here)
    if fields:
        pytest.skip(
            "golden digests were written on another platform; differing fingerprint fields: "
            + ", ".join(f"{k} ({stored['fingerprint'].get(k)} vs {here.get(k)})" for k in fields)
        )
    monkeypatch.delenv(PESQ_TOOL_ENV, raising=False)
    moved = golden.differing(stored["digests"], golden.compute_digests(toy_model[0], toy_corpus, tmp_path))
    assert not moved, (
        f"golden digests moved: {', '.join(moved)}; if intended, run "
        "`python tests/golden.py --write` and name the digests and the reason in CHANGES.md"
    )
