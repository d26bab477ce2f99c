import pytest

import golden
from rvqlab.evalstats import PESQ_TOOL_ENV


def test_toy_model_outputs_match_golden_digests(toy_model, toy_corpus, tmp_path, monkeypatch):
    reason = golden.platform_mismatch()
    if reason:
        pytest.skip(reason)
    monkeypatch.delenv(PESQ_TOOL_ENV, raising=False)
    model_path, _, summary = toy_model
    moved = golden.moved(golden.compute_digests(model_path, summary, toy_corpus, tmp_path))
    assert not moved, f"golden digests moved: {', '.join(moved)}; {golden.REWRITE_HINT}"
