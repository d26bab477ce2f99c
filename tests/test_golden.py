import json
import os
import subprocess
import sys

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


def test_toy_digests_do_not_depend_on_the_blas_thread_count(toy_model, toy_corpus, tmp_path, monkeypatch):
    # The same-bytes gate: the toy model and everything the CLI makes from it,
    # trained and made again in a process whose BLAS runs one thread, hash to
    # the digests of this process, which runs BLAS at its default count.
    monkeypatch.delenv(PESQ_TOOL_ENV, raising=False)
    model_path, _, summary = toy_model
    default = golden.compute_digests(model_path, summary, toy_corpus, tmp_path)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(golden.HERE.parent / "src"), str(golden.HERE)])}
    proc = subprocess.run(
        [sys.executable, "-c", "import json, golden; print(json.dumps(golden._toy_digests()))"],
        cwd=golden.HERE, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    one_thread = json.loads(proc.stdout.splitlines()[-1])
    assert golden.differing(default, one_thread) == []
