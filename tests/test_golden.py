import json
import os
import subprocess
import sys

import pytest

import golden
from rvqlab.dsp import AudioBuffer
from rvqlab.evalstats import PESQ_TOOL_ENV
from rvqlab.wavio import write_wav

from signals import speech_like


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


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call on this platform")
def test_toy_decode_does_not_depend_on_the_cpu_count(toy_model, tmp_path):
    # Griffin-Lim splits its rows over every idle CPU: a decode in a process
    # pinned to one CPU must write the bytes and --json of a default one.
    model_path, _, _ = toy_model
    wav = tmp_path / "clip.wav"
    write_wav(wav, AudioBuffer(speech_like(golden.CLIP_SECONDS, 24000, golden.CLIP_SEED), 24000))
    stream = tmp_path / "clip.rvqs"
    golden._cli(["encode", "--model", str(model_path), str(wav), "-q", str(golden.FULL_Q), str(stream)])
    (tmp_path / "default").mkdir()
    (tmp_path / "one_cpu").mkdir()
    default = golden.decode_outputs(model_path, stream, tmp_path / "default")
    code = (
        "import json, os, golden\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        f"print(json.dumps(golden.decode_outputs({str(model_path)!r}, {str(stream)!r}, "
        f"{str(tmp_path / 'one_cpu')!r})))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(golden.HERE.parent / "src"), str(golden.HERE)])}
    proc = subprocess.run([sys.executable, "-c", code], cwd=golden.HERE, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    one_cpu = json.loads(proc.stdout.splitlines()[-1])
    assert golden.differing(default, one_cpu) == []
    if not golden.platform_mismatch():
        assert not golden.moved({k: v for k, v in default.items() if k.startswith("wav_")})
