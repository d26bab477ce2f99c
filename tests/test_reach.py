"""Every public callable runs under some subcommand, or is declared library API.

A fresh interpreter installs a profiler on its thread and on every thread
it starts (eval's and decode's helpers), before it imports rvqlab.  Then
it runs cli.main once per subcommand on toy inputs and prints the names of
the public callables whose code ran: a function's own code, a dataclass's
__init__.  With DECLARED, those must be exactly test_contract's table of
public callables, so a public function that no program path calls fails
here until it gets a caller, a declaration or is deleted.
"""

import json
import os
import stat
import subprocess
import sys
from pathlib import Path

from rvqlab.dsp import AudioBuffer
from rvqlab.wavio import write_wav

from signals import speech_like
from test_contract import _public_callables

# Public API that no subcommand calls, each with the reason it stays.
DECLARED = {
    "frontend.fit_frontend": "fits a front-end from raw audio; training fits from the frames it already analysed",
    "metrics.mel_loss": "one-pair metric; eval scores through the reference analysis it builds once per file",
    "metrics.stft_loss": "one-pair metric; eval scores through the reference analysis it builds once per file",
    "metrics.stoi": "one-pair metric; eval scores through the reference analysis it builds once per file",
    "rvq.stage_distortions": "per-stage distortion of held-out latents, which no subcommand reports yet",
    "bitstream.prefix": "cuts an .rvqs stream to its first q stages, for embedded prefix streams",
    "dsp.istft": "the exact inverse of stft, the reference that Griffin-Lim is checked against",
}

# Run by the child: argv[1] is the JSON list of public callables, argv[2] the
# training manifest, the working directory holds the other inputs, and the
# last line printed is the reached names.
_CHILD = r"""
import sys, threading
reached = set()

def profile(frame, event, arg):
    if event == "call":
        reached.add(frame.f_code)

sys.setprofile(profile)
threading.setprofile(profile)
import contextlib, importlib, io, json
from rvqlab.cli import main

model = ["--model", "model.rvqm"]
evaluate = ["eval", *model, "--test", "held=held.jsonl", "--q-list", "2,1", "--gl-iterations", "2"]
runs = [
    ["validate", sys.argv[2]],
    ["train", "--manifest", sys.argv[2], "--out", "model.rvqm", "-Q", "2", "-K", "8", "-D", "8",
     "--code-dim", "4", "--batches", "2", "--batch-size", "12", "--excerpt-samples", "3200"],
    ["encode", *model, "clip24.wav", "-q", "2", "clip24.rvqs"],
    ["encode", *model, "clip16.wav", "-q", "2", "clip16.rvqs"],
    ["decode", *model, "clip24.rvqs", "full.wav", "--gl-iterations", "2"],
    ["decode", *model, "clip24.rvqs", "-q", "1", "prefix.wav", "--gl-iterations", "2"],
    [*evaluate, "--json"],
    [*evaluate, "--format", "csv", "--out", "report.csv"],
    ["mushra", "scores.csv", "--json"],
    ["mushra", "scores.csv", "--format", "csv"],
]
for argv in runs:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    if code:
        sys.exit(f"{argv[0]} exited {code}: {err.getvalue()}")
sys.setprofile(None)
threading.setprofile(None)


def code_of(name):
    module, attr = name.split(".")
    obj = getattr(importlib.import_module(f"rvqlab.{module}"), attr)
    return (obj.__init__ if isinstance(obj, type) else obj).__code__


print(json.dumps(sorted(name for name in json.loads(sys.argv[1]) if code_of(name) in reached)))
"""


def _write_inputs(root: Path) -> None:
    held = []
    for name, rate, seed in (("clip24.wav", 24000, 801), ("clip16.wav", 16000, 802), ("h2.wav", 24000, 803)):
        write_wav(root / name, AudioBuffer(speech_like(1.0, rate, seed), rate))
        if rate == 24000:
            held.append(json.dumps({"path": name, "category": "HQ1", "duration": 1.0, "sample_rate": rate}))
    (root / "held.jsonl").write_text("\n".join(held) + "\n")
    (root / "scores.csv").write_text(
        "subject,stimulus,system,score\n"
        + "".join(f"s{i},a,reference,{90 + i}\ns{i},a,codec,{60 + 3 * i}\n" for i in range(4))
    )
    tool = root / "pesq.sh"
    tool.write_text('#!/bin/sh\necho "MOS-LQO = 3.5"\n')
    tool.chmod(tool.stat().st_mode | stat.S_IEXEC)


def test_every_public_callable_is_reached_or_declared(tmp_path, toy_corpus):
    _write_inputs(tmp_path)
    public = _public_callables()
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "RVQLAB_PESQ_TOOL": str(tmp_path / "pesq.sh")}
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(sorted(public)), str(toy_corpus)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    reached = set(json.loads(proc.stdout.splitlines()[-1]))
    assert not reached & set(DECLARED), "declared, yet reached by a subcommand"
    assert reached | set(DECLARED) == public, "public, yet neither reached nor declared"
