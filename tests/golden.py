"""Golden SHA-256 digests of the toy and desk models and of what the CLI makes.

    python tests/golden.py --write    rebuild both models and rewrite golden.json
    python tests/golden.py            rebuild them and name the digests that moved

Rebuilding trains the desk model (Q=32, K=1024), which takes minutes.
tests/test_golden.py checks the toy digests against the session toy model:
its container (whose corpus_hash covers excerpt samples, not paths) and train_codec
summary, the .rvqs of one speech-like clip at 24, 16 and 48 kHz input (so
the resampler is pinned too), the float32 WAVs decoded from the 24 kHz
stream at full and prefix q, the eval report as csv, markdown and --json,
and `mushra --json` on a fixed score file.  tests/test_acceptance.py checks
the desk model's container and its held-out eval report against the
session desk fixture, which pins K=1024 k-means.  A change that moves a
digest names it and its reason in CHANGES.md and rewrites the file.

The digests are strict only on the fingerprint they were written on (numpy
version, BLAS name and version, machine): another BLAS kernel may legally
move low bits, so elsewhere the test skips and names the fields that differ.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
REWRITE_HINT = (
    "if intended, run `python tests/golden.py --write` and name the digests and the reason in CHANGES.md"
)

if __name__ == "__main__":  # run as a script from a checkout
    sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from rvqlab import container  # noqa: E402
from rvqlab.cli import main as cli_main  # noqa: E402
from rvqlab.dsp import AudioBuffer  # noqa: E402
from rvqlab.evalstats import PESQ_TOOL_ENV  # noqa: E402
from rvqlab.wavio import write_wav  # noqa: E402

from signals import speech_like  # noqa: E402

CLIP_SECONDS, CLIP_SEED = 1.5, 31
INPUT_RATES = (24000, 16000, 48000)
FULL_Q, PREFIX_Q = 4, 2
EVAL_ARGS = ["--q-list", "4,1", "--gl-iterations", "8"]
# (system, base score, count) of the fixed MUSHRA file: 32 scores each for
# three systems (normal-approximation p-values) and 8 for "anchor" (exact).
MUSHRA_SYSTEMS = (("reference", 89, 32), ("codec_hi", 74, 32), ("codec_lo", 38, 32), ("anchor", 15, 8))


def fingerprint() -> dict:
    """The platform facts that may legally move low bits of the digests."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "machine": platform.machine(),
    }


def differing(stored: dict, current: dict) -> list[str]:
    """Sorted keys whose values differ between two flat dicts (or are in one only)."""
    return sorted(k for k in stored.keys() | current.keys() if stored.get(k) != current.get(k))


def platform_mismatch() -> str | None:
    """Why golden.json's digests cannot be strict here, or None when they are."""
    stored = json.loads(GOLDEN.read_text())["fingerprint"]
    here = fingerprint()
    fields = differing(stored, here)
    if not fields:
        return None
    return "golden digests were written on another platform; differing fingerprint fields: " + ", ".join(
        f"{k} ({stored.get(k)} vs {here.get(k)})" for k in fields
    )


def moved(digests: dict) -> list[str]:
    """Names of the given digests that differ from (or are missing in) golden.json."""
    stored = json.loads(GOLDEN.read_text())["digests"]
    return differing({name: stored.get(name) for name in digests}, digests)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(argv) -> str:
    """stdout of one in-process rvqlab call; any nonzero exit is an error."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"rvqlab {' '.join(argv)} exited {code}")
    return out.getvalue()


def _check_pesq_unset() -> None:
    if os.environ.get(PESQ_TOOL_ENV):
        raise RuntimeError(f"unset {PESQ_TOOL_ENV}: eval records the PESQ tool it used")


def _write_mushra_scores(path) -> None:
    """A MUSHRA score file whose scores are a fixed function of subject and stimulus."""
    lines = ["# fixed golden scores", "subject,stimulus,system,score"]
    for system, base, n in MUSHRA_SYSTEMS:
        for i in range(n):
            subject, stimulus = divmod(i, 4)
            lines.append(f"s{subject},st{stimulus},{system},{base + (7 * i + 3 * len(system)) % 11}")
    Path(path).write_text("\n".join(lines) + "\n")


def compute_digests(model_path, summary, corpus_manifest, workdir) -> dict:
    """Digest name -> SHA-256 of the toy model, its train_codec summary, its CLI
    outputs in workdir, and `mushra --json` on the fixed score file.

    $RVQLAB_PESQ_TOOL must be unset: the tool is recorded in the eval config.
    """
    _check_pesq_unset()
    workdir = Path(workdir)
    model = ["--model", str(model_path)]
    digests = {
        "toy_model": _sha256(Path(model_path).read_bytes()),
        "toy_summary": _sha256(json.dumps(summary, sort_keys=True).encode()),
    }

    encoded = encode_outputs(model_path, workdir)
    digests.update((name, digest) for name, digest in encoded.items() if name.startswith("rvqs_"))

    decoded = decode_outputs(model_path, workdir / "clip_24000.rvqs", workdir)
    digests.update((name, digest) for name, digest in decoded.items() if name.startswith("wav_"))

    test = ["--test", f"toy={corpus_manifest}", *EVAL_ARGS]
    csv = workdir / "report.csv"
    # With --out the report goes to the file and --json is stdout's last line.
    stdout = _cli(["eval", *model, *test, "--format", "csv", "--out", str(csv), "--json"])
    digests["eval_csv"] = _sha256(csv.read_bytes())
    digests["eval_json"] = _sha256(stdout.splitlines()[-1].encode())
    digests["eval_markdown"] = _sha256(_cli(["eval", *model, *test, "--format", "markdown"]).encode())

    scores = workdir / "mushra.csv"
    _write_mushra_scores(scores)
    digests["mushra_json"] = _sha256(_cli(["mushra", str(scores), "--json"]).encode())
    return digests


def encode_outputs(model_path, workdir) -> dict:
    """Digest name -> SHA-256 of the .rvqs stream (rvqs_*k) and of the --json
    line less its output path (encode_json_*k) of encoding the golden clip
    at each input rate into workdir, as clip_<rate>.rvqs."""
    workdir = Path(workdir)
    digests = {}
    for rate in INPUT_RATES:
        wav = workdir / f"clip_{rate}.wav"
        write_wav(wav, AudioBuffer(speech_like(CLIP_SECONDS, rate, CLIP_SEED), rate))
        stream = workdir / f"clip_{rate}.rvqs"
        stdout = _cli(["encode", "--model", str(model_path), str(wav), "-q", str(FULL_Q), str(stream), "--json"])
        payload = json.loads(stdout.splitlines()[-1])
        del payload["out"]
        digests[f"rvqs_{rate // 1000}k"] = _sha256(stream.read_bytes())
        digests[f"encode_json_{rate // 1000}k"] = _sha256(json.dumps(payload, sort_keys=True).encode())
    return digests


def decode_outputs(model_path, stream, workdir) -> dict:
    """Digest name -> SHA-256 of the float32 WAV (wav_q*) and of the --json
    line less its output path (decode_json_q*) of decoding stream at full
    and prefix q into workdir."""
    workdir = Path(workdir)
    digests = {}
    for q in (FULL_Q, PREFIX_Q):
        wav = workdir / f"decoded_q{q}.wav"
        stdout = _cli(["decode", "--model", str(model_path), str(stream), "-q", str(q), str(wav), "--json"])
        payload = json.loads(stdout.splitlines()[-1])
        del payload["out"]
        digests[f"wav_q{q}"] = _sha256(wav.read_bytes())
        digests[f"decode_json_q{q}"] = _sha256(json.dumps(payload, sort_keys=True).encode())
    return digests


def desk_digests(model, report) -> dict:
    """Digest name -> SHA-256 of the desk model and of its held-out eval report,
    every cell at full precision (repr)."""
    _check_pesq_unset()
    cells = (sorted(report.rows.items()), report.config, report.failures)
    return {
        "desk_model": _sha256(container.to_bytes(model)),
        "desk_eval": _sha256(repr(cells).encode()),
    }


def _toy_digests() -> dict:
    from conftest import make_toy_corpus, train_toy_model

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        manifest = make_toy_corpus(tmp / "corpus")
        model, summary = train_toy_model(manifest)
        model_path = tmp / "model.rvqm"
        container.save(model, model_path)
        return compute_digests(model_path, summary, manifest, tmp)


def _desk_digests() -> dict:
    from conftest import evaluate_desk_model, make_desk_corpus, make_desk_held, train_desk_model

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        model, _ = train_desk_model(make_desk_corpus(tmp / "corpus"))
        return desk_digests(model, evaluate_desk_model(model, make_desk_held(tmp / "held")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {GOLDEN.name}")
    args = parser.parse_args(argv)
    digests = {**_toy_digests(), **_desk_digests()}
    if args.write:
        payload = {"fingerprint": fingerprint(), "digests": digests}
        GOLDEN.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN} ({len(digests)} digests)")
        return 0
    names = moved(digests)
    print("moved: " + ", ".join(names) if names else "all digests match")
    return 1 if names else 0


if __name__ == "__main__":
    sys.exit(main())
