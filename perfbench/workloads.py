"""The benchmark's workloads: set-up, request plans and output checks.

Every request is one in-process call of `rvqlab.cli.main(argv)` (the
`rvqlab` executable's entry point), made by a single closed-loop client:
each request starts when the previous one returns.  Calling main()
in-process keeps interpreter start-up (~0.5 s) out of request latency,
where it would swamp a ~40 ms encode.

A workload's set-up writes its inputs, trains a model where it needs one,
and makes one warm-up request, which absorbs lazy imports such as the
scipy.special.i0 import inside dsp.resample.  The request plan is fixed by
the seed and sized from --seconds so that it takes about that long on a
2-core x86 box; a faster program finishes the same plan sooner, so both
sides of a comparison always do identical work.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import statistics
import struct
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import gen
import stats

Q_GRID = (8, 4, 2, 1)
STREAM_HEADER = struct.Struct("<4sHIHHBI")  # magic, version, rate, frame rate, K, q, T
BITS_PER_CODE = 10  # K = 1024
# Model used by encode, decode and eval_grid: the smallest K=1024, D=64
# training the CLI accepts (5 x 72 excerpts x 29 frames = 10440 >= 10 K
# frames), with 8 stages for q up to 8 (6000 bps).
MODEL_ARGS = ("-Q", "8", "-K", "1024", "-D", "64", "--batches", "5", "--batch-size", "72",
              "--max-rvq-frames", "10440", "--seed", "0")
MODEL_STAGES = 8
DESK_EXCERPT_SAMPLES = 9280


class SetupFailed(RuntimeError):
    """A set-up step of the workload produced a wrong result."""


@dataclass(frozen=True)
class Call:
    rc: int
    stdout: str
    seconds: float
    error: str = ""


def call_main(argv: list[str]) -> Call:
    """One request: rvqlab.cli.main(argv), looked up at call time so a tracer sees it."""
    from rvqlab import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # an escaped exception is a failed request, not a crash
            rc, tb = -1, traceback.format_exc()
        else:
            tb = ""
        seconds = perf_counter() - start
    return Call(rc, out.getvalue(), seconds, tb or err.getvalue())


@dataclass
class Outcome:
    """Result of checking one request's outputs."""

    problems: list[str] = field(default_factory=list)
    outputs: list[tuple[str, bytes]] = field(default_factory=list)  # (digest kind, bytes)


@dataclass(frozen=True)
class Request:
    kind: str
    argv: list[str]
    audio_s: float
    check: Callable[[Call], Outcome]
    resampled: bool = False  # input not at 24 kHz, so the CLI resamples it


@dataclass
class Prepared:
    """A set-up workload: builds its request plan into an output directory."""

    plan: Callable[[Path], list[Request]]
    setup_outputs: list[tuple[str, bytes]] = field(default_factory=list)
    # Untimed checks that need extra program calls; run once, on the untraced pass.
    extra_checks: Callable[[Path], dict[int, list[str]]] | None = None


# --- output checks ------------------------------------------------------------


def _exit_problems(call: Call) -> list[str]:
    if call.rc == 0:
        return []
    return [f"exit code {call.rc}: {call.error.strip()[-300:]}"]


def check_stream(call: Call, path: Path, clip: gen.Clip, q: int) -> Outcome:
    """An .rvqs holds q stages of ceil(n_24k / 320) frames in 19 + ceil(T q 10 / 8) bytes."""
    from rvqlab import bitstream

    outcome = Outcome(_exit_problems(call))
    if outcome.problems:
        return outcome
    data = path.read_bytes()
    outcome.outputs.append(("streams", data))
    magic, _, rate, _, k, header_q, frames = STREAM_HEADER.unpack_from(data)
    expected_size = STREAM_HEADER.size + math.ceil(clip.frames * q * BITS_PER_CODE / 8)
    if magic != b"RVQS" or rate != gen.SAMPLE_RATE or k != 1 << BITS_PER_CODE:
        outcome.problems.append(f"{path.name}: bad header {magic!r} rate={rate} K={k}")
    if header_q != q or frames != clip.frames:
        outcome.problems.append(f"{path.name}: header q={header_q} T={frames}, "
                                f"expected q={q} T={clip.frames}")
    if len(data) != expected_size:
        outcome.problems.append(f"{path.name}: {len(data)} bytes, expected {expected_size}")
    bitstream.unpack(data)  # the program's own parser must accept it too
    return outcome


def read_float_wav(path: Path) -> tuple[int, np.ndarray]:
    """(sample rate, samples) of a mono float32 WAV, parsed independently of the program."""
    data = path.read_bytes()
    if data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise ValueError(f"{path.name}: not a RIFF/WAVE file")
    pos, fmt, payload = 12, None, None
    while pos + 8 <= len(data):
        chunk, size = data[pos:pos + 4], struct.unpack_from("<I", data, pos + 4)[0]
        if chunk == b"fmt ":
            fmt = struct.unpack_from("<HHIIHH", data, pos + 8)
        elif chunk == b"data":
            payload = data[pos + 8:pos + 8 + size]
        pos += 8 + size + (size & 1)
    if fmt is None or payload is None or fmt[0] != 3 or fmt[1] != 1 or fmt[5] != 32:
        raise ValueError(f"{path.name}: not mono float32 ({fmt})")
    return fmt[2], np.frombuffer(payload, dtype="<f4")


def check_decoded(call: Call, path: Path, frames: int) -> Outcome:
    """A decoded WAV holds exactly frames * 320 finite samples at 24 kHz."""
    outcome = Outcome(_exit_problems(call))
    if outcome.problems:
        return outcome
    data = path.read_bytes()
    outcome.outputs.append(("wavs", data))
    try:
        rate, samples = read_float_wav(path)
    except ValueError as exc:
        outcome.problems.append(str(exc))
        return outcome
    if rate != gen.SAMPLE_RATE or len(samples) != frames * gen.HOP:
        outcome.problems.append(f"{path.name}: {len(samples)} samples at {rate} Hz, "
                                f"expected {frames * gen.HOP} at {gen.SAMPLE_RATE}")
    if not np.all(np.isfinite(samples)):
        outcome.problems.append(f"{path.name}: non-finite samples")
    return outcome


def eval_cells(payload: dict, test_set: str, q_list) -> dict[str, dict[int, float | None]]:
    """metric -> q -> value from an `eval --json` payload."""
    prefix, suffix = f"{test_set}|", "|rvq"
    return {
        key[len(prefix):-len(suffix)]: {int(q): v for q, v in row.items()}
        for key, row in payload["rows"].items()
        if key.startswith(prefix) and key.endswith(suffix)
    }


EVAL_METRICS = ("mel", "stft", "stoi", "pesq", "latent_mse")


def check_eval(call: Call, q_list) -> Outcome:
    """Every (metric, q) cell present, finite where scored, and no failed files.

    PESQ cells are null: no external PESQ tool is configured for the run.
    """
    outcome = Outcome(_exit_problems(call))
    if outcome.problems:
        return outcome
    outcome.outputs.append(("eval_json", call.stdout.encode()))
    try:
        payload = json.loads(call.stdout)
        cells = eval_cells(payload, "held", q_list)
    except (ValueError, KeyError, AttributeError) as exc:
        outcome.problems.append(f"eval output is not the expected JSON: {exc}")
        return outcome
    if payload.get("failures") != []:
        outcome.problems.append(f"eval failures: {payload.get('failures')}")
    for metric in EVAL_METRICS:
        for q in q_list:
            value = cells.get(metric, {}).get(q, "missing")
            if value == "missing":
                outcome.problems.append(f"eval cell ({metric}, q={q}) missing")
            elif metric == "pesq" and value is None:
                continue
            elif not (isinstance(value, float) and math.isfinite(value)):
                outcome.problems.append(f"eval cell ({metric}, q={q}) = {value!r}")
    return outcome


def check_train(call: Call, model_path: Path, n_stages: int) -> Outcome:
    """The model loads and its per-stage training MSE never increases."""
    from rvqlab import container
    from rvqlab.errors import RvqLabError

    outcome = Outcome(_exit_problems(call))
    if outcome.problems:
        return outcome
    try:
        summary = json.loads(call.stdout)
        model = container.load(model_path)
    except (ValueError, OSError, RvqLabError) as exc:
        outcome.problems.append(f"trained model unusable: {exc}")
        return outcome
    summary.pop("out", None)  # the only path-dependent field
    outcome.outputs.append(("model", model_path.read_bytes()))
    outcome.outputs.append(("train_json", json.dumps(summary, sort_keys=True).encode()))
    for label, mse in (("summary stage_mse", summary.get("stage_mse", [])),
                       ("model training_stats", list(model.rvq.training_stats))):
        if len(mse) != n_stages or any(b > a for a, b in zip(mse, mse[1:])):
            outcome.problems.append(f"{label} is not {n_stages} non-increasing values: {mse}")
    return outcome


def _require(outcome: Outcome, what: str) -> Outcome:
    if outcome.problems:
        raise SetupFailed(f"{what}: " + "; ".join(outcome.problems))
    return outcome


# --- set-up shared by the model workloads -------------------------------------


def train_model(work: Path, seed: int) -> tuple[Path, list[tuple[str, bytes]]]:
    """Six-category 24 kHz corpus (6-10 s files) and a K=1024 model trained on it."""
    manifest, _ = gen.write_corpus(work / "model_corpus", gen.rng_for(seed, "model"), 1, 6.0, 10.0)
    model = work / "model.rvqm"
    call = call_main(["train", "--manifest", str(manifest), "--out", str(model),
                      *MODEL_ARGS, "--json"])
    outcome = _require(check_train(call, model, MODEL_STAGES), "model training")
    return model, outcome.outputs


def _warmup_clip(work: Path, seed: int, sample_rate: int) -> gen.Clip:
    work.mkdir(parents=True, exist_ok=True)
    return gen.write_clip(work, f"warmup_{sample_rate}", 1.0, sample_rate,
                          gen.rng_for(seed, "warmup"), q=1)


def _encode_request(model: Path, clip: gen.Clip, q: int, out: Path) -> Request:
    return Request(
        "encode",
        ["encode", "--model", str(model), str(clip.path), "-q", str(q), str(out), "--json"],
        clip.duration,
        lambda call: check_stream(call, out, clip, q),
        clip.sample_rate != gen.SAMPLE_RATE,
    )


# --- workloads ------------------------------------------------------------------


def setup_encode(work: Path, seed: int, seconds: int) -> Prepared:
    model, model_outputs = train_model(work, seed)
    clips = gen.encode_clips(work / "clips", seed, seconds)
    warm = _encode_request(model, _warmup_clip(work / "warmup", seed, 16000), 1,
                           work / "warmup.rvqs")
    _require(warm.check(call_main(warm.argv)), "warm-up")

    def plan(out: Path) -> list[Request]:
        out.mkdir(parents=True, exist_ok=True)
        return [_encode_request(model, c, c.q, out / f"{c.path.stem}.rvqs") for c in clips]

    def embedded(out: Path) -> dict[int, list[str]]:
        """prefix(stream at q, q') == the stream of an encode at q' (24 kHz clips, q' = q/2)."""
        from rvqlab import bitstream

        problems = {}
        for i, clip in enumerate(clips):
            if clip.sample_rate != gen.SAMPLE_RATE or clip.q == 1:
                continue
            low = clip.q // 2
            request = _encode_request(model, clip, low, out / f"{clip.path.stem}_q{low}.rvqs")
            outcome = request.check(call_main(request.argv))
            full = (out / f"{clip.path.stem}.rvqs").read_bytes()
            if not outcome.problems and bitstream.prefix(full, low) != outcome.outputs[0][1]:
                outcome.problems.append(f"{clip.path.name}: prefix to q={low} differs from "
                                        f"an encode at q={low}")
            if outcome.problems:
                problems[i] = outcome.problems
        return problems

    return Prepared(plan, model_outputs, embedded)


def setup_decode(work: Path, seed: int, seconds: int) -> Prepared:
    model, model_outputs = train_model(work, seed)
    clips = gen.decode_clips(work / "clips", seed, seconds)
    streams = work / "streams"
    streams.mkdir()
    warm = _warmup_clip(work / "warmup", seed, gen.SAMPLE_RATE)
    for clip in [*clips, warm]:
        request = _encode_request(model, clip, MODEL_STAGES, streams / f"{clip.path.stem}.rvqs")
        _require(request.check(call_main(request.argv)), f"encoding {clip.path.name}")

    def request(clip: gen.Clip, out: Path) -> Request:
        wav = out / f"{clip.path.stem}.wav"
        return Request(
            "decode",
            ["decode", "--model", str(model), str(streams / f"{clip.path.stem}.rvqs"),
             "-q", str(clip.q), str(wav), "--json"],
            clip.frames * gen.HOP / gen.SAMPLE_RATE,
            lambda call: check_decoded(call, wav, clip.frames),
        )

    warm_request = request(warm, work)
    _require(warm_request.check(call_main(warm_request.argv)), "warm-up")

    def plan(out: Path) -> list[Request]:
        out.mkdir(parents=True, exist_ok=True)
        return [request(c, out) for c in clips]

    return Prepared(plan, model_outputs)


def _eval_request(model: Path, manifest: Path, clips: list[gen.Clip], q_list) -> Request:
    return Request(
        "eval",
        ["eval", "--model", str(model), "--test", f"held={manifest}",
         "--q-list", ",".join(map(str, q_list)), "--json"],
        sum(c.duration for c in clips) * len(q_list),
        lambda call: check_eval(call, q_list),
    )


def setup_eval_grid(work: Path, seed: int, seconds: int) -> Prepared:
    model, model_outputs = train_model(work, seed)
    manifest, clips = gen.held_out_set(work / "held", seed, seconds)
    warm = _warmup_clip(work / "warmup", seed, gen.SAMPLE_RATE)
    warm_manifest = gen.write_manifest(work / "warmup", [warm], "warmup.jsonl")
    warm_request = _eval_request(model, warm_manifest, [warm], (1,))
    _require(warm_request.check(call_main(warm_request.argv)), "warm-up")
    request = _eval_request(model, manifest, clips, Q_GRID)
    return Prepared(lambda out: [request], model_outputs)


def desk_stages(seconds: int) -> int:
    """Stages of the desk training: 8 at the default 10 s (about 1.9 s per stage)."""
    return min(32, max(1, round(0.8 * seconds)))


def setup_train_desk(work: Path, seed: int, seconds: int) -> Prepared:
    manifest, _ = gen.write_corpus(work / "corpus", gen.rng_for(seed, "train_desk"), 2, 8.0, 12.0)
    warm = call_main(["validate", str(manifest), "--json"])
    if warm.rc != 0:
        raise SetupFailed(f"warm-up: {warm.error}")
    n_stages = desk_stages(seconds)
    batches, batch_size = 10, 72
    audio_s = batches * batch_size * DESK_EXCERPT_SAMPLES / gen.SAMPLE_RATE

    def plan(out: Path) -> list[Request]:
        out.mkdir(parents=True, exist_ok=True)
        model = out / "desk.rvqm"
        argv = ["train", "--manifest", str(manifest), "--out", str(model),
                "-Q", str(n_stages), "-K", "1024", "-D", "64", "--batches", str(batches),
                "--batch-size", str(batch_size), "--excerpt-samples", str(DESK_EXCERPT_SAMPLES),
                "--max-rvq-frames", "12000", "--seed", "0", "--json"]
        return [Request("train", argv, audio_s, lambda call: check_train(call, model, n_stages))]

    return Prepared(plan)


SETUPS = {
    "encode": setup_encode,
    "decode": setup_decode,
    "eval_grid": setup_eval_grid,
    "train_desk": setup_train_desk,
}


# --- summaries --------------------------------------------------------------------


def digests(outcomes: list[Outcome], extra: list[tuple[str, bytes]] = ()) -> dict[str, str]:
    """Digest kind -> SHA-256 over the SHA-256 of each output, in request order."""
    by_kind = {}
    for kind, data in [*extra, *(item for o in outcomes for item in o.outputs)]:
        by_kind.setdefault(kind, hashlib.sha256()).update(hashlib.sha256(data).digest())
    return {kind: h.hexdigest() for kind, h in sorted(by_kind.items())}


def latency_summary(prefix: str, latencies: list[float]) -> dict:
    """<prefix>_p50_ms, and <prefix>_tail_ms with its percentile when that lies above p50."""
    ms = [1000.0 * t for t in latencies]
    out = {f"{prefix}_p50_ms": {"value": statistics.median(ms), "unit": "ms", "n": len(ms)}}
    tail = stats.tail(ms)
    if tail is not None and tail[0] > 50.0:
        out[f"{prefix}_tail_ms"] = {"value": tail[1], "unit": "ms", "n": len(ms),
                                    "percentile": tail[0]}
    return out


def named_metrics(workload: str, requests: list[Request], calls: list[Call]) -> dict:
    """The workload's own end-to-end metrics, named as in the benchmark README.

    The quality numbers come from the request's JSON output and are left out
    when the request failed.
    """
    latencies = [c.seconds for c in calls]
    rate = stats.audio_x([r.audio_s for r in requests], latencies)
    if workload in ("encode", "decode"):
        out = {f"{workload}_audio_x": {"value": rate, "unit": "audio-s/s", "n": len(calls)}}
        out.update(latency_summary(workload, latencies))
        if workload == "encode":
            resampled = sum(r.resampled for r in requests) / len(requests)
            out["encode_resampled_share"] = {"value": resampled, "unit": "fraction"}
        return out
    call = calls[0]
    if workload == "eval_grid":
        out = {
            "eval_audio_x": {"value": rate, "unit": "audio-s/s", "n": 1},
            "eval_s": {"value": call.seconds, "unit": "s", "n": 1},
        }
        if call.rc == 0:
            cells = eval_cells(json.loads(call.stdout), "held", Q_GRID)
            for metric in ("stoi", "mel"):
                out[f"eval_{metric}_mean"] = {
                    "value": float(np.mean(list(cells[metric].values()))), "unit": "1"}
        return out
    out = {
        "train_s": {"value": call.seconds, "unit": "s", "n": 1},
        "train_audio_x": {"value": rate, "unit": "audio-s/s", "n": 1},
    }
    if call.rc == 0:
        out["train_final_mse"] = {"value": json.loads(call.stdout)["stage_mse"][-1], "unit": "1"}
    return out
