"""Command-line interface: validate, train, encode, decode, eval, mushra.

Exit codes: 0 on success, 2 on any typed workbench error (bad inputs,
corrupt files, schema violations) or operating-system error (missing,
unreadable or directory paths).  Every subcommand honors --json for a
machine-readable variant carrying the same numbers as the text output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import bitstream, codec, container
from .datapipe import load_manifest, summarize_manifest
from .errors import InvalidInput, RvqLabError
from .evalstats import (
    load_mushra_records,
    mushra_summary,
    render_report,
    run_evaluation,
    wilcoxon_ranksum,
)
from .rvq import bitrate
from .training import train_codec
from .wavio import read_wav, write_wav


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rvqlab",
        description="Residual-vector-quantization speech codec workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a dataset manifest")
    p.add_argument("manifest")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("train", help="train frontend + RVQ from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output model path (.rvqm)")
    p.add_argument("-Q", "--stages", type=int, default=32)
    p.add_argument("-K", "--codebook-size", type=int, default=1024)
    p.add_argument("-D", "--latent-dim", type=int, default=64)
    p.add_argument("--code-dim", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batches", type=int, default=50)
    p.add_argument("--batch-size", type=int, default=72)
    p.add_argument("--excerpt-samples", type=int, default=9280)
    p.add_argument("--max-rvq-frames", type=int, default=60000)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("encode", help="encode a WAV file to an .rvqs stream")
    p.add_argument("--model", required=True)
    p.add_argument("wav_in")
    p.add_argument("-q", "--stages", type=int, required=True)
    p.add_argument("out")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("decode", help="decode an .rvqs stream to a WAV file")
    p.add_argument("--model", required=True)
    p.add_argument("stream_in")
    p.add_argument("-q", "--stages", type=int, default=None,
                   help="decode only the first q stages (prefix decode)")
    p.add_argument("wav_out")
    p.add_argument("--gl-iterations", type=int, default=32)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("eval", help="objective metrics over test manifests")
    p.add_argument("--model", required=True)
    p.add_argument("--test", action="append", required=True, metavar="NAME=MANIFEST",
                   help="named test manifest; repeatable")
    p.add_argument("--q-list", default="32,16,8,4,2,1")
    p.add_argument("--gl-iterations", type=int, default=32)
    p.add_argument("--format", choices=("markdown", "csv"), default="markdown")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("mushra", help="summarize MUSHRA scores and test vs the reference")
    p.add_argument("scores", help="CSV with subject,stimulus,system,score")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--reference", default="reference",
                   help="system label of the hidden reference")
    p.add_argument("--format", choices=("markdown", "csv"), default="markdown")
    p.add_argument("--json", action="store_true")

    return parser


def _emit(args, payload: dict, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _cmd_validate(args) -> None:
    entries = load_manifest(args.manifest)
    summary = summarize_manifest(entries)
    lines = [f"{args.manifest}: {summary['total_files']} files, {summary['total_hours']:.3f} h"]
    for name, stats in summary["categories"].items():
        lines.append(f"  {name}: {stats['files']} files, {stats['hours']:.3f} h")
    _emit(args, summary, "\n".join(lines))


def _cmd_train(args) -> None:
    manifest = load_manifest(args.manifest)
    model, summary = train_codec(
        manifest,
        n_stages=args.stages,
        codebook_size=args.codebook_size,
        latent_dim=args.latent_dim,
        code_dim=args.code_dim,
        seed=args.seed,
        n_batches=args.batches,
        batch_size=args.batch_size,
        excerpt_samples=args.excerpt_samples,
        max_rvq_frames=args.max_rvq_frames,
    )
    container.save(model, args.out)
    lines = [f"wrote {args.out}"]
    lines.append("balance: " + ", ".join(f"{k}={v}" for k, v in summary["balance"].items()))
    lines.append(
        f"frames: {summary['frames_total']} total, {summary['rvq_frames']} for RVQ; "
        f"top-{args.latent_dim} explained variance {summary['explained_variance_top_d']:.4f}"
    )
    lines.append("stage MSE: " + ", ".join(f"{v:.5g}" for v in summary["stage_mse"]))
    _emit(args, {"out": args.out, **summary}, "\n".join(lines))


def _cmd_encode(args) -> None:
    model = container.load(args.model)
    audio, _, tokens = codec.encode(model, read_wav(args.wav_in), args.stages)
    data = bitstream.pack(tokens, audio.sample_rate)
    with open(args.out, "wb") as fh:
        fh.write(data)
    rate = bitrate(model.rvq.config, args.stages)
    payload = {
        "out": args.out,
        "frames": tokens.n_frames,
        "stages": tokens.n_stages,
        "bytes": len(data),
        "bps": rate,
    }
    _emit(args, payload, f"wrote {args.out}: {tokens.n_frames} frames x {tokens.n_stages} stages, "
                         f"{len(data)} bytes ({rate} bps)")


def _cmd_decode(args) -> None:
    model = container.load(args.model)
    with open(args.stream_in, "rb") as fh:
        data = fh.read()
    header, tokens = codec.unpack_stream(model, data)
    stages = args.stages if args.stages is not None else header.n_stages
    _, audio = codec.decode(model, tokens, stages, args.gl_iterations)
    write_wav(args.wav_out, audio, encoding="float32")
    payload = {
        "out": args.wav_out,
        "samples": len(audio),
        "sample_rate": audio.sample_rate,
        "stages_used": stages,
    }
    _emit(args, payload, f"wrote {args.wav_out}: {len(audio)} samples at {audio.sample_rate} Hz "
                         f"({stages} of {header.n_stages} stages)")


def _cmd_eval(args) -> None:
    model = container.load(args.model)
    manifests = {}
    for item in args.test:
        if "=" not in item:
            raise RvqLabError(f"--test expects NAME=MANIFEST, got {item!r}")
        name, path = item.split("=", 1)
        manifests[name] = load_manifest(path)
    try:
        q_list = [int(q) for q in args.q_list.split(",") if q.strip()]
    except ValueError:
        raise InvalidInput(f"--q-list expects comma-separated integers, got {args.q_list!r}") from None
    report = run_evaluation(model, manifests, q_list, gl_iterations=args.gl_iterations)
    text = render_report(report, fmt=args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    if args.json:
        payload = {
            "q_list": list(report.q_list),
            "rows": {
                "|".join(key): {str(q): report.rows[key][q] for q in report.q_list}
                for key in report.row_keys()
            },
            "config": report.config,
            "failures": [list(f) for f in report.failures],
        }
        print(json.dumps(payload, sort_keys=True))
    elif not args.out:
        print(text, end="")


def _cmd_mushra(args) -> None:
    records = load_mushra_records(args.scores)
    summaries = mushra_summary(records)
    by_system = {}
    for record in records:
        by_system.setdefault(record.system, []).append(record.score)
    if args.reference not in by_system:
        raise RvqLabError(
            f"reference system {args.reference!r} not present in {sorted(by_system)}"
        )
    reference_scores = by_system[args.reference]
    results = [
        wilcoxon_ranksum(by_system[system], reference_scores, alpha=args.alpha, system=system)
        for system in sorted(by_system)
        if system != args.reference
    ]
    text = render_report((summaries, results), fmt=args.format)
    payload = {
        "summaries": [asdict(s) for s in summaries],
        "significance": [asdict(r) for r in results],
    }
    _emit(args, payload, text)


_COMMANDS = {
    "validate": _cmd_validate,
    "train": _cmd_train,
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "eval": _cmd_eval,
    "mushra": _cmd_mushra,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except RvqLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: MissingFile: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
