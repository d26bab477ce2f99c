"""Command-line interface: validate, train, encode, decode, eval, mushra.

Exit codes: 0 on success, 2 on any typed workbench error (bad inputs,
corrupt files, schema violations), operating-system error (missing,
unreadable or directory paths) or MemoryError (settings too large for the
machine, such as a huge excerpt or batch size).  Every subcommand honors
--json for a machine-readable variant carrying the same numbers as the
text output.

Each handler passes its flags to library calls and formats the result.
The defaults belong to the library: train_codec holds the training
settings' defaults, and eval's stage grid comes from the model it loads.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
from dataclasses import asdict

from . import bitstream, codec, container
from .datapipe import load_manifest, summarize_manifest
from .errors import InvalidInput, RvqLabError
from .frontend import GL_INIT, GL_ITERATIONS, GL_MOMENTUM
from .evalstats import load_mushra_records, mushra_summary, render_report, run_evaluation
from .rvq import bitrate
from .training import train_codec
from .wavio import read_wav, write_wav


_GL_HELP = (
    f"Fast Griffin-Lim iterations per decode, started from a phase-gradient phase "
    f"(momentum {GL_MOMENTUM}; default %(default)s)"
)
# train's setting flags store under these names, and only when given.
_TRAIN_SETTINGS = frozenset(inspect.signature(train_codec).parameters) - {"manifest"}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="rvqlab",
        description="Residual-vector-quantization speech codec workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a dataset manifest")
    p.set_defaults(run=_cmd_validate)
    p.add_argument("manifest")

    # A setting left off the command line is absent from args: train_codec's default holds.
    p = sub.add_parser("train", help="train frontend + RVQ from a manifest",
                       argument_default=argparse.SUPPRESS)
    p.set_defaults(run=_cmd_train)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output model path (.rvqm)")
    p.add_argument("-Q", "--stages", type=int, dest="n_stages", metavar="STAGES")
    p.add_argument("-K", "--codebook-size", type=int)
    p.add_argument("-D", "--latent-dim", type=int)
    p.add_argument("--code-dim", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--batches", type=int, dest="n_batches", metavar="BATCHES")
    p.add_argument("--batch-size", type=int)
    p.add_argument("--excerpt-samples", type=int)
    p.add_argument("--max-rvq-frames", type=int)

    p = sub.add_parser("encode", help="encode a WAV file to an .rvqs stream")
    p.set_defaults(run=_cmd_encode)
    p.add_argument("--model", required=True)
    p.add_argument("wav_in")
    p.add_argument("-q", "--stages", type=int, required=True)
    p.add_argument("out")

    p = sub.add_parser("decode", help="decode an .rvqs stream to a WAV file")
    p.set_defaults(run=_cmd_decode)
    p.add_argument("--model", required=True)
    p.add_argument("stream_in")
    p.add_argument("-q", "--stages", type=int, default=None,
                   help="decode only the first q stages (prefix decode)")
    p.add_argument("wav_out")
    p.add_argument("--gl-iterations", type=int, default=GL_ITERATIONS, help=_GL_HELP)

    p = sub.add_parser("eval", help="objective metrics over test manifests")
    p.set_defaults(run=_cmd_eval)
    p.add_argument("--model", required=True)
    p.add_argument("--test", action="append", required=True, metavar="NAME=MANIFEST",
                   help="named test manifest; repeatable")
    p.add_argument("--q-list",
                   help="comma-separated stage counts (default: the model's Q and each power of two below it)")
    p.add_argument("--gl-iterations", type=int, default=GL_ITERATIONS, help=_GL_HELP)
    p.add_argument("--format", choices=("markdown", "csv"), default="markdown")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")

    p = sub.add_parser("mushra", help="summarize MUSHRA scores and test vs the reference")
    p.set_defaults(run=_cmd_mushra)
    p.add_argument("scores", help="CSV with subject,stimulus,system,score")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--reference", default="reference",
                   help="system label of the hidden reference")
    p.add_argument("--format", choices=("markdown", "csv"), default="markdown")

    for p in sub.choices.values():  # an explicit default: train's parser suppresses absent flags
        p.add_argument("--json", action="store_true", default=False)
    return parser


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
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
    settings = {k: v for k, v in vars(args).items() if k in _TRAIN_SETTINGS}
    model, summary = train_codec(load_manifest(args.manifest), **settings)
    container.save(model, args.out)
    lines = [f"wrote {args.out}"]
    lines.append("balance: " + ", ".join(f"{k}={v}" for k, v in summary["balance"].items()))
    lines.append(
        f"frames: {summary['frames_total']} total, {summary['rvq_frames']} for RVQ; "
        f"top-{model.rvq.config.latent_dim} explained variance {summary['explained_variance_top_d']:.4f}"
    )
    lines.append("stage MSE: " + ", ".join(f"{v:.5g}" for v in summary["stage_mse"]))
    _emit(args, {"out": args.out, **summary}, "\n".join(lines))


def _cmd_encode(args) -> None:
    model = container.load(args.model)
    _, _, tokens = codec.encode(model, read_wav(args.wav_in), args.stages)
    data = bitstream.pack(tokens)
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
    tokens = bitstream.unpack(data)
    stages = args.stages if args.stages is not None else tokens.n_stages
    sc = []
    _, audio = codec.decode(model, tokens, stages, args.gl_iterations, lambda i, error: sc.append(error))
    write_wav(args.wav_out, audio, encoding="float32")
    payload = {
        "out": args.wav_out,
        "samples": len(audio),
        "sample_rate": audio.sample_rate,
        "stages_used": stages,
        "gl_iterations": args.gl_iterations,
        "gl_momentum": GL_MOMENTUM,
        "gl_init": GL_INIT,
        "gl_sc": sc,
    }
    _emit(args, payload, f"wrote {args.wav_out}: {len(audio)} samples at {audio.sample_rate} Hz "
                         f"({stages} of {tokens.n_stages} stages); {args.gl_iterations} Griffin-Lim iterations, "
                         f"final spectral convergence {sc[-1]:.4f}")


def _cmd_eval(args) -> None:
    model = container.load(args.model)
    manifests = {}
    for item in args.test:
        if "=" not in item:
            raise InvalidInput(f"--test expects NAME=MANIFEST, got {item!r}")
        name, path = item.split("=", 1)
        if name in manifests:
            raise InvalidInput(f"--test names the test set {name!r} more than once")
        manifests[name] = load_manifest(path)
    if args.q_list is None:  # Q and each power of two below it
        n_stages = model.rvq.config.n_stages
        q_list = [n_stages, *(1 << i for i in range((n_stages - 1).bit_length()))]
    else:
        try:
            q_list = [int(q) for q in args.q_list.split(",") if q.strip()]
        except ValueError:
            raise InvalidInput(f"--q-list expects comma-separated integers, got {args.q_list!r}") from None
    report = run_evaluation(model, manifests, q_list, gl_iterations=args.gl_iterations)
    text = render_report(report, fmt=args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        text = f"wrote {args.out}"
    payload = {
        "q_list": list(report.q_list),
        "rows": {
            "|".join(key): {str(q): report.rows[key][q] for q in report.q_list}
            for key in report.row_keys()
        },
        "config": report.config,
        "failures": [list(f) for f in report.failures],
    }
    _emit(args, payload, text)


def _cmd_mushra(args) -> None:
    summaries, tests = mushra_summary(load_mushra_records(args.scores), args.reference, args.alpha)
    payload = {
        "summaries": [asdict(s) for s in summaries],
        "significance": [asdict(r) for r in tests],
    }
    _emit(args, payload, render_report((summaries, tests), fmt=args.format))


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.run(args)
    except (RvqLabError, OSError, MemoryError) as exc:
        name = ("MissingFile" if isinstance(exc, FileNotFoundError)
                else "MemoryError" if isinstance(exc, MemoryError)  # numpy raises a private subclass
                else type(exc).__name__)
        print(f"error: {name}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
