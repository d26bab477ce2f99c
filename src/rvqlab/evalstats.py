"""Evaluation orchestration and listening-test statistics.

run_evaluation encodes each file of the test manifests once at the largest
stage count, decodes each prefix of its tokens, and averages the metrics
per test set into a grid with stage counts in descending order.
mushra_summary and wilcoxon_ranksum cover the subjective side:
t-distribution confidence intervals and a rank-sum test that enumerates
the exact null distribution for small groups.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata
from scipy.stats import t as student_t

from . import _workers, codec
from .container import ModelContainer
from .datapipe import read_entry_audio
from .errors import EvaluationFailed, InsufficientData, InvalidInput, RvqLabError
from .errors import check_array, check_float, check_int, check_path
from .frontend import GL_INIT, GL_ITERATIONS, GL_MOMENTUM
from .metrics import (
    LOSS_FLOOR,
    LOSS_SCALES,
    _loss_reference,
    _losses_against,
    _stoi_against,
    _stoi_reference,
    pesq_adapter,
)

_METRIC_ORDER = ("mel", "stft", "pesq", "stoi", "latent_mse")
_ABSENT = "—"  # em dash renders unconfigured cells
_SYSTEM = "rvq"  # the system column of every evaluation row
PESQ_TOOL_ENV = "RVQLAB_PESQ_TOOL"
_MAX_FAILURE_RATE = 0.01  # share of files that may fail before a run does
# Files read, encoded, analysed and scored together.  This bounds a run's
# memory at any CPU count.  Each file in flight holds its audio (about
# 0.2 MB per audio-second) and its reference analysis (about 2 MB per
# audio-second), built once by the group's prepare split.  When a group has
# fewer files or cells than CPUs, the encodes' frame splits and the cells'
# Griffin-Lim splits take the idle helpers.
_GROUP_FILES = 8


@dataclass(frozen=True)
class MetricReport:
    """Grid of per-test-set metric means: rows (test_set, metric, system),
    columns stage counts in descending order; None marks absent cells."""

    rows: dict
    q_list: tuple
    config: dict
    failures: tuple = ()

    def cell(self, test_set: str, metric: str, system: str, q: int):
        return self.rows[(test_set, metric, system)][q]

    def row_keys(self):
        return sorted(self.rows, key=lambda key: (key[0], _METRIC_ORDER.index(key[1]), key[2]))


@dataclass(frozen=True)
class MushraRecord:
    subject: str
    stimulus: str
    system: str
    score: float

    def __post_init__(self):
        for name in ("subject", "stimulus", "system"):
            if not isinstance(getattr(self, name), str):
                raise InvalidInput(f"MUSHRA {name} must be text, got {getattr(self, name)!r}")
        object.__setattr__(self, "score", check_float("MUSHRA score", self.score))
        if not 0.0 <= self.score <= 100.0:
            raise InvalidInput(f"MUSHRA score must be in [0, 100], got {self.score}")


@dataclass(frozen=True)
class MushraSummary:
    system: str
    mean: float
    ci_low: float
    ci_high: float
    n: int


@dataclass(frozen=True)
class SignificanceResult:
    system: str
    p_value: float
    significant: bool
    alpha: float
    method: str  # "exact" or "normal-approx"


def _mean(values):
    """Mean of the values that are not None, or None if there are none."""
    total, n = 0.0, 0
    for value in values:  # left to right: sum() compensates from Python 3.12 on
        if value is not None:
            total, n = total + value, n + 1
    return total / n if n else None


def _score_cell(container, audio, latents, tokens, q, reference, gl_iterations, pesq_tool) -> dict:
    """Metric name -> value of one file decoded from its first q stages."""
    recon_latents, decoded = codec.decode(container, tokens, q, gl_iterations)
    loss_half, stoi_half = reference
    cells = dict(zip(("mel", "stft"), _losses_against(loss_half, decoded)))
    cells["stoi"] = _stoi_against(stoi_half, decoded).value
    cells["latent_mse"] = float(np.mean((latents.frames - recon_latents.frames) ** 2))
    pesq = pesq_adapter(audio, decoded, tool_path=pesq_tool)
    cells["pesq"] = pesq.value if pesq is not None else None
    return cells


def _score_files(container, entries, q_list, gl_iterations, pesq_tool) -> list:
    """Per entry, {(metric, q): value} over every q, or the text of the error
    of its read, encode or analysis, or of its first failing q."""
    files = [None] * len(entries)

    def prepare(lo, hi):  # read, encode and analyse; each encode splits its frames over idle helpers
        for k in range(lo, hi):
            try:
                audio, latents, tokens = codec.encode(container, read_entry_audio(entries[k]), q_list[0])
                files[k] = audio, latents, tokens, (_loss_reference(audio), _stoi_reference(audio))
            except RvqLabError as exc:
                files[k] = f"{type(exc).__name__}: {exc}"

    _workers.map_rows(prepare, len(files))
    cells = [(*coded[:3], q, coded[3]) for coded in files if not isinstance(coded, str) for q in q_list]
    scores = [None] * len(cells)

    def score(lo, hi):
        for k in range(lo, hi):
            try:
                scores[k] = _score_cell(container, *cells[k], gl_iterations, pesq_tool)
            except RvqLabError as exc:
                scores[k] = f"{type(exc).__name__}: {exc}"

    _workers.map_rows(score, len(cells))
    scores = iter(scores)
    outcomes = []
    for coded in files:
        file_scores = [coded] if isinstance(coded, str) else [next(scores) for _ in q_list]
        errors = [s for s in file_scores if isinstance(s, str)]
        outcomes.append(errors[0] if errors else
                        {(name, q): value for q, s in zip(q_list, file_scores) for name, value in s.items()})
    return outcomes


def run_evaluation(
    container: ModelContainer,
    test_manifests: dict,
    q_list,
    gl_iterations: int = GL_ITERATIONS,
) -> MetricReport:
    """Score the codec on every test file at every stage count.

    test_manifests maps a test-set name to its ManifestEntry sequence; a
    name is nonempty text without ',', '|', '\\r' or '\\n'.
    Each file runs through codec.encode and codec.decode, the pipeline of
    the CLI's encode and decode, so CLI-side metrics reproduce these
    numbers exactly.  Per-file failures are recorded and skipped; the run
    raises EvaluationFailed only if more than 1% of files fail.  PESQ is
    scored only when $RVQLAB_PESQ_TOOL names a tool, and the tool used is
    recorded in the config.

    The files go in groups of _GROUP_FILES, so memory grows with neither
    the test set nor the CPU count.  One _workers.map_rows call prepares a
    group's files on the calling thread and the idle shared helpers: each
    row reads a file, encodes it, and builds from the encoded 24 kHz audio
    its reference analysis, the reference half of the losses and of STOI
    (about 2 MB per audio-second), once per file rather than once per q.
    Concurrent encodes share the counted BLAS hold.  Then a second map_rows call scores the group's
    (file, q) cells against those analyses.  Results are gathered in file
    and q order, and a file that fails is reported with the error of its
    read, encode or analysis, or of its first failing q, so the report does
    not depend on the CPU count.  A reference too short for STOI raises in
    each cell after its decode and losses, as stoi() would.
    """
    try:
        q_list = sorted({check_int("q", q, 1, container.rvq.n_stages) for q in q_list}, reverse=True)
    except TypeError:  # not iterable
        raise InvalidInput(f"q_list must be a sequence of stage counts, got {q_list!r}") from None
    if not q_list:
        raise InvalidInput("q_list must be nonempty")
    if not test_manifests:
        raise InvalidInput("need at least one test manifest")
    for set_name in test_manifests:
        # The name is a report cell, a CSV field and part of a "|"-joined row key.
        if not isinstance(set_name, str) or not set_name or any(c in set_name for c in ",|\r\n"):
            raise InvalidInput(
                f"test-set name must be nonempty text without ',', '|' or line breaks, got {set_name!r}"
            )
    gl_iterations = check_int("gl_iterations", gl_iterations, 1)
    pesq_tool = os.environ.get(PESQ_TOOL_ENV)

    files = [(name, entry) for name in sorted(test_manifests) for entry in test_manifests[name]]
    if not files:
        raise InvalidInput("test manifests contain no files")
    scored = {name: [] for name in test_manifests}  # {(metric, q): value} per file that scored every q
    failures = []
    for start in range(0, len(files), _GROUP_FILES):
        group = files[start : start + _GROUP_FILES]
        outcomes = _score_files(container, [entry for _, entry in group], q_list, gl_iterations, pesq_tool)
        for (set_name, entry), outcome in zip(group, outcomes):
            if isinstance(outcome, str):
                failures.append((set_name, str(entry.path), outcome))
            else:
                scored[set_name].append(outcome)

    rows = {
        (set_name, name, _SYSTEM): {q: _mean([c[name, q] for c in scored[set_name]]) for q in q_list}
        for set_name in sorted(test_manifests)
        for name in _METRIC_ORDER
    }
    if len(failures) / len(files) > _MAX_FAILURE_RATE:
        raise EvaluationFailed(
            f"{len(failures)}/{len(files)} files failed (> {_MAX_FAILURE_RATE:.0%}): "
            + "; ".join(f[2] for f in failures[:3])
        )
    config = {
        "system": _SYSTEM,
        "q_list": q_list,
        "gl_iterations": gl_iterations,
        "gl_momentum": GL_MOMENTUM,
        "gl_init": GL_INIT,
        "metric": {"scales": [list(s) for s in LOSS_SCALES], "floor": LOSS_FLOOR},
        "pesq_tool": pesq_tool or "",
    }
    return MetricReport(rows=rows, q_list=tuple(q_list), config=config, failures=tuple(failures))


# --- MUSHRA ------------------------------------------------------------------


def load_mushra_records(path) -> list[MushraRecord]:
    """Read subject,stimulus,system,score records from delimited UTF-8 text,
    with or without the byte-order mark that spreadsheet exports write."""
    records = []
    seen = set()
    first = True  # the header may only be the first non-blank, non-comment line
    with open(check_path(path), encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidInput(f"{path}: score file is not UTF-8 text: {exc}") from exc
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        is_header = first and parts[:3] == ["subject", "stimulus", "system"]
        first = False
        if is_header:
            continue
        if len(parts) != 4:
            raise InvalidInput(f"line {lineno}: expected 4 comma-separated fields")
        try:
            score = float(parts[3])
        except ValueError as exc:
            raise InvalidInput(f"line {lineno}: bad score {parts[3]!r}") from exc
        key = (parts[0], parts[1], parts[2])
        if key in seen:
            raise InvalidInput(f"line {lineno}: duplicate (subject, stimulus, system) {key}")
        seen.add(key)
        records.append(MushraRecord(parts[0], parts[1], parts[2], score))
    return records


def mushra_summary(records) -> list[MushraSummary]:
    """Per-system mean with a two-sided 95% t-distribution interval."""
    by_system = {}
    for record in records:
        by_system.setdefault(record.system, []).append(record.score)
    out = []
    for system in sorted(by_system):
        scores = np.asarray(by_system[system], dtype=np.float64)
        n = len(scores)
        if n < 2:
            raise InsufficientData(f"system {system!r} has {n} score(s); need at least 2")
        mean = float(scores.mean())
        sd = float(scores.std(ddof=1))
        half = float(student_t.ppf(0.975, n - 1) * sd / math.sqrt(n))
        out.append(MushraSummary(system, mean, mean - half, mean + half, n))
    return out


# --- Wilcoxon rank-sum --------------------------------------------------------


def _exact_ranksum_p(ranks2: np.ndarray, n_a: int, w2_obs: int) -> float:
    """Two-sided exact p over all C(n, n_a) rank assignments.

    ranks2 are mid-ranks doubled to integers.  Dynamic program over items:
    count[k][s] = number of size-k subsets with doubled-rank sum s.
    """
    total_sum = int(ranks2.sum())
    counts = np.zeros((n_a + 1, total_sum + 1))
    counts[0, 0] = 1.0
    # k runs descending so each item is counted in at most one subset slot.
    for r in ranks2:
        r = int(r)
        for k in range(n_a, 0, -1):
            counts[k, r:] += counts[k - 1, : total_sum + 1 - r]
    dist = counts[n_a]
    n_subsets = dist.sum()
    lower = dist[: w2_obs + 1].sum() / n_subsets
    upper = dist[w2_obs:].sum() / n_subsets
    return float(min(1.0, 2.0 * min(lower, upper)))


def _normal_ranksum_p(ranks: np.ndarray, n_a: int, n_b: int, w_obs: float) -> float:
    """Normal approximation with tie correction and continuity correction."""
    n = n_a + n_b
    expectation = n_a * (n + 1) / 2.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    tie_term = float(np.sum(tie_counts**3 - tie_counts)) / (n * (n - 1)) if n > 1 else 0.0
    variance = n_a * n_b / 12.0 * ((n + 1) - tie_term)
    if variance <= 0:
        return 1.0
    diff = w_obs - expectation
    if diff > 0:
        z = (diff - 0.5) / math.sqrt(variance)
    elif diff < 0:
        z = (diff + 0.5) / math.sqrt(variance)
    else:
        return 1.0
    p = 2.0 * (1.0 - 0.5 * (1.0 + math.erf(abs(z) / math.sqrt(2.0))))
    return float(min(1.0, p))


def _check_alpha(alpha) -> float:
    """The significance level as a float in the open interval (0, 1)."""
    alpha = check_float("alpha", alpha)
    if not 0.0 < alpha < 1.0:
        raise InvalidInput(f"alpha must be in the open interval (0, 1), got {alpha}")
    return alpha


def wilcoxon_ranksum(
    a, b, alpha: float = 0.05, method: str = "auto", system: str = ""
) -> SignificanceResult:
    """Two-sided Wilcoxon rank-sum test of samples a vs b.

    Ties get mid-ranks.  With method="auto" the null distribution is
    enumerated exactly whenever min(len(a), len(b)) <= 10, over subsets
    the size of the smaller group (the two-sided p is the same for either);
    larger groups use the tie-corrected normal approximation with
    continuity correction.
    """
    alpha = _check_alpha(alpha)
    a, b = check_array("a", a, 1), check_array("b", b, 1)
    if a.size < 1 or b.size < 1:
        raise InvalidInput("both groups need at least one observation")
    if not isinstance(method, str) or method not in ("auto", "exact", "normal-approx"):
        raise InvalidInput(f"unknown method {method!r}")
    combined = np.concatenate([a, b])
    ranks = rankdata(combined, method="average")
    w_obs = float(ranks[: a.size].sum())
    use_exact = method == "exact" or (method == "auto" and min(a.size, b.size) <= 10)
    if use_exact:
        ranks2 = np.round(2.0 * ranks).astype(np.int64)  # mid-ranks doubled: integers
        small = ranks2[a.size :] if b.size < a.size else ranks2[: a.size]
        p = _exact_ranksum_p(ranks2, small.size, int(small.sum()))
        used = "exact"
    else:
        p = _normal_ranksum_p(ranks, a.size, b.size, w_obs)
        used = "normal-approx"
    return SignificanceResult(
        system=system, p_value=p, significant=bool(p < alpha), alpha=alpha, method=used
    )


# --- Rendering ----------------------------------------------------------------


def _format_value(value) -> str:
    if value is None:
        return _ABSENT
    return f"{value:.6g}"


def render_report(report, fmt: str = "markdown") -> str:
    """Deterministic text rendering of a MetricReport or a (MUSHRA summaries,
    significance results) pair."""
    if not isinstance(fmt, str) or fmt not in ("markdown", "csv"):
        raise InvalidInput(f"unknown format {fmt!r}")
    if isinstance(report, MetricReport):
        return _render_metric_report(report, fmt)
    return _render_mushra(report, fmt)


def _render_metric_report(report: MetricReport, fmt: str) -> str:
    headers = ["test_set", "metric", "system"] + [f"q={q}" for q in report.q_list]
    rows = [
        [test_set, metric, system]
        + [_format_value(report.rows[(test_set, metric, system)][q]) for q in report.q_list]
        for test_set, metric, system in report.row_keys()
    ]
    config = json.dumps(report.config, sort_keys=True)
    footer = f"# config: {config}\n" if fmt == "csv" else f"\nconfig: {config}\n"
    return _table(headers, rows, fmt) + footer


def _render_mushra(payload, fmt: str) -> str:
    summaries, results = payload
    headers = ["system", "mean", "ci_low", "ci_high", "n", "p_vs_reference", "significant", "method"]
    p_by_system = {r.system: r for r in results}
    rows = []
    for summary in summaries:
        result = p_by_system.get(summary.system)
        rows.append(
            [
                summary.system,
                f"{summary.mean:.6g}",
                f"{summary.ci_low:.6g}",
                f"{summary.ci_high:.6g}",
                str(summary.n),
                f"{result.p_value:.6g}" if result else _ABSENT,
                ("yes" if result.significant else "no") if result else _ABSENT,
                result.method if result else _ABSENT,
            ]
        )
    return _table(headers, rows, fmt)


def _table(headers, rows, fmt: str) -> str:
    """CSV lines, or a markdown table with every column padded to its widest cell."""
    if fmt == "csv":
        return "".join(",".join(row) + "\n" for row in [headers, *rows])
    widths = [max(map(len, column)) for column in zip(headers, *rows)]

    def line(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |\n"

    rule = "|" + "|".join("-" * (w + 2) for w in widths) + "|\n"
    return line(headers) + rule + "".join(line(row) for row in rows)
