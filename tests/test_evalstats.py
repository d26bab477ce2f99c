import itertools

import numpy as np
import pytest
from scipy.stats import rankdata

from rvqlab.errors import InsufficientData, InvalidInput
from rvqlab.evalstats import (
    MetricReport,
    MushraRecord,
    MushraSummary,
    load_mushra_records,
    mushra_summary,
    render_report,
    wilcoxon_ranksum,
)


class TestMushraSummary:
    def test_zero_variance(self):
        records = [MushraRecord("s1", "x", "ref", 100.0), MushraRecord("s2", "x", "ref", 100.0)]
        (summary,) = mushra_summary(records)
        assert summary.mean == 100.0
        assert summary.ci_low == summary.ci_high == 100.0

    def test_hand_t_interval(self):
        # {80, 90, 100}: mean 90, s = 10, n = 3, t(0.975, 2) = 4.303 ->
        # half-width 4.303 * 10 / sqrt(3) = 24.84.
        records = [MushraRecord(f"s{i}", "x", "sys", v) for i, v in enumerate((80.0, 90.0, 100.0))]
        (summary,) = mushra_summary(records)
        assert summary.mean == pytest.approx(90.0)
        assert summary.mean - summary.ci_low == pytest.approx(24.84, abs=0.01)
        assert summary.ci_high - summary.mean == pytest.approx(24.84, abs=0.01)

    def test_grouping_matches_partition(self):
        records = [
            MushraRecord(f"s{i}", f"st{j}", system, 50.0 + i + j)
            for i in range(4)
            for j in range(3)
            for system in ("a", "b")
        ]
        summaries = mushra_summary(records)
        assert [s.system for s in summaries] == ["a", "b"]
        assert all(s.n == 12 for s in summaries)

    def test_single_score_rejected(self):
        with pytest.raises(InsufficientData):
            mushra_summary([MushraRecord("s", "x", "only", 50.0)])

    def test_score_range_validated(self):
        with pytest.raises(InvalidInput):
            MushraRecord("s", "x", "sys", 101.0)

    def test_ci_coverage(self):
        # 95% t-interval covers the true mean 95% +- 2% of the time.
        rng = np.random.default_rng(0)
        n, trials = 8, 10000
        true_mean = 60.0
        covered = 0
        from scipy.stats import t as student_t

        tq = student_t.ppf(0.975, n - 1)
        for _ in range(trials):
            scores = true_mean + 7.0 * rng.standard_normal(n)
            m = scores.mean()
            half = tq * scores.std(ddof=1) / np.sqrt(n)
            covered += (m - half <= true_mean <= m + half)
        assert abs(covered / trials - 0.95) <= 0.02


class TestWilcoxon:
    def test_exact_textbook_case(self):
        result = wilcoxon_ranksum([1, 2, 3], [4, 5, 6])
        assert result.method == "exact"
        assert result.p_value == pytest.approx(0.1, abs=1e-12)

    def test_identical_groups_p_near_one(self):
        scores = list(range(20))
        result = wilcoxon_ranksum(scores, scores)
        assert result.method == "normal-approx"
        assert result.p_value > 0.95

    def test_alpha_flag_logic(self):
        not_sig = wilcoxon_ranksum([1, 2, 3], [4, 5, 6], alpha=0.05)  # p = 0.1
        assert not not_sig.significant
        # Borderline flag behavior: p = 0.062 at alpha 0.05 is not
        # significant; p < 1e-5 is.
        assert not (0.062 < 0.05)
        big_a = list(range(50))
        big_b = [x + 40 for x in big_a]
        assert wilcoxon_ranksum(big_a, big_b).p_value < 1e-5
        assert wilcoxon_ranksum(big_a, big_b).significant

    @pytest.mark.parametrize("alpha", [2.0, 0.0, -1.0, float("nan"), "x"])
    def test_alpha_outside_open_unit_interval(self, alpha):
        with pytest.raises(InvalidInput, match="alpha"):
            wilcoxon_ranksum([1, 2, 3], [4, 5, 6], alpha=alpha)

    def test_alpha_inside_open_unit_interval(self):
        result = wilcoxon_ranksum([1, 2, 3], [4, 5, 6], alpha=0.05)
        assert result.alpha == 0.05
        assert not result.significant

    def test_exact_matches_brute_force_enumeration(self):
        # Independent oracle: enumerate every subset with itertools.
        rng = np.random.default_rng(1)
        for _ in range(25):
            n_a = int(rng.integers(2, 5))
            n_b = int(rng.integers(2, 6))
            a = rng.integers(0, 12, n_a).astype(float)
            b = rng.integers(0, 12, n_b).astype(float)
            combined = np.concatenate([a, b])
            ranks = rankdata(combined, method="average")
            w_obs = ranks[:n_a].sum()
            sums = [sum(c) for c in itertools.combinations(ranks, n_a)]
            lower = sum(s <= w_obs + 1e-9 for s in sums) / len(sums)
            upper = sum(s >= w_obs - 1e-9 for s in sums) / len(sums)
            expected = min(1.0, 2.0 * min(lower, upper))
            got = wilcoxon_ranksum(a, b).p_value
            assert got == pytest.approx(expected, abs=1e-9)

    def test_exact_vs_approx_within_002(self):
        # Small group against a larger one: the regime where the exact path
        # matters and where a continuous approximation can actually track
        # the discrete null.  (With two tiny equal groups the exact
        # distribution's atoms are several percent of the mass, so no
        # normal-style approximation stays within 0.02 there; measured
        # worst 0.048 at sizes 4-8 vs 4-8.)
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(200):
            n_a = int(rng.integers(4, 9))
            n_b = int(rng.integers(30, 61))
            a = rng.integers(0, 101, n_a).astype(float)
            b = rng.integers(0, 101, n_b).astype(float)
            exact = wilcoxon_ranksum(a, b, method="exact").p_value
            approx = wilcoxon_ranksum(a, b, method="normal-approx").p_value
            worst = max(worst, abs(exact - approx))
        assert worst <= 0.02

    def test_exact_with_large_other_group(self):
        # min(n) <= 10 triggers exact enumeration even when the other group
        # is large.
        rng = np.random.default_rng(9)
        a = rng.integers(0, 100, 5).astype(float)
        b = rng.integers(0, 100, 200).astype(float)
        result = wilcoxon_ranksum(a, b)
        assert result.method == "exact"
        assert 0.0 <= result.p_value <= 1.0

    def test_empty_group_rejected(self):
        with pytest.raises(InvalidInput):
            wilcoxon_ranksum([], [1.0])

    @pytest.mark.parametrize(
        "a, b",
        [(["a"], [1.0]), ([np.nan, 1.0], [1.0, 2.0]), ([np.inf, 1.0], [1.0, 2.0]),
         ([[1.0, 2.0]], [[1.0], [3.0]]), ([[1.0, 2.0]], [[1.0, 3.0]]), ([1.0, 2.0], [1j, 3.0])],
        ids=["text", "nan", "inf", "ragged-2d", "2d", "complex"],
    )
    def test_groups_must_be_finite_real_1d(self, a, b):
        with pytest.raises(InvalidInput):
            wilcoxon_ranksum(a, b)

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidInput, match="unknown method"):
            wilcoxon_ranksum([1.0], [2.0], method="bootstrap")


class TestMushraFile:
    @pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig"], ids=["plain", "byte-order-mark"])
    def test_load_and_duplicate_detection(self, tmp_path, encoding):
        path = tmp_path / "scores.csv"
        path.write_text(
            "subject,stimulus,system,score\n"
            "s1,st1,reference,100\n"
            "s1,st1,codec,80\n"
            "s2,st1,reference,95\n",
            encoding=encoding,
        )
        records = load_mushra_records(path)
        assert len(records) == 3
        assert records[1].score == 80.0

        path.write_text("s1,st1,codec,80\ns1,st1,codec,85\n")
        with pytest.raises(InvalidInput, match="duplicate"):
            load_mushra_records(path)

    def test_header_after_leading_comment(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(
            "# listening test, session 1\n"
            "\n"
            "subject,stimulus,system,score\n"
            "s1,st1,reference,100\n"
            "s1,st1,codec,80\n"
        )
        records = load_mushra_records(path)
        assert [r.system for r in records] == ["reference", "codec"]

    def test_header_only_on_first_content_line(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("s1,st1,codec,80\nsubject,stimulus,system,score\n")
        with pytest.raises(InvalidInput, match="line 2: bad score"):
            load_mushra_records(path)

    def test_three_field_line_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("s1,st1,codec,80\ns2,st1,codec\n")
        with pytest.raises(InvalidInput, match="line 2: expected 4"):
            load_mushra_records(path)

    def test_non_utf8_file_is_invalid_input(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(InvalidInput, match="not UTF-8"):
            load_mushra_records(path)


class TestRenderReport:
    def _small_report(self):
        rows = {
            ("setA", "mel", "rvq"): {4: 0.5, 2: 0.75, 1: 1.25},
            ("setA", "stoi", "rvq"): {4: 0.95, 2: 0.9, 1: 0.82},
            ("setA", "pesq", "rvq"): {4: None, 2: None, 1: None},
        }
        return MetricReport(
            rows=rows, q_list=(4, 2, 1), config={"system": "rvq", "q_list": [4, 2, 1]}
        )

    def test_unknown_format_rejected(self):
        with pytest.raises(InvalidInput, match="unknown format"):
            render_report(self._small_report(), fmt="html")

    def test_empty_report_header_only(self):
        report = MetricReport(rows={}, q_list=(2, 1), config={})
        text = render_report(report, fmt="csv")
        lines = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert lines == ["test_set,metric,system,q=2,q=1"]

    def test_absent_rendered_as_dash(self):
        text = render_report(self._small_report(), fmt="markdown")
        assert "—" in text
        assert "config:" in text

    def test_golden_markdown(self):
        golden = (
            "| test_set | metric | system | q=4  | q=2  | q=1  |\n"
            "|----------|--------|--------|------|------|------|\n"
            "| setA     | mel    | rvq    | 0.5  | 0.75 | 1.25 |\n"
            "| setA     | pesq   | rvq    | —    | —    | —    |\n"
            "| setA     | stoi   | rvq    | 0.95 | 0.9  | 0.82 |\n"
            "\n"
            'config: {"q_list": [4, 2, 1], "system": "rvq"}\n'
        )
        assert render_report(self._small_report(), fmt="markdown") == golden

    def test_csv_roundtrip_six_digits(self):
        report = self._small_report()
        text = render_report(report, fmt="csv")
        lines = [l for l in text.splitlines() if l and not l.startswith("#")]
        header = lines[0].split(",")
        assert header[3:] == ["q=4", "q=2", "q=1"]
        for line in lines[1:]:
            parts = line.split(",")
            key = (parts[0], parts[1], parts[2])
            for q, cell in zip(report.q_list, parts[3:]):
                expected = report.rows[key][q]
                if expected is None:
                    assert cell == "—"
                else:
                    assert float(cell) == pytest.approx(expected, rel=1e-6)

    def test_mushra_render(self):
        summaries = [MushraSummary("codec", 85.0, 80.0, 90.0, 16)]
        results = [wilcoxon_ranksum([80, 85, 90], [95, 99, 100], system="codec")]
        text = render_report((summaries, results), fmt="csv")
        assert "codec,85" in text
        assert "exact" in text

    def test_deterministic(self):
        a = render_report(self._small_report(), fmt="markdown")
        b = render_report(self._small_report(), fmt="markdown")
        assert a == b
