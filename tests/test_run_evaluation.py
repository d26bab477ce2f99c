import stat
import sys

import numpy as np
import pytest

from rvqlab import dsp, evalstats
from rvqlab.datapipe import load_manifest
from rvqlab.errors import InvalidInput
from rvqlab.evalstats import render_report, run_evaluation
from rvqlab.frontend import GL_MOMENTUM
from rvqlab.metrics import LOSS_SCALES

from conftest import make_corpus


@pytest.fixture(scope="module")
def test_sets(tmp_path_factory):
    seta = make_corpus(tmp_path_factory.mktemp("eval_a"), per_category=1, duration=1.0, base_seed=400)
    setb = make_corpus(tmp_path_factory.mktemp("eval_b"), per_category=1, duration=1.0, base_seed=500)
    return {"seta": load_manifest(seta), "setb": load_manifest(setb)}


class TestRunEvaluation:
    def test_grid_complete_and_ordered(self, toy_model, test_sets):
        _, model, _ = toy_model
        report = run_evaluation(model, test_sets, q_list=[1, 2, 4], gl_iterations=8)
        assert report.q_list == (4, 2, 1)  # descending, mirroring the table layout
        for set_name in ("seta", "setb"):
            for metric in ("mel", "stft", "stoi", "pesq", "latent_mse"):
                row = report.rows[(set_name, metric, "rvq")]
                assert set(row) == {4, 2, 1}
                for q in (4, 2, 1):
                    if metric == "pesq":
                        assert row[q] is None  # unconfigured adapter: absent, not error
                    else:
                        assert row[q] is not None

    def test_quality_improves_with_stages(self, toy_model, test_sets):
        _, model, _ = toy_model
        report = run_evaluation(model, test_sets, q_list=[1, 2, 4], gl_iterations=8)
        for set_name in ("seta", "setb"):
            mse = [report.cell(set_name, "latent_mse", "rvq", q) for q in (4, 2, 1)]
            assert mse[0] < mse[1] < mse[2]
            mel = [report.cell(set_name, "mel", "rvq", q) for q in (4, 2, 1)]
            assert mel[0] <= mel[1] <= mel[2]

    def test_deterministic_report_bytes(self, toy_model, test_sets):
        _, model, _ = toy_model
        report = run_evaluation(model, test_sets, q_list=[1, 4], gl_iterations=4)
        a = render_report(report, "csv")
        b = render_report(run_evaluation(model, test_sets, q_list=[1, 4], gl_iterations=4), "csv")
        assert a == b
        assert (report.config["gl_iterations"], report.config["gl_momentum"]) == (4, GL_MOMENTUM)
        assert report.config["metric"] == {
            "scales": [[256, 64, 40], [512, 128, 80], [1024, 256, 160], [2048, 512, 320]],
            "floor": 1e-05,
        }

    def test_one_loss_pass_per_decoded_file(self, toy_model, test_sets, monkeypatch):
        # Each file takes one analysis STFT to encode; each decoded (file, q)
        # pair then takes one STFT of each signal per loss scale, shared by
        # the mel and STFT losses.
        _, model, _ = toy_model
        calls = []
        real = dsp.stft

        def spy(audio, config):
            calls.append(config.fft_size)
            return real(audio, config)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "rvqlab" and getattr(module, "stft", None) is real:
                monkeypatch.setattr(module, "stft", spy)
        files = test_sets["seta"][:3]
        q_list = [4, 2, 1]
        report = run_evaluation(model, {"seta": files}, q_list=q_list, gl_iterations=2)
        assert not report.failures
        assert len(calls) == len(files) * (1 + len(q_list) * 2 * len(LOSS_SCALES))

    def test_q_exceeding_model_rejected(self, toy_model, test_sets):
        _, model, _ = toy_model
        with pytest.raises(InvalidInput):
            run_evaluation(model, test_sets, q_list=[8])

    @pytest.mark.parametrize(
        "manifests, q_list, match",
        [(None, [], "q_list"), ({}, [1], "test manifest"), ({"none": []}, [1], "no files")],
        ids=["empty-q-list", "no-manifests", "no-files"],
    )
    def test_nothing_to_evaluate_rejected(self, toy_model, test_sets, manifests, q_list, match):
        _, model, _ = toy_model
        with pytest.raises(InvalidInput, match=match):
            run_evaluation(model, test_sets if manifests is None else manifests, q_list=q_list)

    def test_q_below_one_rejected_before_any_file(self, toy_model, test_sets):
        _, model, _ = toy_model
        with pytest.raises(InvalidInput):
            run_evaluation(model, test_sets, q_list=[2, 0])

    def test_gl_iterations_below_one_rejected_before_any_file(self, toy_model, test_sets):
        _, model, _ = toy_model
        with pytest.raises(InvalidInput):
            run_evaluation(model, test_sets, q_list=[1], gl_iterations=0)

    def test_pesq_tool_from_environment_recorded(self, toy_model, test_sets, tmp_path, monkeypatch):
        _, model, _ = toy_model
        tool = tmp_path / "fake_pesq.sh"
        tool.write_text('#!/bin/sh\necho "MOS-LQO = 4.1"\n')
        tool.chmod(tool.stat().st_mode | stat.S_IEXEC)
        monkeypatch.setenv("RVQLAB_PESQ_TOOL", str(tool))
        report = run_evaluation(model, test_sets, q_list=[1], gl_iterations=2)
        assert report.cell("seta", "pesq", "rvq", 1) == pytest.approx(4.1)
        assert report.config["pesq_tool"] == str(tool)

    def test_file_failing_at_later_q_counts_at_no_q(self, toy_model, test_sets, tmp_path, monkeypatch):
        _, model, _ = toy_model
        # The fake tool prints its call count as the score and fails on its
        # 2nd call: file 0 scores 1 at q=2, then fails at q=1; file 1 scores
        # 3 at q=2 and 4 at q=1.  File 0 must be left out of both columns.
        tool = tmp_path / "fake_pesq.sh"
        tool.write_text(
            "#!/bin/sh\n"
            'n=$(( $(cat "$0.count" 2>/dev/null || echo 0) + 1 ))\n'
            'echo "$n" > "$0.count"\n'
            '[ "$n" -eq 2 ] && exit 1\n'
            'echo "$n"\n'
        )
        tool.chmod(tool.stat().st_mode | stat.S_IEXEC)
        files = test_sets["seta"][:2]
        monkeypatch.setenv("RVQLAB_PESQ_TOOL", str(tool))
        monkeypatch.setattr(evalstats, "_MAX_FAILURE_RATE", 0.5)
        report = run_evaluation(model, {"pair": files}, q_list=[2, 1], gl_iterations=2)
        assert [f[1] for f in report.failures] == [str(files[0].path)]
        assert report.cell("pair", "pesq", "rvq", 2) == 3.0
        assert report.cell("pair", "pesq", "rvq", 1) == 4.0
        monkeypatch.delenv("RVQLAB_PESQ_TOOL")
        alone = run_evaluation(model, {"pair": files[1:]}, q_list=[2, 1], gl_iterations=2)
        for metric in ("mel", "stft", "stoi", "latent_mse"):
            for q in (2, 1):
                assert report.cell("pair", metric, "rvq", q) == alone.cell("pair", metric, "rvq", q)

    def test_failures_recorded_and_tolerated(self, toy_model, test_sets, tmp_path, monkeypatch):
        _, model, _ = toy_model
        # Corrupt one file out of many: failure rate 1/12 exceeds the 1%
        # default threshold, so the run must fail loudly.
        import shutil

        broken_root = tmp_path / "broken"
        shutil.copytree(test_sets["seta"][0].path.parent, broken_root)
        manifest = load_manifest(broken_root / "manifest.jsonl")
        manifest[0].path.write_bytes(b"not audio")
        from rvqlab.errors import EvaluationFailed

        with pytest.raises(EvaluationFailed):
            run_evaluation(model, {"broken": manifest}, q_list=[1], gl_iterations=4)
        # With a permissive threshold the run completes and records it.
        monkeypatch.setattr(evalstats, "_MAX_FAILURE_RATE", 0.5)
        report = run_evaluation(model, {"broken": manifest}, q_list=[1], gl_iterations=4)
        assert len(report.failures) == 1
        assert "WavError" in report.failures[0][2]
