"""Config parsing, model predictions, and the batch driver."""

import hashlib
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from chainposet import chaingraph
from chainposet.chaingraph import ChainGraphError
from chainposet.cli import (
    exit_status,
    main,
    predict_report,
    render_json,
    run,
    run_full,
)
from chainposet.config import (
    AnalysisConfig,
    ConfigError,
    SystemParams,
    load_config,
    parse_config,
)
from chainposet.ordinal import parse_ordinal
from chainposet.systems import (
    CantorExample,
    Conjugated,
    DenseBlocks,
    Variant,
    evaluate,
    make_homeo,
    make_ordinal_map,
    predicted_label,
    predicted_representatives,
)

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "scripts" / "configs"

SAMPLE_HOMEO = ((F(0), F(0)), (F(1, 3), F(1, 2)), (F(1), F(1)))

FULL_CONFIG = """
# conjugate of the three fixed point map
system = conjugated
inner = ordinal
lambda = 2
homeo = [(0, 0), (1/3, 1/2), (1, 1)]
resolutions = [128, 256]
eps = 1/32
mode = enclosure
tasks = [components, refine]
samples = 4
"""


class TestConfigParse:
    def test_full_config(self):
        cfg = parse_config(FULL_CONFIG)
        assert cfg.system.kind == "conjugated"
        assert cfg.system.inner.kind == "ordinal"
        assert cfg.system.inner.lam == parse_ordinal("2")
        assert cfg.system.homeo == SAMPLE_HOMEO
        assert cfg.resolutions == (128, 256)
        assert cfg.eps == F(1, 32)
        assert cfg.tasks == ("components", "refine")
        assert cfg.samples == 4
        spec = cfg.system.build()
        assert isinstance(spec, Conjugated)

    def test_defaults(self):
        cfg = parse_config("system = ordinal\nlambda = w\nresolutions = 64\n")
        assert cfg.resolutions == (64,)
        assert cfg.eps == "auto"
        assert cfg.mode == "enclosure"
        assert cfg.tasks == ("components",)
        assert cfg.samples == 10

    def test_depths_align_with_resolutions(self):
        cfg = parse_config(
            "system = dense_blocks\nresolutions = [64, 128]\ndepths = [1, 2]\n"
            "tasks = [components, refine]\n"
        )
        assert cfg.depths == (1, 2)
        assert isinstance(cfg.system.build(cfg.depth_at(1)), DenseBlocks)
        assert cfg.system.build(cfg.depth_at(1)).depth == 2

    def test_eps_field(self):
        cfg = parse_config(
            "system = cantor\ndepth = 1\nresolutions = 64\n"
            "eps = [(0, 1/64), (1, 1/16)]\n"
        )
        assert cfg.eps == ((F(0), F(1, 64)), (F(1), F(1, 16)))

    @pytest.mark.parametrize(
        "text,line",
        [
            ("system = ordinal\nwat = 3\n", 2),
            ("system = ordinal\nsystem = cantor\n", 2),
            ("system = ordinal\njust words\n", 2),
            ("system = ordinal\nlambda =\n", 2),
            ("system = nope\n", 1),
            ("system = cantor\ndepth = x\n", 2),
            ("system = dense_blocks\ndepth = 1\nvariant = closed\n", 3),
            ("system = ordinal\nlambda = w+\nresolutions = 64\n", 2),
            ("system = ordinal\nlambda = 2\nresolutions = [64\n", 3),
            ("system = ordinal\nlambda = 2\nresolutions = 64\neps = 0\n", 4),
            ("system = ordinal\nlambda = 2\nresolutions = 64\ntasks = []\n", 4),
            ("system = ordinal\nlambda = 2\nresolutions = 64\ntasks = [dance]\n", 4),
            ("system = ordinal\nlambda = 2\nresolutions = 64\nsamples = 0\n", 4),
        ],
    )
    def test_positioned_errors(self, text, line):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.line == line
        assert f"line {line}:" in str(err.value)

    @pytest.mark.parametrize(
        "text",
        [
            "resolutions = 64\n",
            "system = ordinal\nlambda = 2\n",
            "system = ordinal\nresolutions = 64\n",
            "system = cantor\nresolutions = 64\n",
            "system = conjugated\ninner = ordinal\nlambda = 2\nresolutions = 64\n",
            "system = conjugated\nlambda = 2\nhomeo = [(0,0),(1,1)]\nresolutions = 64\n",
            "system = cantor\ndepth = 1\nlambda = 2\nresolutions = 64\n",
            "system = ordinal\nlambda = 2\ndepth = 3\nresolutions = 64\n",
            "system = ordinal\nlambda = 2\nvariant = no_max\nresolutions = 64\n",
            "system = ordinal\nlambda = 2\ninner = cantor\nresolutions = 64\n",
            "system = ordinal\nlambda = 2\nresolutions = [64, 128]\ndepths = [1, 2]\n",
            "system = cantor\ndepths = [1, 2]\nresolutions = 64\n",
            "system = ordinal\nlambda = 2\nresolutions = 64\ntasks = [refine]\n",
            "system = ordinal\nlambda = 2\nresolutions = 64\ntasks = [conjugacy]\n",
            "system = ordinal\nlambda = 2\nresolutions = [64, 0]\n",
            "system = ordinal\nlambda = 2\nresolutions = 64\nmode = fast\n",
            "system = ordinal\nlambda = 2\nresolutions = 64\neps = [(0, 0), (1, 1)]\n",
            "system = cantor\ndepth = 99\nresolutions = 64\n",
        ],
    )
    def test_rejected_configs(self, text):
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_homeo_must_fix_endpoints(self):
        with pytest.raises(ConfigError) as err:
            parse_config(
                "system = ordinal\nlambda = 2\nresolutions = 64\n"
                "homeo = [(0, 0), (1, 1/2)]\n"
            )
        assert err.value.line == 4

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.cfg"))


class TestPredict:
    def test_finite_ordinal_representatives(self):
        spec = make_ordinal_map(parse_ordinal("4"))
        reps = predicted_representatives(spec, F(1, 2048))
        assert reps == (F(0), F(1, 8), F(1, 4), F(1, 2), F(1))
        assert predicted_label(spec) == "5"

    def test_dense_blocks_representatives(self):
        spec = DenseBlocks(1, Variant.WITH_MAX)
        assert predicted_representatives(spec, F(1, 64)) == (F(0), F(3, 8), F(3, 4))
        assert "[0,1]" in predicted_label(spec)

    def test_cantor_representatives(self):
        reps = predicted_representatives(CantorExample(1), F(1, 64))
        assert {F(0), F(1, 3), F(2, 3), F(1)} <= set(reps)

    def test_conjugated_representatives(self):
        spec = Conjugated(make_ordinal_map(parse_ordinal("2")), make_homeo(SAMPLE_HOMEO))
        reps = predicted_representatives(spec, F(1, 64))
        assert reps == (F(0), F(5, 8), F(1))
        assert predicted_label(spec) == "3"

    def test_limit_ordinal_label_and_nesting(self):
        spec = make_ordinal_map(parse_ordinal("w"))
        assert predicted_label(spec) == "w+1"
        reps = predicted_representatives(spec, F(1, 64))
        assert {F(0), F(1, 2), F(7, 12), F(2, 3)} <= set(reps)

    @pytest.mark.parametrize("text", ["2", "3", "4", "w", "w+1", "w^2", "w^(w)"])
    def test_representatives_are_fixed_points(self, text):
        spec = make_ordinal_map(parse_ordinal(text))
        for x in predicted_representatives(spec, F(1, 128)):
            assert evaluate(spec, x) == x

    def test_block_family_representatives_are_fixed_points(self):
        for spec in (CantorExample(2), DenseBlocks(2, Variant.WITH_MAX)):
            for x in predicted_representatives(spec, F(1, 128)):
                assert evaluate(spec, x) == x

    def test_predict_report_shape(self):
        cfg = parse_config("system = ordinal\nlambda = 4\nresolutions = [64, 128]\n")
        report = predict_report(cfg)
        assert [e["n"] for e in report["levels"]] == [64, 128]
        assert report["levels"][0]["label"] == "5"
        assert "1/8" in report["levels"][0]["representatives"]


class TestRun:
    def test_square_two_components(self):
        cfg = parse_config("system = ordinal\nlambda = 1\nresolutions = 1024\n")
        report = run(cfg, seedless=True)
        comp = report["levels"][0]["components"]
        assert comp["count"] == 2
        assert comp["linear"] is True
        assert comp["order"] == [0, 1]
        assert exit_status(report) == 0

    def test_dense_blocks_depth_two_components(self):
        cfg = parse_config(
            "system = dense_blocks\ndepth = 2\nvariant = with_max\n"
            "resolutions = 4096\n"
        )
        report = run(cfg, seedless=True)
        comp = report["levels"][0]["components"]
        assert comp["count"] == 5
        assert all(a < b for a, b in comp["pairs"])
        assert comp["minimal"] == [0]

    def test_refine_and_signature_sections(self):
        cfg = parse_config(
            "system = dense_blocks\nvariant = with_max\n"
            "resolutions = [1024, 2048]\ndepths = [1, 2]\n"
            "tasks = [components, refine, signature]\n"
        )
        report = run(cfg, seedless=True)
        assert report["refine"]["all_matched"] is True
        assert report["signature"]["counts"] == [3, 5]
        assert report["signature"]["dense_growth"] is True
        assert report["signature"]["persistent_pairs"] == []
        assert exit_status(report) == 0

    def test_refine_tolerates_slack_sized_drift(self):
        # under 4x refinement a band's lowest cell can shift by a few coarse
        # cells, so matching must widen fine spans by the coarse slack
        cfg = parse_config(
            "system = ordinal\nlambda = w\nresolutions = [256, 1024]\n"
            "tasks = [components, refine]\n"
        )
        report = run(cfg, seedless=True)
        assert report["refine"]["all_matched"] is True
        assert all(k is not None for k in report["refine"]["matches"][0])
        assert report["refine"]["tolerances"] == [str(F(8 * 2, 256))]
        assert exit_status(report) == 0

    def test_conjugacy_section(self):
        cfg = parse_config(
            "system = ordinal\nlambda = 2\nresolutions = 256\n"
            "homeo = [(0, 0), (1/3, 1/2), (1, 1)]\n"
            "tasks = [components, conjugacy]\n"
        )
        report = run(cfg, seedless=True)
        conj = report["levels"][0]["conjugacy"]
        assert conj["isomorphic"] is True
        assert conj["representatives_aligned"] is True
        assert exit_status(report) == 0

    def test_lyapunov_section(self):
        cfg = parse_config(
            "system = cantor\ndepth = 1\nresolutions = 256\n"
            "tasks = [components, lyapunov]\nsamples = 4\n"
        )
        report = run(cfg, seedless=True)
        lyap = report["levels"][0]["lyapunov"]
        assert lyap["certified"] is True
        names = {c["name"] for c in lyap["checks"]}
        assert "descent" in names and "value_set" in names

    def test_resource_cap(self):
        cfg = parse_config(
            "system = ordinal\nlambda = 1\nresolutions = 2097152\n"
        )
        with pytest.raises(ChainGraphError):
            run(cfg)

    def test_deterministic_json(self):
        cfg = parse_config(
            "system = dense_blocks\ndepth = 1\nresolutions = [128, 256]\n"
            "tasks = [components, lyapunov, refine]\nsamples = 3\n"
        )
        a = render_json(run(cfg, seedless=True))
        b = render_json(run(cfg, seedless=True))
        assert a == b

    def test_timing_only_without_seedless(self):
        cfg = parse_config("system = ordinal\nlambda = 1\nresolutions = 64\n")
        assert "timing" in run(cfg)
        assert "timing" not in run(cfg, seedless=True)

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("cantor_trace.cfg", "00bc6d7ac53a56bfd9cec4e6b105be2c2e2d4deb42dbea2133fc22a49e45d6a3"),
            ("conjugacy.cfg", "8de3461d4c6974a0209c0d558452ffa215010d8fd71cccc07056937231e0b3da"),
            ("dense_blocks_trace.cfg", "20ac1977074231999d3717e98fff1f859fff800430584643772c553561c2ef6c"),
            ("ordinal_omega.cfg", "0d1c09fd51e2fbb52849ae4bb439adae59a0571f84c648f67c55f68ea68376e9"),
        ],
    )
    def test_bundled_reports_frozen(self, name, digest):
        text = render_json(run(load_config(CONFIGS / name), seedless=True))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize(
        "tasks, passes",
        [("[components, lyapunov]", 4), ("[components]", 2)],
    )
    def test_one_condensation_per_level(self, monkeypatch, tasks, passes):
        # run_full condenses each level once; verify adds its own cross-check
        calls = []
        tarjan = chaingraph.strongly_connected_components

        def counted(adjacency):
            calls.append(len(adjacency))
            return tarjan(adjacency)

        monkeypatch.setattr(chaingraph, "strongly_connected_components", counted)
        cfg = parse_config(
            f"system = ordinal\nlambda = w\nresolutions = [64, 128]\ntasks = {tasks}\n"
        )
        run_full(cfg, seedless=True)
        assert len(calls) == passes

    def test_exit_status(self):
        assert exit_status({"checks": [{"name": "a", "passed": True}]}) == 0
        assert exit_status({"checks": [{"name": "a", "passed": False}]}) == 1
        assert exit_status({"checks": []}) == 0


class TestMain:
    def _write(self, tmp_path, text):
        path = tmp_path / "job.cfg"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_analyze_roundtrip(self, tmp_path, capsys):
        cfg = self._write(
            tmp_path, "system = ordinal\nlambda = 2\nresolutions = 128\n"
        )
        out_json = tmp_path / "report.json"
        code = main(["analyze", cfg, "--json", str(out_json), "--seedless"])
        assert code == 0
        assert out_json.read_text().startswith("{")
        assert "checks: 1/1 passed" in capsys.readouterr().out

    def test_analyze_json_stdout(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "system = ordinal\nlambda = 1\nresolutions = 64\n")
        code = main(["analyze", cfg, "--json", "-", "--seedless"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("{")
        assert '"checks"' in out

    def test_analyze_byte_identical(self, tmp_path):
        cfg = self._write(tmp_path, "system = cantor\ndepth = 1\nresolutions = 128\n")
        one, two = tmp_path / "one.json", tmp_path / "two.json"
        assert main(["analyze", cfg, "--json", str(one), "--seedless"]) == 0
        assert main(["analyze", cfg, "--json", str(two), "--seedless"]) == 0
        assert one.read_bytes() == two.read_bytes()

    def test_analyze_dump_and_dot(self, tmp_path):
        cfg = self._write(tmp_path, "system = ordinal\nlambda = 1\nresolutions = 64\n")
        code = main(
            [
                "analyze",
                cfg,
                "--seedless",
                "--dump-graph",
                str(tmp_path / "graphs"),
                "--dot",
                str(tmp_path / "dots"),
            ]
        )
        assert code == 0
        dump = (tmp_path / "graphs" / "graph_n64.txt").read_text()
        assert dump.splitlines()[0].startswith("0:")
        dot = (tmp_path / "dots" / "components_n64.dot").read_text()
        assert dot.startswith("digraph")

    def test_predict_command(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "system = ordinal\nlambda = 4\nresolutions = 64\n")
        assert main(["predict", cfg]) == 0
        out = capsys.readouterr().out
        assert "label=5" in out
        assert "1/8" in out

    def test_dot_command(self, tmp_path):
        cfg = self._write(tmp_path, "system = ordinal\nlambda = 2\nresolutions = 64\n")
        assert main(["dot", cfg, "-o", str(tmp_path / "out")]) == 0
        dot = (tmp_path / "out" / "components_n64.dot").read_text()
        assert "digraph" in dot

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "system = ordinal\nlambda = ???\nresolutions = 64\n")
        assert main(["analyze", cfg]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "line 2" in err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "absent.cfg")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "chainposet", "predict", "scripts/configs/ordinal_omega.cfg"],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "label=w+1" in proc.stdout
