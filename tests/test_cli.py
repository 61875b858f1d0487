"""Config parsing, model predictions, and the batch driver."""

import hashlib
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from chainposet import cli, lyapunov
from chainposet.chaingraph import ChainGraphError, ConstantField, PiecewiseField
from chainposet.cli import (
    exit_status,
    main,
    predict_report,
    render_json,
    run_full,
)
from chainposet.config import (
    _KEYS,
    INNER_KINDS,
    AnalysisConfig,
    ConfigError,
    load_config,
    parse_config,
)
from chainposet.ordinal import parse_ordinal
from chainposet.systems import (
    CantorExample,
    Conjugated,
    DenseBlocks,
    OrdinalMap,
    PLHomeo,
    Variant,
    evaluate,
    predicted_label,
    predicted_representatives,
)

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "scripts" / "configs"

def files_digest(directory, pattern):
    """One sha256 over every matching file's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(directory.glob(pattern)):
        h.update(path.name.encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()


SAMPLE_HOMEO = ((F(0), F(0)), (F(1, 3), F(1, 2)), (F(1), F(1)))

FULL_CONFIG = """
# the three fixed point map, conjugated
system = conjugated
inner = ordinal
lambda = 2
homeo = [(0, 0), (1/3, 1/2), (1, 1)]
resolutions = [128, 256]
eps = 1/32
tasks = [components, refine]
"""

# echo paths no bundled config reaches: a conjugated block family, a `depth`
# key, a piecewise slack field, and `depths` under `conjugated`
CONJUGATED_DENSE = """
system = conjugated
inner = dense_blocks
variant = no_max
depth = 2
homeo = [(0, 0), (1/3, 1/2), (1, 1)]
resolutions = [64, 128]
eps = [(0, 1/64), (1/2, 1/32), (1, 1/16)]
tasks = [components, lyapunov, refine, signature, conjugacy]
"""

CONJUGATED_CANTOR = """
system = conjugated
inner = cantor
homeo = [(0, 0), (1/3, 1/2), (1, 1)]
resolutions = [64, 128]
depths = [1, 2]
eps = 1/50
tasks = [components, conjugacy, refine]
"""

# the certify benchmark's seed-0 config, at one coarser resolution
CERTIFY_SEED0 = """
system = conjugated
inner = ordinal
lambda = w
homeo = [(0, 0), (1/3, 13/48), (2/3, 35/48), (1, 1)]
resolutions = [512]
tasks = [components, lyapunov, conjugacy]
"""


# a value each config key accepts
KEY_SAMPLES = {
    "system": "ordinal",
    "lambda": "2",
    "depth": "1",
    "variant": "no_max",
    "inner": "ordinal",
    "homeo": "[(0, 0), (1/3, 1/2), (1, 1)]",
    "resolutions": "[64, 128]",
    "depths": "[1, 2]",
    "eps": "1/32",
    "tasks": "[components, refine]",
    "samples": "3",
}


class TestConfigParse:
    def test_full_config(self):
        cfg = parse_config(FULL_CONFIG)
        spec = cfg.specs[0]
        assert isinstance(spec, Conjugated)
        assert spec.inner == OrdinalMap(parse_ordinal("2"))
        assert spec.homeo is cfg.homeo
        assert cfg.specs == (spec, spec)
        assert cfg.homeo.points == SAMPLE_HOMEO
        assert cfg.resolutions == (128, 256)
        assert cfg.eps == ConstantField(F(1, 32))
        assert cfg.tasks == ("components", "refine")

    def test_defaults(self):
        cfg = parse_config("system = ordinal\nlambda = w\nresolutions = 64\n")
        assert cfg.resolutions == (64,)
        assert cfg.specs == (OrdinalMap(parse_ordinal("w")),)
        assert cfg.homeo is None
        assert cfg.eps is None
        assert cfg.tasks == ("components",)

    def test_samples_is_accepted_and_ignored(self):
        base = "system = ordinal\nlambda = w\nresolutions = 64\n"
        assert parse_config(base + "samples = 3\n") == parse_config(base)

    def test_depths_align_with_resolutions(self):
        cfg = parse_config(
            "system = dense_blocks\nresolutions = [64, 128]\ndepths = [1, 2]\n"
            "tasks = [components, refine]\n"
        )
        assert cfg.depths == (1, 2)
        assert all(isinstance(spec, DenseBlocks) for spec in cfg.specs)
        assert [spec.depth for spec in cfg.specs] == [1, 2]

    def test_eps_field(self):
        cfg = parse_config(
            "system = cantor\ndepth = 1\nresolutions = 64\n"
            "eps = [(0, 1/64), (1, 1/16)]\n"
        )
        assert cfg.eps == PiecewiseField(((F(0), F(1, 64)), (F(1), F(1, 16))))

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
            ("system = cantor\ndepth = 1\nresolutions = [64, 128]\ndepths = [1, 2]\n", 4),
            # two levels at one resolution would write one output file twice
            ("system = dense_blocks\nresolutions = [64, 64]\ndepths = [1, 2]\n", 2),
            # the spec rejects these when built, after every key is parsed
            ("system = cantor\ndepth = 0\nresolutions = 64\n", 2),
            ("system = dense_blocks\nresolutions = [64, 128]\ndepths = [1, 30]\n", 3),
            ("system = cantor\nresolutions = 64\n", 1),
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

    @pytest.mark.parametrize(
        "text,line,message",
        [
            ("system = ordinal\nlambda = 2\ninner = cantor\nresolutions = 64\n", 3,
             "'inner' only applies to system = conjugated"),
            ("system = cantor\ndepth = 1\nlambda = 2\nresolutions = 64\n", 3,
             "'lambda' only applies to ordinal systems"),
            ("system = conjugated\ninner = ordinal\nlambda = 2\ndepth = 3\n", 4,
             "'depth' only applies to block families"),
            ("system = conjugated\ninner = cantor\nvariant = no_max\n", 3,
             "'variant' only applies to dense_blocks"),
            ("system = ordinal\nlambda = 2\nresolutions = [64, 128]\ndepths = [1, 2]\n", 4,
             "'depths' only applies to block families"),
        ],
    )
    def test_misplaced_keys_name_themselves(self, text, line, message):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"

    @pytest.mark.parametrize(
        "kind,inner",
        [(k, None) for k in INNER_KINDS] + [("conjugated", k) for k in INNER_KINDS],
    )
    @pytest.mark.parametrize("key", sorted(_KEYS))
    def test_every_key_parses_or_names_itself(self, kind, inner, key):
        # a valid config for the kind, with the key set: a key the kind
        # reads parses, and any other is refused at its own line by name
        lines = {"system": kind}
        if inner:
            lines.update(inner=inner, homeo="[(0, 0), (1/3, 1/2), (1, 1)]")
        effective = inner or kind
        if effective == "ordinal":
            lines["lambda"] = "2"
        elif key != "depths":
            lines["depth"] = "1"
        lines["resolutions"] = "[64, 128]"
        lines.setdefault(key, KEY_SAMPLES[key])
        text = "".join(f"{k} = {v}\n" for k, v in lines.items())
        applies = {
            "inner": bool(inner),
            "lambda": effective == "ordinal",
            "depth": effective != "ordinal",
            "depths": effective != "ordinal",
            "variant": effective == "dense_blocks",
        }.get(key, True)
        if applies:
            parse_config(text)
        else:
            line = list(lines).index(key) + 1
            with pytest.raises(ConfigError, match=f"^line {line}: '{key}' only applies to "):
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
        spec = OrdinalMap(parse_ordinal("4"))
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
        spec = Conjugated(OrdinalMap(parse_ordinal("2")), PLHomeo(SAMPLE_HOMEO))
        reps = predicted_representatives(spec, F(1, 64))
        assert reps == (F(0), F(5, 8), F(1))
        assert predicted_label(spec) == "3"

    def test_limit_ordinal_label_and_nesting(self):
        spec = OrdinalMap(parse_ordinal("w"))
        assert predicted_label(spec) == "w+1"
        reps = predicted_representatives(spec, F(1, 64))
        assert {F(0), F(1, 2), F(7, 12), F(2, 3)} <= set(reps)

    @pytest.mark.parametrize("text", ["2", "3", "4", "w", "w+1", "w^2", "w^(w)"])
    def test_representatives_are_fixed_points(self, text):
        spec = OrdinalMap(parse_ordinal(text))
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
        report = run_full(cfg, seedless=True).report
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
        report = run_full(cfg, seedless=True).report
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
        report = run_full(cfg, seedless=True).report
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
        report = run_full(cfg, seedless=True).report
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
        report = run_full(cfg, seedless=True).report
        conj = report["levels"][0]["conjugacy"]
        assert conj["isomorphic"] is True
        assert conj["representatives_aligned"] is True
        assert exit_status(report) == 0

    def test_lyapunov_section(self):
        cfg = parse_config(
            "system = cantor\ndepth = 1\nresolutions = 256\n"
            "tasks = [components, lyapunov]\nsamples = 4\n"
        )
        report = run_full(cfg, seedless=True).report
        lyap = report["levels"][0]["lyapunov"]
        assert lyap["certified"] is True
        names = {c["name"] for c in lyap["checks"]}
        assert "descent" in names and "value_set" in names

    def test_resource_cap(self):
        cfg = parse_config(
            "system = ordinal\nlambda = 1\nresolutions = 2097152\n"
        )
        with pytest.raises(ChainGraphError):
            run_full(cfg)

    def test_deterministic_json(self):
        cfg = parse_config(
            "system = dense_blocks\ndepth = 1\nresolutions = [128, 256]\n"
            "tasks = [components, lyapunov, refine]\nsamples = 3\n"
        )
        a = render_json(run_full(cfg, seedless=True).report)
        b = render_json(run_full(cfg, seedless=True).report)
        assert a == b

    def test_timing_only_without_seedless(self):
        cfg = parse_config("system = ordinal\nlambda = 1\nresolutions = 64\n")
        assert "timing" in run_full(cfg).report
        assert "timing" not in run_full(cfg, seedless=True).report

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("cantor_trace.cfg", "8110050a8a05060308a961bc59bea28b809fb2e5973725d73d36a5133426ff0e"),
            ("conjugacy.cfg", "e4730b714d0a4ed1afe53087bb821d71cb737009985f13454ef48c22241e91ca"),
            ("dense_blocks_trace.cfg", "d5af026eea81169b713c1d1827b014c1b5e065a3defd927b39a1f304b016a387"),
            ("ordinal_omega.cfg", "71d5a2103e0860591c4c778eb322574d380151c01360525a00fbe5be4e58c511"),
        ],
    )
    def test_bundled_reports_frozen(self, name, digest):
        text = render_json(run_full(load_config(CONFIGS / name), seedless=True).report)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("cantor_trace.cfg", "14740481e8b3f14b9262ff243800cbe94d683358bb5aa78dc34dbcd43b885be0"),
            ("conjugacy.cfg", "7a8b388b09fec3ae50e18411116930e8eba9bcb29fee57cdae1dfcc249b23f83"),
            ("dense_blocks_trace.cfg", "6cdce3459a2c0267e1be19b0b1066831f7398481f28f53cb09625bcb09a9dafb"),
            ("ordinal_omega.cfg", "e66698d3a696c9e8418e23e9eceb0b18f1c5c5a7efde341866e1118795bbc4c6"),
        ],
    )
    def test_bundled_dots_frozen(self, tmp_path, capsys, name, digest):
        assert main(["dot", str(CONFIGS / name), "-o", str(tmp_path)]) == 0
        assert files_digest(tmp_path, "*.dot") == digest

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("cantor_trace.cfg", "98936e4f08bb5f9065e77b975a3144ccb0575aa0f2ffd45bb422f01c3f7e46a1"),
            ("conjugacy.cfg", "2c9537837f559b019f5960e26cd27486e322f67c629690377ab46d5cbfbb072e"),
            ("dense_blocks_trace.cfg", "384848fb972e2d9cdd7d2b19af6553d6bc45b37c8a8d16c75c3b8ac73d8a3b29"),
            ("ordinal_omega.cfg", "1a80d5e0a4aaad6617f41c83b52e102d467f50e8e12325fee7f7c656ecfad832"),
        ],
    )
    def test_bundled_graphs_frozen(self, tmp_path, capsys, name, digest):
        # the adjacency itself, as `--dump-graph` writes it
        args = ["analyze", str(CONFIGS / name), "--seedless", "--dump-graph", str(tmp_path)]
        assert main(args) == 0
        assert files_digest(tmp_path, "*.txt") == digest

    @pytest.mark.parametrize(
        "tasks, passes",
        [("[components, lyapunov]", 4), ("[components]", 2)],
    )
    def test_one_condensation_per_level(self, monkeypatch, tasks, passes):
        # run_full condenses each level once; verify adds its own cross-check
        calls = []
        for module in (cli, lyapunov):
            def counted(graph, condense=module.condense):
                calls.append(graph.n)
                return condense(graph)

            monkeypatch.setattr(module, "condense", counted)
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

    def test_analyze_dump_graph(self, tmp_path):
        cfg = self._write(tmp_path, "system = ordinal\nlambda = 1\nresolutions = 64\n")
        code = main(["analyze", cfg, "--seedless", "--dump-graph", str(tmp_path / "graphs")])
        assert code == 0
        dump = (tmp_path / "graphs" / "graph_n64.txt").read_text()
        assert dump.splitlines()[0].startswith("0:")
        # DOT output is the `dot` command's alone
        with pytest.raises(SystemExit):
            main(["analyze", cfg, "--dot", str(tmp_path / "dots")])

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

    def test_runaway_descent_exit_code(self, tmp_path, capsys):
        # descents above w^w can run for minutes at one rational; the budget
        # stops each run within a second
        cases = [
            # conjugated: the grid is evaluated point by point
            (
                "system = conjugated\ninner = ordinal\nlambda = w^(w^2)\n"
                "homeo = [(0, 0), (13/97, 29/101), (1, 1)]\nresolutions = [1024]\n"
                "tasks = [components, lyapunov]\n",
                "397301/595968",
            ),
            # plain: all grid points descend at once, and the error names the
            # leftmost point that runs out, as one by one
            ("system = ordinal\nlambda = w^(w^2)\nresolutions = [999]\n", "245/333"),
        ]
        for text, point in cases:
            cfg = self._write(tmp_path, text)
            t0 = time.monotonic()
            assert main(["analyze", cfg, "--seedless"]) == 2
            assert time.monotonic() - t0 < 10
            assert capsys.readouterr().err == (
                f"evaluation error: evaluating the index-w^(w^2) map at {point} "
                "took more than 1024 descent steps\n"
            )

    @pytest.mark.parametrize(
        "text",
        [
            # more cells than MAX_CELLS: the grid is refused
            "system = ordinal\nlambda = 1\nresolutions = [2000000]\n",
            # slack 1 joins every cell to every other: the edge budget runs out
            "system = ordinal\nlambda = 0\nresolutions = [16384]\neps = 1\n",
        ],
    )
    def test_graph_error_exit_code(self, tmp_path, capsys, text):
        cfg = self._write(tmp_path, text)
        assert main(["analyze", cfg, "--seedless"]) == 2
        assert capsys.readouterr().err.startswith("graph error:")
        assert main(["dot", cfg, "-o", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("graph error:")

    def test_predict_graph_error_exit_code(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "system = ordinal\nlambda = 1\nresolutions = [2000000]\n")
        assert main(["predict", cfg]) == 2
        assert capsys.readouterr().err.startswith("graph error: cell count")

    @pytest.mark.parametrize(
        "text, analyze_status, analyze_digest, predict_digest",
        [
            # the twin comparison fails on this map (see ROADMAP, conjugacy)
            (
                CONJUGATED_DENSE,
                1,
                "7cab9fc5416c81371b1801c068dca08d988f76a1e78b90a9e95a54c2e9fd865f",
                "4db8d9c85730a75446117a5b73d0ddc44fa9d0525df08b3528bb54734704a607",
            ),
            (
                CONJUGATED_CANTOR,
                0,
                "720d1b0998cb8b78b27985273531370fe467e60d2750fa9ddbd5b1112794edd1",
                "497132da5385d104d3719306e6aacf0077073a152dbaef7739a696c706798d7d",
            ),
            # the twin comparison passes at 512 cells, though it fails at 4096
            (
                CERTIFY_SEED0,
                0,
                "f3764f4545ef6ff786ecae1edc6b5f495d541d2b010ec3875baf929f9cd0ece8",
                "715d23882431b419c5cf1dec5b477bde362e1b3191aae5c10b620ceb4750c028",
            ),
        ],
        ids=["conjugated_dense", "conjugated_cantor", "certify_seed0"],
    )
    def test_conjugated_outputs_frozen(
        self, tmp_path, capsys, text, analyze_status, analyze_digest, predict_digest
    ):
        cfg = self._write(tmp_path, text)
        for argv, status, digest in (
            (["analyze", cfg, "--seedless", "--json", "-"], analyze_status, analyze_digest),
            (["predict", cfg, "--json", "-"], 0, predict_digest),
        ):
            assert main(argv) == status
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_conjugated_levels_carry_depth(self):
        for text, depths in ((CONJUGATED_DENSE, [2, 2]), (CONJUGATED_CANTOR, [1, 2])):
            levels = predict_report(parse_config(text))["levels"]
            assert [level["depth"] for level in levels] == depths

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("cantor_trace.cfg", "9c5f4787a90044b781388b6e8398fda0e6160d9885922ce265016a3a96fb9150"),
            ("conjugacy.cfg", "b597f90016b0b9822de7abf503dee622833e9b1effe9fee45e7ea8ca89ea6913"),
            ("dense_blocks_trace.cfg", "5ff101335db38064691bd4d746be1e63914c7122d63a4a42c93aeadfd135345f"),
            ("ordinal_omega.cfg", "fac41cfd92188df78ecec2eecaad6fb00a426e8193b21d91e58737285c311aba"),
        ],
    )
    def test_bundled_predictions_frozen(self, capsys, name, digest):
        assert main(["predict", str(CONFIGS / name), "--json", "-"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_unwritable_json_exit_code(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "system = ordinal\nlambda = 1\nresolutions = 64\n")
        target = str(tmp_path / "absent" / "r.json")
        for command in ("analyze", "predict"):
            assert main([command, cfg, "--json", target]) == 2
            assert capsys.readouterr().err.startswith("output error:")

    def test_dot_onto_file_exit_code(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "system = ordinal\nlambda = 1\nresolutions = 64\n")
        blocker = tmp_path / "taken"
        blocker.write_text("", encoding="utf-8")
        assert main(["dot", cfg, "-o", str(blocker)]) == 2
        assert capsys.readouterr().err.startswith("output error:")
        assert main(["analyze", cfg, "--dump-graph", str(blocker)]) == 2
        assert capsys.readouterr().err.startswith("output error:")

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
