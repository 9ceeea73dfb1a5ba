import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import lievol
from lievol.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSubcommands:
    def test_roots_json(self, capsys):
        code, out, _ = run(capsys, "roots", "--series", "b", "--n", "2")
        assert code == 0
        d = json.loads(out)
        assert d["roots"]["group"] == "Spin(5)"
        assert len(d["roots"]["positive_roots"]) == 4
        assert d["provenance"]["config"]["series"] == "b"

    def test_volume_exact(self, capsys):
        code, out, _ = run(capsys, "volume", "--series", "su", "--n", "3",
                           "--exact")
        assert code == 0
        d = json.loads(out)
        assert d["volume"]["exact"] == {"q": "16/1", "pi_pow": 5, "sqrt": 3}
        assert d["closed_form"] == d["volume"]["exact"]

    def test_volume_log_only_at_high_rank(self, capsys):
        code, out, _ = run(capsys, "volume", "--series", "su", "--n", "80")
        assert code == 0
        d = json.loads(out)
        assert "exact" not in d["volume"]
        assert "log_volume" in d["volume"]

    def test_volume_gamma(self, capsys):
        code, out, _ = run(capsys, "volume", "--series", "su", "--n", "4",
                           "--exact", "--gamma", "2")
        assert json.loads(out)["volume"]["center_order"] == 2

    def test_usp_note_present(self, capsys):
        _, out, _ = run(capsys, "volume", "--series", "usp", "--n", "2",
                        "--exact")
        assert "inconsistent" in json.loads(out)["note"]

    def test_ratio(self, capsys):
        code, out, _ = run(capsys, "ratio", "--series", "a", "--n", "50")
        d = json.loads(out)
        assert 0.98 <= d["ratio"]["quotient"] <= 1.02

    def test_curvature(self, capsys):
        code, out, _ = run(capsys, "curvature", "--series", "so", "--n", "6")
        d = json.loads(out)
        assert d["curvature"]["ricci_lower_bound"] == pytest.approx(2.0)
        assert d["chi_table"]["claimed"] == 4.0

    def test_cpn_band_mass(self, capsys):
        code, out, _ = run(capsys, "cpn", "band-mass", "--n", "10",
                           "--eps", "0.3")
        d = json.loads(out)
        assert 0.59 < d["band_mass"]["neighbourhood_measure"] < 0.61

    def test_cpn_check_metric(self, capsys):
        code, out, _ = run(capsys, "cpn", "check-metric", "--n", "2",
                           "--points", "10")
        assert code == 0
        assert json.loads(out)["check_metric"]["passed"] is True

    def test_cpn_check_metric_honours_n(self, capsys, monkeypatch):
        import lievol.reproduce as rp

        seen = set()   # the n of every chart point the checks evaluate
        for name in ("measure_density", "structure_equation_residual"):
            monkeypatch.setattr(rp, name, lambda c, f=getattr(rp, name):
                                seen.add(c.n) or f(c))
        monkeypatch.setattr(rp, "fs_metric_angular",
                            lambda a, *rest, f=rp.fs_metric_angular:
                            seen.add(len(a.R)) or f(a, *rest))
        reports = []
        for n in (1, 3):
            seen.clear()
            code, out, _ = run(capsys, "cpn", "check-metric", "--n", str(n),
                               "--points", "5")
            assert code == 0
            assert seen == {n}
            reports.append(json.loads(out)["check_metric"])
            assert reports[-1]["passed"] is True
        del reports[0]["runtime_s"], reports[1]["runtime_s"]
        assert reports[0] != reports[1]

    def test_cpn_band_mass_high_n(self, capsys):
        # a spike next to pi/2: the quadrature check needs doubled nodes
        code, out, _ = run(capsys, "cpn", "band-mass", "--n", "5000")
        assert code == 0
        assert json.loads(out)["band_mass"]["mass"] == pytest.approx(
            math.cos(0.3) ** 10000 / 10000, rel=1e-12)

    def test_levy(self, capsys):
        code, out, _ = run(capsys, "levy", "--family", "so", "--start", "3",
                           "--stop", "10", "--rescale", "linear")
        d = json.loads(out)
        assert d["ricci_bounds"]["R"][0] == 0.25
        assert d["rescaled"]["levy"] is True

    @pytest.mark.parametrize("family,low", [("su", 2), ("so", 3),
                                            ("usp", 2)])
    def test_levy_starts_at_the_family_minimum(self, capsys, family, low):
        code, out, _ = run(capsys, "levy", "--family", family, "--stop", "6")
        assert code == 0
        assert json.loads(out)["ricci_bounds"]["n"][0] == low

    def test_sample(self, capsys):
        code, out, _ = run(capsys, "sample", "--series", "su", "--n", "4",
                           "--count", "2048", "--r", "0.4", "--seed", "7")
        d = json.loads(out)
        assert d["report"]["count"] == 2048
        assert abs(d["report"]["z_score"]) < 5.0

    def test_reproduce_quick(self, tmp_path, capsys):
        # the sweep the benchmark times, with the acceptance seed
        target = tmp_path / "reproduce.json"
        code, _, _ = run(capsys, "reproduce", "--seed", "42", "--quick",
                         "--output", str(target))
        assert code == 0
        d = json.loads(target.read_text())
        assert d["all_passed"] is True
        assert len(d["criteria"]) == 8
        assert all(c["passed"] for c in d["criteria"]), d["criteria"]


class TestFormatsAndOutput:
    @pytest.mark.parametrize("argv", [
        ("cpn", "band-mass", "--n", "3"),
        ("levy", "--family", "so", "--start", "3", "--stop", "5"),
        ("curvature", "--series", "so", "--n", "4")])
    def test_common_options_everywhere(self, capsys, argv):
        _, out, _ = run(capsys, *argv, "--format", "text")
        assert " = " in out.splitlines()[0]
        _, out, _ = run(capsys, *argv, "--format", "csv", "--json")
        assert json.loads(out)["provenance"]["config"]["format"] == "json"

    def test_curvature_report_is_an_alias_of_format(self, capsys):
        argv = ("curvature", "--series", "so", "--n", "4")
        _, via_report, _ = run(capsys, *argv, "--report", "csv")
        _, via_format, _ = run(capsys, *argv, "--format", "csv")
        assert via_report.splitlines()[0] == "key,value"
        assert via_report == via_format

    def test_csv(self, capsys):
        _, out, _ = run(capsys, "volume", "--series", "su", "--n", "3",
                        "--exact", "--format", "csv")
        assert out.splitlines()[0] == "key,value"
        assert any("volume.exact_str" in line for line in out.splitlines())

    def test_text(self, capsys):
        _, out, _ = run(capsys, "ratio", "--series", "c", "--n", "10",
                        "--format", "text")
        assert any(line.startswith("ratio.ratio_exponent = ")
                   for line in out.splitlines())

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "vol.json"
        code, out, _ = run(capsys, "volume", "--series", "su", "--n", "2",
                           "--exact", "--output", str(target))
        assert code == 0
        assert out == ""
        d = json.loads(target.read_text())
        assert d["volume"]["exact"]["sqrt"] == 2


class TestDeterminism:
    def test_repeat_seeded_sample_identical(self, capsys):
        args = ("sample", "--series", "su", "--n", "5", "--count", "4096",
                "--r", "0.3", "--seed", "42")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_worker_count_does_not_change_report(self, capsys):
        base = ("sample", "--series", "usp", "--n", "2", "--count", "4096",
                "--r", "0.5", "--seed", "9")
        _, out1, _ = run(capsys, *base, "--workers", "1")
        _, out2, _ = run(capsys, *base, "--workers", "4")
        assert json.loads(out1)["report"] == json.loads(out2)["report"]


class TestExitCodes:
    def test_computation_error_is_one(self, capsys):
        code, _, err = run(capsys, "volume", "--series", "su", "--n", "4",
                           "--exact", "--gamma", "3")
        assert code == 1
        assert "error:" in err

    def test_oversize_curvature_is_one(self, capsys, monkeypatch):
        # su(400) would need ~1 TiB for its basis, K and Ric alone:
        # refused before any basis matrix is built
        import lievol.curvature

        def no_basis(*args):
            raise AssertionError("basis built for an oversize request")

        monkeypatch.setattr(lievol.curvature, "build_basis", no_basis)
        code, _, err = run(capsys, "curvature", "--series", "su",
                           "--n", "400")
        assert code == 1
        assert "budget" in err

    def test_oversize_exact_volume_is_one(self, capsys, monkeypatch):
        # exact root data for SU(5000) would hold ~10^11 integers:
        # refused before any root is built
        import lievol.roots

        def no_root(*args):
            raise AssertionError("root built for an oversize request")

        monkeypatch.setattr(lievol.roots, "_root", no_root)
        code, _, err = run(capsys, "volume", "--series", "a", "--n", "5000",
                           "--exact")
        assert code == 1
        assert "refused" in err

    def test_oversize_sample_is_one(self, capsys, monkeypatch):
        # 10^9 samples of SU(21), one column each, would need 313 GiB:
        # refused before any chunk is drawn
        import lievol.montecarlo

        def no_chunk(*args):
            raise AssertionError("chunk drawn for an oversize request")

        monkeypatch.setattr(lievol.montecarlo, "haar_su_chunk", no_chunk)
        code, _, err = run(capsys, "sample", "--series", "su", "--n", "21",
                           "--count", "1000000000", "--seed", "1")
        assert code == 1
        assert "budget" in err

    def test_unwritable_output_is_one_before_any_work(self, capsys,
                                                      monkeypatch, tmp_path):
        import lievol.reproduce

        def no_sweep(**kwargs):
            raise AssertionError("sweep run for an unwritable output")

        monkeypatch.setattr(lievol.reproduce, "run_all", no_sweep)
        code, out, err = run(capsys, "reproduce", "--seed", "1", "--quick",
                             "--output", str(tmp_path / "missing" / "x.json"))
        assert code == 1
        assert "No such file" in err and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("start,stop", [("1", "5"), ("0", "3"),
                                            ("5", "2")])
    def test_levy_bad_range_is_one(self, capsys, start, stop):
        code, out, err = run(capsys, "levy", "--family", "su", "--start",
                             start, "--stop", stop)
        assert code == 1
        assert "error:" in err and out == ""

    def test_unknown_series_is_one(self, capsys):
        code, _, err = run(capsys, "roots", "--series", "e8", "--n", "8")
        assert code == 1

    def test_usage_error_is_two(self):
        with pytest.raises(SystemExit) as ex:
            build_parser().parse_args(["volume"])  # missing required args
        assert ex.value.code == 2

    def test_unknown_command_is_two(self):
        with pytest.raises(SystemExit) as ex:
            build_parser().parse_args(["frobnicate"])
        assert ex.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as ex:
            build_parser().parse_args(["--version"])
        assert ex.value.code == 0


class TestImportPath:
    def test_runtime_path_imports_no_scipy_subpackage(self, tmp_path):
        # a fresh interpreter, so that modules the tests import do not count
        script = textwrap.dedent("""
            import contextlib, json, sys
            from lievol import cli
            with contextlib.redirect_stdout(sys.stderr):
                assert cli.main(["reproduce", "--seed", "42", "--quick",
                                 "--output", sys.argv[1]]) == 0
                assert cli.main(["cpn", "band-mass", "--n", "3"]) == 0
            print(json.dumps(sorted(m for m in sys.modules
                                    if m.startswith("scipy."))))
        """)
        src = str(Path(lievol.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        res = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "r.json")],
            env=env, capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr
        loaded = json.loads(res.stdout.splitlines()[-1])
        # only the bare package's own modules, private ones and the
        # version: no special, integrate, stats, optimize, sparse, linalg
        public = {m.split(".")[1] for m in loaded} - {"version"}
        assert all(p.startswith("_") for p in public), public
