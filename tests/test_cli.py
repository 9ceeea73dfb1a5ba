import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as hs

import lievol
import lievol.cli
import lievol.cpn
import lievol.curvature
import lievol.montecarlo
import lievol.reproduce
import lievol.roots
from lievol.cli import FORMATS, build_parser, main
from lievol.roots import Series
from lievol.volumes import group_volume


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

    def test_volume_exact_past_the_str_digit_cap(self, capsys):
        # Spin(200)'s exact volume has ~13,000 digits, past the 4300 of
        # int-to-str conversion, and still prints in every format
        outs = {}
        for fmt in FORMATS:
            code, outs[fmt], err = run(capsys, "volume", "--series", "d",
                                       "--n", "100", "--exact", "--format",
                                       fmt)
            assert code == 0, err
            assert len(outs[fmt]) > 2 * 10 ** 4
        d = json.loads(outs["json"])
        assert d["closed_form"] == d["volume"]["exact"]
        assert len(d["volume"]["exact"]["q"]) > 10 ** 4

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

    @pytest.mark.parametrize("series,n,gamma", [("a", 6, 2), ("a", 6, 3),
                                                ("a", 30, 5), ("b", 7, 2),
                                                ("c", 9, 2), ("d", 5, 2),
                                                ("d", 30, 4)])
    def test_log_volume_divides_out_gamma(self, capsys, series, n, gamma):
        code, out, _ = run(capsys, "volume", "--series", series, "--n",
                           str(n), "--gamma", str(gamma), "--log")
        assert code == 0
        d = json.loads(out)["volume"]
        want = group_volume(Series(series, n), gamma).log_value
        assert d["center_order"] == gamma
        assert d["log_volume"] == pytest.approx(want, rel=1e-12)

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
        assert d["curvature"]["chi_claimed"] == 4.0
        assert "chi_table" not in d

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
                            seen.add(a.R.shape[-1]) or f(a, *rest))
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
        # the draw's bits depend on numpy's SIMD dispatch
        simd = d["provenance"]["numpy_simd"]
        assert set(simd) == {"baseline", "found"}
        assert all(isinstance(v, list) for v in simd.values())

    def test_histogram_and_report_share_one_draw(self, capsys, monkeypatch):
        # xi_histogram and concentration_experiment read one SU sample
        sizes = []
        chunk = lievol.montecarlo.haar_su_chunk
        monkeypatch.setattr(lievol.montecarlo, "haar_su_chunk",
                            lambda *args: sizes.append(args[1])
                            or chunk(*args))
        code, out, err = run(capsys, "sample", "--series", "a", "--n", "6",
                             "--count", "5000", "--seed", "1", "--hist",
                             "ksi")
        assert code == 0, err
        assert sizes == [2048, 2048, 904]   # one draw's three chunks
        assert sum(json.loads(out)["histogram"]["counts"]) == 5000

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
        _, out, _ = run(capsys, *argv, "--format", "csv")
        assert out.splitlines()[0] == "key,value"
        assert "provenance.config.format,csv" in out.splitlines()

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

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_exact_volume_renders_each_integer_once(self, capsys,
                                                    monkeypatch, fmt):
        # the pipeline value and the equal closed form share q's two
        # integers; at n = 260 each rendering takes ~0.15 s
        import lievol.exact

        rendered = []
        digits = lievol.exact._digits
        monkeypatch.setattr(lievol.exact, "_digits",
                            lambda n: rendered.append(n) or digits(n))
        code, out, _ = run(capsys, "volume", "--series", "d", "--n", "30",
                           "--exact", "--format", fmt)
        assert code == 0
        assert len(rendered) == 2
        assert all(digits(n) in out for n in rendered)

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "vol.json"
        code, out, _ = run(capsys, "volume", "--series", "su", "--n", "2",
                           "--exact", "--output", str(target))
        assert code == 0
        assert out == ""
        d = json.loads(target.read_text())
        assert d["volume"]["exact"]["sqrt"] == 2

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("argv", [
        ("volume", "--series", "c", "--n", "3", "--exact"),
        ("roots", "--series", "b", "--n", "3")])
    def test_output_file_gets_the_stdout_bytes(self, tmp_path, argv, fmt):
        # a fresh process each, so that the file and stdout are both real
        # byte streams: the final newline and CSV's \r\n included
        target = tmp_path / "report"
        cmd = [sys.executable, "-m", "lievol.cli", *argv, "--format", fmt]
        env = dict(os.environ,
                   PYTHONPATH=str(Path(lievol.__file__).parents[1]))
        shown = subprocess.run(cmd, env=env, capture_output=True, check=True)
        written = subprocess.run(cmd + ["--output", str(target)], env=env,
                                 capture_output=True, check=True)
        assert written.stdout == b""
        assert target.read_bytes() == shown.stdout
        ending = {"json": b"}\n", "csv": b"\r\n", "text": b"\n"}[fmt]
        assert shown.stdout.endswith(ending)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_writing_holds_no_copy_of_the_report(self, tmp_path, fmt):
        # D40 lists 126,400 root entries; the writer's traced peak must
        # stay under a tenth of what it writes (the report object shares
        # one str per distinct entry, so it can be smaller than its text)
        report = lievol.cli.cmd_roots(
            build_parser().parse_args(["roots", "--series", "d", "--n", "40"]))
        with open(tmp_path / "report", "w") as out:
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                lievol.cli._write(report, fmt, out)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        written = (tmp_path / "report").stat().st_size
        assert written > 126_400
        assert peak < written / 10, (peak, written)

    def test_json_is_written_in_blocks(self):
        # json.dump's bytes, in one write per block of encoder pieces,
        # not one per token (a system call each on an unbuffered stdout)
        report = lievol.cli.cmd_roots(
            build_parser().parse_args(["roots", "--series", "d", "--n", "40"]))
        writes = []

        class Recorded(io.StringIO):
            def write(self, text):
                writes.append(len(text))
                return super().write(text)

        out = Recorded()
        lievol.cli._write(report, "json", out)
        assert out.getvalue() == json.dumps(report, indent=2,
                                            sort_keys=True) + "\n"
        pieces = sum(1 for _ in json.JSONEncoder(
            indent=2, sort_keys=True).iterencode(report))
        assert pieces > 100_000
        assert len(writes) <= -(-pieces // lievol.cli._JSON_BLOCK) + 1


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

    @pytest.mark.parametrize("argv", [("--n", "6", "--gamma", "5", "--log"),
                                      ("--n", "40", "--gamma", "3"),
                                      ("--n", "40", "--gamma", "0")])
    def test_bad_gamma_on_the_log_route_is_one(self, capsys, argv):
        code, out, err = run(capsys, "volume", "--series", "a", *argv)
        assert code == 1
        assert "subgroup order" in err and out == ""

    def test_exact_and_log_is_two(self, capsys):
        # one route per run: --exact was dropped without a word beside
        # --log
        with pytest.raises(SystemExit) as ex:
            main(["volume", "--series", "a", "--n", "4", "--exact", "--log"])
        assert ex.value.code == 2
        out = capsys.readouterr()
        assert "not allowed with" in out.err and out.out == ""

    @pytest.mark.parametrize("series,n,group,least", [
        ("b", 2, "Spin(5)", 3), ("c", 2, "USp(4)", 3),
        ("d", 4, "Spin(8)", 5)])
    def test_ratio_at_the_bottom_is_one(self, capsys, series, n, group,
                                        least):
        # the error names the group asked for and the smallest n, not the
        # rank below that the ratio steps to
        code, out, err = run(capsys, "ratio", "--series", series,
                             "--n", str(n))
        assert code == 1 and out == ""
        assert group in err and f"n >= {least}" in err
        assert f"got {n - 1}" not in err

    @pytest.mark.parametrize("series,n,group,most", [
        ("a", 60, "SU(60)", 59), ("d", 61, "Spin(122)", 60)])
    def test_ratio_past_the_log_route_is_one(self, capsys, monkeypatch,
                                             series, n, group, most):
        # refused before any lgamma, naming the group asked for and the
        # largest n it may take: A reads rank n + 1, B, C, D rank n
        import lievol.volumes

        def no_lgamma(*args):
            raise AssertionError("lgamma summed for an oversize rank")

        monkeypatch.setattr(lievol.volumes, "LOG_VOLUME_MAX_RANK", 60)
        monkeypatch.setattr(lievol.volumes.math, "lgamma", no_lgamma)
        code, out, err = run(capsys, "ratio", "--series", series,
                             "--n", str(n))
        assert code == 1 and out == ""
        assert group in err and f"n <= {most}" in err
        assert str(n + 1) not in err and "Traceback" not in err

    @pytest.mark.parametrize("series,n", [("a", 59), ("d", 60)])
    def test_ratio_at_the_log_route_limit(self, capsys, monkeypatch, series,
                                          n):
        import lievol.volumes
        monkeypatch.setattr(lievol.volumes, "LOG_VOLUME_MAX_RANK", 60)
        code, out, err = run(capsys, "ratio", "--series", series,
                             "--n", str(n))
        assert code == 0, err
        assert json.loads(out)["ratio"]["ratio_exponent"] > 0

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

    @pytest.mark.parametrize("series,n", [("su", 94), ("so", 263),
                                          ("usp", 146)])
    def test_curvature_above_the_limit_is_one(self, capsys, series, n):
        # the smallest refused size of each algebra names the limit
        code, out, err = run(capsys, "curvature", "--series", series,
                             "--n", str(n))
        assert code == 1 and out == ""
        assert f"m <= {lievol.curvature.MAX_MATRIX_DIM[series]}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("series,rule", [
        ("su", "su(m) needs m >= 2"), ("so", "so(m) needs m >= 3"),
        ("usp", "usp needs even matrix size >= 4")])
    def test_curvature_at_size_zero_is_one(self, capsys, series, rule):
        # the builders' size rule, before any basis entry is made
        code, out, err = run(capsys, "curvature", "--series", series,
                             "--n", "0")
        assert code == 1 and out == ""
        assert rule in err and "Traceback" not in err

    @pytest.mark.parametrize("series,largest", [("a", 228), ("b", 181),
                                                ("c", 181), ("d", 181)])
    def test_oversize_roots_listing_is_one(self, capsys, monkeypatch,
                                           series, largest):
        # one past the largest admitted n is refused before any root is
        # built (D260's 35 M entries would need ~2.4 GiB)
        def builder(*args):
            raise LookupError("root builder reached")

        monkeypatch.setattr(lievol.cli, "build_root_system", builder)
        with pytest.raises(LookupError):
            main(["roots", "--series", series, "--n", str(largest)])
        code, out, err = run(capsys, "roots", "--series", series,
                             "--n", str(largest + 1))
        assert code == 1 and out == ""
        assert str(lievol.cli.ROOTS_MAX_ENTRIES) in err

    @pytest.mark.parametrize("exc", [OverflowError, ZeroDivisionError,
                                     np.linalg.LinAlgError])
    def test_error_in_a_subcommand_is_one(self, capsys, monkeypatch, exc):
        # each subclasses ArithmeticError or ValueError
        def fail(*args):
            raise exc("raised in a subcommand")

        monkeypatch.setattr(lievol.cli, "curvature_report", fail)
        code, out, err = run(capsys, "curvature", "--series", "so",
                             "--n", "4")
        assert code == 1 and out == ""
        assert "raised in a subcommand" in err and "Traceback" not in err

    def test_oversize_exact_volume_is_one(self, capsys, monkeypatch):
        # the exact volume of SU(5000) would have ~10^8 bits: refused
        # before any root is built
        import lievol.roots

        def no_root(*args):
            raise AssertionError("root built for an oversize request")

        monkeypatch.setattr(lievol.roots, "_enumerate", no_root)
        code, _, err = run(capsys, "volume", "--series", "a", "--n", "5000",
                           "--exact")
        assert code == 1
        assert "refused" in err

    def test_oversize_sample_is_one(self, capsys, monkeypatch):
        # the statistics of 10^9 samples of SU(21) would need 75 GiB:
        # refused before any chunk is drawn
        import lievol.montecarlo

        def no_chunk(*args):
            raise AssertionError("chunk drawn for an oversize request")

        monkeypatch.setattr(lievol.montecarlo, "haar_su_chunk", no_chunk)
        code, _, err = run(capsys, "sample", "--series", "su", "--n", "21",
                           "--count", "1000000000", "--seed", "1")
        assert code == 1
        assert "budget" in err

    @pytest.mark.parametrize("series,n,count", [("su", 10 ** 9, 100),
                                                ("su", 21, 10 ** 8),
                                                ("b", 10 ** 8, 100),
                                                ("usp", 3, 10 ** 8)])
    def test_oversize_reduced_sample_is_one(self, capsys, monkeypatch,
                                            series, n, count):
        # an oversize group fills the chunk buffers, an oversize count
        # the statistics' arrays: refused before any chunk is drawn
        import lievol.montecarlo

        def no_chunk(*args):
            raise AssertionError("chunk drawn for an oversize request")

        monkeypatch.setattr(lievol.montecarlo, "_map_chunks", no_chunk)
        code, out, err = run(capsys, "sample", "--series", series,
                             "--n", str(n), "--count", str(count),
                             "--seed", "1")
        assert code == 1
        assert "budget" in err and out == ""

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 42])
    def test_seed_outside_the_stream_keys_is_one(self, capsys, monkeypatch,
                                                 seed):
        # no two seeds share a Philox key: one outside [0, 2^64) is
        # refused before any chunk is drawn
        def no_chunk(*args):
            raise AssertionError("chunk drawn for a refused seed")

        monkeypatch.setattr(lievol.montecarlo, "_map_chunks", no_chunk)
        code, out, err = run(capsys, "sample", "--series", "su", "--n", "4",
                             "--seed", str(seed))
        assert code == 1
        assert "seed must lie in" in err and out == ""

    @pytest.mark.parametrize("seed,refused", [(-5, True), (-1, True),
                                              (2 ** 64 - 3, True),
                                              (2 ** 64, True),
                                              (0, False),
                                              (2 ** 64 - 4, False)])
    def test_reproduce_seed_range(self, capsys, monkeypatch, seed, refused):
        # the sweep draws at seed to seed + 3: a seed that leaves
        # [0, 2^64) there is refused before criterion 1 runs
        ran = []
        for name in dir(lievol.reproduce):
            if name.startswith("criterion_"):
                monkeypatch.setattr(lievol.reproduce, name,
                                    lambda name=name, **kwargs:
                                    ran.append(name)
                                    or {"id": len(ran), "name": name,
                                        "passed": True, "runtime_s": 0.0})
        code, out, err = run(capsys, "reproduce", "--seed", str(seed),
                             "--quick")
        if refused:
            assert code == 1 and not ran
            assert "seeds in [0, 2^64 - 4]" in err and out == ""
        else:
            assert code == 0 and len(ran) == 8

    @pytest.mark.parametrize("argv", [
        ("cpn", "check-metric", "--n", "2", "--points", "3", "--tol", "inf"),
        ("cpn", "band-mass", "--n", "3", "--eps", "nan"),
        ("sample", "--series", "su", "--n", "4", "--seed", "1",
         "--r=-inf"),
        ("levy", "--family", "su", "--stop", "4", "--coroot-length", "nan"),
        ("levy", "--family", "su", "--stop", "4", "--floor", "inf"),
        ("levy", "--family", "su", "--stop", "4", "--rescale", "log",
         "--floor", "1e999"),
        ("cpn", "band-mass", "--n", "3", "--eps", "x")])
    def test_non_finite_float_is_two(self, capsys, argv):
        # JSON has no token for nan or inf, and --tol inf passed vacuously
        with pytest.raises(SystemExit) as ex:
            main(list(argv))
        assert ex.value.code == 2
        out = capsys.readouterr()
        assert "not a finite number" in out.err and out.out == ""

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

    def test_oversize_levy_range_is_one(self, capsys, monkeypatch):
        # one index past the limit, refused before the index list is built
        import lievol.cli

        def no_bounds(*args, **kwargs):
            raise AssertionError("bounds computed for an oversize range")

        monkeypatch.setattr(lievol.cli, "ricci_bound_sequence", no_bounds)
        code, out, err = run(capsys, "levy", "--family", "su", "--start",
                             "2", "--stop", str(2 + lievol.cli.LEVY_MAX_TERMS))
        assert code == 1
        assert "at most" in err and out == ""

    def test_oversize_check_metric_is_one(self, capsys, monkeypatch):
        # refused before the first chart point is evaluated
        import lievol.cpn
        from lievol.reproduce import GEOMETRY_MAX_N

        def no_chart(*args):
            raise AssertionError("chart evaluated for an oversize n")

        monkeypatch.setattr(lievol.cpn, "_chart_factors", no_chart)
        code, out, err = run(capsys, "cpn", "check-metric", "--n",
                             str(GEOMETRY_MAX_N + 1))
        assert code == 1
        assert "run to n" in err and out == ""

    def test_check_metric_needs_the_structure_equation(self, capsys,
                                                       monkeypatch):
        # a failed structure equation fails the verdict, as in criterion 7
        monkeypatch.setattr(lievol.reproduce, "structure_equation_residual",
                            lambda c: 1.0)
        code, out, err = run(capsys, "cpn", "check-metric", "--n", "2",
                             "--points", "5")
        assert code == 1
        assert "metric cross-check failed" in err and "Traceback" not in err

    def test_check_metric_needs_the_pullback(self, capsys, monkeypatch):
        # a chain rule off by 1e-6 of itself fails the verdict
        monkeypatch.setattr(lievol.reproduce, "angular_velocity_to_dz",
                            lambda *v, f=lievol.reproduce
                            .angular_velocity_to_dz: f(*v) * (1 + 1e-6))
        code, out, err = run(capsys, "cpn", "check-metric", "--n", "2")
        assert code == 1
        assert "metric cross-check failed" in err and "Traceback" not in err

    def test_check_metric_judges_the_relative_density(self, capsys,
                                                      monkeypatch):
        # at n = 12 the densities lie far below --tol, so a vielbein off
        # by 1e-6 of itself is off by far less than --tol in absolute terms
        monkeypatch.setattr(lievol.reproduce, "vielbein_density",
                            lambda c, f=lievol.reproduce.vielbein_density:
                            f(c) * (1 + 1e-6))
        code, out, err = run(capsys, "cpn", "check-metric", "--n", "12",
                             "--points", "5")
        assert code == 1
        assert "metric cross-check failed" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "points", [0, -1, lievol.reproduce.GEOMETRY_MAX_POINTS + 1])
    def test_bad_check_metric_points_are_one(self, capsys, monkeypatch,
                                             points):
        # refused before the first chart or pullback point
        import lievol.cpn
        import lievol.reproduce as rp

        def no_point(*args):
            raise AssertionError("point evaluated for a refused count")

        monkeypatch.setattr(lievol.cpn, "_chart_factors", no_point)
        monkeypatch.setattr(rp, "fs_metric_angular", no_point)
        code, out, err = run(capsys, "cpn", "check-metric", "--n", "2",
                             "--points", str(points))
        assert code == 1
        assert "points" in err and out == ""

    @pytest.mark.parametrize("tol", ["0", "-0.5"])
    def test_bad_check_metric_tol_is_one(self, capsys, monkeypatch, tol):
        # no deviation lies below it: refused before the first point
        import lievol.cpn
        import lievol.reproduce as rp

        def no_point(*args):
            raise AssertionError("point evaluated for a refused --tol")

        monkeypatch.setattr(lievol.cpn, "_chart_factors", no_point)
        monkeypatch.setattr(rp, "fs_metric_angular", no_point)
        code, out, err = run(capsys, "cpn", "check-metric", "--n", "2",
                             "--tol", tol)
        assert code == 1
        assert "--tol" in err and out == ""

    @pytest.mark.parametrize("bins", [0, lievol.montecarlo.HIST_MAX_BINS + 1])
    def test_bad_histogram_bins_are_one(self, capsys, monkeypatch, bins):
        # refused before either draw
        import lievol.cli
        import lievol.montecarlo

        def no_draw(*args, **kwargs):
            raise AssertionError("samples drawn for a refused bin count")

        monkeypatch.setattr(lievol.cli, "concentration_experiment", no_draw)
        monkeypatch.setattr(lievol.montecarlo, "_map_chunks", no_draw)
        code, out, err = run(capsys, "sample", "--series", "su", "--n", "4",
                             "--count", "100", "--seed", "1", "--hist", "ksi",
                             "--bins", str(bins))
        assert code == 1
        assert "bins" in err and out == ""

    @pytest.mark.parametrize("hist", [(), ("--hist", "ksi")])
    def test_bad_sample_radius_is_one_before_any_draw(self, capsys,
                                                       monkeypatch, hist):
        # --r is checked before the histogram's draw too
        import lievol.montecarlo

        def no_chunk(*args):
            raise AssertionError("chunk drawn for a refused radius")

        monkeypatch.setattr(lievol.montecarlo, "haar_su_chunk", no_chunk)
        code, out, err = run(capsys, "sample", "--series", "su", "--n", "21",
                             "--count", "5000", "--seed", "1", "--r", "2",
                             *hist)
        assert code == 1
        assert "r must lie in (0, pi/2)" in err and out == ""

    @pytest.mark.parametrize("argv", [("volume", "--series", "su", "--log"),
                                      ("volume", "--series", "b"),
                                      ("ratio", "--series", "su"),
                                      ("ratio", "--series", "d")])
    def test_oversize_log_volume_is_one(self, capsys, monkeypatch, argv):
        # O(n) lgamma terms: refused before the first one
        import lievol.volumes

        def no_lgamma(*args):
            raise AssertionError("lgamma summed for an oversize rank")

        monkeypatch.setattr(lievol.volumes.math, "lgamma", no_lgamma)
        n = lievol.volumes.LOG_VOLUME_MAX_RANK + 1
        code, out, err = run(capsys, *argv, "--n", str(n))
        assert code == 1
        assert "log-gamma route" in err and out == ""

    def test_too_many_workers_is_one(self, capsys, monkeypatch):
        # refused before any thread is started or chunk drawn
        import concurrent.futures

        import lievol.montecarlo

        def no_thread(*args, **kwargs):
            raise AssertionError("threads started for a refused count")

        # _map_chunks imports the pool from here when it needs one
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                            no_thread)
        monkeypatch.setattr(lievol.montecarlo, "haar_su_chunk", no_thread)
        code, out, err = run(capsys, "sample", "--series", "su", "--n", "4",
                             "--seed", "1", "--workers",
                             str(lievol.montecarlo.MAX_WORKERS + 1))
        assert code == 1
        assert "workers" in err and out == ""

    def test_workers_environment_variable_is_ignored(self, capsys,
                                                     monkeypatch):
        monkeypatch.setenv("LIEVOL_WORKERS", "x")
        code, out, _ = run(capsys, "roots", "--series", "a", "--n", "3")
        assert code == 0
        assert json.loads(out)["roots"]["group"] == "SU(3)"

    @pytest.mark.parametrize("start,stop", [("1", "5"), ("0", "3"),
                                            ("5", "2")])
    def test_levy_bad_range_is_one(self, capsys, start, stop):
        code, out, err = run(capsys, "levy", "--family", "su", "--start",
                             start, "--stop", stop)
        assert code == 1
        assert "error:" in err and out == ""

    @pytest.mark.parametrize("length", ["0", "-2"])
    def test_levy_non_positive_coroot_length_is_one(self, capsys, length):
        code, out, err = run(capsys, "levy", "--family", "su", "--stop", "4",
                             f"--coroot-length={length}")
        assert code == 1
        assert "error: the coroot length must be positive" in err
        assert out == ""

    def test_unknown_series_is_one(self, capsys):
        # so-odd, so-even and sp are no aliases: only the documented four
        for series in ("e8", "so-odd", "so-even", "sp"):
            code, _, err = run(capsys, "roots", "--series", series,
                               "--n", "8")
            assert code == 1
            assert f"unknown series tag {series!r}" in err

    def test_usage_error_is_two(self):
        with pytest.raises(SystemExit) as ex:
            build_parser().parse_args(["volume"])  # missing required args
        assert ex.value.code == 2

    def test_removed_report_alias_is_two(self):
        with pytest.raises(SystemExit) as ex:
            main(["curvature", "--series", "su", "--n", "3",
                  "--report", "csv"])
        assert ex.value.code == 2

    def test_removed_json_alias_is_two(self):
        with pytest.raises(SystemExit) as ex:
            main(["cpn", "band-mass", "--n", "3", "--json"])
        assert ex.value.code == 2

    def test_unknown_command_is_two(self):
        with pytest.raises(SystemExit) as ex:
            build_parser().parse_args(["frobnicate"])
        assert ex.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as ex:
            build_parser().parse_args(["--version"])
        assert ex.value.code == 0


def _ints(lo, hi, *far):
    """Small integers in [lo, hi], or one of the `far` ones, as argv text."""
    return hs.one_of(hs.integers(lo, hi), *map(hs.just, far)).map(str)


_FLOATS = hs.one_of(hs.floats(-2.0, 4.0),
                    hs.sampled_from([0.0, math.nan, math.inf])).map(repr)
_SERIES = hs.sampled_from(["a", "su", "b", "c", "d", "spin-odd", "e8"])
_FLAG = None   # an option without a value
# Per subcommand: (required, optional) options and their values.  The
# large sizes are all ones the CLI must refuse before building anything.
_ARGV = {
    "roots": ({"--series": _SERIES, "--n": _ints(-2, 12, 10 ** 4)}, {}),
    "volume": ({"--series": _SERIES, "--n": _ints(-2, 12, 10 ** 4, 10 ** 12)},
               {"--gamma": _ints(-1, 6), "--exact": _FLAG, "--log": _FLAG}),
    "ratio": ({"--series": _SERIES, "--n": _ints(-2, 12, 10 ** 4, 10 ** 12)},
              {}),
    "curvature": ({"--series": hs.sampled_from(["su", "so", "usp", "a"]),
                   "--n": _ints(-2, 12, 10 ** 4, 10 ** 7)}, {}),
    "cpn": ({"action": hs.sampled_from(["band-mass", "check-metric"]),
             "--n": _ints(-2, 3, lievol.reproduce.GEOMETRY_MAX_N + 1,
                          10 ** 6)},
            {"--eps": _FLOATS, "--points": _ints(-2, 8, 10 ** 9),
             "--tol": _FLOATS}),
    "sample": ({"--series": _SERIES, "--n": _ints(-2, 8, 10 ** 9),
                "--seed": _ints(-2, 2 ** 64)},
               {"--count": _ints(-2, 4096), "--r": _FLOATS,
                "--workers": _ints(-1, 2, 10 ** 6), "--hist": hs.just("ksi"),
                "--bins": _ints(-2, 64, 10 ** 9)}),
    "levy": ({"--family": hs.sampled_from(["su", "so", "usp", "sp"])},
             {"--start": _ints(-3, 30, -10 ** 12, 10 ** 12),
              "--stop": _ints(-3, 30, 10 ** 12), "--coroot-length": _FLOATS,
              "--rescale": hs.sampled_from(["log", "sqrt", "linear",
                                            "const"]),
              "--floor": _FLOATS}),
    "reproduce": ({"--seed": _ints(-2, 2 ** 64)}, {"--quick": _FLAG}),
}
_COMMON = {"--format": hs.sampled_from(FORMATS), "--json": _FLAG,
           "--output": hs.sampled_from(["r.json", "missing/r.json"])}
_JUNK = hs.sampled_from(["", "x", "1.5", "-1", "nan", "1e999"])


@hs.composite
def _cli_argv(draw, command):
    """argv for one subcommand: its required options, some optional
    ones, an occasional junk value and an occasional dropped token."""
    required, optional = _ARGV[command]
    menu = {**required, **optional, **_COMMON}
    names = list(required) + draw(hs.lists(hs.sampled_from(sorted(
        {**optional, **_COMMON})), max_size=4))
    argv = [command]
    for name in names:
        if name.startswith("-"):
            argv.append(name)
        if menu[name] is not None:
            junk = draw(hs.integers(0, 9)) == 9
            argv.append(draw(_JUNK if junk else menu[name]))
    if draw(hs.integers(0, 9)) == 9:
        del argv[draw(hs.integers(1, len(argv) - 1))]
    return argv


def _small_only(mp, module, name, size, limit):
    """Let module.name run only while size(*args) <= limit."""
    f = getattr(module, name)

    def guarded(*args, **kwargs):
        assert size(*args) <= limit, f"{name}{args[:3]} is oversize"
        return f(*args, **kwargs)

    mp.setattr(module, name, guarded)


class TestExitContract:
    @pytest.mark.parametrize("command", sorted(_ARGV))
    @settings(max_examples=30, deadline=None)
    @given(data=hs.data())
    def test_exit_code_and_no_traceback(self, command, data):
        argv = data.draw(_cli_argv(command))
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, \
                pytest.MonkeyPatch.context() as mp:
            mp.chdir(tmp)   # every --output lands in tmp
            _small_only(mp, lievol.curvature, "build_basis",
                        lambda alg, m: m, 16)
            _small_only(mp, lievol.roots, "_enumerate", lambda tag, n: n, 64)
            _small_only(mp, lievol.cpn, "_chart_factors", lambda c: c.n, 3)
            for name in ("haar_su_chunk", "haar_so_chunk", "haar_usp_chunk"):
                _small_only(mp, lievol.montecarlo, name,
                            lambda rng, size, m, *rest: size * m, 4096 * 32)
            # the sweep itself is covered by test_reproduce_quick
            mp.setattr(lievol.reproduce, "run_all",
                       lambda seed, quick: {"criteria": []})
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as ex:
                    code = ex.code
        event(f"exit {code}")
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue(), argv


def _fresh_python(script: str, *argv: str) -> subprocess.CompletedProcess:
    """Run script in a fresh interpreter that imports lievol from this
    checkout, so that modules the tests import do not count."""
    src = str(Path(lievol.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=300)


class TestImportPath:
    def test_cold_start_loads_only_what_it_uses(self):
        # quadrature nodes without numpy.polynomial, a one-worker draw
        # without a thread pool, and no csv until a CSV report
        script = textwrap.dedent("""
            import json, sys
            import lievol.cli, lievol.reproduce
            from lievol.cpn import band_mass
            from lievol.montecarlo import (SamplerConfig,
                                           concentration_experiment)
            from lievol.roots import Series
            band_mass(1, 0.3)
            concentration_experiment(
                SamplerConfig(Series("A", 3), 5000, 7, workers=1), 0.3)
            print(json.dumps([m for m in ("numpy.polynomial",
                                          "concurrent.futures", "csv")
                              if m in sys.modules]))
        """)
        res = _fresh_python(script)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout.splitlines()[-1]) == []

    def test_runtime_path_imports_no_scipy_subpackage(self, tmp_path):
        # a fresh interpreter, so that modules the tests import do not count
        script = textwrap.dedent("""
            import contextlib, json, sys
            from lievol import cli
            with contextlib.redirect_stdout(sys.stderr):
                assert cli.main(["reproduce", "--seed", "42", "--quick",
                                 "--output", sys.argv[1]]) == 0
                assert cli.main(["cpn", "band-mass", "--n", "3"]) == 0
            print(json.dumps([sorted(m for m in sys.modules
                                     if m.startswith("scipy.")),
                              "importlib.metadata" in sys.modules]))
        """)
        res = _fresh_python(script, str(tmp_path / "r.json"))
        assert res.returncode == 0, res.stderr
        loaded, metadata = json.loads(res.stdout.splitlines()[-1])
        # the provenance block, SIMD extensions included, reads no
        # package metadata
        assert not metadata
        assert "numpy_simd" in json.loads(
            (tmp_path / "r.json").read_text())["provenance"]
        # only the bare package's own modules, private ones and the
        # version: no special, integrate, stats, optimize, sparse, linalg
        public = {m.split(".")[1] for m in loaded} - {"version"}
        assert all(p.startswith("_") for p in public), public
