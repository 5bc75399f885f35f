import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from covmat import cli, covariance
from covmat.cli import (
    EXIT_ENTANGLED,
    EXIT_ERROR,
    EXIT_OK,
    SWEEP_COLUMNS,
    analyze_state,
    bench_counts,
    chunk_size,
    fmt,
    main,
    sweep_rows,
)
from covmat.covariance import StateSummary
from covmat.linalg import DensityMatrix
from covmat.states import bennett_state, build_state, max_entangled, random_mixed, save_state
from helpers import bench_counts_reference, report_from_dict, sweep_rows_reference


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_bennett_text_report_and_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, ["analyze", "--state", "bennett3x3"])
        assert code == EXIT_ENTANGLED
        assert "dims:  3x3" in out
        assert "-> ENTANGLED" in out
        assert "concurrence lower bounds:" in out

    def test_product_state_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, ["analyze", "--state", "product:2,2"])
        assert code == EXIT_OK
        assert "ENTANGLED" not in out.replace("INCONCLUSIVE", "")

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, ["analyze", "--state", "bennett3x3", "--format", "json"]
        )
        assert code == EXIT_ENTANGLED
        rep = report_from_dict(json.loads(out))
        again = report_from_dict(json.loads(json.dumps(rep.to_dict())))
        assert again.dims == [3, 3]
        assert again.any_entangled()
        assert {v.name for v in again.verdicts} == {"kf", "hs", "ppt", "ccnr"}
        assert again.bounds.bound_optimized == pytest.approx(0.0555, abs=5e-4)

    def test_multipartite_json(self, capsys):
        code, out, _ = run_cli(
            capsys, ["analyze", "--state", "random_separable:2x2x2:6:3",
                     "--format", "json"]
        )
        assert code == EXIT_OK
        rep = report_from_dict(json.loads(out))
        assert set(rep.multipartite.pair_verdicts) == {(0, 1), (0, 2), (1, 2)}
        assert not rep.multipartite.full_sep_refuted

    def test_file_loading(self, capsys, tmp_path):
        path = tmp_path / "mes2.json"
        save_state(max_entangled(2), str(path))
        code, out, _ = run_cli(capsys, ["analyze", "--file", str(path)])
        assert code == EXIT_ENTANGLED
        assert f"file:{path}" in out

    def test_missing_state_errors(self, capsys):
        code, _, err = run_cli(capsys, ["analyze"])
        assert code == EXIT_ERROR
        assert "error:" in err

    def test_unknown_state_spec_errors(self, capsys):
        code, _, err = run_cli(capsys, ["analyze", "--state", "nosuchthing"])
        assert code == EXIT_ERROR
        assert "error:" in err

    def test_huge_tolerance_suppresses_detection(self, capsys):
        code, _, _ = run_cli(
            capsys, ["analyze", "--state", "bennett3x3", "--tolerance", "10"]
        )
        assert code == EXIT_OK


class TestSweep:
    def test_header_and_shape(self, capsys):
        code, out, _ = run_cli(capsys, ["sweep", "--grid", "0:1:5"])
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 6
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[3] == pytest.approx(0.0555, abs=5e-4)  # pure base point

    def test_endpoint_is_target(self, capsys):
        _, out, _ = run_cli(capsys, ["sweep", "--grid", "1:1:1"])
        row = dict(zip(SWEEP_COLUMNS, map(float, out.strip().splitlines()[1].split(","))))
        assert row["bound10"] == pytest.approx(np.sqrt(4 / 3), abs=1e-9)
        assert row["ccnr_norm"] == pytest.approx(3.0, abs=1e-9)

    def test_twelve_significant_digits(self, capsys):
        _, out, _ = run_cli(capsys, ["sweep", "--grid", "0:1:3"])
        cell = out.strip().splitlines()[2].split(",")[7]
        assert cell == fmt(float(cell))
        assert len(cell.replace("-", "").replace(".", "").lstrip("0")) >= 10

    def test_incompatible_dims_error(self, capsys):
        code, _, err = run_cli(capsys, ["sweep", "--target", "mes:2"])
        assert code == EXIT_ERROR
        assert "incompatible" in err

    def test_bad_grid_error(self, capsys):
        code, _, err = run_cli(capsys, ["sweep", "--grid", "nope"])
        assert code == EXIT_ERROR


class TestBench:
    def test_separable_ensemble_no_detections(self, capsys):
        code, out, _ = run_cli(
            capsys, ["bench", "--kind", "separable", "--dims", "2x2",
                     "--count", "30", "--seed", "7", "--format", "json"]
        )
        assert code == EXIT_OK
        counts = json.loads(out)
        assert counts["states"] == 30
        assert counts["kf"] == counts["hs"] == counts["ppt"] == counts["ccnr"] == 0

    def test_pure_ensemble_detects(self, capsys):
        _, out, _ = run_cli(
            capsys, ["bench", "--kind", "pure", "--dims", "2x2",
                     "--count", "25", "--seed", "3", "--format", "json"]
        )
        counts = json.loads(out)
        # Haar-random pure bipartite states are entangled almost surely
        assert counts["ppt"] == 25

    def test_deterministic_for_fixed_seed(self, capsys):
        argv = ["bench", "--count", "15", "--seed", "11", "--format", "json"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2

    def test_seed_selects_the_ensemble(self, capsys):
        # a pure ensemble at a loose tolerance is seed-sensitive, unlike a
        # separable one, which gives all-zero counts for every seed
        argv = ["bench", "--kind", "pure", "--dims", "2x2", "--count", "20",
                "--tolerance", "0.2", "--format", "json"]
        _, out_default, _ = run_cli(capsys, argv)
        _, out0, _ = run_cli(capsys, argv + ["--seed", "0"])
        _, out1, _ = run_cli(capsys, argv + ["--seed", "1"])
        assert out_default == out0
        assert json.loads(out0) != json.loads(out1)

    # A negative tolerance makes separable counts depend on the states drawn.
    @pytest.mark.parametrize("kind, dims, tol", [
        ("separable", (3, 3), 1e-9), ("separable", (3, 3), -0.02),
        ("separable", (2, 2, 2), 1e-9), ("separable", (2, 2, 2), -0.02),
        ("pure", (2, 2), 0.2),
    ])
    def test_chunk_boundaries_change_nothing(self, kind, dims, tol):
        chunk = chunk_size(int(np.prod(dims)))
        assert chunk > 1
        terms = 5 if kind == "separable" else None
        for count in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
            got = bench_counts(kind, dims, count, terms, 4, tol)
            assert got == bench_counts_reference(kind, dims, count, terms, 4, tol), count
        if tol != 1e-9:
            assert any(0 < c < count for k, c in got.items() if k != "states")

    def test_terms_default_and_pure_rejection(self, capsys):
        argv = ["bench", "--count", "12", "--seed", "3", "--format", "json"]
        assert run_cli(capsys, argv)[1] == run_cli(capsys, argv + ["--terms", "5"])[1]
        code, out, err = run_cli(capsys, argv + ["--kind", "pure", "--terms", "3"])
        assert_one_line_error(code, err)
        assert out == "" and "--terms" in err

    def test_tripartite_path(self, capsys):
        _, out, _ = run_cli(
            capsys, ["bench", "--dims", "2x2x2", "--count", "10", "--seed", "1",
                     "--format", "json"]
        )
        counts = json.loads(out)
        assert counts["pairwise"] == 0


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "covmat.cli", "analyze", "--state", "mes:2"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == EXIT_ENTANGLED
        assert "ppt" in proc.stdout


def test_analyze_state_timing_keys():
    rep = analyze_state(bennett_state(), "bennett3x3", 1e-9)
    assert {"purities", "criteria", "bounds"} <= set(rep.timing_ms)
    assert all(t >= 0 for t in rep.timing_ms.values())


def test_purities_stage_times_the_summary(monkeypatch):
    # the summary computes the marginals and purities, so their stage includes it
    def slow_summary(rho):
        time.sleep(0.01)
        return StateSummary(rho)

    monkeypatch.setattr(cli, "StateSummary", slow_summary)
    rep = analyze_state(max_entangled(2), "mes:2", 1e-9)
    assert rep.timing_ms["purities"] >= 10


def test_load_stage_times_loading_and_validation(monkeypatch, tmp_path, capsys):
    path = tmp_path / "mes2.json"
    save_state(max_entangled(2), str(path))
    real_load, real_build = cli.load_state, cli.build_state

    def slow(load):
        return lambda source: time.sleep(0.01) or load(source)

    monkeypatch.setattr(cli, "load_state", slow(real_load))
    monkeypatch.setattr(cli, "build_state", slow(real_build))
    for source in (["--file", str(path)], ["--state", "mes:2"]):
        _, out, _ = run_cli(capsys, ["analyze", *source, "--format", "json"])
        timing = json.loads(out)["timing_ms"]
        assert {"load", "purities", "criteria", "bounds"} <= set(timing)
        assert timing["load"] >= 10


def test_repeated_calls_match_a_fresh_parser(capsys):
    # the parser is built once per process; each call must still behave
    # exactly as on a newly built parser
    calls = [["analyze", "--state", "mes:2"], ["bench", "--count", "abc"],
             ["analyze", "--help"], ["sweep", "--grid", "0:1:3"],
             ["analyze", "--state", "mes:2", "--file", "x.json"], ["analyze", "--state", "mes:2"]]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    shared = [outcome(argv) for argv in calls]
    assert cli.build_parser() is cli.build_parser()
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [
        EXIT_ENTANGLED, EXIT_ERROR, ("exit", 0), EXIT_OK, EXIT_ERROR, EXIT_ENTANGLED]


def test_bench_counts_rejects_unknown_kind():
    with pytest.raises(ValueError):
        bench_counts("thermal", (2, 2), 1, 3, 0)


def assert_one_line_error(code, err):
    assert code == EXIT_ERROR
    assert err.startswith("error: ") and err.strip().count("\n") == 0


class TestBadInput:
    def test_non_finite_file_entries(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        rows = [[[0.25 if r == c else 0.0, 0.0] for c in range(4)] for r in range(4)]
        rows[1][2] = rows[2][1] = [float("nan"), 0.0]
        path.write_text(json.dumps({"dims": [2, 2], "matrix": rows}))
        code, _, err = run_cli(capsys, ["analyze", "--file", str(path)])
        assert_one_line_error(code, err)
        assert "non-finite" in err

    def test_negative_tolerance(self, capsys):
        code, _, err = run_cli(capsys, ["analyze", "--state", "mes:2", "--tolerance", "-1"])
        assert_one_line_error(code, err)
        assert "--tolerance" in err

    def test_one_party_bench(self, capsys):
        code, _, err = run_cli(capsys, ["bench", "--dims", "2", "--count", "3"])
        assert_one_line_error(code, err)
        assert "two parties" in err

    def test_empty_bench(self, capsys):
        code, _, err = run_cli(capsys, ["bench", "--count", "0"])
        assert_one_line_error(code, err)

    def test_one_party_analyze(self, capsys, tmp_path):
        path = tmp_path / "qutrit.json"
        save_state(build_state("product:3"), str(path))
        for source in (["--state", "product:2"], ["--file", str(path), "--format", "json"]):
            code, out, err = run_cli(capsys, ["analyze", *source])
            assert_one_line_error(code, err)
            assert out == "" and "two parties" in err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--grid", "0:1.5:4"],                                  # x = 1.5 is no mixture
        ["sweep", "--base", "product:2,2,2", "--target", "product:2,2,2"],  # not bipartite
    ])
    def test_failing_sweep_prints_nothing(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert_one_line_error(code, err)
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["analyze", "--state", "mes:2", "--bogus"],
        ["bench", "--count", "abc"],
        ["analyze", "--state", "mes:2", "--format", "xml"],
        ["frobnicate"],
        ["analyze", "--state", "mes:2", "--format", "csv"],
        ["sweep", "--tolerance", "1"],
    ])
    def test_usage_error(self, capsys, argv):
        code, _, err = run_cli(capsys, argv)
        assert_one_line_error(code, err)

    def test_state_and_file_together(self, capsys, tmp_path):
        path = tmp_path / "mes2.json"
        save_state(max_entangled(2), str(path))
        code, _, err = run_cli(capsys, ["analyze", "--state", "product:2,2", "--file", str(path)])
        assert_one_line_error(code, err)
        assert "--file" in err and "--state" in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--help"])
        assert exc.value.code == 0
        assert "--seed" in capsys.readouterr().out

    @pytest.mark.parametrize("content", [
        {"dims": [2, 2], "matrix": [[0.25, 0, 0, 0]] * 4},   # numbers, not [re, im]
        {"matrix": [[[1, 0]]]},                               # no "dims"
        [[[1, 0]]],                                           # a list at the top
        {"dims": [2, 2], "matrix": [["re", "im"] * 2] * 4},   # strings
        {"dims": [2, 2], "matrix": [[[0.5, 0], [0, 0]]] * 2},  # 2x2 entries for D = 4
    ])
    def test_malformed_file(self, capsys, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(content))
        code, _, err = run_cli(capsys, ["analyze", "--file", str(path)])
        assert_one_line_error(code, err)
        assert '"matrix": [[[re, im], ...], ...]' in err

    @pytest.mark.parametrize("content", [
        # 72 numbers, as for dims 2x3, but as triples
        json.dumps({"dims": [2, 3], "matrix": [[[0, 0, 0]] * 4] * 6}).encode(),
        # one number too many, one too few
        b'{"dims": [2], "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0, 0]]]}',
        b'{"dims": [2], "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5]]]}',
        b'{"dims": [2], "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, ]]]}',
        b'{"dims": [2], "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5 0.25, 0]]]}',
        b'{"dims": [2], "matrix": [[[0.5, 0], [ , 0]], [[0, 0], [0.5, 0]]]}',
        b'{"dims": [2], "matrix": [[[0.5, 0], [0, 0]], [[0, 0], ["0.5", 0]]]}',
        b'{"dims": [2], "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [true, 0]]]}',
        # a second "matrix" key, a nested one only, a key that merely ends in it
        b'{"dims": [2], "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]], '
        b'"matrix": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]}',
        b'{"dims": [2], "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]], "x": {"matrix": 1}}',
        b'{"dims": [2], "x": {"matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}}',
        b'{"dims": [2], "\\"matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}',
        b'',
        b'{"dims": [2], "note": "\xff", "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}',
        b'{"dims": [2], "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]',
        b'{"dims": [2], "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}}',
        b'{"dims": [4294967296, 4294967296], "matrix": [[[1, 0]]]}',
        # dims other than a list of JSON integers, each with a valid 4x4 matrix
        *(json.dumps({"dims": dims, "matrix": (np.stack([np.eye(4), np.zeros((4, 4))], -1)
                                               / 4).tolist()}).encode()
          for dims in ([2.9, 2.2], ["2", "2"], [2.0, 2], [True, 4], "22")),
    ], ids=["triples", "extra", "missing", "trailing-comma", "two-in-one", "empty-entry",
            "string", "true", "second-key", "nested-key", "only-nested", "in-string",
            "empty-file", "not-utf8", "unclosed", "extra-brace", "huge-dims",
            "float-dims", "string-dims", "integral-float-dims", "bool-dims", "dims-string"])
    def test_malformed_file_bytes(self, capsys, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, _, err = run_cli(capsys, ["analyze", "--file", str(path)])
        assert_one_line_error(code, err)
        assert '"matrix": [[[re, im], ...], ...]' in err

    def test_out_of_memory_is_one_error_line(self, capsys, monkeypatch):
        # a 300x300 separable state needs a 129 GB accumulator; the allocation
        # is made to fail here rather than attempted
        zeros = np.zeros

        def failing_zeros(shape, *args, **kwargs):
            if np.prod(shape) > 10**8:
                raise MemoryError(f"Unable to allocate an array with shape {shape}")
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", failing_zeros)
        code, out, err = run_cli(capsys, ["bench", "--dims", "300x300", "--count", "2"])
        assert_one_line_error(code, err)
        assert out == "" and err.startswith("error: out of memory: Unable to allocate")

    def test_spec_missing_seed(self, capsys):
        code, _, err = run_cli(capsys, ["analyze", "--state", "random_pure:2x2"])
        assert_one_line_error(code, err)
        assert "random_pure:<d1>x<d2>[x...]:<seed>" in err and "unpack" not in err


def test_analyze_builds_each_matrix_once(monkeypatch):
    # the input state is validated where it is made; analyze validates
    # nothing further and realigns the state once for every criterion
    rho = random_mixed((3, 4), 2)
    validations, realigns = [], []
    monkeypatch.setattr(DensityMatrix, "__post_init__", lambda self: validations.append(1))
    realign = covariance.realign
    monkeypatch.setattr(covariance, "realign", lambda r: realigns.append(1) or realign(r))
    rep = analyze_state(rho, "random", 1e-9)
    assert len(rep.verdicts) == 4 and rep.bounds is not None
    assert validations == [] and len(realigns) == 1


@pytest.mark.parametrize("base, target, grid", [
    ("bennett3x3", "mes:3", np.linspace(0, 1, 101)),
    ("isotropic:2:0.1", "mes:2", np.linspace(0, 1, 600)),
])
def test_sweep_chunks_match_the_point_by_point_rows(base, target, grid):
    a, b = build_state(base), build_state(target)
    assert len(grid) > 2 * chunk_size(a.total_dim)
    rows = list(sweep_rows(a, b, grid))
    assert rows == sweep_rows_reference(a, b, grid)
