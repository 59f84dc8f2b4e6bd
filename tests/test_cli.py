import csv
import io
import json

import pytest

import abelhp.cli
import abelhp.discretization
from abelhp.cli import main
from abelhp.quadrature import HistoryAccuracyError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_prints_registry(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    for pid in ("ex1_singular", "ex6_unknown"):
        assert pid in out


def test_run_csv_sweep(capsys):
    code, out, _ = run_cli(capsys, "run", "--problem", "ex3", "--N", "2,4", "--M", "3")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["N"] for r in rows] == ["2", "4"]
    assert rows[1]["rho_N"] != ""
    assert float(rows[0]["E2"]) > 0


def test_run_json_and_outfile(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "run", "--problem", "ex4", "--N", "1", "--M", "3,4",
        "--format", "json", "--out", str(out_path),
    )
    assert code == 0 and out == ""
    payload = json.loads(out_path.read_text())
    assert payload["problem"] == "ex4_liu"
    assert [r["M"] for r in payload["rows"]] == [3, 4]


def test_run_with_alpha_and_noise(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--problem", "ex1", "--alpha", "0.3", "--N", "2", "--M", "4"
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "run", "--problem", "ex2", "--N", "4,8", "--M", "2", "--noise", "h^2.5"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["delta"] != ""


def test_adaptive_mode(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--problem", "ex4", "--N", "1", "--M", "2",
        "--adaptive", "p_first", "--tol", "1e-13",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert int(rows[-1]["L"]) <= 8
    assert float(rows[-1]["E2"]) <= 1e-12


def test_config_file(tmp_path, capsys):
    cfg = {
        "problem": "ex3",
        "sweep": [[2, 3], [4, 3]],
        "solver": {"newton_tol": 1e-12},
        "format": "json",
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "run", "--config", str(path))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 2


def test_usage_errors_exit_one(capsys, tmp_path):
    assert run_cli(capsys, "run", "--problem", "nosuch", "--N", "1", "--M", "2")[0] == 1
    assert run_cli(capsys, "run", "--problem", "ex3")[0] == 1
    assert run_cli(capsys, "run", "--problem", "ex1", "--N", "1", "--M", "2")[0] == 1
    assert run_cli(capsys, "run", "--problem", "ex3", "--N", "1,2", "--M", "2,3,4")[0] == 1
    assert run_cli(capsys, "run", "--problem", "ex3", "--N", "x", "--M", "2")[0] == 1
    assert run_cli(capsys, "run", "--problem", "ex4", "--N", "1", "--M", "2",
                   "--adaptive", "p_first")[0] == 1
    assert run_cli(capsys, "run", "--config", "/nonexistent.json")[0] == 1
    assert run_cli(capsys, "run", "--problem", "ex3", "--N", "0", "--M", "2")[0] == 1
    assert run_cli(capsys, "run", "--problem", "ex3", "--N", "2", "--M", "1")[0] == 1
    assert run_cli(capsys, "run", "--problem", "ex4", "--N", "1", "--M", "2",
                   "--adaptive", "p_first", "--tol", "-1")[0] == 1
    assert run_cli(capsys, "run", "--problem", "ex4", "--N", "2", "--M", "3",
                   "--adaptive", "p_first", "--tol", "1e-9", "--max-L", "3")[0] == 1
    code, _, err = run_cli(capsys, "run", "--problem", "ex3", "--N", "2", "--M", "2",
                           "--noise", "abc")
    assert code == 1 and err.startswith("abel-hp: error:")
    # an adaptive run solved the clean problem and printed no delta
    code, _, err = run_cli(capsys, "run", "--problem", "ex2", "--N", "4", "--M", "2",
                           "--adaptive", "p_first", "--tol", "1e-4", "--noise", "1e-3")
    assert code == 1 and "--noise" in err and "--adaptive" in err
    path = tmp_path / "budget.json"
    path.write_text(json.dumps({"adaptive": {"max_L": "many"}}))
    assert run_cli(capsys, "run", "--config", str(path), "--problem", "ex4", "--N", "1",
                   "--M", "2", "--adaptive", "p_first", "--tol", "1e-13")[0] == 1
    # json reads NaN; a NaN tolerance is a usage error, not a failed row
    path.write_text(json.dumps({"solver": {"newton_tol": float("nan")}}))
    assert run_cli(capsys, "run", "--config", str(path), "--problem", "ex3", "--N", "2",
                   "--M", "2")[0] == 1
    # the adaptive flags are read by adaptive runs alone, and an adaptive run
    # starts from one mesh: each ran, and dropped the flag or the pair (4, 3)
    for flags, named in ((("--N", "2", "--tol", "1e-9"), "--tol"),
                         (("--N", "2", "--max-L", "5"), "--max-L"),
                         (("--N", "2,4", "--adaptive", "p_first", "--tol", "1e-6"),
                          "one (N, M) pair")):
        code, out, err = run_cli(capsys, "run", "--problem", "ex3", "--M", "3", *flags)
        assert code == 1 and out == "" and named in err
    # a float count used to pass the options and die in range() inside newton,
    # and the deleted descent options must not be dropped without a word
    for solver in ({"newton_max_iter": 2.5}, {"descent_steps": 50}):
        path.write_text(json.dumps({"solver": solver}))
        code, _, err = run_cli(capsys, "run", "--config", str(path), "--problem", "ex3",
                               "--N", "4", "--M", "3")
        assert code == 1 and "bad solver options" in err and "Traceback" not in err
        assert next(iter(solver)) in err
    # json reads 1e999 as inf; an infinite tolerance returned the unsolved warm start
    path.write_text('{"problem": "ex3", "sweep": [[4, 3]], "solver": {"newton_tol": 1e999}}')
    code, _, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 1 and "bad solver options" in err and "Traceback" not in err


def test_no_arguments_is_usage_error(capsys):
    assert run_cli(capsys)[0] == 1


def test_failed_row_exits_two(capsys, tmp_path, monkeypatch):
    cfg = {
        "problem": "ex3",
        "sweep": [[2, 3]],
        "solver": {"newton_max_iter": 1},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "run", "--config", str(path))
    assert code == 2
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["E1"] == ""

    # a history-weight failure inside an adaptive run is a failed row too
    def reject(*args):
        raise HistoryAccuracyError("rejected")

    monkeypatch.setattr(abelhp.discretization, "history_weights_batch", reject)
    code, out, _ = run_cli(capsys, "run", "--problem", "ex4", "--N", "2", "--M", "2",
                           "--adaptive", "p_first", "--tol", "1e-13")
    assert code == 2
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1 and rows[0]["E2"] == ""


def test_adaptive_solver_failure_keeps_solved_steps(capsys):
    # h_first on ex5 solves a few bisections, then a Newton solve fails; the
    # report keeps every solved step and adds one failed row for the mesh
    # whose solve raised
    code, out, _ = run_cli(capsys, "run", "--problem", "ex5", "--N", "2", "--M", "2",
                           "--adaptive", "h_first", "--tol", "1e-9", "--format", "json")
    assert code == 2
    rows = json.loads(out)["rows"]
    assert len(rows) >= 2
    assert [r["N"] for r in rows] == list(range(2, 2 + len(rows)))
    assert all(not r.get("failed") and r["E2"] is not None for r in rows[:-1])
    assert rows[-1]["failed"] and rows[-1]["error"]
    assert rows[-1]["L"] == 2 * rows[-1]["N"]


def test_explicit_mesh_config(tmp_path, capsys):
    cfg = {
        "problem": "ex5",
        "mesh": {"breakpoints": [0.0, 0.5, 1.0], "degrees": [6, 6]},
    }
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "run", "--config", str(path))
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1 and rows[0]["L"] == "14"
    assert float(rows[0]["E1"]) < 1e-4


def test_mesh_config_keys_it_does_not_read_are_usage_errors(tmp_path, capsys):
    # a mesh reads breakpoints and degrees; any other key is an error, or T
    # here would leave ex3 on (0, 1] without a word.  A uniform mesh is a
    # sweep entry, so N and M are not mesh keys, nor is M beside breakpoints
    path = tmp_path / "mesh.json"
    for mesh, unread in (
        ({"N": 2, "M": 3, "T": 2.0}, ("'M'", "'N'", "'T'")),
        ({"breakpoints": [0.0, 0.5, 1.0], "M": 3}, ("'M'",)),
    ):
        path.write_text(json.dumps({"problem": "ex3", "mesh": mesh}))
        code, out, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 1 and out == ""
        assert all(key in err for key in unread)


def test_max_L_flag_overrides_config(tmp_path, capsys):
    path = tmp_path / "budget.json"
    path.write_text(json.dumps({"adaptive": {"max_L": 300}}))
    code, out, _ = run_cli(
        capsys, "run", "--config", str(path), "--problem", "ex4", "--N", "1", "--M", "2",
        "--adaptive", "p_first", "--tol", "1e-13", "--max-L", "3",
    )
    assert code == 2
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["L"] for r in rows] == ["2", "3"]


def test_explicit_breakpoints_must_end_at_T(tmp_path, capsys):
    # a short mesh would solve only part of ex3's (0, 1] and a long one would
    # run past it; sweep and adaptive runs reject both as usage errors
    path = tmp_path / "mesh.json"
    for bp in ([0.0, 0.25, 0.5], [0.0, 0.5, 1.0, 2.0]):
        path.write_text(json.dumps({"problem": "ex3", "mesh": {"breakpoints": bp}}))
        for flags in ((), ("--adaptive", "p_first", "--tol", "1e-6")):
            code, out, err = run_cli(capsys, "run", "--config", str(path), *flags)
            assert code == 1 and out == ""
            assert f"end at {bp[-1]}, not at T = 1.0" in err
    # rounding of T stays accepted, and without "degrees" the degree is 1
    path.write_text(json.dumps({"problem": "ex3", "mesh": {"breakpoints": [0.0, 0.5, 1 - 1e-13]}}))
    code, out, _ = run_cli(capsys, "run", "--config", str(path))
    assert code == 0
    assert [(r["M"], r["L"]) for r in csv.DictReader(io.StringIO(out))] == [("2", "4")]


def test_noise_that_is_not_finite_and_nonnegative_is_a_usage_error(capsys):
    # nan and inf ran and printed NaN rows with exit 0; a negative level raised
    # from perturb_rhs; a power that is bad only at the mesh's own h (h^nan,
    # h^-2000) raised from the sweep, and h^inf ran with noise 0
    for noise in ("nan", "inf", "-1e-3", "h^nan", "h^-2000", "h^inf"):
        code, out, err = run_cli(capsys, "run", "--problem", "ex2", "--N", "4,8", "--M", "2",
                                 f"--noise={noise}")
        assert code == 1 and out == "" and err.startswith("abel-hp: error: bad noise")
    code, out, _ = run_cli(capsys, "run", "--problem", "ex2", "--N", "4,8", "--M", "2",
                           "--noise=h^-1")
    assert code == 0
    assert [r["delta"] for r in csv.DictReader(io.StringIO(out))] == ["4.00e+00", "8.00e+00"]


def test_nan_breakpoint_is_a_usage_error(tmp_path, capsys):
    # json reads NaN: the mesh used to construct and the solve raised from the moments
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps({"problem": "ex3",
                                "mesh": {"breakpoints": [0, float("nan"), 1], "degrees": [2, 2]}}))
    code, out, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 1 and out == "" and err.startswith("abel-hp: error: bad mesh config")


def test_adaptive_flags_take_the_library_values(capsys):
    from abelhp.adaptive import STRATEGIES, AdaptiveOptions

    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--help"])
    assert exit_info.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "--adaptive {" + ",".join(STRATEGIES) + "}" in out
    assert f"(default: {AdaptiveOptions.max_L})" in out



def test_config_keys_it_does_not_read_are_usage_errors(tmp_path, capsys):
    # a typo'd key turned its setting off without a word: each of these ran
    # with the defaults and exited 0
    path = tmp_path / "run.json"
    for cfg, named in (
        ({"problem": "ex3", "sweep": [[2, 3]], "fromat": "json",
          "solvr": {"newton_tol": 1e-3}}, ("'fromat'", "'solvr'")),
        ({"problem": "ex3", "N": 4, "M": 5}, ("'N'", "'M'")),
        ({"problem": "ex4", "adaptive": {"tol": 1e-9, "strat": "h_first"}}, ("'strat'",)),
        # the adaptive settings sit in their section alone, as the solver's do
        ({"problem": "ex4", "tol": 1e-9, "strategy": "h_first", "max_L": 20},
         ("'max_L'", "'strategy'", "'tol'")),
        # the estimate is always error_E2; the deleted metric option is not read
        ({"problem": "ex4", "adaptive": {"error_metric": "E1_vs_reference"}},
         ("'error_metric'",)),
        # without a strategy, no adaptive run reads the section
        ({"problem": "ex4", "adaptive": {"tol": 1e-9}}, ("adaptive config",)),
        # an adaptive run reads one pair of a sweep
        ({"problem": "ex3", "sweep": [[2, 3], [4, 3]],
          "adaptive": {"strategy": "p_first", "tol": 1e-6}}, ("one (N, M) pair",)),
    ):
        path.write_text(json.dumps(cfg))
        flags = () if "sweep" in cfg else ("--N", "2", "--M", "3")
        code, out, err = run_cli(capsys, "run", "--config", str(path), *flags)
        assert code == 1 and out == "" and "Traceback" not in err
        assert all(key in err for key in named), err


def test_config_with_sweep_and_mesh_is_a_usage_error(tmp_path, capsys):
    # the sweep ran and the mesh was dropped without a word
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"problem": "ex3", "sweep": [[2, 3]],
                                "mesh": {"breakpoints": [0.0, 0.5, 1.0], "degrees": 4}}))
    code, out, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 1 and out == ""
    assert "sweep" in err and "mesh" in err


def test_config_values_of_the_wrong_type_are_usage_errors(tmp_path, capsys):
    # each of these ended in a traceback, or ran on a converted value: a
    # sweep pair [2, 3.7] ran with M = 3, [true, 3] with N = 1, max_L 2.5 was
    # cut to 2, noise true ran as 1.0, format xml printed CSV and out 5 was
    # opened as a descriptor
    path = tmp_path / "run.json"
    sweep = {"problem": "ex3", "sweep": [[2, 3]]}
    adaptive = {"problem": "ex4", "sweep": [[1, 2]], "adaptive": {"strategy": "p_first",
                                                                   "tol": 1e-13}}
    for cfg, named in (
        ({**sweep, "sweep": [[2]]}, "sweep"),
        ({**sweep, "sweep": "ab"}, "sweep"),
        ({**sweep, "sweep": [[2, 3.7]]}, "sweep"),
        ({**sweep, "sweep": [[True, 3]]}, "sweep"),
        ({**sweep, "sweep": []}, "sweep"),
        ({**sweep, "problem": ["ex3"]}, "problem"),
        ({**sweep, "problem": "ex1", "alpha": "x"}, "alpha"),
        ({**adaptive, "adaptive": {**adaptive["adaptive"], "max_L": 2.5}}, "max_L"),
        ({**adaptive, "adaptive": {**adaptive["adaptive"], "tol": True}}, "tol"),
        ({**adaptive, "adaptive": 5}, "adaptive config"),
        ({**sweep, "noise": True}, "noise"),
        ({**sweep, "format": "xml"}, "format"),
        ({**sweep, "out": 5}, "out"),
        ({"problem": "ex3", "mesh": 5}, "mesh config"),
        ({"problem": "ex3", "mesh": {"breakpoints": [0.0, 0.5, 1.0], "degrees": [2.5, 2]}},
         "degrees"),
    ):
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 1 and out == "" and "Traceback" not in err, cfg
        assert err.startswith("abel-hp: error:") and named in err, err


def test_unwritable_out_is_a_usage_error_before_any_solve(capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the output path was checked")

    monkeypatch.setattr(abelhp.cli, "run_sweep", no_solve)
    code, out, err = run_cli(capsys, "run", "--problem", "ex3", "--N", "2,4", "--M", "3",
                             "--out", "/nonexistent/x.json")
    assert code == 1 and out == ""
    assert err.startswith("abel-hp: error:") and "/nonexistent/x.json" in err
