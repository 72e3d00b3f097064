import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from forcing import force
from perpca import bench, checks, cli, fileio, model, solver, stiefel, synth
from perpca.errors import DimensionError, InvariantError


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture()
def synth_dir(tmp_path):
    out = tmp_path / "data"
    run("synth", "--d", 6, "--N", 3, "--r1", 1, "--r2", 1, "--n", 80,
        "--noise-std", 0.2, "--local-std", 2.0, "--seed", 11, "--out", out)
    return out


class TestSynth:
    def test_outputs_present(self, synth_dir):
        names = {p.name for p in synth_dir.iterdir()}
        assert names == {
            "client_0.csv", "client_1.csv", "client_2.csv",
            "truth_U.csv", "truth_V_0.csv", "truth_V_1.csv", "truth_V_2.csv",
            "manifest.json",
        }
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        assert "theta_actual" in manifest["metrics"]
        assert "eigengap" in manifest["metrics"]

    def test_data_round_trip_bitwise(self, synth_dir, tmp_path):
        run("synth", "--d", 6, "--N", 3, "--r1", 1, "--r2", 1, "--n", 80,
            "--noise-std", 0.2, "--local-std", 2.0, "--seed", 11,
            "--out", tmp_path / "again")
        for name in ("client_0.csv", "truth_U.csv"):
            assert (synth_dir / name).read_bytes() == (tmp_path / "again" / name).read_bytes()

    def test_seed_changes_data(self, synth_dir, tmp_path):
        run("synth", "--d", 6, "--N", 3, "--r1", 1, "--r2", 1, "--n", 80,
            "--noise-std", 0.2, "--local-std", 2.0, "--seed", 12,
            "--out", tmp_path / "other")
        assert (synth_dir / "client_0.csv").read_text() != (
            tmp_path / "other" / "client_0.csv"
        ).read_text()

    def test_binary_format(self, tmp_path):
        out = tmp_path / "bin"
        run("synth", "--d", 4, "--N", 2, "--r1", 1, "--r2", 1, "--n", 30,
            "--seed", 3, "--format", "bin", "--out", out)
        assert (out / "client_0.mat64").exists()
        Y = fileio.load_matrix(out / "client_0.mat64")
        assert Y.shape == (30, 4)

    def test_exact_theta_control(self, tmp_path):
        out = tmp_path / "theta"
        run("synth", "--d", 3, "--N", 2, "--r1", 1, "--r2", 1, "--n", 40,
            "--theta", 0.127, "--seed", 5, "--out", out)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["metrics"]["theta_actual"] == pytest.approx(0.127, abs=1e-10)


class TestFit:
    def test_outputs_and_trace_schema(self, synth_dir, tmp_path):
        out = tmp_path / "fit"
        run("fit", synth_dir, "--r1", 1, "--r2", 1, "--rounds", 30,
            "--truth", synth_dir, "--seed", 5, "--out", out)
        names = {p.name for p in out.iterdir()}
        assert names == {"U.csv", "V_0.csv", "V_1.csv", "V_2.csv", "trace.csv",
                         "manifest.json"}
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header == "round,objective,kkt_global,kkt_local,recon_error_mean,subspace_error"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["metrics"]["rounds_run"] == 30

    def test_rounds_zero_echoes_init(self, synth_dir, tmp_path):
        out1 = tmp_path / "f0"
        out2 = tmp_path / "f0b"
        for out in (out1, out2):
            run("fit", synth_dir, "--r1", 1, "--r2", 1, "--rounds", 0,
                "--init", "random", "--seed", 9, "--out", out)
        assert (out1 / "U.csv").read_bytes() == (out2 / "U.csv").read_bytes()
        assert (out1 / "trace.csv").read_text().count("\n") == 1  # header only

    def test_reproducible_outputs(self, synth_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run("fit", synth_dir, "--r1", 1, "--r2", 1, "--rounds", 25,
                "--seed", 4, "--out", out)
            outs.append(out)
        for f in ("U.csv", "V_0.csv", "trace.csv"):
            assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
        m0 = json.loads((outs[0] / "manifest.json").read_text())
        m1 = json.loads((outs[1] / "manifest.json").read_text())
        for volatile in ("timestamp", "wall_time_s", "outputs", "input_digests"):
            m0.pop(volatile), m1.pop(volatile)
        m0["flags"].pop("out"), m1["flags"].pop("out")
        assert m0 == m1

    def test_choice2_and_qr(self, synth_dir, tmp_path):
        run("fit", synth_dir, "--r1", 1, "--r2", 1, "--rounds", 20,
            "--choice", 2, "--retraction", "qr", "--seed", 1,
            "--out", tmp_path / "c2")
        assert (tmp_path / "c2" / "U.csv").exists()

    def test_explicit_eta_and_config_precedence(self, synth_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rounds": 10, "eta": 0.05}))
        out = tmp_path / "cfgfit"
        run("fit", synth_dir, "--config", cfg, "--r1", 1, "--r2", 1,
            "--rounds", 12, "--seed", 2, "--out", out)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["flags"]["rounds"] == 12  # flag beats config
        assert manifest["flags"]["eta"] == 0.05  # config beats default

    @pytest.mark.parametrize("eta, ascends", [("100", False), ("auto", True)])
    def test_objective_decreases_counted(self, synth_dir, tmp_path, eta, ascends):
        out = tmp_path / f"eta-{eta}"
        run("fit", synth_dir, "--r1", 1, "--r2", 1, "--rounds", 50, "--eta", eta,
            "--out", out)
        objective = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)[:, 1]
        decreases = json.loads((out / "manifest.json").read_text())["metrics"][
            "objective_decreases"]
        assert decreases == int(np.sum(np.diff(objective) < -1e-12))
        assert (decreases == 0) == ascends

    def test_center_flag(self, synth_dir, tmp_path):
        run("fit", synth_dir, "--r1", 1, "--r2", 1, "--rounds", 5,
            "--center", "--seed", 2, "--out", tmp_path / "ctr")
        assert (tmp_path / "ctr" / "U.csv").exists()

    def test_heterogeneous_local_ranks(self, synth_dir, tmp_path):
        out = tmp_path / "het"
        run("fit", synth_dir, "--r1", 1, "--r2", "1,2,1", "--rounds", 10,
            "--seed", 2, "--out", out)
        _, V = fileio.load_components(out)
        assert [v.shape[1] for v in V] == [1, 2, 1]


# a fit of the three synth clients with its component files changed
_COMPONENT_FILE_CASES = [
    ("eval", "drop V_1", ValueError, r"V_2\.csv: no V_1 file before it$"),
    ("cluster", "drop V_1", ValueError, r"V_2\.csv: no V_1 file before it$"),
    ("cluster", "drop V_0", ValueError, r"V_1\.csv: no V_0 file before it$"),
    ("eval", "drop V_0", ValueError, r"V_1\.csv: no V_0 file before it$"),
    ("eval", "twice V_0", ValueError, r"V_0\.mat64: a second file for client 0$"),
    ("eval", "drop V_2", DimensionError,
     r"^2 local frames in \S+ for 3 data files: no V_2 for \S+client_2\.csv$"),
    ("eval", "add V_3", DimensionError,
     r"^4 local frames in \S+ for 3 data files: V_3 has no data file$"),
    ("eval", "drop all", DimensionError,
     r"^0 local frames in \S+ for 3 data files: no V_0 for \S+client_0\.csv$"),
]


class TestBaselineEvalCluster:
    def test_baseline_methods(self, synth_dir, tmp_path):
        for method, has_U, n_V in (("distpca", True, 3), ("indiv", False, 3),
                                   ("cpca", True, 0)):
            out = tmp_path / method
            run("baseline", synth_dir, "--method", method, "--r1", 1, "--r2", 1,
                "--out", out)
            U, V = fileio.load_components(out)
            assert (U is not None) == has_U
            assert len(V) == n_V

    @pytest.mark.parametrize("method", ["distpca", "indiv", "cpca"])
    def test_baseline_r2_list_needs_one_rank_per_client(self, synth_dir, tmp_path, method):
        with pytest.raises(DimensionError, match="2 local ranks for 3 clients"):
            run("baseline", synth_dir, "--method", method, "--r1", 1, "--r2", "1,2",
                "--out", tmp_path / method)

    def test_eval_reports_errors(self, synth_dir, tmp_path, capsys):
        fit_out = tmp_path / "fit"
        run("fit", synth_dir, "--r1", 1, "--r2", 1, "--rounds", 60,
            "--seed", 5, "--out", fit_out)
        rc = run("eval", synth_dir, "--components", fit_out, "--truth", synth_dir,
                 "--out", tmp_path / "eval.json")
        assert rc == 0
        payload = json.loads((tmp_path / "eval.json").read_text())
        assert set(payload) == {"recon_error_per_client", "recon_error_mean",
                                "subspace_error"}
        assert payload["subspace_error"] < 0.1

    def test_eval_on_local_only_components(self, synth_dir, tmp_path):
        out = tmp_path / "indiv"
        run("baseline", synth_dir, "--method", "indiv", "--r1", 1, "--r2", 1,
            "--out", out)
        rc = run("eval", synth_dir, "--components", out,
                 "--out", tmp_path / "eval.json")
        assert rc == 0
        payload = json.loads((tmp_path / "eval.json").read_text())
        assert len(payload["recon_error_per_client"]) == 3
        assert "subspace_error" not in payload

    def test_cluster_outputs(self, tmp_path):
        data = tmp_path / "grp"
        run("synth", "--d", 12, "--N", 9, "--r1", 1, "--r2", 2, "--n", 300,
            "--groups", 3, "--local-std", 3.0, "--noise-std", 0.3,
            "--seed", 8, "--out", data)
        fit_out = tmp_path / "fit"
        run("fit", data, "--r1", 1, "--r2", 2, "--rounds", 40, "--seed", 8,
            "--out", fit_out)
        out = tmp_path / "cl"
        rc = run("cluster", "--components", fit_out, "--k", 3, "--seed", 0,
                 "--out", out)
        assert rc == 0
        rho = fileio.load_matrix(out / "rho.csv")
        assert rho.shape == (9, 9)
        labels = (out / "labels.csv").read_text().splitlines()
        assert labels[0] == "client,label"
        assert len(labels) == 10
        # the three planted groups of three separate perfectly
        got = [int(line.split(",")[1]) for line in labels[1:]]
        truth = [0, 0, 0, 1, 1, 1, 2, 2, 2]
        from perpca.metrics import adjusted_rand_index

        assert adjusted_rand_index(got, truth) == pytest.approx(1.0)

    # r1 = r2 = 1, so a local frame can equal the shared column
    @pytest.mark.parametrize("command, defect, message", [
        ("eval", "2U", r"^shared frame columns not orthonormal: "),
        ("eval", "V1=U", r"^client 1: shared/local cross product "),
        ("cluster", "3V1", r"^local frame 1 columns not orthonormal: "),
    ], ids=["eval-2U", "eval-V1=U", "cluster-3V1"])
    def test_frames_off_the_frame_rule_are_rejected(self, synth_dir, tmp_path, command, defect,
                                                     message):
        fit_out = tmp_path / "fit"
        run("fit", synth_dir, "--r1", 1, "--r2", 1, "--rounds", 30, "--seed", 5, "--out", fit_out)
        U = fileio.load_matrix(fit_out / "U.csv")
        V1 = fileio.load_matrix(fit_out / "V_1.csv")
        name, frame = {"2U": ("U.csv", 2 * U), "V1=U": ("V_1.csv", U),
                       "3V1": ("V_1.csv", 3 * V1)}[defect]
        fileio.save_matrix(fit_out / name, frame)
        argv = ["eval", synth_dir] if command == "eval" else ["cluster", "--out", tmp_path / "cl"]
        with pytest.raises(InvariantError, match=message):
            run(*argv, "--components", fit_out)


    @pytest.mark.parametrize("command, change, kind, message", _COMPONENT_FILE_CASES,
                             ids=[f"{c[0]}-{c[1].replace(' ', '-')}"
                                  for c in _COMPONENT_FILE_CASES])
    def test_component_files_must_match_the_clients(self, synth_dir, tmp_path, command, change,
                                                    kind, message):
        fit_out = tmp_path / "fit"
        run("fit", synth_dir, "--r1", 1, "--r2", 1, "--rounds", 30, "--seed", 5, "--out", fit_out)
        what, name = change.split()
        if what == "drop":
            for path in fit_out.glob("[UV]*.csv" if name == "all" else f"{name}.csv"):
                path.unlink()
        elif what == "twice":
            fileio.save_matrix(fit_out / f"{name}.mat64", fileio.load_matrix(fit_out / "V_0.csv"))
        else:
            fileio.save_matrix(fit_out / f"{name}.csv", fileio.load_matrix(fit_out / "V_0.csv"))
        argv = ["eval", synth_dir] if command == "eval" else ["cluster", "--out", tmp_path / "cl"]
        with pytest.raises(kind, match=message) as exc:
            run(*argv, "--components", fit_out)
        assert type(exc.value) is kind

    @pytest.mark.parametrize("truth", [False, True])
    def test_eval_validates_each_frame_set_once(self, tmp_path, monkeypatch, truth):
        data, fit_out = tmp_path / "data", tmp_path / "fit"
        run("synth", "--d", 6, "--N", 9, "--r1", 1, "--r2", 1, "--n", 40, "--seed", 3,
            "--out", data)
        run("fit", data, "--r1", 1, "--r2", 1, "--rounds", 5, "--out", fit_out)
        force(monkeypatch, "serial")  # every call in this process
        calls = []
        validate = model.ComponentState.validate
        monkeypatch.setattr(model.ComponentState, "validate",
                            lambda state: calls.append(state.n_clients) or validate(state))
        run("eval", data, "--components", fit_out, *(["--truth", data] if truth else []))
        assert calls == [9] * (1 + truth)  # the components, then the truth

    @pytest.mark.parametrize("command", ["fit", "eval"])
    def test_truth_off_the_frame_rule_is_rejected(self, synth_dir, tmp_path, command):
        fit_out = tmp_path / "fit"
        run("fit", synth_dir, "--r1", 1, "--r2", 1, "--rounds", 30, "--seed", 5, "--out", fit_out)
        truth_U = synth_dir / "truth_U.csv"
        fileio.save_matrix(truth_U, 2 * fileio.load_matrix(truth_U))
        argv = (["fit", synth_dir, "--r1", 1, "--r2", 1, "--rounds", 5, "--out", tmp_path / "f2"]
                if command == "fit" else ["eval", synth_dir, "--components", fit_out])
        with pytest.raises(InvariantError, match=r"^shared frame columns not orthonormal: "):
            run(*argv, "--truth", synth_dir)


class TestCheck:
    def test_single_suite_passes(self, capsys):
        rc = run("check", "--suite", "direct-sum")
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("PASS direct-sum")

    def test_full_check_passes_quickly(self, capsys):
        import time

        t0 = time.time()
        rc = run("check")
        elapsed = time.time() - t0
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == 3
        assert elapsed < 120.0

    def test_failure_exit_code(self, monkeypatch, capsys):
        from perpca import checks

        def broken(seed=0):
            return checks.SuiteReport("arrowhead", False, "injected")

        monkeypatch.setitem(checks.ALL_SUITES, "arrowhead", lambda seed=0: broken(seed))
        rc = run("check", "--suite", "arrowhead")
        assert rc == 1
        assert "FAIL arrowhead" in capsys.readouterr().out


def test_bench_writes_report(tmp_path):
    out = tmp_path / "bench"
    rc = run("bench", "--scenario", "theta-sweep", "--repeats", 2, "--out", out)
    assert rc == 0
    report = (out / "theta-sweep.csv").read_text().splitlines()
    assert report[0].startswith("scenario,method,metric,mean,std,repeats")
    assert len(report) > 4


class TestOptionTable:
    def test_config_list_r2_runs_like_the_flag(self, synth_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r2": [1, 2, 1]}))
        run("fit", synth_dir, "--config", cfg, "--r1", 1, "--rounds", 5,
            "--out", tmp_path / "config")
        run("fit", synth_dir, "--r2", "1,2,1", "--r1", 1, "--rounds", 5,
            "--out", tmp_path / "flag")
        for name in ("U.csv", "V_1.csv", "trace.csv"):
            assert (tmp_path / "config" / name).read_bytes() == (
                tmp_path / "flag" / name).read_bytes()

    def test_config_string_is_read_as_flag_text(self, synth_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rounds": "7"}))
        out = tmp_path / "fit"
        run("fit", synth_dir, "--config", cfg, "--r1", 1, "--r2", 1, "--out", out)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["flags"]["rounds"] == 7
        assert manifest["metrics"]["rounds_run"] == 7

    def test_config_suite_string_runs_that_suite(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suite": "arrowhead"}))
        assert run("check", "--config", cfg) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("PASS arrowhead")

    @pytest.mark.parametrize("argv, config, key", [
        (["baseline", "DATA"], {"method": "pca"}, "method"),
        (["bench"], {"scenario": "error-vs-x"}, "scenario"),
        (["fit", "DATA"], {"rounds": 7.5}, "rounds"),
        (["fit", "DATA"], {"rounds": True}, "rounds"),
        (["fit", "DATA"], {"eta": "fast"}, "eta"),
        (["fit", "DATA"], {"r2": [1, "x"]}, "r2"),
        (["fit", "DATA"], {"center": "yes"}, "center"),
        (["check"], {"suite": ["arrowhead", "nope"]}, "suite"),
    ])
    def test_bad_config_value_exits_naming_the_key(self, synth_dir, tmp_path, argv,
                                                   config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [synth_dir if a == "DATA" else a for a in argv]
        with pytest.raises(SystemExit, match=f"^config key '{key}': "):
            run(*argv, "--config", cfg)

    @pytest.mark.parametrize("content, message", [
        ('{"seed": ', r"config file \S*cfg\.json: Expecting value"),
        (None, r"config file \S*cfg\.json: .*No such file"),
        ('[1, 2]', r"config file \S*cfg\.json: expected a JSON object$"),
        ('{"d": 1e400}', r"config key 'd': cannot convert float infinity to integer$"),
    ], ids=["invalid-json", "missing", "not-an-object", "overflow"])
    def test_bad_config_file_exits_naming_the_file_or_key(self, tmp_path, content, message):
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_text(content)
        with pytest.raises(SystemExit, match=f"^{message}"):
            run("synth", "--config", cfg, "--out", tmp_path / "out")

    @pytest.mark.parametrize("argv, message", [
        (["synth", "--local-std", "inf"], "local_score_std must be finite"),
        (["synth", "--noise-std", "nan"], "noise_std must be finite"),
        (["synth", "--N", "3", "--groups", "-2"], r"--groups must lie in \[1, N=3\], got -2"),
        (["synth", "--N", "3", "--groups", "0"], r"--groups must lie in \[1, N=3\], got 0"),
        (["synth", "--N", "3", "--groups", "4"], r"--groups must lie in \[1, N=3\], got 4"),
        (["fit", "DATA", "--stop-tol", "nan"], "stop_subspace_tol must be >= 0"),
        (["fit", "DATA", "--eta", "nan"], "stepsize must be finite"),
        (["fit", "DATA", "--stepsize-scale", "inf"], "stepsize_scale must be finite"),
    ])
    def test_bad_number_fails_before_anything_is_written(self, synth_dir, tmp_path, argv,
                                                         message):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=message):
            run(*[synth_dir if a == "DATA" else a for a in argv], "--out", out)
        assert not out.exists()

    def test_config_key_of_an_ignored_flag_is_unknown(self, synth_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fmt": "bin"}))
        with pytest.raises(SystemExit, match=r"unknown config keys: \['fmt'\]"):
            run("eval", synth_dir, "--config", cfg)

    @pytest.mark.parametrize("argv", [
        ["eval", "data", "--seed", "1"],
        ["baseline", "data", "--seed", "1"],
        ["eval", "data", "--format", "csv"],
        ["bench", "--format", "csv"],
        ["cluster", "--format", "csv"],
        ["check", "--out", "x"],
        ["check", "--format", "csv"],
    ])
    def test_flags_a_command_ignores_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_choices_come_from_their_source(self):
        # a retraction registered in stiefel.RETRACTIONS reaches --retraction
        sources = {"retraction": tuple(stiefel.RETRACTIONS), "init": solver.INITS,
                   "choice": solver.CHOICES, "score_dist": synth.SCORE_DISTS,
                   "scenario": tuple(sorted(bench.SCENARIOS)),
                   "suite": tuple(sorted(checks.ALL_SUITES))}
        choices = {o.dest: o.choices for o in cli.OPTIONS
                   if o.choices is not None and o.dest not in ("fmt", "method")}
        assert choices == sources

    def test_main_dispatches_to_the_current_module_attribute(self, monkeypatch):
        # the benchmark tracer replaces cli.cmd_* between calls
        seen = []
        monkeypatch.setattr(cli, "cmd_check", lambda args: seen.append(args.suite) or 0)
        assert run("check", "--suite", "arrowhead") == 0
        assert seen == [["arrowhead"]]

    @pytest.mark.parametrize("argv", [
        ["--help"], *([command, "--help"] for command in cli.COMMANDS), [],
        ["nope"], ["fit"], ["fit", "data", "--bogus"], ["eval", "data", "--seed", "1"],
    ], ids=lambda argv: "-".join(argv) or "none")
    def test_main_prints_what_the_full_parser_prints(self, argv, capsys):
        printed = []
        for parse in (cli.main, cli.build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(list(argv))
            printed.append((exc.value.code, capsys.readouterr()))
        assert printed[0] == printed[1]
        assert printed[0][1].out or printed[0][1].err

    def test_readme_commands_parse(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
        commands = [line for line in "".join(blocks).replace("\\\n", " ").splitlines()
                    if line.startswith("perpca ")]
        assert len(commands) >= 7
        parser = cli.build_parser()
        for line in commands:
            args = parser.parse_args(shlex.split(line, comments=True)[1:])
            assert args.func is getattr(cli, f"cmd_{args.command}")
