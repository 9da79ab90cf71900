import json
from dataclasses import fields

import pytest

from rbfadvect.cli import assemble_config, build_parser, main, read_config_file
from rbfadvect.runner import RunConfig, build_run, execute_run
from rbfadvect.timestep import BlowUpError, integrate


def run_cli(*argv):
    return main(list(argv))


def test_run_writes_artifacts(tmp_path):
    out = tmp_path / "out"
    code = run_cli("run", "--problem", "inflow_bump", "--method", "sat",
                   "--kernel", "cubic", "--N", "20", "--t-end", "0.25",
                   "--out-dir", str(out))
    assert code == 0
    errors = (out / "errors.csv").read_text().splitlines()
    assert errors[0] == "problem,method,kernel,N,l1,linf,l2,order_l1,order_linf"
    assert errors[1].startswith("inflow_bump,sat,cubic,20,")
    assert (out / "energy.csv").exists()


def test_validation_exit_codes(tmp_path, capsys):
    code = run_cli("run", "--problem", "inflow_bump", "--method", "sat",
                   "--tau", "-0.4", "--out-dir", str(tmp_path))
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigurationError"

    assert run_cli("run", "--problem", "nope", "--method", "sat",
                   "--out-dir", str(tmp_path)) == 2
    assert run_cli("run", "--problem", "varcoeff", "--method", "fr",
                   "--out-dir", str(tmp_path)) == 2
    assert run_cli("run", "--problem", "inflow_bump", "--method", "usual",
                   "--kernel", "quintic", "--m", "1", "--out-dir", str(tmp_path)) == 2


RUN_SAT = ("run", "--problem", "inflow_bump", "--method", "sat", "--N", "10")


@pytest.mark.parametrize("argv", [
    RUN_SAT + ("--cfl", "0"),
    RUN_SAT + ("--cfl", "-1"),
    RUN_SAT + ("--cfl", "nan"),
    RUN_SAT + ("--sigma", "nan"),
    RUN_SAT + ("--t-end", "nan"),
    RUN_SAT + ("--t-end", "inf"),
    ("run", "--problem", "varcoeff", "--method", "sat", "--N", "10", "--alpha-skew", "nan"),
    ("conditioning", "--N", "1"),
    RUN_SAT + ("--tau-r", "nan"),
    RUN_SAT + ("--tau-r", "inf"),
    RUN_SAT + ("--tau=-inf",),
    ("conditioning", "--N", "10", "--quad-points", "0"),
    ("conditioning", "--N", "10", "--quad-points", "65"),
], ids=["cfl0", "cfl-1", "cfl-nan", "sigma-nan", "t_end-nan", "t_end-inf", "alpha-nan",
        "conditioning-N1", "tau_r-nan", "tau_r-inf", "tau-minus-inf", "conditioning-quad0",
        "conditioning-quad65"])
def test_bad_numeric_inputs_exit_2_with_json(argv, tmp_path, capsys):
    # Each used to end in a traceback, a silent run, a blow-up report or a hang.
    assert run_cli(*argv, "--out-dir", str(tmp_path / "out")) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigurationError"
    assert not (tmp_path / "out").exists()


def test_blow_up_exit_code_with_partial_report(tmp_path, capsys):
    out = tmp_path / "out"
    # A CFL far above the stability limit feeds exponential growth until
    # the state overflows.
    code = run_cli("run", "--problem", "inflow_bump", "--method", "usual",
                   "--kernel", "cubic", "--N", "10", "--t-end", "100",
                   "--cfl", "5", "--out-dir", str(out))
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "BlowUpError"
    body = (out / "errors.csv").read_text()
    assert "inf" in body  # flagged row still written


def test_study_rows_and_order(tmp_path):
    out = tmp_path / "study"
    code = run_cli("study", "--problem", "inflow_bump", "--method", "sat",
                   "--kernel", "cubic", "--N", "10", "--N", "20", "--N", "40",
                   "--t-end", "0.25", "--out-dir", str(out))
    assert code == 0
    lines = (out / "errors.csv").read_text().splitlines()
    assert len(lines) == 5  # header + 3 rows + order row
    assert lines[-1].split(",")[3] == "avg_order"


def test_study_reruns_byte_identical(tmp_path):
    args = ("study", "--problem", "inflow_bump", "--method", "usual",
            "--kernel", "cubic", "--N", "10", "--N", "20", "--t-end", "0.25")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--out-dir", str(out1)) == 0
    assert run_cli(*args, "--out-dir", str(out2)) == 0
    for name in ("errors.csv", "energy.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_conditioning_report(tmp_path):
    out = tmp_path / "cond"
    code = run_cli("conditioning", "--kernel", "cubic", "--N", "10", "--N", "20",
                   "--out-dir", str(out))
    assert code == 0
    lines = (out / "conditioning.csv").read_text().splitlines()
    assert lines[0] == "kernel,N,cond_A"
    assert len(lines) == 3
    corr = (out / "corrections.csv").read_text().splitlines()
    assert corr[0] == "kernel,N,cond_A,max_residual_cL,max_residual_cR"


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("""
# comment line
problem = inflow_bump
method = sat
kernel = cubic
N = 40
t_end = 0.25
""")
    out = tmp_path / "out"
    code = run_cli("run", "--config", str(cfg), "--N", "10", "--out-dir", str(out))
    assert code == 0
    row = (out / "errors.csv").read_text().splitlines()[1]
    assert row.startswith("inflow_bump,sat,cubic,10,")  # flag wins


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("problemo = inflow_bump\n")
    assert run_cli("run", "--config", str(cfg), "--method", "sat",
                   "--out-dir", str(tmp_path / "o")) == 2


def test_read_config_file_parsing(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("a = 1\n\n# note\nb=x y\n")
    assert read_config_file(cfg) == {"a": "1", "b": "x y"}


def test_fr_pathology_run_exits_with_blowup_or_huge_error(tmp_path):
    # The long-time FR quintic run either blows up (exit 3) or finishes
    # with an enormous error; both surface in the artifacts.
    out = tmp_path / "fr"
    code = run_cli("run", "--problem", "periodic_sin2", "--method", "fr",
                   "--kernel", "quintic", "--N", "20", "--t-end", "100",
                   "--record-stride", "1000", "--out-dir", str(out))
    assert code in (0, 3)
    row = (out / "errors.csv").read_text().splitlines()[1]
    l1_field = row.split(",")[4]
    assert l1_field == "inf" or float(l1_field) > 10.0


BLOWUP_ARGS = ("--problem", "inflow_bump", "--method", "usual", "--kernel", "cubic",
               "--N", "10", "--t-end", "100", "--cfl", "5")


def test_blow_up_step_and_stage_reach_report_and_json(tmp_path, capsys):
    cfg = RunConfig(problem="inflow_bump", method="usual", kernel="cubic", n=10,
                    t_end=100.0, cfl=5.0)
    setup = build_run(cfg)
    with pytest.raises(BlowUpError) as raised:
        integrate(setup.op, setup.u0, setup.ti)
    report = execute_run(cfg)
    assert (report.blowup_step, report.blowup_stage) == (raised.value.step, raised.value.stage)
    assert report.steps == report.blowup_step

    assert run_cli("run", *BLOWUP_ARGS, "--out-dir", str(tmp_path / "run")) == 3
    line = json.loads(capsys.readouterr().err.strip())
    assert (line["step"], line["stage"]) == (report.blowup_step, report.blowup_stage)
    assert set(line) >= {"error", "message"}

    assert run_cli("study", *BLOWUP_ARGS, "--out-dir", str(tmp_path / "study")) == 0
    warning = json.loads(capsys.readouterr().err.strip())
    assert warning["warning"] == "blow-up" and warning["N"] == 10
    assert (warning["step"], warning["stage"]) == (report.blowup_step, report.blowup_stage)
    assert warning["t"] == report.blowup_time


# A Gaussian this flat makes the Vandermonde system numerically singular.
SINGULAR_ARGS = ("--problem", "inflow_bump", "--method", "sat",
                 "--kernel", "gaussian epsilon=0.5", "--t-end", "0.1")


def test_numerical_failure_exit_code_on_run(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("run", *SINGULAR_ARGS, "--N", "40", "--out-dir", str(out)) == 4
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "SingularSystemError"
    assert "singular" in err["message"]
    assert not out.exists()


def test_numerical_failure_flags_study_row(tmp_path, capsys):
    out = tmp_path / "study"
    code = run_cli("study", *SINGULAR_ARGS, "--N", "10", "--N", "20", "--out-dir", str(out))
    assert code == 0
    warnings = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [(w["warning"], w["N"], w["error"]) for w in warnings] == [
        ("numerical-failure", n, "SingularSystemError") for n in (10, 20)]
    rows = (out / "errors.csv").read_text().splitlines()[1:]
    assert [r.split(",")[3:7] for r in rows[:2]] == [[n, "inf", "inf", "inf"] for n in ("10", "20")]
    assert rows[2].split(",")[3] == "avg_order"


def test_numerical_failure_exit_code_on_conditioning(tmp_path, capsys):
    code = run_cli("conditioning", "--kernel", "gaussian epsilon=0.5", "--N", "10",
                   "--out-dir", str(tmp_path / "cond"))
    assert code == 4
    assert json.loads(capsys.readouterr().err.strip())["error"] == "SingularSystemError"


# sigma = 0.3 makes the interior jitter exceed the spacing: every draw at
# N = 12 breaks the ordering, while N = 3 draws ordered centers.
SCATTER_ARGS = ("--problem", "inflow_bump", "--method", "sat", "--sigma", "0.3",
                "--t-end", "0.1")


def test_failed_scattered_draw_exits_4_with_json(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("run", *SCATTER_ARGS, "--N", "12", "--out-dir", str(out)) == 4
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "DegenerateCentersError"
    assert "sigma=0.3, N=12" in err["message"]
    assert not out.exists()


def test_failed_scattered_draw_flags_study_row(tmp_path, capsys):
    out = tmp_path / "study"
    code = run_cli("study", *SCATTER_ARGS, "--N", "3", "--N", "12", "--out-dir", str(out))
    assert code == 0
    warnings = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [(w["warning"], w["N"], w["error"]) for w in warnings] == [
        ("numerical-failure", 12, "DegenerateCentersError")]
    rows = (out / "errors.csv").read_text().splitlines()[1:]
    assert rows[0].split(",")[3] == "3" and rows[0].split(",")[4] != "inf"
    assert rows[1].split(",")[3:7] == ["12", "inf", "inf", "inf"]


def test_missing_config_file_exits_2_with_json(tmp_path, capsys):
    out = tmp_path / "out"
    for command in ("run", "study"):
        assert run_cli(command, "--config", str(tmp_path / "none.cfg"), "--problem", "inflow_bump",
                       "--method", "sat", "--out-dir", str(out)) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigurationError" and "none.cfg" in err["message"]
    assert not out.exists()


def test_run_rejects_list_of_n_that_study_accepts(tmp_path, capsys):
    cfg = tmp_path / "list.cfg"
    cfg.write_text("problem = inflow_bump\nmethod = sat\nN = 10,20\nt_end = 0.05\n")
    assert run_cli("run", "--config", str(cfg), "--out-dir", str(tmp_path / "run")) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigurationError"
    assert not (tmp_path / "run").exists()
    out = tmp_path / "study"
    assert run_cli("study", "--config", str(cfg), "--out-dir", str(out)) == 0
    rows = (out / "errors.csv").read_text().splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == ["10", "20", "avg_order"]


@pytest.mark.parametrize("flag", [("--method", "bogus"), ("--N", "abc")], ids=["method", "N"])
def test_usage_errors_print_one_json_line(flag, capsys):
    with pytest.raises(SystemExit) as exited:
        run_cli("run", "--problem", "inflow_bump", *flag)
    assert exited.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ConfigurationError" and flag[0] in err["message"]


def test_help_is_argparse_usage(capsys):
    with pytest.raises(SystemExit) as exited:
        run_cli("run", "--help")
    assert exited.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: rbfadvect run") and captured.err == ""
    assert "--method {usual,fr,sat}" in captured.out


# The documented config keys spelled unlike their RunConfig field; a key's
# flag is "--" + key with "_" -> "-".
KEY_SPELLINGS = {"n": "N", "tau_l": "tau", "r0": "R0", "r1": "R1"}
INT_FIELDS = {"n", "m", "seed", "quad_points", "record_stride"}
STR_VALUES = {"problem": "acoustic", "method": "fr", "kernel": "quintic"}


@pytest.mark.parametrize("field", [f.name for f in fields(RunConfig)])
def test_every_field_is_a_config_key_and_a_flag(field, tmp_path):
    key = KEY_SPELLINGS.get(field, field)
    text = STR_VALUES.get(field, "7" if field in INT_FIELDS else "0.25")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"problem = inflow_bump\nmethod = sat\n{key} = {text}\n")
    from_file, _ = assemble_config(build_parser().parse_args(["run", "--config", str(cfg)]))
    from_flag, _ = assemble_config(build_parser().parse_args(
        ["run", "--problem", "inflow_bump", "--method", "sat", "--" + key.replace("_", "-"), text]))
    assert from_file == from_flag
    value = getattr(from_file, field)
    assert value != getattr(RunConfig(problem="inflow_bump", method="sat"), field)
    assert type(value) is (str if field in STR_VALUES else int if field in INT_FIELDS else float)


@pytest.mark.parametrize("key", sorted(KEY_SPELLINGS))
def test_field_spellings_are_unknown_config_keys(key, tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{key} = 0.7\n")
    assert run_cli("run", "--config", str(cfg), "--problem", "acoustic", "--method", "sat",
                   "--out-dir", str(tmp_path / "out")) == 2
    assert json.loads(capsys.readouterr().err.strip())["message"] == f"unknown config key {key!r}"
