import hashlib
import json
import os
import subprocess
import sys

import pytest

import gtlab
from gtlab import harness, kernels
from gtlab.cli import main

# SHA-256 over `gtlab bounds` exit code, stdout and stderr for every n <= 20,
# d <= n + 1 and rho in {0.25, 0.5, 0.75}.
BOUNDS_OUTPUT_SHA256 = "375ea9d6e48011aa71bf255069bb70a922fab4fd8a9a19e2e4c12b7e0d639eb6"


def _capture(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_run_with_explicit_defectives(capsys):
    code, out = _capture(capsys, ["run", "--alg", "zd", "--n", "8", "--defectives", "2,5"])
    payload = json.loads(out)
    assert code == 0
    assert payload["ok"] is True
    assert payload["defectives"] == [2, 5]
    assert payload["tests_used"] >= 1
    assert "transcript" not in payload


def test_run_emits_transcript_on_request(capsys):
    code, out = _capture(
        capsys,
        ["run", "--alg", "zu", "--n", "6", "--defectives", "1,4", "--emit-transcript"],
    )
    payload = json.loads(out)
    assert code == 0
    assert len(payload["transcript"]["records"]) == payload["tests_used"]


def test_run_random_defectives_are_seeded(capsys):
    argv = ["run", "--alg", "zc", "--n", "20", "--d-random", "3", "--seed", "11"]
    _, out_a = _capture(capsys, argv)
    _, out_b = _capture(capsys, argv)
    assert out_a == out_b
    payload = json.loads(out_a)
    assert len(payload["defectives"]) == 3
    assert "plan" in payload


def test_run_seed_without_d_random_exits_2(capsys):
    code = main(["run", "--alg", "zd", "--n", "5", "--defectives", "1", "--seed", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: give --seed only with --d-random\n"


def test_run_d_random_without_seed_uses_seed_0(capsys):
    argv = ["run", "--alg", "zc", "--n", "20", "--d-random", "3"]
    assert _capture(capsys, argv) == _capture(capsys, [*argv, "--seed", "0"])


def test_run_pins_the_whole_plan_of_a_zc_run(capsys):
    # Two contaminated quarters in the first round, so the run reaches the
    # second round and every field of the plan is set.
    code, out = _capture(capsys, ["run", "--alg", "zc", "--n", "20", "--defectives", "0,5"])
    assert code == 0
    assert json.loads(out)["plan"] == {
        "n1": 5, "nR1": 0, "alpha1": 2, "n2": 2, "nR2": 2, "alpha2": 2,
    }


def test_run_flag_conflicts_exit_2(capsys):
    code, _ = _capture(
        capsys, ["run", "--alg", "zd", "--n", "4", "--defectives", "1", "--d-random", "1"]
    )
    assert code == 2
    code, _ = _capture(capsys, ["run", "--alg", "zd", "--n", "4"])
    assert code == 2
    code, _ = _capture(capsys, ["run", "--alg", "zd", "--n", "4", "--defectives", "7"])
    assert code == 2


def test_run_names_a_bad_defective_token(capsys):
    code = main(["run", "--alg", "zd", "--n", "4", "--defectives", "1,,2"])
    assert code == 2
    assert capsys.readouterr().err == "error: bad defective index ''\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--n", "4", "--defectives", "1,1"], "duplicate defective index"),
        (["--n", "5", "--d-random", "6"], "need 0 <= --d-random <= --n"),
    ],
    ids=["duplicate", "d-random-above-n"],
)
def test_run_rejects_a_defective_set_that_cannot_exist(capsys, flags, message):
    code = main(["run", "--alg", "zd", *flags])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_run_with_an_empty_defective_list_is_a_d0_run(capsys):
    code, out = _capture(capsys, ["run", "--alg", "zu", "--n", "5", "--defectives", ""])
    assert code == 0
    payload = json.loads(out)
    assert payload["defectives"] == []
    assert payload["ok"] is True


def test_worstcase_json(capsys):
    code, out = _capture(
        capsys, ["worstcase", "--alg", "zu", "--n", "9", "--d", "2"]
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["exact"] is True
    assert len(payload["argmax_defectives"]) == 2


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_worstcase_sampled_without_samples_exits_2(capsys, samples):
    code = main(
        ["worstcase", "--alg", "zu", "--n", "10", "--d", "3",
         "--mode", "sampled", "--samples", samples]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "need samples >= 1" in captured.err


def test_worstcase_sampled_refuses_more_samples_than_the_cap(capsys, monkeypatch):
    # Refused before a mask is drawn: no sample is taken.
    def no_draws(*args):
        raise AssertionError("drew a sample")

    monkeypatch.setattr(harness.random.Random, "sample", no_draws)
    code = main(
        ["worstcase", "--alg", "zu", "--n", "10", "--d", "3",
         "--mode", "sampled", "--samples", "10000001"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "10000001 samples exceed cap 10000000" in captured.err


@pytest.mark.parametrize(
    "extra",
    [
        ["--samples", "0"],
        ["--seed", "3"],
        ["--mode", "exhaustive", "--samples", "5"],
        ["--mode", "exact", "--samples", "5"],
    ],
)
def test_worstcase_sampling_options_without_sampled_mode_exit_2(capsys, extra):
    code = main(["worstcase", "--alg", "zu", "--n", "10", "--d", "3", *extra])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "only with --mode sampled" in captured.err


def test_worstcase_exact_mode(capsys):
    code, out = _capture(
        capsys, ["worstcase", "--alg", "zu", "--n", "20", "--d", "4", "--mode", "exact"]
    )
    assert code == 0
    payload = json.loads(out)
    # The exhaustive cell, from the step-driven DP.
    assert (payload["worst_tests"], payload["argmax_defectives"]) == (19, [4, 8, 9, 11])
    assert payload["exact"] is True


def test_worstcase_exact_mode_refuses_individual(capsys):
    code = main(["worstcase", "--alg", "individual", "--n", "10", "--d", "3", "--mode", "exact"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "individual's cells are n by construction" in captured.err


def test_verify_analysis_past_its_limit_exits_2_before_a_walk(capsys, monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("walked")

    monkeypatch.setattr(harness, "_walk_cells", no_walk)
    code = main(["verify", "--n-max", str(harness.MAX_ANALYSIS_N + 1)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--checks bounds,competitive,count" in captured.err


def test_verify_clean_grid_exits_zero(capsys, tmp_path):
    out_csv = tmp_path / "grid.csv"
    code, out = _capture(
        capsys, ["verify", "--n-max", "6", "--out", str(out_csv)]
    )
    assert code == 0
    report = json.loads(out)
    assert report["violations"] == []
    header = out_csv.read_text().splitlines()[0]
    assert header == "algorithm,n,d,worst_tests,bound_name,bound_value,pass"


def test_verify_exits_one_when_a_check_trips(capsys):
    code, out = _capture(
        capsys,
        ["verify", "--n-max", "9", "--algs", "zu", "--checks", "bounds,analysis"],
    )
    assert code == 1
    report = json.loads(out)
    assert report["violations"]


def test_verify_unknown_check_exits_2(capsys):
    code = main(["verify", "--n-max", "3", "--checks", "bogus"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "unknown check family 'bogus'" in captured.err


@pytest.mark.parametrize("checks", [",", ""])
def test_verify_empty_check_list_exits_2(capsys, checks):
    code = main(["verify", "--n-max", "3", "--checks", checks])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "at least one check family" in captured.err


@pytest.mark.parametrize("algs", [",", ""])
def test_verify_empty_algorithm_list_exits_2(capsys, algs):
    code = main(["verify", "--n-max", "3", "--algs", algs])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "at least one algorithm" in captured.err


def test_verify_selection_no_check_applies_to_exits_2(capsys):
    argv = ["verify", "--n-max", "3", "--algs", "individual", "--checks", "analysis"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "no check in analysis applies to individual" in captured.err


def test_verify_repeated_names_exit_2(capsys):
    argv = ["verify", "--n-max", "2", "--algs", "zu,zu", "--checks", "bounds,bounds"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "repeated algorithm 'zu'" in captured.err


@pytest.mark.parametrize(
    "out, reason", [("missing/x.csv", "no directory"), (".", "it is a directory")]
)
def test_verify_unwritable_out_exits_2_before_the_sweep(
    capsys, monkeypatch, tmp_path, out, reason
):
    def no_sweep(*args, **kwargs):
        raise AssertionError("swept the grid")

    monkeypatch.setattr(harness, "verify_grid", no_sweep)
    out_csv = tmp_path / out
    code = main(["verify", "--n-max", "2", "--checks", "bounds", "--out", str(out_csv)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out_csv}: {reason}")
    assert not (tmp_path / "missing").exists()


def test_verify_workers_match_serial_across_shards(capsys, monkeypatch):
    # The smallest n whose zu analysis spans two blocks. Tasks carry their
    # block size, so the workers need no patch.
    monkeypatch.setattr(kernels, "BLOCK", 1 << 8)
    n = kernels.BLOCK.bit_length()
    argv = ["verify", "--n-max", str(n), "--workers"]
    serial = _capture(capsys, argv + ["1"])
    parallel = _capture(capsys, argv + ["2"])
    assert serial[0] == 1
    assert parallel == serial


def test_verify_negative_workers_exits_2(capsys):
    code = main(["verify", "--n-max", "3", "--workers", "-1"])
    assert code == 2
    assert "workers >= 0" in capsys.readouterr().err


def test_verify_reports_are_stable(capsys):
    argv = ["verify", "--n-max", "5"]
    _, out_a = _capture(capsys, argv)
    _, out_b = _capture(capsys, argv)
    assert out_a == out_b


def test_oracle_prints_a_bare_integer(capsys):
    code, out = _capture(capsys, ["oracle", "--n", "4", "--d", "2"])
    assert code == 0
    assert out == "3\n"


def test_oracle_refusal_exits_2(capsys):
    code, _ = _capture(capsys, ["oracle", "--n", "12", "--d", "1"])
    assert code == 2


def test_oracle_rejects_d_above_n(capsys):
    code = main(["oracle", "--n", "3", "--d", "5"])
    assert code == 2
    assert capsys.readouterr().err == "error: need 0 <= d <= n\n"


def test_bounds_payload(capsys):
    code, out = _capture(capsys, ["bounds", "--n", "100", "--d", "10"])
    payload = json.loads(out)
    assert code == 0
    assert payload["best_lower_bound"] == 44.0
    by_name = {row["bound_name"]: row for row in payload["bounds"]}
    assert by_name["entropy"]["value"] == pytest.approx(43.73859531148444)
    assert by_name["dense-exact"]["applicable"] is False
    assert by_name["dense-exact"]["value"] is None


def test_bounds_output_is_pinned(capsys):
    digest = hashlib.sha256()
    for n in range(21):
        for d in range(n + 2):
            for rho in ("0.25", "0.5", "0.75"):
                code = main(["bounds", "--n", str(n), "--d", str(d), "--rho", rho])
                captured = capsys.readouterr()
                row = [n, d, rho, code, captured.out, captured.err]
                digest.update(json.dumps(row).encode())
    assert digest.hexdigest() == BOUNDS_OUTPUT_SHA256


def test_bounds_rejects_bad_input(capsys):
    code, _ = _capture(capsys, ["bounds", "--n", "4", "--d", "9"])
    assert code == 2


@pytest.mark.parametrize("rho", ["nan", "inf", "0", "1", "-0.5", "7"])
def test_bounds_rejects_rho_outside_the_open_unit_interval(capsys, rho):
    code = main(["bounds", "--n", "10", "--d", "3", "--rho", rho])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: need 0 < --rho < 1")


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv", [["verify", "--n-max", "8"], ["bounds", "--n", "8", "--d", "1"]]
)
def test_closed_stdout_exits_quietly_with_its_own_code(argv):
    # The reader closes the pipe before the command writes; a clean run
    # must neither print a traceback nor exit 1, the violation code.
    src = os.path.dirname(os.path.dirname(os.path.abspath(gtlab.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gtlab.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141  # 128 + SIGPIPE
    assert err == b""
