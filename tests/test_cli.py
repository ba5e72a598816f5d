import json

import pytest

from gtlab.cli import main


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


def test_run_flag_conflicts_exit_2(capsys):
    code, _ = _capture(
        capsys, ["run", "--alg", "zd", "--n", "4", "--defectives", "1", "--d-random", "1"]
    )
    assert code == 2
    code, _ = _capture(capsys, ["run", "--alg", "zd", "--n", "4"])
    assert code == 2
    code, _ = _capture(capsys, ["run", "--alg", "zd", "--n", "4", "--defectives", "7"])
    assert code == 2


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


def test_verify_negative_workers_exits_2(capsys):
    code = main(["verify", "--n-max", "3", "--workers", "-1"])
    assert code == 2
    assert "workers >= 0" in capsys.readouterr().err


def test_verify_non_integer_env_workers_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("GTLAB_WORKERS", "2.5")
    code = main(["verify", "--n-max", "3"])
    assert code == 2
    assert "GTLAB_WORKERS" in capsys.readouterr().err


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


def test_bounds_payload(capsys):
    code, out = _capture(capsys, ["bounds", "--n", "100", "--d", "10"])
    payload = json.loads(out)
    assert code == 0
    assert payload["best_lower_bound"] == 44.0
    by_name = {row["bound_name"]: row for row in payload["bounds"]}
    assert by_name["entropy"]["value"] == pytest.approx(43.73859531148444)
    assert by_name["dense-exact"]["applicable"] is False
    assert by_name["dense-exact"]["value"] is None


def test_bounds_rejects_bad_input(capsys):
    code, _ = _capture(capsys, ["bounds", "--n", "4", "--d", "9"])
    assert code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
