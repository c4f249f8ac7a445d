from baryeval.bench import read_csv
from baryeval.cli import main


def test_verify_subcommand(capsys):
    code = main(["verify", "--shapes", "tri", "--orders", "2..3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out and "all checks passed" in out


def test_verify_rejects_bad_order(capsys):
    assert main(["verify", "--shapes", "tri", "--orders", "1..3"]) == 2


def test_unknown_shape_is_usage_error(capsys):
    assert main(["verify", "--shapes", "blob"]) == 2


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_bench_and_speedup(tmp_path, capsys):
    out_csv = tmp_path / "bench.csv"
    code = main(["bench", "--shapes", "segment", "--orders", "4..5",
                 "--reps", "2", "--out", str(out_csv)])
    assert code == 0
    with open(out_csv) as fh:
        records = read_csv(fh)
    # 2 orders x 3 methods x 3 quantities
    assert len(records) == 18
    capsys.readouterr()
    speed_csv = tmp_path / "speedup.csv"
    code = main(["speedup", "--in", str(out_csv), "--out", str(speed_csv)])
    assert code == 0
    lines = speed_csv.read_text().strip().splitlines()
    assert lines[0] == "shape,order,quantity,speedup"
    assert len(lines) == 1 + 6  # one ratio row per (order, quantity)


def test_bench_and_speedup_to_stdout(tmp_path, capsys):
    code = main(["bench", "--shapes", "segment", "--orders", "4",
                 "--reps", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("shape,order,method,quantity")
    csv_path = tmp_path / "b.csv"
    csv_path.write_text(out)
    assert main(["speedup", "--in", str(csv_path)]) == 0
    assert capsys.readouterr().out.startswith("shape,order,quantity,speedup")


def test_speedup_missing_file_is_usage_error(tmp_path, capsys):
    assert main(["speedup", "--in", str(tmp_path / "nope.csv")]) == 2


def test_locate_subcommand(capsys):
    code = main(["locate", "--shape", "tet", "--order", "3",
                 "--target=-0.5,-0.5,-0.5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "converged:  True" in out


def test_locate_dimension_mismatch(capsys):
    assert main(["locate", "--shape", "tet", "--target=0.0,0.0"]) == 2


def test_locate_non_finite_target(capsys):
    assert main(["locate", "--shape", "tri", "--order", "3", "--target=inf,0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err


def test_locate_non_numeric_target_is_usage_error(capsys):
    assert main(["locate", "--shape", "tri", "--target=a,0"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "--target" in err
