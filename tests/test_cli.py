"""End-to-end CLI tests via subprocess (exit-code contract and JSON output)."""
import json
import subprocess
import sys

import pytest

from treeclust import cli

SEP_CSV = "x1,x2,cluster\n0,0,1\n1,1,1\n10,0,2\n11,1,2\n"
XOR_CSV = "x1,x2,cluster\n0,0,1\n1,1,1\n0,1,2\n1,0,2\n"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "treeclust", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture
def sep_csv(tmp_path):
    p = tmp_path / "sep.csv"
    p.write_text(SEP_CSV)
    return str(p)


@pytest.fixture
def xor_csv(tmp_path):
    p = tmp_path / "xor.csv"
    p.write_text(XOR_CSV)
    return str(p)


class TestCheck:
    def test_explainable_exits_zero(self, sep_csv):
        proc = run_cli("check", sep_csv)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["result"]["explainable"] is True
        assert report["input"] == {"path": sep_csv, "n": 4, "d": 2, "k": 2}

    def test_xor_exits_one(self, xor_csv):
        proc = run_cli("check", xor_csv)
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["result"]["explainable"] is False

    def test_internal_failure_exits_three(self, sep_csv, monkeypatch, capsys):
        # a failed self-check is not a negative answer (exit 1)
        def broken(cl):
            raise AssertionError("DP survivors are not explainable")

        monkeypatch.setattr(cli, "check_explainable", broken)
        assert cli.main(["check", sep_csv]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: internal:")
        assert "AssertionError: DP survivors are not explainable" in err

    def test_missing_file_exits_two(self):
        proc = run_cli("check", "no-such-file.csv")
        assert proc.returncode == 2
        assert proc.stderr.strip()

    def test_missing_label_column_exits_two(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x1,x2\n0,0\n1,1\n")
        proc = run_cli("check", str(p))
        assert proc.returncode == 2

    def test_gap_in_labels_exits_two(self, tmp_path):
        p = tmp_path / "gap.csv"
        p.write_text("x1,cluster\n0,1\n1,3\n")
        proc = run_cli("check", str(p))
        assert proc.returncode == 2

    def test_custom_label_column(self, tmp_path):
        p = tmp_path / "named.csv"
        p.write_text("a,b,grp\n0,0,1\n9,9,2\n")
        proc = run_cli("check", str(p), "--label-col", "grp")
        assert proc.returncode == 0


class TestExplain:
    def test_greedy_on_explainable(self, sep_csv):
        proc = run_cli("explain", sep_csv, "--method", "greedy")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["result"]["removed"] == []
        assert "tree" in report

    def test_exact_infeasible_exits_one(self, xor_csv):
        proc = run_cli("explain", xor_csv, "--method", "exact", "--budget", "0")
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["result"]["feasible"] is False

    def test_exact_feasible(self, xor_csv):
        proc = run_cli("explain", xor_csv, "--method", "exact", "--budget", "2")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["result"]["removed_count"] == 2

    def test_exact_without_budget_exits_two(self, xor_csv):
        proc = run_cli("explain", xor_csv, "--method", "exact")
        assert proc.returncode == 2

    def test_dot_format(self, sep_csv):
        proc = run_cli("explain", sep_csv, "--format", "dot")
        assert proc.returncode == 0
        assert proc.stdout.startswith("digraph tree {")


class TestKernel:
    def test_writes_kernel_and_mapping(self, tmp_path):
        src = tmp_path / "big.csv"
        rows = ["x1,x2,cluster"]
        for i in range(100):
            rows.append(f"{i},{(i * 7) % 100},{1 if i < 50 else 2}")
        src.write_text("\n".join(rows) + "\n")
        out = tmp_path / "kern.csv"
        proc = run_cli("kernel", str(src), "--budget", "1", "--output", str(out))
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["result"]["kernel_size"] <= 16  # 2(s+1)dk = 2*2*2*2
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "x1,x2,cluster"
        assert len(lines) - 1 == report["result"]["kernel_size"]
        mapping = json.loads((tmp_path / "kern.csv.mapping.json").read_text())
        assert len(mapping) == report["result"]["kernel_size"]


class TestFit:
    def test_dp_cost(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("x1\n0\n1\n10\n11\n")
        proc = run_cli("fit", str(p), "--k", "2", "--method", "dp")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["result"]["cost"] == pytest.approx(1.0)

    def test_k1_whole_cost(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("x1\n0\n1\n")
        proc = run_cli("fit", str(p), "--k", "1")
        assert json.loads(proc.stdout)["result"]["cost"] == pytest.approx(0.5)

    def test_k_too_large_exits_two(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("x1\n0\n1\n")
        proc = run_cli("fit", str(p), "--k", "5")
        assert proc.returncode == 2

    def test_approx_matches_branch_when_nprime_zero(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("x1\n0\n1\n10\n11\n")
        a = run_cli("fit", str(p), "--k", "2", "--method", "approx", "--epsilon", "0.3")
        b = run_cli("fit", str(p), "--k", "2", "--method", "branch")
        assert a.returncode == 0 and b.returncode == 0
        assert json.loads(a.stdout)["result"]["cost"] == json.loads(b.stdout)["result"]["cost"]

    def test_label_column_ignored_for_coordinates(self, sep_csv):
        proc = run_cli("fit", sep_csv, "--k", "2")
        report = json.loads(proc.stdout)
        assert report["input"]["d"] == 2  # cluster column not treated as a coordinate


class TestBaseline:
    def test_ratio_reported(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("x1\n0\n1\n10\n11\n")
        proc = run_cli(
            "baseline", str(p), "--k", "2", "--seed", "3", "--explainable-cost", "1.0"
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["result"]["cost"] == pytest.approx(1.0)
        assert report["result"]["ratio"] == pytest.approx(1.0)

    def test_zero_cost_ratio_sentinel(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("x1\n0\n7\n")
        proc = run_cli(
            "baseline", str(p), "--k", "2", "--seed", "0", "--explainable-cost", "0.0"
        )
        assert json.loads(proc.stdout)["result"]["ratio"] == "n/a"


class TestGen:
    def test_separated_then_check(self, tmp_path):
        out = tmp_path / "g.csv"
        proc = run_cli(
            "gen", "--shape", "separated", "--k", "2", "--per-cluster", "5",
            "--dim", "2", "--seed", "1", "--output", str(out),
        )
        assert proc.returncode == 0
        assert run_cli("check", str(out)).returncode == 0

    def test_xor_then_check(self, tmp_path):
        out = tmp_path / "g.csv"
        run_cli(
            "gen", "--shape", "xor", "--k", "2", "--per-cluster", "2",
            "--dim", "2", "--seed", "1", "--output", str(out),
        )
        assert run_cli("check", str(out)).returncode == 1

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run_cli(
                "gen", "--shape", "uniform", "--k", "3", "--per-cluster", "4",
                "--dim", "2", "--seed", "42", "--output", str(out),
            )
        assert a.read_bytes() == b.read_bytes()
