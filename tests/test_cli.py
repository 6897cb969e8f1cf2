"""End-to-end CLI tests: the exit-code contract, the JSON and DOT reports,
the files each subcommand writes, and the package's public names."""
import json
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import treeclust
from treeclust import cli, explainable, explanation
from helpers import neighbour_pairs

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

        # cmd_check looks the checker up in its module when it runs
        monkeypatch.setattr(explanation, "check_explainable", broken)
        assert cli.main(["check", sep_csv]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: internal:")
        assert "AssertionError: DP survivors are not explainable" in err

    def test_unexpected_exception_exits_three(self, sep_csv, monkeypatch, capsys):
        # any bug, not only a failed self-check, is an internal failure
        def broken(*args, **kwargs):
            raise KeyError(7)

        monkeypatch.setattr(explainable, "solve_dp", broken)
        assert cli.main(["fit", sep_csv, "--k", "2"]) == 3
        assert capsys.readouterr().err == "error: internal: KeyError: 7\n"

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

    def test_byte_order_mark_before_header(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with a byte order mark
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbf" + "cluster,x1\n1,0\n2,9\n".encode())
        proc = run_cli("check", str(p))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["input"] == {"path": str(p), "n": 2, "d": 1, "k": 2}

    def test_blank_lines_are_skipped(self, tmp_path):
        p = tmp_path / "blank.csv"
        p.write_text(SEP_CSV + "\n")
        proc = run_cli("check", str(p))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["input"]["n"] == 4

    @pytest.mark.parametrize("text", [
        SEP_CSV + ",\n",  # two empty fields are not a blank line
        SEP_CSV + "\n5,5\n",
        "x1,x2,cluster\n\n",
    ])
    def test_short_or_missing_rows_exit_two(self, tmp_path, text):
        p = tmp_path / "short.csv"
        p.write_text(text)
        proc = run_cli("check", str(p))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: {p}:")

    @pytest.mark.parametrize("encoding", ["utf-16", "latin-1"])
    def test_non_utf8_file_exits_two(self, tmp_path, encoding):
        p = tmp_path / "wide.csv"
        # read as UTF-8, the same text would pass
        p.write_bytes("température,cluster\n0.5,1\n9,2\n".encode(encoding))
        proc = run_cli("check", str(p))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: {p}: not UTF-8 text")

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


def _json_nests(depth):
    """Whether json.dumps, called as cli._report calls it, nests ``depth``
    levels in this interpreter."""
    obj = 0
    for _ in range(depth):
        obj = {"left": obj}
    try:
        json.dumps(obj, indent=2)
    except RecursionError:
        return False
    return True


class TestDeepTree:
    """1,200 clusters of two neighbours: greedy's tree is 1,199 levels deep."""

    @pytest.fixture(scope="class")
    def pairs_csv(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("deep") / "pairs.csv")
        cli.write_csv(path, neighbour_pairs(1200), "cluster", int)
        return path

    def test_check(self, pairs_csv):
        proc = run_cli("check", pairs_csv)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["result"]["explainable"] is True

    def test_explain_dot(self, pairs_csv):
        proc = run_cli("explain", pairs_csv, "--method", "greedy", "--format", "dot")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("digraph tree {")
        assert proc.stdout.count("->") == 2 * 1199

    def test_explain_json_refused(self, pairs_csv):
        """Refused where json nests only as deep as the recursion limit (its
        pure-Python encoder, which indent selects before CPython 3.13), and
        written where json nests the tree (3.13's C encoder)."""
        proc = run_cli("explain", pairs_csv, "--method", "greedy")
        if _json_nests(1300):
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout)["tree"]["k"] == 1200
            return
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert re.fullmatch(
            r"error: the tree is too deep for a JSON report: json nests fewer than \d+ levels; "
            r"use --format dot\n", proc.stderr)


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

    def test_mapping_onto_output_is_refused(self, sep_csv, tmp_path):
        # the mapping JSON would overwrite the kernel CSV it maps
        out = tmp_path / "kern.csv"
        alias = tmp_path / "sub" / ".." / "kern.csv"
        (tmp_path / "sub").mkdir()
        for mapping in (out, alias):
            proc = run_cli("kernel", sep_csv, "--budget", "1", "--output", str(out),
                           "--mapping", str(mapping))
            assert proc.returncode == 2
            assert "same file" in proc.stderr
            assert proc.stdout == ""
            assert sorted(p.name for p in tmp_path.iterdir()) == ["sep.csv", "sub"]


@pytest.mark.parametrize("target", ["kernel-output", "kernel-mapping", "gen-output"])
def test_unwritable_path_exits_two(tmp_path, sep_csv, target):
    # every file the CLI writes goes through one writer with one message
    bad = str(tmp_path / "missing" / "out")
    argv = {
        "kernel-output": ["kernel", sep_csv, "--budget", "0", "--output", bad],
        "kernel-mapping": ["kernel", sep_csv, "--budget", "0", "--output",
                           str(tmp_path / "kern.csv"), "--mapping", bad],
        "gen-output": ["gen", "--shape", "xor", "--k", "2", "--per-cluster", "2",
                       "--dim", "2", "--output", bad],
    }[target]
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: cannot write {bad}:")
    assert not (tmp_path / "kern.csv").exists()  # no kernel CSV without its mapping


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

    def test_label_column_ignored_for_coordinates(self, sep_csv, tmp_path):
        # fit and baseline neither use the label column as a coordinate nor
        # parse its values, so labels that are names do not stop them
        named = tmp_path / "named.csv"
        named.write_text(SEP_CSV.replace(",1\n", ",a\n").replace(",2\n", ",b\n"))
        for path in (sep_csv, str(named)):
            for cmd in ("fit", "baseline"):
                proc = run_cli(cmd, path, "--k", "2")
                assert proc.returncode == 0, proc.stderr
                report = json.loads(proc.stdout)
                assert report["input"]["d"] == 2

    @pytest.mark.parametrize("argv", [
        ["fit", "--k", "2", "--method", "dp"],
        ["fit", "--k", "2", "--method", "approx", "--epsilon", "0.5"],
        ["baseline", "--k", "2"],
        ["fit", "--k", "1", "--method", "dp"],
        ["fit", "--k", "1", "--method", "approx", "--epsilon", "0.5"],
        ["fit", "--k", "3", "--method", "dp"],
        ["fit", "--k", "3", "--method", "branch"],
    ])
    def test_overflowing_cost_exits_two(self, tmp_path, argv):
        # every 1-, 2- or 3-clustering, the 2-clusterings with or without one
        # group dropped, merges two of the four groups, so its exact cost
        # (about 1e400) overflows a float
        p = tmp_path / "big.csv"
        p.write_text("x1\n-1e200\n-1e200\n0\n0\n1e200\n1e200\n2e200\n2e200\n")
        proc = run_cli(argv[0], str(p), *argv[1:])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and "too large" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("method", ["dp", "branch"])
    def test_overflowing_leaves_leave_the_finite_optimum(self, tmp_path, method):
        # some 3-clusterings cost about 1e400; the optimum costs nothing
        p = tmp_path / "big.csv"
        p.write_text("x1\n-1e200\n-1e200\n1e200\n1e200\n0\n")
        proc = run_cli("fit", str(p), "--k", "3", "--method", method)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["result"]["cost"] == 0.0

    def test_approx_drops_the_point_that_overflows(self, tmp_path):
        # keeping 0 with either 1e200 group would cost about 1e400; the
        # grid tree that drops it costs nothing
        p = tmp_path / "big.csv"
        p.write_text("x1\n1e200\n-1e200\n1e200\n0\n")
        proc = run_cli("fit", str(p), "--k", "2", "--method", "approx", "--epsilon", "0.5")
        assert proc.returncode == 0
        result = json.loads(proc.stdout)["result"]
        assert result["cost"] == 0.0
        assert result["removed"] == [3]

    def test_approx_removal_self_check(self, tmp_path, monkeypatch, capsys):
        # a search that drops every point breaks the bound of epsilon * n
        search = explainable._split_search

        def drop_all(ds, k, kind, nprime=0):
            cost, root, _ = search(ds, k, kind, nprime)
            return cost, root, (1 << ds.n) - 1

        monkeypatch.setattr(explainable, "_split_search", drop_all)
        p = tmp_path / "pts.csv"
        p.write_text("x1\n0\n1\n10\n11\n")
        ds = treeclust.Dataset.from_rows([[0], [1], [10], [11]])
        with pytest.raises(AssertionError, match="removal bound"):
            explainable.solve_approx(ds, 2, treeclust.CostKind.MEANS, 0.5)
        assert cli.main(["fit", str(p), "--k", "2", "--method", "approx", "--epsilon", "0.5"]) == 3
        err = capsys.readouterr().err
        assert err == "error: internal: AssertionError: approx removal bound violated\n"


    def test_wall_time_covers_only_the_solver(self, tmp_path, monkeypatch, capsys):
        # routing the points through the tree is output, not solve time
        p = tmp_path / "pts.csv"
        p.write_text(PTS_CSV)
        kept = cli._kept

        def slow_kept(*args):
            time.sleep(0.3)
            return kept(*args)

        monkeypatch.setattr(cli, "_kept", slow_kept)
        argv = ["fit", str(p), "--k", "2", "--method", "approx", "--epsilon", "0.5"]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["wall_time_s"] < 0.3


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

    @pytest.mark.parametrize("cost", ["nan", "inf", "-inf"])
    def test_non_finite_explainable_cost_exits_two(self, tmp_path, cost):
        p = tmp_path / "pts.csv"
        p.write_text("x1\n0\n1\n10\n11\n")
        proc = run_cli("baseline", str(p), "--k", "2", f"--explainable-cost={cost}")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: --explainable-cost must be finite\n"

    def test_overflowing_ratio_exits_two(self, tmp_path):
        # the baseline costs 1e-320 / 2, so the ratio overflows a float and
        # JSON, which has no infinity, cannot hold it
        p = tmp_path / "pts.csv"
        p.write_text("x1\n0\n1e-160\n1\n")
        proc = run_cli("baseline", str(p), "--k", "2", "--explainable-cost", "1e300")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: a reported number is not finite")


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

    @pytest.mark.parametrize(
        "shape, separation", [("uniform", "nan"), ("xor", "inf"), ("separated", "inf")]
    )
    def test_non_finite_separation_exits_two(self, tmp_path, shape, separation):
        out = tmp_path / "g.csv"
        proc = run_cli(
            "gen", "--shape", shape, "--k", "2", "--per-cluster", "2", "--dim", "2",
            "--separation", separation, "--output", str(out),
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: --separation must be finite\n"
        assert not out.exists()


def test_readme_cli_examples(tmp_path):
    # each `treeclust` line of README's CLI block runs as written, in order,
    # in one directory; `check` may answer either way
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("treeclust ")]
    assert lines
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        out = None
        if ">" in argv:
            at = argv.index(">")
            argv, out = argv[:at], argv[at + 1]
        proc = run_cli(*argv, cwd=tmp_path)
        assert proc.returncode in ((0, 1) if argv[0] == "check" else (0,)), (line, proc.stderr)
        if out is not None:
            (tmp_path / out).write_text(proc.stdout)


class TestDotSizes:
    def test_explain_dot_counts_kept_points(self, tmp_path, capsys):
        # greedy removes 5 of these 15 uniform points
        inst = str(tmp_path / "u15.csv")
        gen = ["gen", "--shape", "uniform", "--k", "3", "--per-cluster", "5",
               "--dim", "2", "--seed", "0", "--output", inst]
        assert cli.main(gen) == 0
        capsys.readouterr()
        assert cli.main(["explain", inst]) == 0
        removed = json.loads(capsys.readouterr().out)["result"]["removed_count"]
        assert removed == 5
        assert cli.main(["explain", inst, "--format", "dot"]) == 0
        dot = capsys.readouterr().out
        sizes = [int(part.split('"')[0]) for part in dot.split("size=")[1:]]
        assert len(sizes) == 3
        assert sum(sizes) == 15 - removed


def test_gen_reports_measured_time(tmp_path, capsys):
    argv = ["gen", "--shape", "separated", "--k", "2", "--per-cluster", "3",
            "--dim", "2", "--output", str(tmp_path / "g.csv")]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["wall_time_s"] > 0.0


# Golden reports: every subcommand and variant run in process on small
# fixed inputs. The expected exit code, stdout (JSON parsed, without the
# run-dependent wall_time_s; DOT as text), stderr and written files are in
# cli_golden.json.
LABELED_CSV = (
    "x1,x2,cluster\n4,2,2\n5,2,1\n5,5,3\n5,4,3\n0,3,2\n"
    "1,5,2\n0,1,1\n0,2,1\n3,1,2\n3,4,3\n"
)  # greedy removes 3 points, the optimum 2
PTS_CSV = "x1,x2\n0,0\n1,0\n0,1\n5,5\n6,5\n5,7\n9,0\n9,1\n"
LINE31_CSV = "x1,cluster\n" + "".join(f"{i},{1 if i < 15 else 2}\n" for i in range(31))
GOLDEN_INPUTS = {
    "sep.csv": SEP_CSV,
    "xor.csv": XOR_CSV,
    "labeled.csv": LABELED_CSV,
    "pts.csv": PTS_CSV,
    "line31.csv": LINE31_CSV,
}
GOLDEN_CASES = {
    "check-yes": ["check", "sep.csv"],
    "check-no": ["check", "xor.csv"],
    "explain-greedy": ["explain", "labeled.csv"],
    "explain-greedy-dot": ["explain", "labeled.csv", "--format", "dot"],
    "explain-exact": ["explain", "labeled.csv", "--method", "exact", "--budget", "2"],
    "explain-exact-dot": ["explain", "labeled.csv", "--method", "exact", "--budget", "2",
                          "--format", "dot"],
    "explain-exact-infeasible": ["explain", "labeled.csv", "--method", "exact",
                                 "--budget", "1"],
    "explain-exact-infeasible-dot": ["explain", "xor.csv", "--method", "exact",
                                     "--budget", "0", "--format", "dot"],
    "explain-exact-no-budget": ["explain", "xor.csv", "--method", "exact"],
    "explain-exact-refused": ["explain", "line31.csv", "--method", "exact", "--budget", "1"],
    "explain-exact-forced": ["explain", "line31.csv", "--method", "exact", "--budget", "1",
                             "--force"],
    "kernel": ["kernel", "line31.csv", "--budget", "0", "--output", "kern.csv"],
    "kernel-mapping": ["kernel", "labeled.csv", "--budget", "1", "--output", "kern.csv",
                       "--mapping", "map.json"],
    "fit-dp": ["fit", "pts.csv", "--k", "3", "--method", "dp"],
    "fit-dp-dot": ["fit", "pts.csv", "--k", "3", "--format", "dot"],
    "fit-branch-medians": ["fit", "pts.csv", "--k", "3", "--method", "branch",
                           "--cost", "medians"],
    "fit-approx": ["fit", "pts.csv", "--k", "2", "--method", "approx", "--epsilon", "0.5"],
    "fit-approx-dot": ["fit", "pts.csv", "--k", "2", "--method", "approx", "--epsilon", "0.5",
                       "--format", "dot"],
    "fit-approx-exact": ["fit", "pts.csv", "--k", "2", "--method", "approx",
                         "--epsilon", "0.2"],
    "fit-approx-no-epsilon": ["fit", "pts.csv", "--k", "2", "--method", "approx"],
    "fit-k-out-of-range": ["fit", "pts.csv", "--k", "9"],
    "fit-refused": ["fit", "line31.csv", "--k", "9", "--method", "branch"],
    "baseline": ["baseline", "pts.csv", "--k", "3", "--seed", "1"],
    "baseline-ratio": ["baseline", "pts.csv", "--k", "3", "--seed", "1",
                       "--explainable-cost", "20"],
    "baseline-k-out-of-range": ["baseline", "pts.csv", "--k", "0"],
    "gen-separated": ["gen", "--shape", "separated", "--k", "3", "--per-cluster", "3",
                      "--dim", "2", "--seed", "1", "--output", "gen.csv"],
    "gen-xor": ["gen", "--shape", "xor", "--k", "2", "--per-cluster", "2", "--dim", "3",
                "--seed", "1", "--output", "gen.csv"],
    "gen-uniform": ["gen", "--shape", "uniform", "--k", "2", "--per-cluster", "3",
                    "--dim", "1", "--seed", "2", "--output", "gen.csv"],
    "gen-xor-k3": ["gen", "--shape", "xor", "--k", "3", "--per-cluster", "2", "--dim", "2",
                   "--output", "gen.csv"],
    "oracle-explainable": ["oracle", "explainable", "pts.csv", "--k", "2"],
    "oracle-explanation": ["oracle", "explanation", "labeled.csv", "--budget", "2"],
    "oracle-explanation-infeasible": ["oracle", "explanation", "labeled.csv", "--budget", "1"],
    "oracle-unconstrained": ["oracle", "unconstrained", "pts.csv", "--k", "3",
                             "--cost", "medians"],
}


def run_golden_case(argv, workdir: Path, capsys) -> dict:
    """Run one CLI call in workdir (the current directory) and collect what
    it produced."""
    for name, text in GOLDEN_INPUTS.items():
        (workdir / name).write_text(text)
    code = cli.main(argv)
    out, err = capsys.readouterr()
    if out.startswith("{"):
        out = json.loads(out)
        assert out.pop("wall_time_s") >= 0.0
    files = {
        p.name: p.read_text()
        for p in sorted(workdir.iterdir())
        if p.name not in GOLDEN_INPUTS
    }
    return {"code": code, "stdout": out, "stderr": err, "files": files}


@pytest.mark.parametrize("case", list(GOLDEN_CASES))
def test_golden_report(case, tmp_path, monkeypatch, capsys):
    golden = json.loads(Path(__file__).with_name("cli_golden.json").read_text())
    monkeypatch.chdir(tmp_path)
    assert run_golden_case(GOLDEN_CASES[case], tmp_path, capsys) == golden[case]


class TestPublicSurface:
    def test_all_is_pinned_and_resolves(self):
        assert sorted(treeclust.__all__) == [
            "ApproxResult", "Box", "Clustering", "CostKind", "Cut", "Dataset",
            "ExplainableResult", "ExplanationResult", "Internal", "Leaf",
            "LimitExceededError", "LloydResult", "Point", "ThresholdTree", "TreeNode",
            "TreeShape", "best_cut", "box_members", "brute_explainable",
            "brute_explanation", "brute_unconstrained", "canonical_thresholds",
            "centroid", "check_explainable", "cluster_cost", "cut_apply",
            "enumerate_shapes", "exact_explain", "gen_separated", "gen_uniform",
            "gen_xor", "greedy_explain", "kernelize", "lloyd_baseline", "opt_explain",
            "shape_leaf_count", "solve_approx", "solve_branching", "solve_dp",
            "tree_evaluate", "tree_from_json_obj", "tree_from_shape", "tree_to_dot",
            "tree_to_json_obj", "validate_tree",
        ]
        for name in treeclust.__all__:
            assert getattr(treeclust, name) is not None

    def test_cli_imports_no_solver_module_up_front(self):
        code = ("import sys, treeclust.cli; "
                "print(' '.join(sorted(m for m in sys.modules if m.startswith('treeclust'))))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.stdout.split() == [
            "treeclust", "treeclust.cli", "treeclust.core", "treeclust.serialize", "treeclust.tree",
        ]

    def test_no_module_loads_dataclasses_or_inspect(self):
        # start-up: dataclasses loads inspect, ast, dis and tokenize
        code = ("import sys, treeclust.cli, treeclust.core, treeclust.tree, treeclust.serialize, "
                "treeclust.explanation, treeclust.explainable, treeclust.generate, treeclust.oracle; "
                "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
        # -S: no site hooks, whose imports belong to the environment, not the package
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []

    def test_help_exits_zero(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: treeclust")

    @pytest.mark.parametrize(
        "argv", [["cluster", "a.csv"], ["fit", "a.csv"]], ids=["unknown-command", "missing-k"]
    )
    def test_usage_error_exits_two(self, argv):
        proc = run_cli(*argv)
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage: treeclust")
