import json

import pytest

from girthmax import cli
from girthmax.btu import BinaryMatrix, Btu, write_alist
from girthmax.cli import _stderr_progress, emit_table_1, main, parse_args
from girthmax.perm import circulant, identity
from girthmax.search import SearchConfig, search_r3

from conftest import run_python

TABLE_2 = """\
g   n0(g,3)
4   6
6   14
8   30
10  62
12  126
14  254
"""

TABLE_3 = """\
g   lower  upper  improved_upper
4   3      15     8
6   7      63     32
8   15     255    128
10  31     1023   512
12  63     4095   2048
14  127    16383  8192
"""

TABLE_4 = """\
girth  min_N
6      5
8      9
10     39
12     97
"""

TABLE_5 = """\
girth  min_q  n     p  degree
6      5      120   2  3
8      11     1320  2  3
10     11     1320  2  3
12     13     2184  2  3
"""


def heawood_alist(tmp_path):
    path = tmp_path / "heawood.alist"
    path.write_text(write_alist(Btu([circulant(7, 0), circulant(7, 1), circulant(7, 3)])))
    return path


class TestParseArgs:
    def test_search_defaults(self):
        args = parse_args(["search", "--k", "7"])
        assert args.command == "search"
        assert args.k == 7 and args.b == 1
        assert args.strategy == "block"
        assert args.j_filter is True

    def test_bounds_table(self):
        args = parse_args(["bounds", "--table", "3"])
        assert args.command == "bounds" and args.table == 3

    def test_usage_error_exit_2(self, capsys):
        assert main(["search", "--k", "0"]) == 2
        assert "--k" in capsys.readouterr().err

    def test_missing_subcommand(self):
        assert main([]) == 2

    def test_bounds_requires_one_selector(self):
        assert main(["bounds"]) == 2
        assert main(["bounds", "--table", "2", "--gmax", "25", "3"]) == 2


class TestBoundsCommand:
    def test_table_2(self, capsys):
        assert main(["bounds", "--table", "2"]) == 0
        assert capsys.readouterr().out == TABLE_2

    def test_table_3(self, capsys):
        assert main(["bounds", "--table", "3"]) == 0
        assert capsys.readouterr().out == TABLE_3

    def test_table_5(self, capsys):
        assert main(["bounds", "--table", "5"]) == 0
        assert capsys.readouterr().out == TABLE_5

    def test_query(self, capsys):
        assert main(["bounds", "--query", "12", "3"]) == 0
        out = capsys.readouterr().out
        assert "hoory_per_side: 63" in out
        assert "lazebnik_per_side: 2187" in out

    def test_gmax(self, capsys):
        assert main(["bounds", "--gmax", "25", "3"]) == 0
        assert "claimed_ceiling: 8" in capsys.readouterr().out

    def test_gmax_rejects_r2(self, capsys):
        # [I_49, C_1] has girth 98, so a 2k - 2 = 96 ceiling would be false
        assert main(["bounds", "--gmax", "49", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: ValueError: the girth ceiling is only claimed for r >= 3" in captured.err

    def test_gmax_rejects_k_below_4(self, capsys):
        # Btu([C_0, C_1, C_3]) at m = 9 has girth 6, above 2k - 2 = 4
        assert main(["bounds", "--gmax", "9", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: ValueError: the girth ceiling is only claimed for k >= 4; m = 9 = 1*3^2" in captured.err

    def test_gmax_rejects_b_above_1(self, capsys):
        # the k = 4, b = 2 search reaches girth 8 at m = 32, above 2k - 2 = 6
        assert main(["bounds", "--gmax", "32", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: ValueError: the girth ceiling is only claimed for b = 1; m = 32 = 2*4^2" in captured.err

    def test_gmax_rejects_r_above_m(self, capsys):
        assert main(["bounds", "--gmax", "1", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: ValueError: no (1, 3) BTU exists: r = 3 exceeds m = 1" in captured.err

    def test_byte_identical_across_runs(self, capsys):
        main(["bounds", "--table", "5"])
        first = capsys.readouterr().out
        main(["bounds", "--table", "5"])
        assert capsys.readouterr().out == first


class TestTablesCommand:
    def test_table_2_only(self, capsys):
        assert main(["tables", "--which", "2"]) == 0
        out = capsys.readouterr().out
        assert out == "table 2: Moore bound n0(g,3)\n" + TABLE_2

    def test_static_tables(self, capsys):
        assert main(["tables", "--which", "2,3,4,5"]) == 0
        out = capsys.readouterr().out
        for chunk in (TABLE_2, TABLE_3, TABLE_4, TABLE_5):
            assert chunk in out

    def test_rejects_unknown_table(self, capsys):
        assert main(["tables", "--which", "7"]) == 1

    def test_max_k_below_5_is_a_usage_error(self, capsys):
        assert main(["tables", "--which", "1", "--max-k", "4"]) == 2
        assert "argument --max-k: must be >= 5, got 4" in capsys.readouterr().err

    def test_table_1_small(self, capsys):
        # only k=5: a sub-second search
        assert main(["tables", "--which", "1", "--max-k", "5"]) == 0
        out = capsys.readouterr().out
        assert "table 1: search results (r = 3)" in out
        assert "5  25  3  8" in out


class TestEmitTable1:
    def test_rows_k5_k6(self, capsys):
        text = emit_table_1(6)
        lines = text.splitlines()
        assert lines[0].split() == ["k", "m", "r", "girth"]
        assert lines[1].split() == ["5", "25", "3", "8"]
        assert lines[2].split() == ["6", "36", "3", "8"]

    def test_block_strategy_flagged(self, capsys, monkeypatch):
        # a computed girth that differs from the published one is still
        # emitted, and a note goes to stderr
        monkeypatch.setitem(cli.TABLE_GIRTHS, 5, 10)
        text = emit_table_1(5)
        assert text.splitlines()[1].split() == ["5", "25", "3", "8"]
        assert "differs from published 10" in capsys.readouterr().err

    def test_max_k_validation(self):
        with pytest.raises(ValueError):
            emit_table_1(4)


class TestGirthCommand:
    def test_heawood(self, tmp_path, capsys):
        path = heawood_alist(tmp_path)
        assert main(["girth", "--in", str(path)]) == 0
        assert capsys.readouterr().out == "girth: 6\n"

    def test_matching_is_infinite(self, tmp_path, capsys):
        path = tmp_path / "matching.alist"
        path.write_text(write_alist(Btu([identity(4)])))
        assert main(["girth", "--in", str(path)]) == 0
        assert capsys.readouterr().out == "girth: infinite\n"

    def test_non_square_irregular_alist(self, tmp_path, capsys):
        # an LDPC-style 5 x 6 check matrix with zero padding and an empty
        # row; rows 0, 1 and 2 close the only cycle, of length 6
        path = tmp_path / "ldpc.alist"
        path.write_text(
            "6 5\n2 3\n2 2 2 2 1 1\n2 2 3 3 0\n"
            "1 3\n1 2\n2 3\n3 4\n4 0\n4 0\n"
            "1 2 0\n2 3 0\n1 3 4\n4 5 6\n0 0 0\n"
        )
        assert main(["girth", "--in", str(path)]) == 0
        assert capsys.readouterr().out == "girth: 6\n"

    def test_missing_file_exit_1(self, capsys):
        assert main(["girth", "--in", "/nonexistent/x.alist"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.alist"
        path.write_text("3 3\n")
        assert main(["girth", "--in", str(path)]) == 1
        assert "MalformedAlist" in capsys.readouterr().err


class TestConvertCommand:
    def test_alist_to_dimacs_girth_agrees(self, tmp_path, capsys):
        src = heawood_alist(tmp_path)
        dst = tmp_path / "heawood.dimacs"
        assert main([
            "convert", "--in", str(src), "--out", str(dst),
            "--from", "alist", "--to", "dimacs",
        ]) == 0
        assert main(["girth", "--in", str(dst), "--format", "dimacs"]) == 0
        assert capsys.readouterr().out == "girth: 6\n"

    def test_round_trip_alist(self, tmp_path):
        src = heawood_alist(tmp_path)
        mid = tmp_path / "h.dense"
        back = tmp_path / "h2.alist"
        main(["convert", "--in", str(src), "--out", str(mid), "--from", "alist", "--to", "dense"])
        main(["convert", "--in", str(mid), "--out", str(back), "--from", "dense", "--to", "alist"])
        assert back.read_text() == src.read_text()

    def test_non_square_to_dimacs_exit_1(self, tmp_path, capsys):
        src = tmp_path / "wide.alist"
        src.write_text(write_alist(BinaryMatrix(1, 3, [(1, 2)])))
        dst = tmp_path / "wide.dimacs"
        assert main([
            "convert", "--in", str(src), "--out", str(dst),
            "--from", "alist", "--to", "dimacs",
        ]) == 1
        assert "error: ValueError: DIMACS needs a square matrix, got 1x3" in capsys.readouterr().err
        assert not dst.exists()


class TestSearchCommand:
    def test_k3_report(self, capsys):
        assert main(["search", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "best_girth: 6" in out
        assert "witness_j: 4" in out
        assert "k: 3" in out

    def test_k5_interleaved_reproduces(self, capsys):
        assert main(["search", "--k", "5", "--strategy", "interleaved"]) == 0
        assert "best_girth: 8" in capsys.readouterr().out

    def test_json_report(self, capsys):
        assert main(["search", "--k", "3", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["best_girth"] == 6
        assert data["m"] == 9
        assert set(data) == {
            "k", "b", "m", "strategy", "best_girth", "witness_q1", "witness_j",
            "candidates_evaluated", "skipped_incompatible", "elapsed_ms",
        }

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "best.alist"
        assert main(["search", "--k", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["girth", "--in", str(out)]) == 0
        assert capsys.readouterr().out == "girth: 6\n"

    def test_no_valid_shift_exit_1(self, capsys):
        assert main(["search", "--k", "2"]) == 1
        assert "NoValidShift" in capsys.readouterr().err

    def test_q1_rows_too_large_exit_1(self, capsys):
        # 29! * 29 image bytes overflow numpy's count before anything is allocated
        assert main(["search", "--k", "30", "--jobs", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: OverflowError: ")

    def test_q1_rows_out_of_memory_exit_1(self, capsys, monkeypatch):
        # k = 20 asks numpy for 2 EiB of q1 rows; stand in for that allocation
        from girthmax import _levels

        def refuse(n):
            raise MemoryError(f"Unable to allocate the {n}-point q1 rows")

        monkeypatch.setattr(_levels, "cycle_rows", refuse)
        assert main(["search", "--k", "20", "--jobs", "1"]) == 1
        err = capsys.readouterr().err
        assert err == "error: MemoryError: Unable to allocate the 20-point q1 rows\n"

    def test_jobs_does_not_change_report(self, capsys):
        main(["search", "--k", "4"])
        single = capsys.readouterr().out
        main(["search", "--k", "4", "--jobs", "2"])
        multi = capsys.readouterr().out
        strip = lambda text: [l for l in text.splitlines() if not l.startswith("elapsed_ms")]
        assert strip(single) == strip(multi)

    def test_env_var_jobs(self, capsys, monkeypatch):
        monkeypatch.setenv("GIRTHMAX_JOBS", "2")
        assert main(["search", "--k", "4"]) == 0
        assert "best_girth:" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_bad_env_var_jobs_is_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("GIRTHMAX_JOBS", value)
        assert main(["search", "--k", "4"]) == 2
        err = capsys.readouterr().err
        assert "GIRTHMAX_JOBS" in err and repr(value) in err
        assert main(["tables", "--which", "2"]) == 2
        capsys.readouterr()
        # subcommands without --jobs do not read the variable
        assert main(["bounds", "--table", "2"]) == 0

    def test_crashed_worker_is_runtime_error(self):
        code = "from girthmax.cli import main\nsys.exit(main(['search', '--k', '5', '--jobs', '2']))\n"
        proc = run_python(code, dying_workers=True)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: BrokenProcessPool: "), proc.stderr
        assert "Traceback" not in proc.stderr

    def test_crashed_engine_worker_is_runtime_error(self):
        # k = 7 (21,600 candidates) runs on the level engine
        code = "from girthmax.cli import main\nsys.exit(main(['search', '--k', '7', '--jobs', '2']))\n"
        proc = run_python(code, dying_workers=True)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: BrokenProcessPool: "), proc.stderr
        assert "Traceback" not in proc.stderr


def test_progress_reported_for_any_k(capsys):
    search_r3(SearchConfig(k=4), progress=_stderr_progress(interval=0.0))
    lines = capsys.readouterr().err.splitlines()
    assert lines and all(line.startswith("progress: ") for line in lines)
    assert lines[-1] == "progress: 24/24 candidates, best girth 6"


def test_progress_ends_at_the_total_after_an_early_exit(capsys):
    # k = 5 interleaved reaches its girth ceiling before its last shift
    search_r3(SearchConfig(k=5, strategy="interleaved"), progress=_stderr_progress(interval=0.0))
    lines = capsys.readouterr().err.splitlines()
    assert lines[-1] == "progress: 288/288 candidates, best girth 8"
