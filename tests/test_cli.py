"""Command-line interface tests."""

import pytest

from repro.__main__ import main


@pytest.fixture()
def program_file(tmp_path):
    path = tmp_path / "kernel.c"
    path.write_text(
        "int main(int n) { int s = 0;"
        " for (int i = 0; i < n; i++) { s += i * i; } return s; }"
    )
    return str(path)


def test_run_command(program_file, capsys):
    assert main(["run", program_file, "--flow", "handelc", "--args", "5"]) == 0
    out = capsys.readouterr().out
    assert "value      : 30" in out
    assert "cycles" in out
    assert "area" in out


def test_run_unclocked_flow(program_file, capsys):
    assert main(["run", program_file, "--flow", "cash", "--args", "5"]) == 0
    out = capsys.readouterr().out
    assert "unclocked" in out


def test_compile_to_stdout(program_file, capsys):
    assert main(["compile", program_file, "--flow", "c2verilog"]) == 0
    out = capsys.readouterr().out
    assert "module fsmd_main" in out


def test_compile_to_file(program_file, tmp_path, capsys):
    out_path = tmp_path / "out.v"
    assert main(["compile", program_file, "-o", str(out_path)]) == 0
    assert "module fsmd_main" in out_path.read_text()
    assert "wrote" in capsys.readouterr().out


def test_matrix_command(program_file, capsys):
    assert main(["matrix", program_file, "--args", "4"]) == 0
    out = capsys.readouterr().out
    assert "golden model: value = 14" in out
    assert "handelc" in out and "cash" in out
    assert "rejected" in out  # cones rejects the dynamic bound


def test_matrix_prints_per_cell_timing(program_file, capsys):
    assert main(["matrix", program_file, "--args", "4", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "time(ms)" in out
    assert "src" in out
    assert "fresh" in out
    assert "cells (" in out  # summary footer


def test_matrix_parallel_matches_serial(program_file, capsys):
    assert main(["matrix", program_file, "--args", "4", "--no-cache"]) == 0
    serial = capsys.readouterr().out
    assert main(["matrix", program_file, "--args", "4", "--no-cache",
                 "--jobs", "2"]) == 0
    parallel = capsys.readouterr().out

    def semantic(text):
        # Everything except volatile numeric columns (wall-clock times).
        rows = []
        for line in text.splitlines():
            cells = line.split()
            rows.append([c for c in cells
                         if not any(ch.isdigit() for ch in c)])
        return rows

    assert semantic(serial) == semantic(parallel)


def test_matrix_uses_cache_on_second_run(program_file, tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["matrix", program_file, "--args", "4",
                 "--cache-dir", cache_dir]) == 0
    first = capsys.readouterr().out
    assert "misses" in first
    assert main(["matrix", program_file, "--args", "4",
                 "--cache-dir", cache_dir]) == 0
    second = capsys.readouterr().out
    assert "cache" in second
    assert "0 misses" in second


def test_matrix_exits_nonzero_on_timeout(tmp_path, capsys):
    path = tmp_path / "slow.c"
    path.write_text(
        "int main() { int s = 0;"
        " for (int i = 0; i < 100000000; i++) { s += i; } return s; }"
    )
    assert main(["matrix", str(path), "--no-cache", "--timeout", "0.2"]) == 1
    assert "timeout" in capsys.readouterr().out


def test_sweep_subset(capsys):
    assert main(["sweep", "--no-cache", "--workloads", "gcd,fir8",
                 "--flows", "handelc,bachc"]) == 0
    out = capsys.readouterr().out
    assert "gcd" in out and "fir8" in out
    assert "handelc" in out and "bachc" in out
    assert "4 cells" in out


def test_sweep_rejects_unknown_flow(capsys):
    assert main(["sweep", "--flows", "no-such-flow"]) == 2
    assert "unknown flow" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["matrix", "FILE", "--opt-level", "7"],
    ["matrix", "FILE", "--opt-level", "-1"],
    ["sweep", "--opt-level", "4"],
])
def test_out_of_range_opt_level_exits_2(program_file, argv, capsys):
    argv = [str(program_file) if arg == "FILE" else arg for arg in argv]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "--opt-level" in capsys.readouterr().err


def test_fuzz_rejects_out_of_range_opt_levels(capsys):
    assert main(["fuzz", "--opt-levels", "0,9", "--seeds", "1"]) == 2
    assert "[0, 1, 2, 3]" in capsys.readouterr().err


def test_sweep_rejects_unknown_workload(capsys):
    assert main(["sweep", "--workloads", "no-such-workload"]) == 2
    assert "error" in capsys.readouterr().err


def test_sweep_warm_cache_replays(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    common = ["sweep", "--workloads", "gcd", "--cache-dir", cache_dir]
    assert main(common) == 0
    capsys.readouterr()
    assert main(common + ["--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "0 misses" in out
    assert "/ 0 fresh" in out  # every cell replayed from the cache


def test_table1_command(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Cones" in out and "CASH" in out
    assert "chronological" in out


def test_flows_command(capsys):
    assert main(["flows"]) == 0
    out = capsys.readouterr().out
    for key in ("cones", "handelc", "cash", "ocapi"):
        assert key in out


def test_rejection_exits_nonzero(tmp_path, capsys):
    path = tmp_path / "channels.c"
    path.write_text("chan<int> c; int main() { return recv(c); }")
    assert main(["run", str(path), "--flow", "cash"]) == 1
    assert "error" in capsys.readouterr().err


def test_globals_and_channels_printed(tmp_path, capsys):
    path = tmp_path / "prog.c"
    path.write_text(
        """
        chan<int> c;
        int g;
        process void p() { send(c, 7); }
        int main() { g = recv(c); return g; }
        """
    )
    assert main(["run", str(path), "--flow", "bachc"]) == 0
    out = capsys.readouterr().out
    assert "globals" in out and "'g': 7" in out
    assert "channels" in out
