"""The example scripts in scripts/, run in-process through `cli.guarded` as
their `__main__` blocks run them, and twice as subprocesses."""

import csv
import io
import os
import runpy
import subprocess
import sys

import pytest

from sparsebench.cli import guarded

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEQ = "synth:hold,t=20,n=32,hold=5,amp=1.0,seed=11"
SMALL_MAP = ["--size", "8", "--channels", "2", "--out-channels", "2"]


def run(script, argv, capsys):
    """(exit code, stdout, stderr) of one script's `main` under `guarded`."""
    main = runpy.run_path(os.path.join(ROOT, "scripts", script))["main"]
    code = guarded(main, argv)
    out, err = capsys.readouterr()
    return code, out, err


def _rows(text):
    return list(csv.reader(line for line in io.StringIO(text) if not line.startswith("#")))


def test_dram_asymmetry_prices_sorted_order_below_scattered(capsys):
    code, out, _ = run("dram_asymmetry.py", ["--words", "64"], capsys)
    assert code == 0
    assert out.startswith("n_words,random_vs_burst_ratio\n10,8.5000\n")
    assert "64 single-word reads over 64 rows:" in out and "sorting saves" in out


def test_sparsity_sweep_writes_one_row_per_level(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    code, out, _ = run("sparsity_efficiency_sweep.py",
                       SMALL_MAP + ["--levels", "0,0.5", "--out", str(out_csv)], capsys)
    assert (code, out) == (0, f"wrote {out_csv}\n")
    header, *rows = _rows(out_csv.read_text())
    assert header[:4] == ["sparsity", "efficiency_pct", "expected_pct", "compression_ratio"]
    assert [r[0] for r in rows] == ["0.00", "0.50"]
    assert rows[0][1:3] == ["100.00", "100.00"] and rows[0][3] == "0.9412"  # 16/17
    assert float(rows[1][1]) > 150.0


def test_theta_tradeoff_sweeps_the_demo_network(capsys):
    code, out, _ = run("theta_tradeoff.py", ["--input", SEQ, "--thetas", "0,0.0625"], capsys)
    assert code == 0
    header, zero, coarse = _rows(out)
    assert header[0] == "theta" and header[-2:] == ["weight_reduction_factor", "event_rate"]
    assert zero[:4] == ["0", "0", "0", "0"]
    assert float(coarse[-2]) > float(zero[-2]) > 1.0


def test_theta_tradeoff_names_the_demo_network_in_a_width_mismatch(capsys):
    uri = "synth:uniform,t=3,n=31"
    code, out, err = run("theta_tradeoff.py", ["--input", uri], capsys)
    assert (code, out) == (3, "")
    assert err == f"error: demo-gru: layer 0 takes 32 components per step, input {uri} gives 31\n"


def test_theta_tradeoff_needs_a_gru_network(tmp_path, capsys):
    net = tmp_path / "c.net"
    net.write_text("[conv]\nin_c = 2\nout_c = 2\nk = 3\nweights = synth:uniform\nbias = zero\n")
    code, out, err = run("theta_tradeoff.py", ["--net", str(net), "--input", SEQ], capsys)
    assert (code, out, err) == (3, "", "error: a theta sweep needs a gru network\n")


# Each list exited 0 with a header and no rows.
@pytest.mark.parametrize("script,argv", [
    ("theta_tradeoff.py", ["--input", SEQ, "--thetas", ","]),
    ("sparsity_efficiency_sweep.py", SMALL_MAP + ["--levels", ","])])
def test_an_empty_list_exits_2_naming_the_flag(capsys, script, argv):
    code, out, err = run(script, argv, capsys)
    assert (code, out, err) == (2, "", f"error: {argv[-2]}: empty list\n")


# Each ended in a FileNotFoundError traceback, exit 1.
@pytest.mark.parametrize("script,argv", [
    ("theta_tradeoff.py", ["--input", SEQ, "--thetas", "0"]),
    ("sparsity_efficiency_sweep.py", SMALL_MAP + ["--levels", "0"])])
def test_an_out_path_in_a_missing_directory_exits_4_naming_it(tmp_path, capsys, script, argv):
    bad = str(tmp_path / "none" / "x.csv")
    code, out, err = run(script, argv + ["--out", bad], capsys)
    assert (code, out) == (4, "")
    assert err == f"error: cannot write {bad}: No such file or directory\n"


@pytest.mark.parametrize("script,argv,code", [
    ("theta_tradeoff.py", ["--thetas", ","], 2),
    ("sparsity_efficiency_sweep.py", SMALL_MAP + ["--out", os.path.join("none", "x.csv")], 4)])
def test_the_main_block_exits_with_the_cli_code(tmp_path, script, argv, code):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script)] + argv,
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == code
    assert proc.stdout == "" and proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
