from pathlib import Path

import pytest

from iptsim import cli, harness
from iptsim.cli import main

ROOT = Path(__file__).resolve().parent.parent

BASELINE = """
link.gap = 0.05
tx.bit_rate = 250
sim.duration_s = 2.0
sim.master_seed = 42
script.0 = 0.0 25.0 1450 230.0 1.5
"""


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(BASELINE, encoding="utf-8")
    return path


def test_brg_subcommand(capsys):
    assert main(["brg", "--fosc", "4e6", "--baud", "9600", "--brgh"]) == 0
    out = capsys.readouterr().out
    assert "X=25" in out
    assert "+0.160%" in out


def test_brg_out_of_range_exit_code(capsys):
    assert main(["brg", "--fosc", "4e6", "--baud", "100"]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("fosc", ["inf", "0", "nan"])
def test_brg_bad_fosc_exit_code(capsys, fosc):
    assert main(["brg", "--fosc", fosc, "--baud", "9600"]) == 1
    assert "config error: fosc must be finite and positive" in capsys.readouterr().err


def test_run_unreadable_config_exit_code(tmp_path, capsys):
    assert main(["run", str(tmp_path)]) == 1
    assert "config error" in capsys.readouterr().err


def test_run_unwritable_trace_exit_code(cfg_file, tmp_path, capsys):
    assert main(["run", str(cfg_file), "--trace", str(tmp_path)]) == 1
    assert "config error" in capsys.readouterr().err


def test_run_subcommand(cfg_file, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", str(cfg_file)]) == 0
    out = capsys.readouterr().out
    assert "sessions: 2" in out
    assert "delivered: 4 (100.0%)" in out
    trace = Path(tmp_path / "scenario_trace.csv")
    assert trace.exists()
    text = trace.read_text(encoding="utf-8")
    assert text.startswith("time_s,stage,value,unit\n")
    assert "\r" not in text


def test_run_reproduces_the_committed_baseline_trace(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    assert main(["run", str(ROOT / "configs" / "baseline.cfg"), "--trace", str(trace)]) == 0
    assert trace.read_bytes() == (ROOT / "results" / "baseline_trace.csv").read_bytes()


def test_sweep_reproduces_the_first_committed_gap_points(tmp_path, capsys):
    # A point's seed depends only on its index, so the first two points of the
    # committed 17-point sweep come out alone byte for byte.
    out = tmp_path / "gap.csv"
    assert main(["sweep", str(ROOT / "configs" / "baseline.cfg"), "--var", "gap",
                 "--values", "0,0.01", "--bits", "10000", "--out", str(out)]) == 0
    committed = (ROOT / "results" / "gap_sweep.csv").read_bytes()
    assert out.read_bytes() == b"".join(committed.splitlines(keepends=True)[:3])


def test_run_bad_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("link.gap = wider\n", encoding="utf-8")
    assert main(["run", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err


def test_run_zero_bit_rate_exit_code(tmp_path, capsys):
    bad = tmp_path / "zero.cfg"
    bad.write_text(BASELINE.replace("tx.bit_rate = 250", "tx.bit_rate = 0"),
                   encoding="utf-8")
    assert main(["run", str(bad)]) == 1
    assert "bit_rate" in capsys.readouterr().err


def test_run_unreachable_baud_exit_code(tmp_path, capsys):
    bad = tmp_path / "slow.cfg"
    bad.write_text(BASELINE.replace("tx.bit_rate = 250", "tx.bit_rate = 100"),
                   encoding="utf-8")
    assert main(["run", str(bad)]) == 1
    assert "usart.spbrg" in capsys.readouterr().err


def test_run_late_script_start_exit_code(tmp_path, capsys):
    bad = tmp_path / "late.cfg"
    bad.write_text(BASELINE.replace("script.0 = 0.0", "script.0 = 2.0"), encoding="utf-8")
    assert main(["run", str(bad)]) == 1
    assert "script must start at or before 0 s" in capsys.readouterr().err


def test_run_session_longer_than_poll_interval_exit_code(tmp_path, capsys):
    bad = tmp_path / "busy.cfg"
    bad.write_text(BASELINE + "sim.poll_interval_s = 0.1\n", encoding="utf-8")
    assert main(["run", str(bad)]) == 1
    assert "poll_interval" in capsys.readouterr().err


def test_sweep_subcommand_stdout(cfg_file, capsys):
    assert main(["sweep", str(cfg_file), "--var", "gap",
                 "--values", "0.0,0.05", "--bits", "1000"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "var,bits,errors,ber,frames_sent,frames_delivered"
    assert len(lines) == 3


def test_sweep_to_file(cfg_file, tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    assert main(["sweep", str(cfg_file), "--var", "noise_rms",
                 "--values", "0.0", "--bits", "1000",
                 "--out", str(out_path)]) == 0
    assert out_path.read_text(encoding="utf-8").count("\n") == 2


@pytest.mark.parametrize("var,values", [("link.c_tank", "2.5330296e-7,2.8e-7"),
                                        ("rx.envelope_order", "1,2")])
def test_sweep_any_key(cfg_file, capsys, var, values):
    # Values parse by the key's type, so an integer key takes "1,2".
    assert main(["sweep", str(cfg_file), "--var", var,
                 "--values", values, "--bits", "1000"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 3


def test_sweep_unknown_key_exit_code(cfg_file, capsys):
    assert main(["sweep", str(cfg_file), "--var", "noise",
                 "--values", "0.0", "--bits", "1000"]) == 1
    assert "'noise'" in capsys.readouterr().err


def test_sweep_of_a_key_no_point_reads_exit_code(cfg_file, capsys, monkeypatch):
    def no_run_line(*args, **kwargs):
        raise AssertionError("a point ran for a key that no point reads")

    monkeypatch.setattr(harness, "run_line", no_run_line)
    assert main(["sweep", str(cfg_file), "--var", "snr_db",
                 "--values", "0,20", "--bits", "1000"]) == 1
    assert "sim.snr_db: cannot be swept" in capsys.readouterr().err


def test_sweep_bad_value_exits_before_any_point(cfg_file, capsys, monkeypatch):
    def no_run_line(*args, **kwargs):
        raise AssertionError("a point ran before every value was checked")

    monkeypatch.setattr(harness, "run_line", no_run_line)
    assert main(["sweep", str(cfg_file), "--var", "gap",
                 "--values", "0.05,abc", "--bits", "1000"]) == 1
    assert "link.gap" in capsys.readouterr().err


def test_maxrate_no_feasible_rate_exit_code(tmp_path, capsys):
    cfg = tmp_path / "dead.cfg"
    # 0.5 m of air gap: nothing gets through at any rate.
    cfg.write_text(BASELINE.replace("link.gap = 0.05", "link.gap = 0.5"),
                   encoding="utf-8")
    assert main(["maxrate", str(cfg), "--ber", "1e-3",
                 "--bits-per-probe", "200"]) == 2
    assert "no feasible rate" in capsys.readouterr().err


@pytest.mark.parametrize("bits", ["0", "-5"])
def test_maxrate_bad_probe_size_exit_code(cfg_file, capsys, bits):
    assert main(["maxrate", str(cfg_file), "--bits-per-probe", bits]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "bits_per_probe" in err


def test_maxrate_reports_rate(cfg_file, capsys):
    # Small probes keep this a smoke test; the acceptance suite runs the
    # full-accuracy search.
    assert main(["maxrate", str(cfg_file), "--ber", "1e-3",
                 "--bits-per-probe", "300"]) == 0
    out = capsys.readouterr().out
    assert "max data rate:" in out


@pytest.mark.parametrize("result,line", [
    (harness.MaxRateResult(413, 7),
     "max data rate: 413 bit/s (search resolution 7 bit/s, BER ceiling 0.001)"),
    (harness.MaxRateResult(1000, 0),
     "max data rate: 1000 bit/s (capped at the carrier limit carrier/10, "
     "not a measured limit, BER ceiling 0.001)"),
])
def test_maxrate_flags_a_result_capped_at_the_carrier_limit(cfg_file, capsys, monkeypatch,
                                                           result, line):
    # Resolution 0 means the carrier limit passed, so the search never found
    # the link's own limit; the uncapped line keeps its text.
    monkeypatch.setattr(cli, "max_data_rate", lambda cfg, ber, bits_per_probe: result)
    assert main(["maxrate", str(cfg_file), "--ber", "1e-3"]) == 0
    assert capsys.readouterr().out == line + "\n"
