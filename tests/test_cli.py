from pathlib import Path

import pytest

from gfdmsim.cli import main

EXPECTED = Path(__file__).parent / "expected"

BASE_CFG = (
    "scheme = proposed_dirichlet\n"
    "K = 8\nM = 2\nT = 2\nR = 2\n"
    "snr_db = 0, 10\n"
    "n_channels = 3\nn_blocks = 3\n"
)


def write_cfg(tmp_path, text=BASE_CFG):
    path = tmp_path / "sim.cfg"
    path.write_text(text)
    return str(path)


def test_simulate_writes_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "results.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "snr_db,scheme,filter,K,M,T,R,ser,errors,symbols,"
        "cm_sqrd,cm_sic,cm_sd_avg,sd_nodes_avg,total_cm_avg"
    )
    assert len(lines) == 3
    assert "wrote" in capsys.readouterr().out


def test_simulate_reruns_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_flag_overrides(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "o.csv"
    code = main(
        ["simulate", "--config", cfg, "--scheme", "baseline_rc(0.9)",
         "--snr", "6", "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[0] == "6"
    assert row[1] == "baseline_rc"
    assert row[2] == "rc(0.9)"
    # --out is an override like the others: it beats the config's out, is
    # taken as given ('#' starts no comment), and empty means the default
    configured = tmp_path / "configured.csv"
    cfg = write_cfg(tmp_path, BASE_CFG + f"out = {configured}\n")
    hashed = tmp_path / "a#b.csv"
    assert main(["simulate", "--config", cfg, "--snr", "6", "--out", str(hashed)]) == 0
    assert hashed.exists() and not configured.exists()
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", cfg, "--snr", "6", "--out", ""]) == 0
    assert (tmp_path / "results.csv").exists() and not configured.exists()


def test_simulate_rejects_bad_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "scheme = warp\n" + BASE_CFG.split("\n", 1)[1])
    assert main(["simulate", "--config", cfg]) == 2
    assert "unknown scheme" in capsys.readouterr().err
    assert main(["simulate", "--config", write_cfg(tmp_path), "--seed", "-1"]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    # an SNR point whose noise power overflows is rejected up front
    assert main(["simulate", "--config", write_cfg(tmp_path), "--snr=-4000"]) == 2
    err = capsys.readouterr().err
    assert "error: snr_db points must be at least -300 dB or +inf, got -4000.0" in err
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(BASE_CFG.encode() + b"# \xff\n")
    assert main(["simulate", "--config", str(binary)]) == 2
    assert f"error: {binary}: not UTF-8 text (cannot decode byte 0xff)" in capsys.readouterr().err


def test_simulate_rejects_missing_output_directory(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert main(["simulate", "--config", write_cfg(tmp_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"output directory '{out.parent}' does not exist" in captured.err
    assert captured.out == ""  # rejected before the sweep ran


def test_simulate_rejects_output_path_that_is_a_directory(tmp_path, capsys):
    out_dir = tmp_path / "results"
    out_dir.mkdir()
    assert main(["simulate", "--config", write_cfg(tmp_path), "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert f"output path '{out_dir}' is a directory" in captured.err
    assert captured.out == ""  # rejected before the sweep ran
    # the same for a config whose 'out' key names a directory
    cfg = write_cfg(tmp_path, BASE_CFG + f"out = {out_dir}\n")
    assert main(["simulate", "--config", cfg]) == 2
    assert "is a directory" in capsys.readouterr().err


def test_simulate_gates_full_scale(tmp_path, capsys):
    text = (
        "scheme = proposed_dirichlet\nK = 256\nM = 4\nT = 2\nR = 2\n"
        "snr_db = 10\nn_channels = 1\nn_blocks = 1\n"
    )
    cfg = write_cfg(tmp_path, text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert "--large" in capsys.readouterr().err


def test_simulate_large_flag_runs_full_scale_proposed(tmp_path, capsys):
    # the proposed receiver is cheap even at K = 256; only the full-matrix
    # baseline is painful, so this completes quickly
    text = (
        "scheme = proposed_dirichlet\nK = 256\nM = 4\nT = 2\nR = 2\n"
        "snr_db = 10\nn_channels = 1\nn_blocks = 1\n"
    )
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--large"]) == 0
    assert "full scale" in capsys.readouterr().err
    assert out.exists()


def test_complexity_subcommand(capsys):
    assert main(["complexity", "--scheme", "proposed", "-K", "256", "-M", "4", "-T", "2", "-R", "2"]) == 0
    out = capsys.readouterr().out
    assert "cm_sqrd=154624" in out
    assert "cm_sic=0" in out


def test_complexity_rejects_unknown_scheme(capsys):
    assert main(["complexity", "--scheme", "zf", "-K", "8", "-M", "2", "-T", "2", "-R", "2"]) == 2
    assert "error" in capsys.readouterr().err


def test_verify_subcommand(capsys):
    assert main(["verify", "--channels", "3"]) == 0
    out = capsys.readouterr().out
    assert "max residual" in out
    # the default 100-channel run, byte for byte
    assert main(["verify"]) == 0
    assert capsys.readouterr().out == (EXPECTED / "verify.txt").read_text()


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--channels", "0"], "--channels must be at least 1, got 0"),
        (["--channels", "-3"], "--channels must be at least 1, got -3"),
        (["--seed", "-1"], "--seed must be at least 0, got -1"),
    ],
    ids=["channels_zero", "channels_negative", "seed_negative"],
)
def test_verify_rejects_bad_flags(capsys, flags, message):
    assert main(["verify", *flags]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "max residual" not in captured.out
