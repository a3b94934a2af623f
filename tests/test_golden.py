"""Golden CLI corpus: canonical stdout must stay byte-identical.

Each case runs one CLI command inside ``tests/golden`` (so file arguments,
and the instance names echoed in reports, are bare file names) and compares
its exit code and stdout with ``tests/golden/<case>.stdout``.  The expected
files were recorded once and are never regenerated by the suite: a refactor
that changes any of them changes canonical output.
"""

from pathlib import Path

import pytest

from cantordim.cli import main

GOLDEN = Path(__file__).parent / "golden"

# case name -> (argv, exit code)
CASES = {
    "dim_ce": (["dim", "ce.json", "--range", "1:24"], 0),
    "dim_ce_csv": (["dim", "ce.json", "--range", "1:16", "--format", "csv"], 0),
    "dim_blocks": (["dim", "blocks.json", "--range", "1:40"], 0),
    "dim_prod": (["dim", "prod.json", "--range", "1:12"], 0),
    "dim_sum": (["dim", "sum.json", "--range", "1:12"], 0),
    "dim_cyl": (["dim", "cyl.json", "--range", "1:10"], 0),
    "dim_hfn": (["dim", "ce.json", "--range", "1:12", "--hfn", "rhalf.json"], 0),
    "dim_hfn_csv": (["dim", "blocks.json", "--range", "1:20", "--hfn", "r1.json",
                     "--format", "csv"], 0),
    "dim_hfn_explicit": (["dim", "explicit_free.json", "--range", "1:10",
                          "--hfn", "harmonic.json"], 0),
    # rlog.json stops its table at n_max 40, so scales past 40 read deep samples
    "dim_hfn_log": (["dim", "ce.json", "--range", "1:48", "--hfn", "rlog.json"], 0),
    "measure_ce": (["measure", "ce.json", "r1.json", "--scale", "8",
                    "--depth", "16"], 0),
    "measure_fc": (["measure", "fc.json", "r1.json", "--scale", "0",
                    "--depth", "16"], 0),
    "measure_explicit": (["measure", "explicit_zeros.json", "rhalf.json",
                          "--scale", "2", "--depth", "12"], 0),
    "measure_cyl": (["measure", "cyl.json", "harmonic.json", "--scale", "3",
                     "--depth", "12"], 0),
    "verify_ec3": (["verify", "EC3"], 0),
    "verify_chain_ci": (["verify", "chain-ci"], 0),
    "verify_gamma_explicit": (["verify", "gamma_explicit.json", "--depth", "8"], 0),
    "verify_gamma_explicit_fail": (["verify", "gamma_explicit_fail.json",
                                    "--depth", "8"], 1),
    "verify_gamma_cylinders": (["verify", "gamma_cylinders.json", "--depth", "8"], 1),
    "verify_lambda_explicit": (["verify", "lambda_explicit.json", "--depth", "8",
                                "--groups", "6"], 0),
    "verify_lambda_cylinders": (["verify", "lambda_cylinders.json", "--depth", "8",
                                 "--groups", "6"], 1),
    "cover_build": (["cover", "build", "--set", "ce.json", "--hfn", "r1.json",
                     "--levels", "4", "--depth", "24"], 0),
    "cover_verify_gamma": (["cover", "verify", "--set", "ce.json",
                            "--cover", "cover_ce.json", "--depth", "16"], 0),
    "cover_verify_lambda": (["cover", "verify", "--set", "cyl.json",
                             "--cover", "lambda_cover_cyl.json", "--depth", "10",
                             "--groups", "2"], 0),
    "compile_me_r1": (["witness", "compile-me", "--hfn", "r1.json", "--k", "12"], 0),
    "compile_me_rhalf": (["witness", "compile-me", "--hfn", "rhalf.json",
                          "--k", "16"], 0),
    "compile_me_rlog": (["witness", "compile-me", "--hfn", "rlog.json", "--k", "6"], 0),
    "compile_nadd_r1": (["witness", "compile-nadd", "--hfn", "r1.json", "--k", "6"], 0),
    "compile_nadd_rhalf": (["witness", "compile-nadd", "--hfn", "rhalf.json",
                            "--k", "5"], 0),
    "compile_tprime_r1": (["witness", "compile-tprime", "--hfn", "r1.json",
                           "--k", "6"], 0),
    "compile_tprime_harmonic": (["witness", "compile-tprime", "--hfn",
                                 "harmonic.json", "--k", "3"], 0),
    "check_shelahm": (["witness", "check", "--witness", "wm.json",
                       "--x", "0101" * 4, "--range", "0:3"], 0),
    "check_shelahn": (["witness", "check", "--witness", "wn.json",
                       "--x", "00100110100101", "--range", "0:4"], 1),
    "check_tprime": (["witness", "check", "--witness", "wt.json",
                      "--x", "00100000100100", "--range", "0:5"], 1),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name, monkeypatch, capsys, tmp_path):
    argv, code = CASES[name]
    monkeypatch.chdir(GOLDEN)
    if name == "cover_build":
        argv = argv + ["--cover-out", str(tmp_path / "cover.json")]
    assert main(argv) == code
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()
    if name == "cover_build":
        # the cover file it writes is the one cover_verify_gamma reads
        assert (tmp_path / "cover.json").read_bytes() == (GOLDEN / "cover_ce.json").read_bytes()
