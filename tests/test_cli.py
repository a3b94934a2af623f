import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cantordim
from cantordim import cli, hfun
from cantordim.cli import main
from cantordim.hfun import power_hfn
from cantordim.measures import hausdorff_measure_delta
from cantordim.specio import MAX_SET_NESTING, canonical_json
from cantordim.treeset import FullCube


@pytest.fixture
def specs(tmp_path):
    paths = {}
    for name, payload in {
        "fc": {"kind": "full_cube"},
        "ce": {"kind": "ci", "I": {"preperiod": "", "period": "10"}},
        "r1": {"symbolic": {"s": "1", "t": "0"}},
        "rhalf": {"symbolic": {"s": "1/2", "t": "0"}},
        "bad": {"kind": "bogus"},
    }.items():
        p = tmp_path / f"{name}.json"
        p.write_text(canonical_json(payload))
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def cli_env(**extra):
    """This process's environment with the package's ``src`` directory on
    PYTHONPATH, for ``python -m cantordim.cli`` subprocesses."""
    src = str(Path(cantordim.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_measure_fullcube(specs, capsys):
    code, out, _ = run(["measure", specs["fc"], specs["r1"],
                        "--scale", "0", "--depth", "16"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["lower"] == "1" and payload["upper"] == "1"
    assert payload["limits"]["depth"] == 16


def test_measure_ci_upper(specs, capsys):
    code, out, _ = run(["measure", specs["ce"], specs["r1"],
                        "--scale", "8", "--depth", "8"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["upper"] == "1/16"  # 2^-|8 cap evens|


def test_measure_deep_depth(specs, capsys):
    code, out, _ = run(["measure", specs["ce"], specs["r1"],
                        "--depth", "3000"], capsys)
    assert code == 0
    assert json.loads(out)["upper"] == f"1/{2 ** 1500}"  # 2^-|3000 cap evens|


def test_log_gauge_content_stays_level_past_its_table(specs, capsys):
    # N is 2^48 at n = 96 and 97; r^(1/10) log^2 is clamped to nonincreasing
    # in its table (to 96), and its samples past the table keep that clamp
    path = specs["dir"] / "g.json"
    path.write_text(canonical_json({"symbolic": {"s": "1/10", "t": 2}}))
    code, out, _ = run(["dim", specs["ce"], "--range", "95:98", "--hfn",
                        str(path)], capsys)
    assert code == 0
    rows = {r["n"]: r for r in json.loads(out)["rows"]}
    assert rows[96]["N"] == rows[97]["N"]
    contents = [Fraction(rows[n]["N_times_h"]) / int(rows[n]["N"])
                for n in range(95, 99)]
    assert contents == sorted(contents, reverse=True)


def test_measure_precision_reaches_the_gauge(specs, tmp_path, capsys):
    argv = ["measure", specs["fc"], specs["rhalf"], "--scale", "3", "--depth", "6"]
    uppers = {}
    for bits in (64, 128):
        code, out, _ = run(argv + ["--precision", str(bits)], capsys)
        payload = json.loads(out)
        assert code == 0 and payload["limits"]["precision"] == bits
        gauge = power_hfn(Fraction(1, 2), precision=bits)
        want = hausdorff_measure_delta(FullCube(), gauge, 3, 6)
        assert payload["upper"] == str(want.upper)
        uppers[bits] = payload["upper"]
    assert uppers[64] != uppers[128]
    assert run(argv, capsys)[1] == run(argv + ["--precision", "128"], capsys)[1]
    # a gauge that sets precision_bits keeps it
    pinned = tmp_path / "pinned.json"
    pinned.write_text(canonical_json({"symbolic": {"s": "1/2", "t": "0"},
                                      "precision_bits": 128}))
    argv[2] = str(pinned)
    code, out, _ = run(argv + ["--precision", "64"], capsys)
    assert json.loads(out)["upper"] == uppers[128]


def test_measure_bad_spec(specs, capsys):
    code, _, err = run(["measure", specs["bad"], specs["r1"]], capsys)
    assert code == 2 and "unknown set kind" in err


def test_dim_csv_deterministic(specs, capsys):
    code, out1, _ = run(["dim", specs["ce"], "--range", "1:16",
                         "--format", "csv"], capsys)
    assert code == 0
    code, out2, _ = run(["dim", specs["ce"], "--range", "1:16",
                         "--format", "csv"], capsys)
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "n,N,log2N_over_n"
    assert lines[2] == "2,2,0.500000"


def test_dim_content_sequence_csv(specs, capsys):
    code, out, _ = run(["dim", specs["ce"], "--range", "1:8", "--hfn",
                        specs["r1"], "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,N,N_times_h"
    assert lines[2] == "2,2,1/2"  # N(2^-2) = 2, times 2^-2


def test_dim_json_closed_form(specs, capsys):
    code, out, _ = run(["dim", specs["ce"], "--range", "1:32"], capsys)
    payload = json.loads(out)
    assert payload["closed_form"]["complement_density_lower"] == "1/2"


def test_dim_budget_blowout(specs, tmp_path, capsys):
    big = tmp_path / "bigsum.json"
    base = {"kind": "ci", "I": {"preperiod": "", "period": "10"}}
    spec = base
    for _ in range(6):
        spec = {"kind": "sumset", "a": spec,
                "b": {"kind": "explicit", "tail": "free",
                      "words": [f"{i:08b}" for i in range(0, 256, 3)]}}
    big.write_text(canonical_json(spec))
    # the sumset collapses to one state per depth after depth 8, so only a
    # range deeper than the budget makes one sweep exceed it
    code, _, err = run(["dim", str(big), "--range", "1:256", "--budget", "200"],
                       capsys)
    assert code == 3 and "budget" in err
    code, _, _ = run(["dim", str(big), "--range", "1:256"], capsys)
    assert code == 0


def test_dim_deep_range(specs, capsys):
    code, out, _ = run(["dim", specs["ce"], "--range", "1:600"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 600 and rows[-1] == {
        "N": str(2 ** 300), "log2N_over_n": "0.500000", "n": 600}


def nested_spec(levels, inner='{"kind":"full_cube"}', kind="union"):
    """A set spec nesting `inner` `levels` deep, built as text so that no
    JSON encoder recursion limits how deep it goes."""
    for _ in range(levels):
        if kind == "union":
            inner = '{"kind":"union","members":[%s]}' % inner
        else:
            inner = '{"kind":"%s","a":%s,"b":{"kind":"full_cube"}}' % (kind, inner)
    return inner


@pytest.mark.parametrize("levels", [600, 5000])
def test_deeply_nested_spec_is_input_error(tmp_path, levels):
    path = tmp_path / "deep.json"
    path.write_text(nested_spec(levels))
    proc = subprocess.run(
        [sys.executable, "-m", "cantordim.cli", "dim", str(path), "--range", "1:3"],
        capture_output=True, text=True, env=cli_env())
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("input error:")
    assert "Traceback" not in proc.stderr


EXPLICIT_01 = '{"kind":"explicit","words":["01","10"],"tail":"zeros"}'


@pytest.mark.parametrize("inner, levels, cover, extra, code, err", [
    # the deepest accepted nesting, an unknown field ignored: verifies
    ('{"kind":"explicit","words":["01","10"],"note":"x"}', MAX_SET_NESTING,
     ["0", "1"], [], 0, ""),
    # the same nesting under a cover that misses a point: fails
    (EXPLICIT_01, MAX_SET_NESTING, ["0", "11"], [], 1, ""),
    # one level too deep, a bad kind deep inside, a member without its kind
    (EXPLICIT_01, MAX_SET_NESTING + 1, ["0", "1"], [], 2,
     "input error: set spec nests deeper than"),
    ('{"kind":"bogus"}', 40, ["0", "1"], [], 2, "input error: unknown set kind"),
    ('{"words":["01"]}', 40, ["0", "1"], [], 2, "input error: missing field"),
    # a nested sumset whose cover check outgrows the budget
    (nested_spec(12, EXPLICIT_01, "sumset"), 4, [f"{i:04b}" for i in range(16)],
     ["--budget", "8"], 3, "resource limit:"),
])
def test_nested_spec_exit_codes(tmp_path, capsys, inner, levels, cover, extra,
                                code, err):
    path = tmp_path / "inst.json"
    path.write_text('{"check":"cover-gamma","cover":%s,"set":%s}'
                    % (json.dumps([{"cyl": w, "group": 0} for w in cover]),
                       nested_spec(levels, inner)))
    got, out, stderr = run(["verify", str(path), "--depth", "4"] + extra, capsys)
    assert got == code and stderr.startswith(err)
    if code < 2:
        assert json.loads(out)["status"] == ("pass" if code == 0 else "fail")
    else:
        assert out == ""
    if "deeper than" in err:  # the message names the offending path
        assert "(at set" + ".members[0]" * (MAX_SET_NESTING + 1) + ")" in stderr


def test_deepest_nested_sumset_evaluates(specs, tmp_path):
    # a sumset takes the most stack per nesting level when stepped; the
    # deepest accepted spec must still run inside the default recursion limit
    spec = nested_spec(MAX_SET_NESTING, EXPLICIT_01, "sumset")
    set_path, inst_path = tmp_path / "set.json", tmp_path / "inst.json"
    set_path.write_text(spec)
    inst_path.write_text('{"check":"cover-gamma","cover":[{"cyl":"0","group":0},'
                         '{"cyl":"1","group":0}],"set":%s}' % spec)
    for argv in (["dim", str(set_path), "--range", "1:6"],
                 ["measure", str(set_path), specs["rhalf"], "--scale", "2",
                  "--depth", "8"],
                 ["verify", str(inst_path), "--depth", "6"]):
        proc = subprocess.run([sys.executable, "-m", "cantordim.cli"] + argv,
                              capture_output=True, text=True, env=cli_env())
        assert proc.returncode == 0 and proc.stderr == "", argv


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name, gauge, rng", [
    # N * h past the int-to-str digit limit: a huge power, a huge log power
    ("ce", {"symbolic": {"s": 100000}}, "1:4"),
    ("ce", {"symbolic": {"s": "1", "t": 100}}, "1:4"),
    # a sample past 2^26 bits is refused when it is first read, a root of
    # order 2^70 when the gauge is made: neither can even be shifted
    ("ce", {"symbolic": {"s": 1180591620717411303424}}, "1:4"),
    ("ce", {"symbolic": {"s": "1/1180591620717411303424"}}, "1:4"),
    # the count N itself
    ("fc", None, "14990:15000"),
])
def test_numbers_too_long_to_print_are_a_resource_limit(specs, capsys, fmt,
                                                         name, gauge, rng):
    argv = ["dim", specs[name], "--range", rng, "--format", fmt]
    if gauge is not None:
        path = specs["dir"] / "huge.json"
        path.write_text(json.dumps(gauge))
        argv += ["--hfn", str(path)]
    code, out, err = run(argv, capsys)
    assert (code, out) == (3, "")
    assert err.startswith("resource limit: number too long to print")


def test_dim_builds_only_the_gauge_samples_it_reads(specs, capsys, monkeypatch):
    # a gauge is sampled on demand, so its declared n_max costs nothing
    built = []
    sample = hfun._Grid.sample
    monkeypatch.setattr(hfun._Grid, "sample",
                        lambda grid, n: built.append(n) or sample(grid, n))
    path = specs["dir"] / "deep.json"
    path.write_text(json.dumps({"symbolic": {"s": "1/2", "t": 1}, "n_max": 10 ** 6}))
    code, _, _ = run(["dim", specs["ce"], "--range", "1:4", "--hfn", str(path)], capsys)
    assert code == 0 and 0 < len(built) <= 10


DEEP_MISS = [f"0{i:03b}" for i in range(8)] + ["10", "110", "1110"]


@pytest.mark.parametrize("words, depth, budget, code", [
    # only the leaf 1111 is missed; the sweep reaches it after expanding the
    # 11 nodes of depths 0-3 that lie over a longer word
    (DEEP_MISS, 4, 10, 3),
    (DEEP_MISS, 4, 11, 1),
    # nothing lies under 0, which the sweep sees at depth 1, after one node
    (["110"], 3, 1, 1),
])
def test_failing_cover_check_under_a_small_budget(tmp_path, capsys, words,
                                                  depth, budget, code):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"check": "cover-gamma", "set": {"kind": "full_cube"},
                                "cover": [{"cyl": w, "group": 0} for w in words]}))
    got, out, err = run(["verify", str(path), "--depth", str(depth),
                         "--budget", str(budget)], capsys)
    assert got == code
    if code == 1:
        assert json.loads(out)["status"] == "fail"
    else:
        assert err.startswith("resource limit:")


def test_verify_builtins(specs, capsys):
    code, out, _ = run(["verify", "EC3"], capsys)
    assert code == 0 and json.loads(out)["status"] == "pass"
    code, out, _ = run(["verify", "chain-fullcube", "--scale", "0",
                        "--depth", "16"], capsys)
    assert code == 0
    detail = json.loads(out)["detail"]
    assert detail["H_lower"] == detail["H_upper"] == "1"
    code, out, _ = run(["verify", "howroyd-i"], capsys)
    assert code == 0


def test_verify_file_and_corruption(specs, tmp_path, capsys):
    good = tmp_path / "inst.json"
    good.write_text(canonical_json({
        "check": "cover-gamma",
        "set": {"kind": "explicit", "words": ["0000"], "tail": "zeros"},
        "cover": [{"cyl": "0", "group": 0}, {"cyl": "00", "group": 1}],
    }))
    code, out, _ = run(["verify", str(good), "--depth", "6"], capsys)
    assert code == 0
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text(canonical_json({
        "check": "cover-gamma",
        "set": {"kind": "explicit", "words": ["0000"], "tail": "zeros"},
        "cover": [{"cyl": "0", "group": 0}, {"cyl": "11", "group": 1}],
    }))
    code, out, _ = run(["verify", str(corrupt), "--depth", "6"], capsys)
    assert code == 1
    assert json.loads(out)["detail"]["group_failures"] == [1]


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_cover_build_and_verify(specs, tmp_path, capsys):
    out_file = tmp_path / "cover.json"
    code, out, _ = run(["cover", "build", "--set", specs["ce"],
                        "--hfn", specs["r1"], "--levels", "4",
                        "--depth", "24", "--cover-out", str(out_file)], capsys)
    assert code == 0
    assert json.loads(out)["status"] == "pass"
    code, out, _ = run(["cover", "verify", "--set", specs["ce"],
                        "--cover", str(out_file), "--depth", "16"], capsys)
    assert code == 0


EVENS_X_ODDS = {"kind": "product", "a": {"kind": "ci", "I": {"period": "10"}},
                "b": {"kind": "ci", "I": {"period": "01"}}}


@pytest.mark.parametrize("levels", [3, 5])
def test_product_cover_build_prices_words_at_the_product_scale(tmp_path, capsys,
                                                               levels):
    # a word of length k on the interleaved coding has diameter 2^-(k // 2);
    # at 5 levels some words are longer than --depth, and the cover is
    # checked as deep as its longest word
    spec, hfn, out_file = (tmp_path / n for n in ("set.json", "h.json", "c.json"))
    spec.write_text(json.dumps(EVENS_X_ODDS))
    hfn.write_text(json.dumps({"symbolic": {"s": "3/2"}}))
    code, out, _ = run(["cover", "build", "--set", str(spec), "--hfn", str(hfn),
                        "--levels", str(levels), "--depth", "24",
                        "--cover-out", str(out_file)], capsys)
    assert code == 0
    assert json.loads(out)["status"] == "pass" and json.loads(out)["j0"] == 0
    words = [e["cyl"] for e in json.loads(out_file.read_text())]
    h = power_hfn(Fraction(3, 2))
    total = Fraction(json.loads(out)["hausdorff_sum"])
    assert total == sum(h.hi_at(len(w) // 2) for w in words) < 2


def test_product_cover_build_truncates_at_the_product_scale(tmp_path, capsys):
    # scale 9 needs truncation depth 18 on the interleaved coding; the
    # search reaches it and prices every scale up to --depth within the
    # budget, since a rejected scale costs only its DP: H^1 of evens x odds
    # is never below 2^0, so no level-0 cover exists
    spec, hfn = tmp_path / "set.json", tmp_path / "h.json"
    spec.write_text(json.dumps(EVENS_X_ODDS))
    hfn.write_text(json.dumps({"symbolic": {"s": 1}}))
    code, _, err = run(["cover", "build", "--set", str(spec), "--hfn", str(hfn),
                        "--levels", "3", "--depth", "24", "--budget", "100000"],
                       capsys)
    assert code == 1 and err == ("verification failed: no level-0 cover of "
                                 "cost below 2^-0 within scale 24\n")


def test_witness_compile_me(specs, tmp_path, capsys):
    f_file = tmp_path / "f.json"
    code, out, _ = run(["witness", "compile-me", "--hfn", specs["r1"],
                        "--k", "12", "--witness-out", str(f_file)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["f"] == [0, 1, 2, 4, 7, 11, 16, 22, 29, 37, 46, 56, 67]
    assert payload["inequality_ok"]
    assert json.loads(f_file.read_text())["f"][:3] == [0, 1, 2]


def test_witness_compile_variants(specs, capsys):
    code, out, _ = run(["witness", "compile-nadd", "--hfn", specs["r1"],
                        "--k", "6"], capsys)
    assert code == 0 and json.loads(out)["status"] == "pass"
    code, out, _ = run(["witness", "compile-tprime", "--hfn", specs["r1"],
                        "--k", "6"], capsys)
    assert code == 0 and len(json.loads(out)["f"]) == 7


def test_bad_limits_rejected(specs, capsys):
    code, _, err = run(["measure", specs["fc"], specs["r1"], "--depth", "0"],
                       capsys)
    assert code == 2 and "limits" in err


def test_witness_check_shelahm(specs, tmp_path, capsys):
    w_file = tmp_path / "w.json"
    w_file.write_text(canonical_json({
        "kind": "shelahm", "f": [0, 2, 4, 6, 8, 10], "g": [0, 4, 8, 12],
        "y": {"preperiod": "", "period": "0"},
    }))
    code, out, _ = run(["witness", "check", "--witness", str(w_file),
                        "--x", "0" * 12, "--range", "0:2"], capsys)
    assert code == 0 and json.loads(out)["n0"] == 0


@pytest.mark.parametrize("x", ["abcdefghijklmnop", "0101 0101", "012"])
def test_witness_check_x_must_be_a_binary_word(capsys, x):
    wm = Path(__file__).parent / "golden" / "wm.json"
    code, out, err = run(["witness", "check", "--witness", str(wm), "--x", x,
                          "--range", "0:2"], capsys)
    assert code == 2 and out == "" and err.startswith("input error:")
    assert "not a binary word" in err


@pytest.mark.parametrize("rng", ["2:1", "-1:2"])
def test_witness_check_range_must_run_up_from_zero(capsys, rng):
    # an inverted range once checked no block and exited 1; a negative LO
    # once reported block -1, read from the end of g
    wm = Path(__file__).parent / "golden" / "wm.json"
    code, out, err = run(["witness", "check", "--witness", str(wm), "--x",
                          "0101010101010101", f"--range={rng}"], capsys)
    assert code == 2 and out == "" and err.startswith("input error:")
    assert "bad range" in err


@pytest.mark.parametrize("levels", ["0", "-1"])
def test_cover_build_needs_a_level(specs, capsys, levels):
    code, out, err = run(["cover", "build", "--set", specs["ce"], "--hfn",
                          specs["r1"], "--levels", levels], capsys)
    assert code == 2 and out == "" and err.startswith("input error:")
    assert "at least one set" in err


def test_out_file_byte_identical(specs, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        code = main(["measure", specs["fc"], specs["r1"], "--scale", "0",
                     "--depth", "16", "--out", str(target)])
        assert code == 0
        capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_entry_point_subprocess(specs):
    proc = subprocess.run(
        [sys.executable, "-m", "cantordim.cli", "measure", specs["fc"],
         specs["r1"], "--scale", "0", "--depth", "12"],
        capture_output=True, text=True, env=cli_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["upper"] == "1"


def test_main_builds_one_parser_tree(specs, capsys, monkeypatch):
    cli.build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    sizes = []
    for _ in range(5):
        assert run(["dim", specs["ce"], "--range", "1:4"], capsys)[0] == 0
        sizes.append(len(built))
    # the common options, the root and five subcommand parsers, once
    assert built.count("cantordim") == 1 and sizes == [7] * 5


def _run_caught(argv, capsys):
    """(exit code, stdout, stderr) of main, argparse's own exits included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_reused_parser_answers_as_a_fresh_process(specs, capsys, monkeypatch):
    # argparse errors and help between two runs leave the shared parser as a
    # fresh one: every call prints what a new process prints
    monkeypatch.setenv("COLUMNS", "80")  # help wraps at the terminal width
    argvs = [["dim", specs["ce"], "--range", "1:4"],
             ["nonsense"],
             ["dim", "--help"],
             ["measure", specs["ce"], specs["r1"], "--scale", "2", "--depth", "6"],
             ["dim", specs["ce"], "--range", "1:4"]]
    seen = [_run_caught(argv, capsys) for argv in argvs]
    assert [code for code, _, _ in seen] == [0, 2, 0, 0, 0]
    for argv, got in zip(argvs, seen):
        proc = subprocess.run([sys.executable, "-m", "cantordim.cli"] + argv,
                              capture_output=True, text=True,
                              env=cli_env(COLUMNS="80"))
        assert got == (proc.returncode, proc.stdout, proc.stderr), argv


def test_byte_determinism_across_hash_seeds(specs, tmp_path):
    # set-state iteration order must never leak into outputs
    outputs = []
    for seed in ("1", "2"):
        env = cli_env(PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "cantordim.cli", "cover", "build",
             "--set", specs["ce"], "--hfn", specs["r1"], "--levels", "3",
             "--depth", "20",
             "--cover-out", str(tmp_path / f"c{seed}.json")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        outputs.append(((tmp_path / f"c{seed}.json").read_bytes(), proc.stdout))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv", [
    ["dim", "ce", "--range", "0:0"],
    ["dim", "ce", "--range", "3:1"],
    ["dim", "ce", "--hfn", "r1", "--range", "5:3"],
    ["measure", "ce", "r1", "--scale", "40", "--depth", "32"],
])
def test_bad_ranges_and_scales_are_input_errors(specs, capsys, argv):
    argv = [specs.get(a, a) for a in argv]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == "" and err.startswith("input error:")


def test_bad_env_budget_is_input_error(specs, capsys, monkeypatch):
    monkeypatch.setenv("CANTORDIM_BUDGET", "abc")
    code, out, err = run(["dim", specs["ce"]], capsys)
    assert code == 2 and out == "" and err.startswith("input error:")
    assert "CANTORDIM_BUDGET" in err
    monkeypatch.setenv("CANTORDIM_BUDGET", "64")
    code, out, _ = run(["dim", specs["ce"], "--range", "1:4"], capsys)
    assert code == 0 and json.loads(out)["limits"]["budget"] == 64


@pytest.mark.parametrize("spec", [
    {"kind": "explicit", "words": "0101"},
    {"kind": "cylinder_union", "cylinders": "01"},
    {"kind": "block_constraint", "boundaries": 3, "blocks": [["01"]]},
    {"kind": "block_constraint", "boundaries": [0, 2], "blocks": "01"},
    {"kind": "block_constraint", "boundaries": [0, 1, 2], "blocks": ["01", "1"]},
    {"kind": "union", "members": {"kind": "full_cube"}},
])
def test_set_spec_fields_must_be_lists(tmp_path, capsys, spec):
    path = tmp_path / "set.json"
    path.write_text(canonical_json(spec))
    code, out, err = run(["dim", str(path), "--range", "1:4"], capsys)
    assert code == 2 and out == "" and err.startswith("input error:")
    assert "must be a list" in err


@pytest.mark.parametrize("argv, flag", [
    (["cover", "build", "--set", "ce"], "--hfn"),
    (["cover", "verify", "--set", "ce"], "--cover"),
    (["witness", "compile-me"], "--hfn"),
    (["witness", "compile-nadd"], "--hfn"),
    (["witness", "compile-tprime"], "--hfn"),
    (["witness", "check"], "--witness"),
])
def test_missing_required_flag_is_input_error(specs, capsys, argv, flag):
    code, out, err = run([specs.get(a, a) for a in argv], capsys)
    assert code == 2 and out == "" and err.startswith("input error:")
    assert flag in err


EINC = {"check": "einc", "f": [0, 1, 2], "g": [0, 2],
        "F": [["0", "1"], ["0"]], "G": [["00", "10"]]}
PRODUCT = {"check": "product", "a": {"kind": "full_cube"},
           "b": {"kind": "full_cube"}, "h": {"symbolic": {"s": "1", "t": "0"}},
           "g": {"symbolic": {"s": "1", "t": "0"}}}


@pytest.mark.parametrize("spec", [
    [EINC],
    "einc",
    *({k: v for k, v in EINC.items() if k != key} for key in "fgFG"),
    {**PRODUCT, "range": [3]},
    {**PRODUCT, "range": [1, 2, 3]},
    {**PRODUCT, "range": 4},
])
def test_malformed_check_spec_is_input_error(tmp_path, capsys, spec):
    path = tmp_path / "check.json"
    path.write_text(canonical_json(spec))
    code, out, err = run(["verify", str(path)], capsys)
    assert code == 2 and out == "" and err.startswith("input error:")


@pytest.mark.parametrize("spec", [EINC, {**PRODUCT, "range": [1, 4]}])
def test_well_formed_check_specs_run(tmp_path, capsys, spec):
    # the malformed cases above break these specs one field at a time
    path = tmp_path / "check.json"
    path.write_text(canonical_json(spec))
    code, out, err = run(["verify", str(path)], capsys)
    assert code in (0, 1) and err == "" and json.loads(out)["instance"] == str(path)


@pytest.mark.parametrize("flags", [[], ["--depth", "12", "--scale", "2"]])
def test_chain_check_file_equals_the_builtin(tmp_path, capsys, flags):
    # a "chain" check file on chain-ci's set and gauge gives its verdict
    path = tmp_path / "check.json"
    path.write_text(canonical_json({
        "check": "chain", "set": {"kind": "ci", "I": {"preperiod": "", "period": "10"}},
        "hfn": {"symbolic": {"s": "1/2", "t": "0"}}}))
    got = [run(["verify", name, *flags], capsys) for name in (str(path), "chain-ci")]
    (code, out, err), (code_ci, out_ci, err_ci) = got
    assert code == code_ci == 0 and err == err_ci == ""
    payload, payload_ci = json.loads(out), json.loads(out_ci)
    assert payload["detail"] == payload_ci["detail"]
    assert payload["status"] == payload_ci["status"] == "pass"


SPEC_TEXTS = {"missing": None, "invalid": '{"kind": "full_cube",',
              "deep": "[" * 100_000 + "]" * 100_000}


@pytest.mark.parametrize("name, message", [("missing", "cannot read"),
                                           ("invalid", "invalid JSON in"),
                                           ("deep", "nests too deeply to decode")])
def test_unreadable_spec_file_is_input_error(tmp_path, name, message):
    path = tmp_path / f"{name}.json"
    if SPEC_TEXTS[name] is not None:
        path.write_text(SPEC_TEXTS[name])
    proc = subprocess.run(
        [sys.executable, "-m", "cantordim.cli", "dim", str(path), "--range", "1:3"],
        capture_output=True, text=True, env=cli_env())
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("input error:") and message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_einc_horizon_must_be_positive(tmp_path, capsys):
    spec = {"check": "einc", "f": [0, 1, 2], "g": [0, 2],
            "F": [["0"], ["1"]], "G": [["00"]]}
    path = tmp_path / "check.json"
    path.write_text(canonical_json({**spec, "horizon": 1}))
    code, out, err = run(["verify", str(path)], capsys)
    assert code == 1 and err == ""
    assert json.loads(out)["detail"] == {"n0": None, "failures": [[0, 1]]}
    # with no coarse block checked there is no verdict to give
    for horizon in (0, -3):
        path.write_text(canonical_json({**spec, "horizon": horizon}))
        code, out, err = run(["verify", str(path)], capsys)
        assert code == 2 and out == "" and err.startswith("input error:")
        assert "(at einc.horizon)" in err


@pytest.mark.parametrize("cover", [
    [0, 1],
    [{"cyl": "0", "group": [0]}, {"cyl": "1", "group": [0]}],
    [{"cyl": "0", "group": "a"}, {"cyl": "1", "group": 0}],
    {"elements": [{"cyl": "0"}, {"cyl": "1"}], "eps": 5},
    {"elements": [{"cyl": "0"}, {"cyl": "1"}], "eps": "11"},
])
def test_malformed_cover_is_input_error(specs, tmp_path, capsys, cover):
    path = tmp_path / "cover.json"
    path.write_text(canonical_json(cover))
    code, out, err = run(["cover", "verify", "--set", specs["fc"],
                          "--cover", str(path)], capsys)
    assert code == 2 and out == "" and err.startswith("input error:")


def _run_spec(tmp_path, capsys, command, spec):
    """Run `command` (set, hfn, witness or check) on one spec file."""
    path = str(tmp_path / "spec.json")
    (tmp_path / "spec.json").write_text(canonical_json(spec))
    fc = tmp_path / "fc.json"
    fc.write_text(canonical_json({"kind": "full_cube"}))
    argv = {"set": ["dim", path, "--range", "1:4"],
            "hfn": ["measure", str(fc), path],
            "witness": ["witness", "check", "--witness", path, "--x", "0" * 8],
            "check": ["verify", path]}[command]
    return run(argv, capsys)


@pytest.mark.parametrize("command, spec, field", [
    ("set", {"kind": "ci", "I": {"powers": {"c": "x", "q": 2}}}, "set.I.powers.c"),
    ("set", {"kind": "ci", "I": {"powers": {"c": 1, "q": "x"}}}, "set.I.powers.q"),
    ("set", {"kind": "ci", "I": {"blocks": {"c": 1, "d": "x", "q": 4}}},
     "set.I.blocks.d"),
    ("hfn", {**PRODUCT["h"], "precision_bits": "x"}, "hfn.precision_bits"),
    ("hfn", {**PRODUCT["h"], "n_max": "x"}, "hfn.n_max"),
    ("hfn", {"symbolic": {"s": "1", "t": "x"}}, "hfn.symbolic.t"),
    ("witness", {"kind": "shelahn", "f": [0, "x", 2], "H": [["0"], ["1"]]},
     "witness.f[1]"),
    ("witness", {"kind": "shelahm", "f": [0, 1, 2], "g": [0, "x"],
                 "y": {"period": "0"}}, "witness.g[1]"),
    ("witness", {"kind": "tprime", "f": [0, 1, 2], "I": ["x"], "H": {"1": ["0"]}},
     "witness.I[0]"),
    ("witness", {"kind": "tprime", "f": [0, 1, 2], "I": [1], "H": {"x": ["0"]}},
     "witness.H"),
    ("check", {**PRODUCT, "range": ["a", 2]}, "range[0]"),
    ("check", {**EINC, "horizon": "x"}, "einc.horizon"),
])
def test_non_integer_field_is_input_error(tmp_path, capsys, command, spec, field):
    code, out, err = _run_spec(tmp_path, capsys, command, spec)
    assert code == 2 and out == "" and err.startswith("input error:")
    assert "must be an integer" in err and f"(at {field})" in err


@pytest.mark.parametrize("spec, message", [
    ({"table": 2}, "field 'table' must be a list (at hfn)"),
    ({"table_lo": 2, "table_hi": ["1"]}, "field 'table_lo' must be a list (at hfn)"),
    ({"table_lo": ["1"], "table_hi": "1"}, "field 'table_hi' must be a list (at hfn)"),
    ({"symbolic": {"s": "1/2"}, "precision_bits": -3}, "(at hfn.precision_bits)"),
    ({"symbolic": {"s": "1"}, "precision_bits": -3}, "(at hfn.precision_bits)"),
])
@pytest.mark.parametrize("command", ["dim", "measure"])
def test_malformed_gauge_is_input_error(specs, tmp_path, capsys, command, spec, message):
    path = tmp_path / "g.json"
    path.write_text(canonical_json(spec))
    argv = {"dim": ["dim", specs["ce"], "--range", "1:4", "--hfn", str(path)],
            "measure": ["measure", specs["fc"], str(path)]}[command]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == "" and err.startswith("input error:")
    assert message in err
    # precision 0 stays a gauge
    path.write_text(canonical_json({"symbolic": {"s": "1/2"}, "precision_bits": 0}))
    code, out, err = run(argv, capsys)
    assert code == 0 and err == "" and json.loads(out)


@pytest.mark.parametrize("spec", [
    # I names an index with no H entry
    {"kind": "tprime", "f": [0, 1, 2, 3], "I": [1, 2], "H": {"1": ["0"]}},
    # I names an index past the last block
    {"kind": "tprime", "f": [0, 1, 2], "I": [5], "H": {"5": ["0"]}},
    # the g table stops before the last index of I
    {"kind": "tprime", "f": [0, 1, 2, 3], "I": [2], "H": {"2": ["0"]}, "g": [1, 1]},
    {"kind": "shelahm", "f": [0, 1, 2], "g": [0, 2], "y": "0"},
    {"kind": "shelahn", "f": [0, 1, 2], "H": "01"},
    {"kind": "shelahn", "f": [0, 1, 2], "H": [["0"], "1"]},
    {"kind": "tprime", "f": [0, 1, 2], "I": [1], "H": {"1": "0"}},
    {"kind": "tprime", "f": [0, 1, 2], "I": [1], "H": "0"},
    # a block family parses as a witness but has no blockwise check
    {"kind": "block_family", "f": [0, 1, 2], "F": [["0"], ["1"]]},
    # a witness without families
    {"kind": "shelahn", "f": [0, 1, 2], "H": []},
    {"kind": "tprime", "f": [0, 1, 2], "I": [], "H": {}},
    {"kind": "tprime", "f": [0, 1, 2], "I": [], "H": {"1": ["0"]}},
])
def test_malformed_witness_is_input_error(tmp_path, capsys, spec):
    code, out, err = _run_spec(tmp_path, capsys, "witness", spec)
    assert code == 2 and out == "" and err.startswith("input error:")


@pytest.mark.parametrize("spec", [
    {"kind": "tprime", "f": [0, 1, 2, 3], "I": [1, 2], "H": {"1": ["0"], "2": ["0"]},
     "g": [1, 1, 1]},
    {"kind": "shelahn", "f": [0, 1, 2], "H": [["0"], ["1"]]},
])
def test_well_formed_witnesses_check(tmp_path, capsys, spec):
    # the malformed witnesses above break these one field at a time
    code, out, err = _run_spec(tmp_path, capsys, "witness", spec)
    assert code in (0, 1) and err == "" and "outcomes" in json.loads(out)
