from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import deeptherm.cli as cli
import deeptherm.kim as kim
import deeptherm.montecarlo as montecarlo
import deeptherm.replica as replica
from deeptherm.cli import main
from deeptherm.linalg import MEM_BUDGET_BYTES
from deeptherm.plotting import emit_plot
from deeptherm.records import (
    SCHEMA_VERSION,
    RecordError,
    format_value,
    read_csv,
    write_csv,
    write_record,
)


def _strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_format_value_round_trip():
    vals = [0.1, 1 / 3, 2.0**-52, 1.7e300, -4.25]
    for v in vals:
        assert float(format_value(v)) == v
    assert format_value(True) == "true"
    assert format_value(7) == "7"


def test_csv_write_read(tmp_path):
    path = str(tmp_path / "x.csv")
    write_csv(path, ["a", "b"], [[1, 0.5], [2, 0.25]])
    cols, rows = read_csv(path)
    assert cols == ["a", "b"]
    assert float(rows[1][1]) == 0.25
    with pytest.raises(RecordError):
        write_csv(path, ["a"], [[1, 2]])


def test_written_files_follow_umask(tmp_path):
    path = str(tmp_path / "x.csv")
    old = os.umask(0o022)
    try:
        write_csv(path, ["a", "b"], [[1, 0.5]])
    finally:
        os.umask(old)
    assert os.stat(path).st_mode & 0o777 == 0o644
    assert open(path, encoding="utf-8").read() == f"a,b\n1,{format_value(0.5)}\n"


def test_result_record_json_round_trip(tmp_path):
    out = str(tmp_path / "x.csv")
    write_record("mc", {"k": 2}, ["a"], [[1.0], [2.0]], out, seed=7)
    back = json.loads(open(out + ".meta.json").read())
    assert back == {
        "schema_version": SCHEMA_VERSION,
        "config": {"subcommand": "mc", "params": {"k": 2}, "seed": 7, "out": out,
                   "fmt": "csv", "artifact_version": cli.__version__,
                   "schema_version": SCHEMA_VERSION},
        "columns": ["a"],
        "rows": [[1.0], [2.0]],
        "created_at": back["created_at"],
    }


def test_cli_weingarten(tmp_path):
    out = str(tmp_path / "wg.csv")
    assert main(["weingarten", "--m", "2", "--d", "4", "--out", out]) == 0
    cols, rows = read_csv(out)
    assert cols == ["perm_rank", "cycle_type", "wg_value"]
    vals = {r[1]: float(r[2]) for r in rows}
    assert vals["1+1"] == pytest.approx(1 / 15)
    assert vals["2"] == pytest.approx(-1 / 60)
    meta = json.loads(open(out + ".meta.json").read())
    assert meta["config"]["subcommand"] == "weingarten"
    assert meta["config"]["artifact_version"] == cli.__version__


def test_cli_weingarten_singular_error(tmp_path, capsys):
    out = str(tmp_path / "wg.csv")
    rc = main(["weingarten", "--m", "3", "--d", "2", "--out", out])
    assert rc == 3
    assert not os.path.exists(out)
    rec = json.loads(capsys.readouterr().err.strip())
    assert rec["type"] == "WeingartenConditioningError"
    assert "--allow-singular" in rec["error"]
    rc = main(["weingarten", "--m", "3", "--d", "2", "--allow-singular", "--out", out])
    assert rc == 0
    # the Gram matrix is singular: its condition number is recorded as null, not as inf
    params = _strict_json(open(out + ".meta.json").read())["config"]["params"]
    assert params["pseudo"] is True and params["cond"] is None


def test_cli_weingarten_largest_degree(tmp_path):
    out = str(tmp_path / "wg.csv")
    assert main(["weingarten", "--m", "8", "--d", "16", "--out", out]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 40320
    params = json.loads(open(out + ".meta.json").read())["config"]["params"]
    assert params["pseudo"] is False and params["cond"] > 1


def test_cli_exact_row(tmp_path):
    out = str(tmp_path / "exact.csv")
    assert main(["exact", "--n", "10", "--na", "2", "--t", "1", "--bc", "pbc",
                 "--k", "1", "--out", out]) == 0
    cols, rows = read_csv(out)
    assert cols == ["n", "na", "t", "bc", "k", "delta_k", "entropy_bits", "wraparound_flag"]
    last = rows[-1]
    assert last[2] == "1" and float(last[5]) <= 1e-8
    assert last[7] == "false"


@pytest.mark.parametrize("bc", ["pbc", "obc"])
def test_cli_exact_entropy_from_each_steps_order1_block(tmp_path, bc):
    # at --k 4 the order-1 block is the partial trace of order 4, so only the last bits move
    ent = {}
    for K in (1, 4):
        out = str(tmp_path / f"k{K}.csv")
        assert main(["exact", "--n", "12", "--na", "2", "--t", "4", "--bc", bc, "--k", str(K),
                     "--out", out]) == 0
        cols, rows = read_csv(out)
        t, k, e = cols.index("t"), cols.index("k"), cols.index("entropy_bits")
        ent[K] = [float(r[e]) for r in rows if r[k] == "1"]
        for tt in range(5):
            cfg = kim.KimConfig(n=12, n_a=2, t=tt, bc=bc)
            block = kim.moments_from_state(kim.evolve(cfg), cfg, K, chain=True)[0]
            assert {float(r[e]) for r in rows if int(r[t]) == tt} == {kim.entropy_bits(block)}
    assert np.abs(np.subtract(ent[1], ent[4])).max() <= 1e-12
    assert max(ent[1]) > 1.9  # the block is entangled, so the check is not of zeros


@pytest.mark.parametrize("offset", [0, 1, 2, 6])
def test_cli_exact_obc_flags_rows_past_the_nearer_chain_end(tmp_path, offset):
    # the light cone reaches the nearer end first; off-centre, delta_1 leaves 0 inside (n - n_a)/2 - 1
    out = str(tmp_path / "x.csv")
    assert main(["exact", "--n", "14", "--na", "2", "--t", "7", "--bc", "obc", "--k", "1",
                 "--offset", str(offset), "--out", out]) == 0
    cols, rows = read_csv(out)
    t, d, flag = cols.index("t"), cols.index("delta_k"), cols.index("wraparound_flag")
    kept = [r for r in rows if int(r[t]) >= 1 and r[flag] == "false"]
    assert len(kept) == max(0, min(offset, 12 - offset) - 1)
    assert all(float(r[d]) <= 1e-8 for r in kept)
    if offset in (1, 2, 6):  # a flagged row the flag is needed for
        assert max(float(r[d]) for r in rows if int(r[t]) >= 1) > 0.1


def test_cli_rates_on_synthetic(tmp_path, capsys):
    src = str(tmp_path / "r.csv")
    write_csv(
        src,
        ["k", "n", "t", "bc", "deviation_trace_norm", "fit_a", "fit_b", "fit_c",
         "extrapolated_norm", "fit_residual_flag"],
        [[2, 0, t, "pbc", 1.0, 0.0, 0.0, 1.0, 2.0 ** (-2 * t), False] for t in (2, 3, 4, 5)],
    )
    assert main(["rates", "--in", src]) == 0
    out = capsys.readouterr().out
    assert "v=2.00" in out


def test_cli_mc_determinism(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    args = ["mc", "--k", "1", "--t", "2", "--na", "2", "--samples", "5000",
            "--seed", "31"]
    assert main(args + ["--out", a]) == 0
    assert main(args + ["--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    cols, rows = read_csv(a)
    assert cols == ["k", "t", "bc", "M_checkpoint", "delta_k", "stderr", "converged_flag"]
    # the first checkpoint holds one batch, so its stderr is nan: null in JSON
    se = cols.index("stderr")
    assert rows[0][se] == "nan" and rows[-1][se] != "nan"
    side = _strict_json(open(a + ".meta.json").read())
    assert side["rows"][0][se] is None and side["rows"][-1][se] > 0
    c = str(tmp_path / "c.json")
    assert main(args + ["--format", "json", "--out", c]) == 0
    rec = _strict_json(open(c).read())
    assert rec["rows"] == side["rows"]


def test_cli_mc_sidecar_records_jackknife_blocks(tmp_path):
    # one block per batch up to 64, then 64: the SE at 70k samples is over 64 blocks
    out = str(tmp_path / "mc.csv")
    assert main(["mc", "--k", "1", "--t", "2", "--bc", "obc", "--samples", "70000", "--out", out]) == 0
    params = _strict_json(open(out + ".meta.json").read())["config"]["params"]
    assert params["jackknife_blocks"] == [1, 10, 64]


def test_cli_config_file(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("m=2\nd=4\n")
    out = str(tmp_path / "wg.csv")
    assert main(["--config", str(cfgfile), "weingarten", "--out", out]) == 0
    cols, rows = read_csv(out)
    assert len(rows) == 2
    # out= in the config file satisfies the required --out
    cfg_out = str(tmp_path / "wg_cfg.csv")
    cfgfile.write_text(f"m=2\nd=4\nout={cfg_out}\n")
    assert main(["--config", str(cfgfile), "weingarten"]) == 0
    assert open(cfg_out, "rb").read() == open(out, "rb").read()


def test_cli_config_keys_follow_the_subcommand(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    out = str(tmp_path / "x.csv")
    # a key for another subcommand's flag is refused, not silently dropped
    for text, argv in (
        ("g=0.9\n", ["replica", "--k", "2", "--nmax", "2", "--t", "2", "--out", out]),
        ("samples=1000\n", ["figure3", "--kmax", "2", "--tmax", "2", "--out", out]),
    ):
        cfgfile.write_text(text)
        assert main(["--config", str(cfgfile)] + argv) == 2
        rec = json.loads(capsys.readouterr().err.strip())
        assert rec["type"] == "UsageError", argv
        assert f"no {argv[0]} flag for key(s) {text.split('=')[0]}" in rec["error"]
    assert not os.path.exists(out) and not os.path.exists(out + "_points.csv")
    # a key of the chosen subcommand still seeds its default
    cfgfile.write_text("samples=2000\nseed=4\n")
    assert main(["--config", str(cfgfile), "mc", "--k", "1", "--t", "2", "--out", out]) == 0
    with open(out + ".meta.json") as f:
        params = json.load(f)["config"]["params"]
    assert params["samples"] == 2000 and params["seed"] == 4
    # the --config=FILE form is loaded too
    cfgfile.write_text("m=2\nd=4\n")
    assert main([f"--config={cfgfile}", "weingarten", "--out", out]) == 0
    assert main(["weingarten", "--m", "2", "--d", "4", "--out", out + "2"]) == 0
    assert open(out, "rb").read() == open(out + "2", "rb").read()


def test_cli_config_values_parsed_like_the_command_line(tmp_path, capsys):
    # each value goes through its flag's type and choices, so a wrong one is a usage error
    cfgfile = tmp_path / "run.cfg"
    out = str(tmp_path / "x.csv")
    for text, argv, needle in (
        ("k=2.5\n", ["exact", "--n", "4", "--na", "2", "--t", "1"], "--k"),
        ("na=[2]\n", ["replica", "--k", "2", "--nmax", "2", "--t", "2"], "--na"),
        ("samples=true\n", ["mc", "--k", "2", "--t", "2"], "--samples"),
        ("m=3\nd=2\nallow_singular=yes\n", ["weingarten"], "allow_singular"),
        # argparse checks choices on command-line text only
        ("format=xml\n", ["weingarten", "--m", "2", "--d", "4"], "format"),
        ("bc=foo\n", ["exact", "--n", "4", "--na", "2", "--t", "1"], "bc"),
        ("bc=foo\n", ["mc", "--k", "2", "--t", "2", "--samples", "10"], "bc"),
    ):
        cfgfile.write_text(text)
        assert main(["--config", str(cfgfile)] + argv + ["--out", out]) == 2, text
        rec = json.loads(capsys.readouterr().err.strip())
        assert rec["type"] == "UsageError" and needle in rec["error"], text
    assert not os.path.exists(out)
    # a flag that takes no value is set by true and left off by false
    cfgfile.write_text("m=3\nd=2\nallow_singular=true\n")
    assert main(["--config", str(cfgfile), "weingarten", "--out", out]) == 0
    cfgfile.write_text("m=3\nd=2\nallow_singular=false\n")
    assert main(["--config", str(cfgfile), "weingarten", "--out", out + "2"]) == 3
    assert json.loads(capsys.readouterr().err.strip())["type"] == "WeingartenConditioningError"
    assert not os.path.exists(out + "2")


def test_cli_empty_sweep_is_refused_before_any_csv(tmp_path, capsys, monkeypatch):
    # an empty list of t or bath lengths, or a figure3 sweep t = 2..tmax with no t,
    # would write a header-only CSV; each is refused before any work
    def engine_fail(*args, **kwargs):
        raise AssertionError("replica engine ran for a refused run")

    monkeypatch.setattr(replica, "_sagg_bundle", engine_fail)
    out = str(tmp_path / "x")
    for argv, needle in (
        (["replica", "--k", "2", "--nmax", "2", "--t", "", "--out", out], "--t"),
        (["designcheck", "--lengths", "", "--out", out], "--lengths"),
        (["figure3", "--tmax", "1", "--out", out], "--tmax"),
        (["figure3", "--tmax", "1", "--plot", out + ".svg", "--out", out], "--tmax"),
        (["figure3", "--kmax", "1", "--out", out], "--kmax"),
    ):
        assert main(argv) == 3, argv
        rec = json.loads(capsys.readouterr().err.strip())
        assert rec["type"] == "ValueError" and needle in rec["error"], argv
        assert os.listdir(tmp_path) == [], argv


def test_cli_nonpositive_na_is_refused_before_any_csv(tmp_path, capsys):
    # even N_A builds no W, so the specs themselves must refuse n_a < 1
    out = str(tmp_path / "x")
    for argv in (["replica", "--na", "-2", "--k", "2", "--nmax", "2", "--t", "2,3,4"],
                 ["replica", "--na", "0", "--k", "2", "--nmax", "2", "--t", "2,3,4"],
                 ["figure3", "--na", "0", "--kmax", "2", "--tmax", "4", "--mc-samples", "0"],
                 ["figure3", "--na", "0", "--kmax", "2", "--tmax", "4"],
                 ["mc", "--na", "-1", "--k", "2", "--t", "2", "--samples", "10"]):
        assert main(argv + ["--out", out]) == 3, argv
        rec = json.loads(capsys.readouterr().err.strip())
        assert rec["type"] in ("ReplicaError", "McError") and "need n_a >= 1" in rec["error"], argv
        assert os.listdir(tmp_path) == [], argv


def test_cli_error_record(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "x.csv")
    rc = main(["exact", "--n", "4", "--na", "2", "--t", "1", "--g", "0.0", "--out", out])
    assert rc == 3
    err = capsys.readouterr().err
    rec = json.loads(err.strip())
    assert "guard band" in rec["error"]
    # a config file that cannot be read is a runtime error with the same record
    missing = str(tmp_path / "missing.cfg")
    assert main(["--config", missing, "weingarten", "--out", out]) == 3
    rec = json.loads(capsys.readouterr().err.strip())
    assert rec["type"] == "FileNotFoundError"
    # --config without a value is a usage error, not a traceback
    assert main(["weingarten", "--m", "2", "--d", "4", "--out", out, "--config"]) == 2
    err = capsys.readouterr().err
    assert "--config: expected one argument" in err
    assert json.loads(err.strip())["type"] == "UsageError"
    def engine_fail(*args, **kwargs):
        raise AssertionError("replica engine ran for a refused run")

    monkeypatch.setattr(replica, "_sagg_bundle", engine_fail)
    # a replica sum the engine cannot hold (m = 6 at N_A = 3) is refused before any allocation
    assert main(["replica", "--k", "2", "--nmax", "4", "--t", "2", "--na", "3", "--out", out]) == 3
    rec = json.loads(capsys.readouterr().err.strip())
    assert rec["type"] == "ReplicaError" and "above budget" in rec["error"]
    # a fit with fewer than 3 points in n is refused before any replica sum
    for argv in (["replica", "--k", "2", "--nmax", "0", "--t", "2", "--out", out],
                 ["replica", "--k", "2", "--nmax", "1", "--t", "2", "--out", out],
                 ["figure3", "--kmax", "5", "--out", str(tmp_path / "fig")]):
        assert main(argv) == 3
        rec = json.loads(capsys.readouterr().err.strip())
        assert rec["type"] == "ReplicaError" and "at least 3 points" in rec["error"]
    assert not os.path.exists(out)
    # a seed that no Philox key holds, or a bad MC k, is refused before any
    # sampling, and by figure3 before its replica sweep (whose cached results
    # would hide the engine patch above)
    monkeypatch.setattr(cli, "deviation_series", engine_fail)
    fig = ["figure3", "--kmax", "2", "--tmax", "3", "--mc-samples", "1000", "--out", str(tmp_path / "fig")]
    for argv in (["mc", "--k", "2", "--t", "3", "--samples", "1000", "--seed", "-1", "--out", out],
                 ["mc", "--k", "2", "--t", "3", "--samples", "1000",
                  "--seed", "99999999999999999999999", "--out", out],
                 fig + ["--seed", "-3"],
                 fig + ["--mc-k", "0"],
                 fig + ["--mc-samples", "-5"]):
        assert main(argv) == 3, argv
        rec = json.loads(capsys.readouterr().err.strip())
        assert rec["type"] == "McError", argv
    assert not os.path.exists(out) and not os.path.exists(str(tmp_path / "fig_points.csv"))
    # a points CSV without the method, k and bc columns is refused by name
    bad = str(tmp_path / "bad.csv")
    write_csv(bad, ["value", "t"], [[0.1, 2], [0.05, 3], [0.02, 4]])
    assert main(["rates", "--in", bad]) == 3
    rec = json.loads(capsys.readouterr().err.strip())
    assert rec["type"] == "ValueError" and "k, bc, method" in rec["error"]
    # runtime, memory and assertion failures inside a subcommand get the same record
    for exc in (RuntimeError("solver diverged"), MemoryError("array too large"),
                AssertionError("weingarten table not symmetric")):
        def fail(args, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "cmd_weingarten", fail)
        assert main(["weingarten", "--m", "2", "--d", "4", "--out", out]) == 3
        rec = json.loads(capsys.readouterr().err.strip())
        assert rec == {"error": str(exc), "type": type(exc).__name__}


def test_cli_usage_errors_give_json_record(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("m=2\nbatchsize=7\n")
    mc = ["mc", "--k", "1", "--t", "2", "--samples", "1000"]
    for argv, needle in (
        (mc + ["--batch", "500", "--out", out], "--batch"),  # the batch is not a knob
        (mc, "--out"),
        (["weingarten", "--m", "2", "--d", "4", "--bogus", "1", "--out", out], "--bogus"),
        (["--config", str(cfgfile), "weingarten", "--d", "4", "--out", out], "batchsize"),
        # the coupling enters only the finite chain (exact, designcheck)
        (["replica", "--k", "2", "--nmax", "2", "--t", "2", "--g", "0.5", "--out", out], "--g"),
        (mc + ["--g", "0.5", "--out", out], "--g"),
        (["figure3", "--g", "0.5", "--out", out], "--g"),
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        rec = json.loads(err.strip())  # one record, no usage text
        assert rec["type"] == "UsageError" and needle in rec["error"], argv
    assert not os.path.exists(out)
    # help and version still print their text and exit 0
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == cli.__version__
    assert main(["mc", "-h"]) == 0
    assert "--batch" not in capsys.readouterr().out


def test_cli_exact_refuses_oversized_run_before_allocating(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("allocated for a refused size")

    monkeypatch.setattr(cli, "plus_state", fail)
    monkeypatch.setattr(cli, "apply_floquet", fail)
    monkeypatch.setattr(cli, "moments_from_state", fail)
    out = str(tmp_path / "x.csv")
    # n=28: the one statevector alone is 4.3 GB; k=34 at n_a=2: the sums of
    # every order up to 7770 x 7770 (Sym^34), 8.5 GB
    for argv in (["--n", "28", "--na", "2", "--t", "1"], ["--n", "10", "--na", "2", "--t", "1", "--k", "34"]):
        assert main(["exact", *argv, "--out", out]) == 3
        rec = json.loads(capsys.readouterr().err.strip())
        assert rec["type"] == "ConfigError" and "above budget" in rec["error"]
    assert not os.path.exists(out)
    assert kim.exact_bytes(27, 2, 3) <= MEM_BUDGET_BYTES  # the largest chain still runs


def test_cli_exact_refuses_order_below_one(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    for k in ("0", "-2"):
        assert main(["exact", "--n", "6", "--na", "2", "--t", "1", "--k", k, "--out", out]) == 3
        rec = json.loads(capsys.readouterr().err.strip())
        assert rec["type"] == "ConfigError" and "k must be >= 1" in rec["error"]
    assert not os.path.exists(out)


def test_cli_exact_runs_k7_in_sym_blocks(tmp_path):
    # k=7 at n_a=2: 120 x 120 Sym^7 blocks; 16384 x 16384 operators would take 4.3 GB
    out = str(tmp_path / "k7.csv")
    assert main(["exact", "--n", "10", "--na", "2", "--t", "1", "--k", "7", "--out", out]) == 0
    cols, rows = read_csv(out)
    t, k = cols.index("t"), cols.index("k")
    assert [(int(r[t]), int(r[k])) for r in rows] == [(tt, kk) for tt in (0, 1) for kk in range(1, 8)]


def test_cli_exact_and_mc_run_k8_in_sym_blocks(tmp_path, monkeypatch):
    # k=8 at n_a=2: D = 165, where 4^8 = 65536 replica codes were once indexed
    shapes = []

    def recording(fn, block):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            shapes.append(block(out).shape)
            return out
        return wrapped

    monkeypatch.setattr(cli, "moments_from_state", recording(cli.moments_from_state, lambda r: r[-1]))
    monkeypatch.setattr(cli, "mc_moment", recording(cli.mc_moment, lambda est: est.rho))
    out = str(tmp_path / "k8.csv")
    assert main(["exact", "--n", "12", "--na", "2", "--t", "2", "--k", "8", "--out", out]) == 0
    assert len(read_csv(out)[1]) == 3 * 8 and shapes[-1] == (165, 165)
    assert main(["mc", "--k", "8", "--na", "2", "--t", "3", "--samples", "2000", "--out", out]) == 0
    assert len(read_csv(out)[1]) == 2 and shapes[-1] == (165, 165)


def test_cli_mc_refuses_oversized_run_before_allocating(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("allocated for a refused size")

    monkeypatch.setattr(montecarlo, "_run_estimator", fail)
    out = str(tmp_path / "mc.csv")
    # k=5 at n_a=2 keeps 64 Sym^5 block sums of 56 x 56, the total and the
    # jackknife's two buffers beside one pbc task at t=2, about 8.5 MB:
    # refused under an 8 MB budget
    monkeypatch.setattr(montecarlo, "MEM_BUDGET_BYTES", 8_000_000)
    assert main(["mc", "--k", "5", "--t", "2", "--na", "2", "--samples", "300000",
                 "--out", out]) == 3
    rec = json.loads(capsys.readouterr().err.strip())
    assert rec["type"] == "McError" and "above budget" in rec["error"]
    assert not os.path.exists(out)


def test_cli_import_loads_no_scipy():
    # scipy.optimize alone took most of the CLI's start-up time; the MC
    # thread pool (concurrent.futures) is imported only by an MC run
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys, deeptherm.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'concurrent')))")
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert res.stdout.strip() == "[]"


def test_cli_json_format(tmp_path):
    out = str(tmp_path / "wg.json")
    assert main(["weingarten", "--m", "2", "--d", "4", "--format", "json",
                 "--out", out]) == 0
    rec = json.loads(open(out).read())
    assert rec["columns"][0] == "perm_rank"


def _points(with_mc=False):
    rows = [[2, t, "pbc", "replica", 2.0 ** (-2 * t)] for t in (2, 3, 4)]
    rows += [[2, t, "obc", "replica", 2.0**-t] for t in (2, 3, 4)]
    if with_mc:
        rows += [[2, t, "pbc", "mc", 1.1 * 2.0 ** (-2 * t)] for t in (2, 3)]
    return rows


def test_emit_plot(tmp_path):
    src = _points(with_mc=True)
    out = str(tmp_path / "fig.svg")
    emit_plot(src, out)
    svg = open(out).read()
    assert svg.startswith("<svg")
    assert "polyline" in svg and "circle" in svg and "rect x=" in svg
    # deterministic bytes for fixed input
    out2 = str(tmp_path / "fig2.svg")
    emit_plot(src, out2)
    assert open(out).read() == open(out2).read()


def test_emit_plot_empty_errors(tmp_path):
    out = str(tmp_path / "fig.svg")
    with pytest.raises(RecordError):
        emit_plot([], out)
    assert not os.path.exists(out)


def test_cli_designcheck(tmp_path, capsys):
    out = str(tmp_path / "dc.csv")
    assert main(["designcheck", "--t", "2", "--k", "1", "--lengths", "2,4", "--out", out]) == 0
    cols, rows = read_csv(out)
    d = {int(r[0]): float(r[2]) for r in rows}
    assert d[4] < d[2]
    # the bath alone sets the distances: there is no subsystem size to give
    assert main(["designcheck", "--na", "2", "--out", out + "2"]) == 2
    assert json.loads(capsys.readouterr().err.strip())["type"] == "UsageError"
    assert not os.path.exists(out + "2")


@pytest.mark.parametrize("flag,value,match", [("--lengths", "0", "bath side length"),
                                              ("--g", "0.0", "guard band"),
                                              ("--t", "0", "t=0"), ("--k", "-1", "k=-1")])
def test_cli_designcheck_refuses_bad_length_or_coupling(tmp_path, capsys, flag, value, match):
    out = str(tmp_path / "dc.csv")
    assert main(["designcheck", flag, value, "--out", out]) == 3
    rec = json.loads(capsys.readouterr().err.strip())
    assert rec["type"] == "ConfigError" and match in rec["error"]
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv", [["exact", "--n", "6", "--na", "2", "--t", "2"], ["designcheck"]])
@pytest.mark.parametrize("g", ["nan", "inf", "-inf"])
def test_cli_refuses_non_finite_coupling(tmp_path, capsys, argv, g):
    # refused before any work: the chain would evolve under NaNs and end in LinAlgError
    out = str(tmp_path / "x.csv")
    assert main([*argv, f"--g={g}", "--out", out]) == 3
    rec = json.loads(capsys.readouterr().err.strip())
    assert rec["type"] == "ConfigError" and "g must be finite" in rec["error"]
    assert not os.path.exists(out)


def test_cli_designcheck_keeps_repeated_unsorted_lengths(tmp_path, capsys):
    out = str(tmp_path / "dc.csv")
    assert main(["designcheck", "--lengths", "4,2,4", "--out", out]) == 0
    cols, rows = read_csv(out)
    assert [int(r[0]) for r in rows] == [4, 2, 4]
    d = [float(r[2]) for r in rows]
    assert d[0] == d[2] < d[1]


def test_cli_designcheck_refuses_oversized_run_before_allocating(tmp_path, capsys, monkeypatch):
    def admitted(*args, **kwargs):
        raise AssertionError("passed the preflight")

    monkeypatch.setattr(kim, "haar_unitary_moment", admitted)
    out = str(tmp_path / "dc.csv")
    # t=1, k=7: the Haar moment is 16384 x 16384 complex, 4.3 GB per array
    assert main(["designcheck", "--t", "1", "--k", "7", "--out", out]) == 3
    rec = json.loads(capsys.readouterr().err.strip())
    assert rec["type"] == "ConfigError" and "above budget" in rec["error"]
    assert not os.path.exists(out)
    # the largest replicated temporal spaces still run, 4^(t k) = 4096
    for t, k in ((1, 6), (2, 3), (3, 2), (6, 1)):
        assert main(["designcheck", "--t", str(t), "--k", str(k), "--lengths", "6"]) == 3
        assert json.loads(capsys.readouterr().err.strip())["error"] == "passed the preflight"


def test_cli_replica_multi_t_and_rates(tmp_path, capsys):
    out = str(tmp_path / "replica.csv")
    assert main(["replica", "--k", "2", "--nmax", "2", "--t", "2,3,4",
                 "--na", "2", "--out", out]) == 0
    cols, rows = read_csv(out)
    assert len(rows) == 9  # three n values per t
    assert main(["rates", "--in", out]) == 0
    line = capsys.readouterr().out.strip()
    v = float(line.split("v=")[1])
    assert 1.5 < v < 2.5


def test_cli_replica_refuses_non_hermitian_moment(tmp_path, capsys, monkeypatch):
    # an anti-Hermitian part added to the symmetric (m,) block: the sum is
    # still a Sym^2 block, but replica_moment's Hermitian check must fire
    engine = replica.class_diagram_terms

    def skewed(n_a, k, n):
        terms = dict(engine(n_a, k, n))
        sym = (k + n,)
        skew = np.zeros(terms[sym].shape)
        skew[0, 1], skew[1, 0] = 1.0, -1.0
        terms[sym] = terms[sym] + 1e-6 * np.abs(terms[sym]).max() * skew
        return terms

    monkeypatch.setattr(replica, "class_diagram_terms", skewed)
    out = str(tmp_path / "replica.csv")
    # odd N_A: the engine's blocks (even N_A takes the closed form, with no blocks)
    assert main(["replica", "--k", "2", "--nmax", "2", "--t", "2", "--na", "1",
                 "--out", out]) == 3
    rec = json.loads(capsys.readouterr().err.strip())
    assert rec["type"] == "ReplicaError" and "not Hermitian" in rec["error"]
    assert not os.path.exists(out)


def test_cli_replica_na4_reaches_m6(tmp_path):
    # the closed form needs no engine, whose m = 6 blocks at N_A = 4 would need 656 GB
    out = str(tmp_path / "replica.csv")
    assert main(["replica", "--na", "4", "--k", "2", "--nmax", "4", "--t", "2,3,4", "--out", out]) == 0
    cols, rows = read_csv(out)
    assert len(rows) == 15
    assert all(float(r[cols.index("deviation_trace_norm")]) > 0 for r in rows)


def test_cli_replica_pbc_t40_norms_positive(tmp_path):
    # the norms are ~6e-25 here: the closed form keeps them, where float weights cancel to 0
    out = str(tmp_path / "replica.csv")
    assert main(["replica", "--na", "2", "--k", "2", "--nmax", "4", "--t", "40", "--bc", "pbc", "--out", out]) == 0
    cols, rows = read_csv(out)
    norms = [float(r[cols.index("deviation_trace_norm")]) for r in rows]
    assert len(norms) == 5 and all(0 < v < float("inf") for v in norms)


def test_cli_replica_odd_na_pbc_t40_norms_at_their_limits(tmp_path):
    # N_A = 1: norm 2^80 -> 8/9, 4/3, 28/15, 112/45 for n = 0..3, the next order
    # 2^-80 relative; the engine's exact weight differences keep the ~1e-25 norms
    out = str(tmp_path / "replica.csv")
    assert main(["replica", "--na", "1", "--k", "2", "--nmax", "3", "--t", "40", "--bc", "pbc", "--out", out]) == 0
    cols, rows = read_csv(out)
    scaled = [float(r[cols.index("deviation_trace_norm")]) * 2.0**80 for r in rows]
    assert scaled == pytest.approx([8 / 9, 4 / 3, 28 / 15, 112 / 45], rel=1e-9)


@pytest.mark.parametrize("na", [1, 2, 3])
def test_cli_replica_refuses_k1(tmp_path, capsys, monkeypatch, na):
    # at k = 1 the norms are zeros (even N_A) or rounding noise (odd N_A): refused before any work
    def engine_fail(*args, **kwargs):
        raise AssertionError("replica engine ran for a refused run")

    monkeypatch.setattr(cli, "deviation_series", engine_fail)
    monkeypatch.setattr(replica, "_sagg_bundle", engine_fail)
    out = str(tmp_path / "replica.csv")
    assert main(["replica", "--k", "1", "--nmax", "4", "--t", "2,3,4", "--na", str(na),
                 "--out", out]) == 3
    rec = json.loads(capsys.readouterr().err.strip())
    assert rec["type"] == "ReplicaError" and "Haar moment" in rec["error"]
    assert not os.path.exists(out) and not os.path.exists(out + ".meta.json")


def test_cli_maps_arithmetic_error_to_error_record(tmp_path, capsys, monkeypatch):
    def overflow(series, k):
        raise OverflowError("math range error")

    monkeypatch.setattr(cli, "extrapolate_to_physical", overflow)
    out = str(tmp_path / "replica.csv")
    assert main(["replica", "--k", "2", "--nmax", "2", "--t", "2", "--out", out]) == 3
    rec = json.loads(capsys.readouterr().err.strip())
    assert rec == {"error": "math range error", "type": "OverflowError"}
    assert not os.path.exists(out)


def test_cli_figure3_pipeline(tmp_path):
    prefix = str(tmp_path / "fig")
    svg = str(tmp_path / "fig.svg")
    assert main(["figure3", "--na", "2", "--kmax", "2", "--tmax", "4",
                 "--mc-samples", "50000", "--out", prefix, "--plot", svg]) == 0
    cols, rows = read_csv(prefix + "_points.csv")
    assert cols == ["k", "t", "bc", "method", "value"]
    methods = {r[3] for r in rows}
    assert methods == {"replica", "mc"}
    rcols, rrows = read_csv(prefix + "_rates.csv")
    assert rcols == ["k", "bc", "v"]
    assert {r[1] for r in rrows} == {"pbc", "obc"}
    assert open(svg).read().startswith("<svg")
    # the plot is drawn from the points as written: the CSV float round trip is lossless
    again = str(tmp_path / "again.svg")
    emit_plot([[int(k), int(t), bc, method, float(v)] for k, t, bc, method, v in rows], again)
    assert open(again, "rb").read() == open(svg, "rb").read()
