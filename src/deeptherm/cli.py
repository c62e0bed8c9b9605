"""Command-line orchestration: reproducible runs, CSV/JSON records, figure data.

Subcommands: weingarten, exact, replica, mc, rates, figure3, designcheck.  A flat
key=value config file can seed the top-level flags and those of the chosen
subcommand (command line wins).  Errors are reported as a machine-readable
JSON object on stderr with a nonzero exit code.  OMP_NUM_THREADS controls
BLAS threading.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .kim import (
    KimConfig,
    check_exact_size,
    delta_k,
    dual_unitary_ensemble_check,
    entropy_bits,
    apply_floquet,
    moments_from_state,
    plus_state,
)
from .montecarlo import JACKKNIFE_BLOCKS, McConfig, mc_moment
from .permgroup import WeingartenConditioningError, enumerate_sym, weingarten_table
from .plotting import emit_plot
from .records import read_csv, write_record
from .replica import (
    ReplicaError,
    ReplicaSpec,
    check_fit_points,
    deviation_series,
    extrapolate_to_physical,
    rate_estimate,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3
FIGURE3_MMAX = 6  # figure3 sweeps k + n <= 6 replicas


def _record(args, subcommand: str, out: str, columns, rows, params: dict) -> None:
    write_record(subcommand, params, columns, rows, out, args.format, getattr(args, "seed", None))


def cmd_weingarten(args) -> int:
    perms = enumerate_sym(args.m)  # the CSV lists every permutation: m <= 8
    table = weingarten_table(args.m, args.d)
    if table.pseudo and not args.allow_singular:
        raise WeingartenConditioningError(args.m, args.d, table.cond)
    rows = []
    for rank, p in enumerate(perms):
        ct = "+".join(str(c) for c in p.cycle_type())
        rows.append([rank, ct, table.value(p)])
    _record(args, "weingarten", args.out, ["perm_rank", "cycle_type", "wg_value"], rows,
            {"m": args.m, "d": args.d, "allow_singular": args.allow_singular,
             "pseudo": table.pseudo, "cond": table.cond})
    return EXIT_OK


def cmd_exact(args) -> int:
    base = KimConfig(n=args.n, n_a=args.na, t=args.t, bc=args.bc, g=args.g,
                     a_offset=args.offset)
    check_exact_size(base.n, base.n_a, args.k)
    rows = []
    state = plus_state(base.n)
    for t in range(args.t + 1):
        if t > 0:
            state = apply_floquet(state, base)
        blocks = moments_from_state(state, base, args.k)
        ent = entropy_bits(blocks[0])  # the order-1 block is the reduced state
        for k, rho in enumerate(blocks, start=1):
            rows.append([base.n, base.n_a, t, base.bc, k,
                         delta_k(rho), ent, base.wraparound(t)])
    _record(args, "exact", args.out,
            ["n", "na", "t", "bc", "k", "delta_k", "entropy_bits", "wraparound_flag"],
            rows, {"n": args.n, "na": args.na, "t": args.t, "bc": args.bc,
                   "k": args.k, "g": args.g, "offset": base.offset})
    return EXIT_OK


def _parse_tlist(text: str, flag: str):
    values = [int(x) for x in str(text).split(",") if x != ""]
    if not values:
        raise ValueError(f"{flag} needs at least one value, got {text!r}")
    return values


def cmd_replica(args) -> int:
    if args.k < 2:
        raise ReplicaError(f"replica needs --k >= 2, got {args.k}: the k = 1 moment equals "
                           "the Haar moment, so there is no deviation to fit")
    check_fit_points(args.nmax + 1)
    rows = []
    for t in _parse_tlist(args.t, "--t"):
        spec = ReplicaSpec(k=args.k, n=0, t=t, n_a=args.na, bc=args.bc)
        series = deviation_series(spec, args.nmax)
        fit = extrapolate_to_physical(series, args.k)
        for n, dev in series:
            rows.append([args.k, n, t, args.bc, dev, fit.a, fit.b, fit.c,
                         fit.estimate, fit.flagged])
    _record(args, "replica", args.out,
            ["k", "n", "t", "bc", "deviation_trace_norm", "fit_a", "fit_b",
             "fit_c", "extrapolated_norm", "fit_residual_flag"],
            rows, {"k": args.k, "nmax": args.nmax, "t": args.t, "bc": args.bc,
                   "na": args.na})
    return EXIT_OK


def cmd_mc(args) -> int:
    cfg = McConfig(k=args.k, t=args.t, n_a=args.na, bc=args.bc,
                   samples=args.samples, seed=args.seed)
    est = mc_moment(cfg)
    rows = []
    for (m_i, d_i), se in zip(est.series.points, est.checkpoint_stderrs):
        rows.append([args.k, args.t, args.bc, m_i, d_i, se, est.series.converged])
    _record(args, "mc", args.out,
            ["k", "t", "bc", "M_checkpoint", "delta_k", "stderr", "converged_flag"],
            rows, {"k": args.k, "t": args.t, "bc": args.bc, "na": args.na,
                   "samples": args.samples, "seed": args.seed,
                   "jackknife_blocks": [min(b, JACKKNIFE_BLOCKS) for b in est.checkpoint_batches]})
    return EXIT_OK


def cmd_rates(args) -> int:
    columns, rows = read_csv(args.infile)
    if "extrapolated_norm" in columns:
        val_col, method_filter = "extrapolated_norm", None
    elif "value" in columns:
        val_col, method_filter = "value", "replica"
    else:
        raise ValueError("rates needs a replica CSV (extrapolated_norm) or points CSV (value)")
    need = ("k", "t", "bc", "method") if method_filter else ("k", "t", "bc")
    missing = [c for c in need if c not in columns]
    if missing:
        raise ValueError(f"rates: {args.infile} has no column(s) {', '.join(missing)}")
    ix = {c: columns.index(c) for c in columns}
    groups: dict = {}
    for r in rows:
        if method_filter and r[ix["method"]] != method_filter:
            continue
        key = (r[ix["k"]], r[ix["bc"]])
        groups.setdefault(key, {})[int(float(r[ix["t"]]))] = float(r[ix[val_col]])
    out_rows = []
    for (k, bc), values in sorted(groups.items()):
        v = rate_estimate(values)
        print(f"k={k} bc={bc} v={v:.2f}")
        out_rows.append([int(k), bc, v])
    if args.out:
        _record(args, "rates", args.out, ["k", "bc", "v"], out_rows, {"infile": args.infile})
    return EXIT_OK


def cmd_figure3(args) -> int:
    if args.tmax < 2:
        raise ValueError(f"figure3 sweeps t = 2..tmax: --tmax must be >= 2, got {args.tmax}")
    if args.kmax < 2:
        raise ValueError(f"figure3 sweeps k = 2..kmax: --kmax must be >= 2, got {args.kmax}")
    check_fit_points(FIGURE3_MMAX + 1 - args.kmax)  # the largest k sweeps n = 0..FIGURE3_MMAX-k
    ts = list(range(2, args.tmax + 1))
    # built first, so a bad --seed, --mc-k or --mc-samples is refused before any replica work
    mc_cfgs = [McConfig(k=args.mc_k, t=t, n_a=args.na, bc=bc, samples=args.mc_samples, seed=args.seed)
               for bc in ("pbc", "obc") for t in (2, 3) if args.mc_samples != 0 and t <= args.tmax]
    points = []
    rate_rows = []
    for bc in ("pbc", "obc"):
        for k in range(2, args.kmax + 1):
            nmax = FIGURE3_MMAX - k
            extrap = {}
            for t in ts:
                spec = ReplicaSpec(k=k, n=0, t=t, n_a=args.na, bc=bc)
                fit = extrapolate_to_physical(deviation_series(spec, nmax), k)
                extrap[t] = fit.estimate
                points.append([k, t, bc, "replica", fit.estimate])
            if len(extrap) >= 3:
                rate_rows.append([k, bc, rate_estimate(extrap)])
    for cfg in mc_cfgs:
        est = mc_moment(cfg)
        points.append([cfg.k, cfg.t, cfg.bc, "mc", 2.0 * est.series.converged_value])
    pts_path = args.out + "_points.csv"
    params = {"na": args.na, "kmax": args.kmax, "tmax": args.tmax,
              "mc_samples": args.mc_samples, "mc_k": args.mc_k}
    _record(args, "figure3", pts_path, ["k", "t", "bc", "method", "value"], points, params)
    _record(args, "figure3", args.out + "_rates.csv", ["k", "bc", "v"], rate_rows, params)
    for k, bc, v in rate_rows:
        print(f"k={k} bc={bc} v={v:.3f}")
    if args.plot:
        emit_plot(points, args.plot)
    return EXIT_OK


def cmd_designcheck(args) -> int:
    lengths = _parse_tlist(args.lengths, "--lengths")
    dists = dual_unitary_ensemble_check(args.t, args.k, args.g, lengths)
    rows = [[L, args.t, d] for L, d in zip(lengths, dists)]
    for L, t, d in rows:
        print(f"L={L} t={t} dist={d:.6e}")
    if args.out:
        _record(args, "designcheck", args.out, ["bath_side", "t", "distance"], rows,
                {"t": args.t, "k": args.k, "g": args.g})
    return EXIT_OK


def _load_config_file(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as f:
        for ln in f:
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            if "=" not in ln:
                raise ValueError(f"config line without '=': {ln!r}")
            key, val = ln.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


class _Parser(argparse.ArgumentParser):
    """Usage errors end in the JSON error record with exit 2, not in usage text."""

    def error(self, message):
        self.exit(EXIT_USAGE, json.dumps({"error": message, "type": "UsageError"}) + "\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="deeptherm", description=__doc__)
    ap.add_argument("--config", help="flat key=value file seeding flag defaults")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, out_required=True):
        p.add_argument("--out", required=out_required)
        p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("weingarten", help="Weingarten table as CSV")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--allow-singular", action="store_true")
    common(p)
    p.set_defaults(func=cmd_weingarten)

    p = sub.add_parser("exact", help="finite-chain projected-ensemble metrics")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--na", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--bc", choices=["pbc", "obc"], default="pbc")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--g", type=float, default=0.3)
    p.add_argument("--offset", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("replica", help="replica deviation series and extrapolation")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--t", type=str, required=True, help="time or comma list")
    p.add_argument("--bc", choices=["pbc", "obc"], default="pbc")
    p.add_argument("--na", type=int, default=2)
    common(p)
    p.set_defaults(func=cmd_replica)

    p = sub.add_parser("mc", help="Monte Carlo moment estimation")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--bc", choices=["pbc", "obc"], default="pbc")
    p.add_argument("--na", type=int, default=2)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=12345)
    common(p)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("rates", help="decay-rate fit from a CSV")
    p.add_argument("--in", dest="infile", required=True)
    common(p, out_required=False)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("figure3", help="replica sweep + MC spot checks + rates")
    p.add_argument("--na", type=int, default=2)
    p.add_argument("--kmax", type=int, default=4)
    p.add_argument("--tmax", type=int, default=5)
    p.add_argument("--mc-samples", type=int, default=0, help="0 disables MC spot checks")
    p.add_argument("--mc-k", type=int, default=2)
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--plot", default=None, help="write an SVG to this path")
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_figure3)

    p = sub.add_parser("designcheck", help="finite-bath Haar emergence distance")
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--g", type=float, default=0.3)
    p.add_argument("--lengths", type=str, default="2,3,4,5,6")
    common(p, out_required=False)
    p.set_defaults(func=cmd_designcheck)
    return ap


def _apply_config_defaults(ap: argparse.ArgumentParser, overrides: dict, cmd) -> None:
    """Seed flag defaults from a config file: top-level flags and those of subcommand cmd.

    Values stay text, which argparse converts and checks by the flag's type
    like the same text on the command line.  argparse checks choices only on
    command-line text, so they are checked here; a flag that takes no value
    accepts only true or false.
    """
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    if cmd not in sub.choices:
        return  # parse_args reports the missing or unknown subcommand
    known = set()
    for parser in (ap, sub.choices[cmd]):
        for action in parser._actions:
            if action is sub:
                continue
            known.add(action.dest)
            if action.dest in overrides:
                text = overrides[action.dest]
                if action.choices is not None and text not in action.choices:
                    ap.error(f"--config: {action.dest} takes {'/'.join(action.choices)}, not {text!r}")
                if action.nargs == 0:
                    if text not in ("true", "false"):
                        ap.error(f"--config: {action.dest} takes true or false, not {text!r}")
                    text = text == "true"
                action.default = text
                action.required = False
    unknown = sorted(set(overrides) - known)
    if unknown:
        ap.error(f"--config: no {cmd} flag for key(s) {', '.join(unknown)}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        # --config (either form) and the subcommand, before the full parse
        pre = _Parser(add_help=False)
        pre.add_argument("--config")
        pre.add_argument("cmd", nargs="?")
        known, _ = pre.parse_known_args(argv)
        if known.config is not None:
            _apply_config_defaults(ap, _load_config_file(known.config), known.cmd)
        args = ap.parse_args(argv)
        return args.func(args)
    except SystemExit as e:
        return int(e.code or 0)
    except (ValueError, ArithmeticError, OSError, RuntimeError, MemoryError, AssertionError) as e:
        sys.stderr.write(json.dumps({"error": str(e), "type": type(e).__name__}) + "\n")
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
