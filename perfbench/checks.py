"""Output checks for each workload, against values captured once.

`reference/` holds the CSVs the CLI wrote at the commit that added this
benchmark (BLAS threads = 2, numpy lane):

    deeptherm figure3 --na 2 --kmax 4 --tmax 5 --out figure3
    deeptherm exact --n 18 --na 2 --t 4 --k 3 --out exact_n18.csv

Each check returns (name, passed, detail); a workload's checks_failed_frac
is failed / attempted over all of them.
"""
from __future__ import annotations

import csv
import math
import os

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

RATE_TOL = 0.25                     # criterion 5: |v - v_bc| <= 0.25
RATE_TARGET = {"pbc": 2.0, "obc": 1.0}
MC_REL_TOL = 0.15                   # criterion 6: within 15% of 0.5 * extrapolated
EXACT_DELTA1_MAX = 1e-8             # criterion 1, inside the pre-recurrence window
RTOL, ATOL = 1e-8, 1e-10            # "matches the reference"


def read_rows(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _close(x: float, ref: float) -> bool:
    return abs(x - ref) <= ATOL + RTOL * abs(ref)


def _match_columns(name, rows, ref_rows, key_cols, value_cols) -> list:
    got = {tuple(r[c] for c in key_cols): r for r in rows}
    out = []
    for ref in ref_rows:
        key = tuple(ref[c] for c in key_cols)
        label = f"{name}[{','.join(key)}]"
        row = got.get(key)
        if row is None:
            out.append((label, False, "row missing"))
            continue
        for col in value_cols:
            x, r = float(row[col]), float(ref[col])
            out.append((f"{label}.{col}", _close(x, r), f"{x:.17e} vs reference {r:.17e}"))
    return out


def mc_target(bc: str, t: int, k: int = 2) -> float:
    """0.5 * the extrapolated replica norm, from the reference figure3 points."""
    for r in read_rows(os.path.join(REFERENCE, "figure3_points.csv")):
        if (r["bc"], int(r["t"]), int(r["k"]), r["method"]) == (bc, t, k, "replica"):
            return 0.5 * float(r["value"])
    raise KeyError((bc, t, k))


def check_figure3(outdir: str, prefix: str) -> list:
    out = []
    for r in read_rows(os.path.join(outdir, prefix + "_rates.csv")):
        v = float(r["v"])
        target = RATE_TARGET[r["bc"]]
        out.append((f"rate[k={r['k']},{r['bc']}]", abs(v - target) <= RATE_TOL,
                    f"v={v:.4f}, target {target} +- {RATE_TOL}"))
    ref_rates = read_rows(os.path.join(REFERENCE, "figure3_rates.csv"))
    if len(out) != len(ref_rates):
        out.append(("rate_count", False, f"{len(out)} rates, reference has {len(ref_rates)}"))
    out += _match_columns(
        "point", read_rows(os.path.join(outdir, prefix + "_points.csv")),
        read_rows(os.path.join(REFERENCE, "figure3_points.csv")),
        ("k", "t", "bc", "method"), ("value",))
    return out


def check_mc(outdir: str, out_csv: str, bc: str, t: int, samples: int) -> list:
    rows = read_rows(os.path.join(outdir, out_csv))
    last = rows[-1]
    delta, se = float(last["delta_k"]), float(last["stderr"])
    target = mc_target(bc, t)
    rel = abs(delta - target) / target
    return [
        ("final_checkpoint", int(last["M_checkpoint"]) == samples,
         f"M={last['M_checkpoint']}, samples {samples}"),
        ("delta_2_vs_replica", rel <= MC_REL_TOL,
         f"delta_2={delta:.5e}, target {target:.5e}, rel {rel:.4f} (bound {MC_REL_TOL})"),
        ("stderr_finite", math.isfinite(se) and se > 0, f"stderr={se:.3e}"),
    ]


def check_exact(outdir: str, out_csv: str) -> list:
    rows = read_rows(os.path.join(outdir, out_csv))
    out = _match_columns("row", rows, read_rows(os.path.join(REFERENCE, "exact_n18.csv")),
                         ("n", "na", "t", "bc", "k"), ("delta_k", "entropy_bits"))
    t0 = (int(rows[0]["na"]) + 1) // 2
    window = [r for r in rows if r["k"] == "1" and int(r["t"]) >= t0 and r["wraparound_flag"] == "false"]
    worst = max(float(r["delta_k"]) for r in window)
    out.append(("delta_1_window", bool(window) and worst <= EXACT_DELTA1_MAX,
                f"worst delta_1 {worst:.2e} over t={[int(r['t']) for r in window]}"))
    return out


def same_bytes(path_a: str, path_b: str) -> bool:
    with open(path_a, "rb") as a, open(path_b, "rb") as b:
        return a.read() == b.read()
