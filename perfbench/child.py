"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/child.py RESULT_JSON TRACE [CLI ARGS...]

Imports `deeptherm.cli`, notes when the import is done (the parent subtracts
its own spawn time to get the set-up time), then calls `deeptherm.cli.main`
with the CLI arguments; with no CLI arguments it only imports (a set-up
probe).  TRACE=1 installs the tracer after the import.  Writes timings, the
exit code, the environment and, when traced, the spans to RESULT_JSON.
"""
from __future__ import annotations

import json
import sys
import time

_CLOCK = time.CLOCK_MONOTONIC


def _environment() -> dict:
    import ctypes
    import importlib.util

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = sorted({ln.split()[-1] for ln in maps if "openblas" in ln and ln.rstrip().endswith(".so")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def main() -> int:
    result_path, trace, cli_args = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import deeptherm.cli as cli

    out = {"ready": time.clock_gettime(_CLOCK)}
    if cli_args:
        tracer = None
        if trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        wall0, cpu0 = time.clock_gettime(_CLOCK), time.process_time()
        if tracer is None:
            rc = cli.main(cli_args)
        else:
            rc = tracer.run_root("cli.main", cli.main, cli_args)
        out["wall_s"] = time.clock_gettime(_CLOCK) - wall0
        out["cpu_s"] = time.process_time() - cpu0
        out["rc"] = rc
        if tracer is not None:
            tracer.uninstall()
            out["trace"] = tracer.dump()
        out["env"] = _environment()
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
