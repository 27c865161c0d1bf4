"""Rebuild the stored reference outcomes under bench/reference/.

    python3 bench/make_reference.py

Runs every item of every workload once (the whole random pool, not a run's
quarter of it) and records the outcomes the current code produces.  The
files in the repository were made from the seed code; rebuild them only in a
change whose purpose is to change the benchmark's reference.

Also writes ``analyze_strata.json``: the pool split into strata by
classification and known failure, each sorted by solve_ivp work, from which
``workloads.select_pool`` draws a run's systems.  Known crashes are always run.
"""
from __future__ import annotations

import json
import sys

import workloads
from workloads import GAP_TOL, POOL_SIZE, REF_DIR, Unit, build_units, modules, run_unit, tap


def _write(name: str, rows: list[dict]) -> None:
    rows.sort(key=lambda r: r["key"])
    with (REF_DIR / f"{name}.jsonl").open("w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def analyze_rows(cw) -> tuple[list[dict], dict]:
    import crosswitch.returnmap as rmod

    pairs = workloads.normal_form_systems(cw)
    pairs += [(f"pool|{k:04d}", workloads.pool_system(k)) for k in range(POOL_SIZE)]
    rows, strata, always = [], {}, []
    for key, obj in pairs:
        unit = Unit(key, (json.dumps(obj), workloads.is_transient_obj(obj)))
        fits: list = []
        with tap(rmod, "solve_ivp", fits):
            (_, _, out), = run_unit("analyze", unit, cw).items
        nfev = sum(int(sol.nfev) for *_, sol in fits if sol is not None)
        rm = out.get("return_map") or {}
        known = "crash" if "raise" in rm else ("gap" if rm.get("gap", 0.0) > GAP_TOL else None)
        rows.append({"key": key, "out": out, "nfev": nfev, "known": known})
        if key.startswith("pool|"):
            k = int(key.split("|")[1])
            if known == "crash":
                always.append(k)
            else:
                name = f"{out['classify'].get('class', 'refused')}|{known or 'ok'}"
                strata.setdefault(name, []).append((nfev, k))
    return rows, {"always": sorted(always),
                  "strata": {n: [k for _, k in sorted(m)] for n, m in sorted(strata.items())}}


def main() -> int:
    workloads.use_checkout_source()
    cw = modules()
    REF_DIR.mkdir(exist_ok=True)
    rows, strata = analyze_rows(cw)
    _write("analyze", rows)
    known = [r["known"] for r in rows if r["known"]]
    (REF_DIR / "analyze_strata.json").write_text(json.dumps(strata) + "\n")
    for name in ("sweep", "portrait"):
        rows = [{"key": key, "out": out}
                for unit in build_units(name, 0, cw)
                for key, _, out in run_unit(name, unit, cw).items]
        _write(name, rows)
    print(f"reference written to {REF_DIR}; analyze known failures: "
          f"{known.count('crash')} crash, {known.count('gap')} gap", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
