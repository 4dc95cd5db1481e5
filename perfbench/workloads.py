"""The benchmark's three workloads: seeded inputs, one op each, output checks.

Every workload is a class with the same four steps. The constructor is the
set-up (model construction and anything the ops share); `make_input(i)`
builds op i's input outside the timed region; `run(inp)` is the timed op and
calls only the library; `check(inp, out)` returns the list of problems found
in the op's outputs and the number of steps the op estimated.

Op 0 of every run uses REFERENCE_SEED, and its outputs are compared with the
values recorded in `reference/` within REF_TOL. Ops 1, 2, ... draw their
seeds from the run seed and are checked against invariants that hold for any
input: bounds, sign, finiteness, internal consistency of the exports.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_SEED = 1810
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Reference values must agree within 1e-12 bits. Exports print 12 significant
# digits, so for a value above 1 the tolerance is one unit in its 12th digit.
REF_TOL = 1e-12
# Quantities the check re-derives from other columns of the same export
# (running sums, per-state means) carry the 12-digit rounding of their inputs.
DERIVED_TOL = 1e-9
RESIDUAL_MAX = 1e-10
MC_SIGMAS = 3.0

SIZES = {
    "full": {
        "trace_oracle": {"n": 20_000},
        "market_sweep": {"days": 2_600, "d": 3},
        "rates_oracle": {
            "pdi_k": (1, 2, 3),
            "tdi_k": (1, 2, 3, 4),
            "mc_n": 100_000,
            "ternary_order": 3,
            "binary_order": 3,
        },
    },
    "tiny": {
        "trace_oracle": {"n": 600},
        "market_sweep": {"days": 400, "d": 3},
        "rates_oracle": {
            "pdi_k": (1, 2),
            "tdi_k": (1, 2),
            "mc_n": 4_000,
            "ternary_order": 2,
            "binary_order": 2,
        },
    },
}


def op_seed(run_seed: int, i: int) -> int:
    """Seed of op i: the pinned reference seed for op 0, else drawn from the
    run seed."""
    if i == 0:
        return REFERENCE_SEED
    return int(np.random.SeedSequence([run_seed, i]).generate_state(1)[0])


# -- reading and comparing exports --------------------------------------------------


def read_table(path: Path) -> dict:
    """Numeric CSV as one float array per column; empty cells become NaN."""
    with open(path) as fp:
        header = fp.readline().rstrip("\n").split(",")
        cols = [[] for _ in header]
        for line in fp:
            toks = line.rstrip("\n").split(",")
            if len(toks) != len(header):
                raise ValueError(f"{path.name}: row with {len(toks)} of {len(header)} fields")
            for col, tok in zip(cols, toks):
                col.append(float(tok) if tok else math.nan)
    return {h: np.array(c) for h, c in zip(header, cols)}


def read_symbols(path: Path) -> np.ndarray:
    """The symbol column of a `date,symbol` export."""
    with open(path) as fp:
        if fp.readline().rstrip("\n") != "date,symbol":
            raise ValueError(f"{path.name}: header is not date,symbol")
        return np.array([int(line.rstrip("\n").split(",")[1]) for line in fp], dtype=np.int64)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sample_rows(n: int) -> list[int]:
    """The rows of a trace that the reference keeps: the first ten, about a
    hundred spread evenly, and the last."""
    stride = max(1, n // 100)
    return sorted(set(range(min(n, 10))) | set(range(0, n, stride)) | {n - 1})


def trace_sample(table: dict) -> dict:
    rows = sample_rows(len(table["i"]))
    return {
        "n": len(table["i"]),
        "rows": rows,
        "columns": {
            col: [None if math.isnan(v) else float(v) for v in values[rows]]
            for col, values in table.items()
            if col != "i"
        },
    }


def ref_close(value: float, ref) -> bool:
    if ref is None:
        return math.isnan(value)
    return abs(value - ref) <= REF_TOL * max(1.0, abs(ref))


def compare_sample(label: str, table: dict, ref: dict, problems: list) -> None:
    if len(table["i"]) != ref["n"]:
        problems.append(f"{label}: {len(table['i'])} rows, reference has {ref['n']}")
        return
    for col, ref_values in ref["columns"].items():
        if col not in table:
            problems.append(f"{label}: column {col} missing")
            continue
        got = table[col][ref["rows"]]
        for row, value, want in zip(ref["rows"], got, ref_values):
            if not ref_close(float(value), want):
                problems.append(f"{label}: {col} row {row + 1} is {value!r}, reference {want!r}")
                break


def check_trace(label: str, table: dict, n: int, truth: bool, problems: list) -> None:
    """Invariants of one trace export, for any input."""
    if truth:
        cols = ["i", "estimate_bits", "truth_bits", "c_i", "cum_abs_err", "cum_bound"]
    else:
        cols = ["i", "estimate_bits", "c_i", "cum_bound"]
    if list(table) != cols:
        problems.append(f"{label}: columns {list(table)}, expected {cols}")
        return
    if not np.array_equal(table["i"], np.arange(1, n + 1)):
        problems.append(f"{label}: step column is not 1..{n}")
        return
    for col in ("estimate_bits", "c_i") + (("truth_bits",) if truth else ()):
        v = table[col]
        if not (np.all(np.isfinite(v)) and np.all(v >= 0.0)):
            problems.append(f"{label}: {col} has a negative or non-finite value")
    bound = table["cum_bound"]
    defined = ~np.isnan(bound)
    if np.any(defined) and not np.all(defined[int(np.argmax(defined)):]):
        problems.append(f"{label}: cum_bound goes undefined after being defined")
    if not (np.all(np.isfinite(bound[defined])) and np.all(bound[defined] >= 0.0)):
        problems.append(f"{label}: cum_bound has a negative or non-finite value")
    if truth:
        err = table["cum_abs_err"]
        again = np.cumsum(np.abs(table["estimate_bits"] - table["truth_bits"]))
        if np.any(np.abs(err - again) > DERIVED_TOL * np.maximum(1.0, np.abs(err))):
            problems.append(f"{label}: cum_abs_err is not the running sum of |estimate - truth|")
        over = np.nonzero(defined & ~(err <= bound))[0]
        if over.size:
            i = int(over[0])
            problems.append(
                f"{label}: cum_abs_err {err[i]!r} exceeds cum_bound {bound[i]!r} at step {i + 1}"
            )


def load_reference(workload: str, scale: str):
    path = REFERENCE_DIR / f"{workload}_{scale}.json"
    if not path.exists():
        return None
    with open(path) as fp:
        return json.load(fp)


def _read_outputs(paths: dict, problems: list):
    try:
        return {key: read_table(path) for key, path in paths.items()}
    except (OSError, ValueError) as exc:
        problems.append(f"unreadable output: {exc}")
        return None


# -- trace_oracle ---------------------------------------------------------------------


class TraceOracle:
    """`causalpath simulate` then `causalpath estimate --direction both` with
    the generating model, so every trace carries exact truth columns."""

    name = "trace_oracle"

    def __init__(self, cp, scale: str, seed: int, workdir: Path):
        self.cli = cp.cli
        self.n = SIZES[scale][self.name]["n"]
        self.seed = seed
        self.workdir = workdir
        self.reference = load_reference(self.name, scale)
        self.model_path = workdir / "bidirectional.json"
        cp.scenario_model("bidirectional").save(self.model_path)

    def make_input(self, i: int) -> dict:
        base = self.workdir / f"op{i}"
        return {"i": i, "seed": op_seed(self.seed, i), "sim": base / "sim", "est": base / "est"}

    def run(self, inp: dict) -> list[int]:
        sim, est = inp["sim"], inp["est"]
        return [
            self.cli.main(
                ["simulate", "--scenario", "bidirectional", "--n", str(self.n),
                 "--seed", str(inp["seed"]), "--out", str(sim)]
            ),
            self.cli.main(
                ["estimate", "--x", str(sim / "x.csv"), "--y", str(sim / "y.csv"),
                 "--model", str(self.model_path), "--d", "1", "--direction", "both",
                 "--out", str(est)]
            ),
        ]

    def outputs(self, inp: dict) -> list[Path]:
        return [inp["sim"], inp["est"]]

    def check(self, inp: dict, out) -> tuple[list, int]:
        problems: list = []
        if out != [0, 0]:
            return [f"exit codes {out}"], 0
        est = inp["est"]
        tables = _read_outputs(
            {d: est / f"trace_{d}.csv" for d in ("y_to_x", "x_to_y")}, problems
        )
        if tables is None:
            return problems, 0
        for direction, table in tables.items():
            check_trace(direction, table, self.n, True, problems)
        if not (est / "metadata.json").exists():
            problems.append("estimate wrote no metadata.json")
        if inp["i"] == 0 and self.reference is not None:
            ref = self.reference
            for name in ("x", "y"):
                if sha256(inp["sim"] / f"{name}.csv") != ref["symbols_sha256"][name]:
                    problems.append(f"simulated {name}.csv differs from the reference")
            for direction, table in tables.items():
                compare_sample(direction, table, ref["traces"][direction], problems)
        steps = sum(len(t["i"]) for t in tables.values())
        return problems, steps

    def record(self, inp: dict, out) -> dict:
        est = inp["est"]
        return {
            "symbols_sha256": {n: sha256(inp["sim"] / f"{n}.csv") for n in ("x", "y")},
            "traces": {
                d: trace_sample(read_table(est / f"trace_{d}.csv")) for d in ("y_to_x", "x_to_y")
            },
        }


# -- market_sweep ---------------------------------------------------------------------

MARKET_START = dt.date(2000, 1, 3)
MARKET_VOL = 0.011
MARKET_CROSS = 0.35  # weight of the other market's previous-day return
HOLIDAY_RATE = 0.03


def market_pair(seed: int, days: int) -> tuple[list, list, int]:
    """Two synthetic daily price series over `days` weekdays.

    Each is a geometric random walk whose daily log return adds a share of
    the other market's previous-day return; each market independently skips
    about 3% of the days as holidays. Returns the two (date, price) lists and
    the number of days the aligned calendar should have: the union of both
    markets' days inside their common span.
    """
    rng = np.random.default_rng(seed)
    dates = []
    day = MARKET_START
    while len(dates) < days:
        if day.weekday() < 5:
            dates.append(day)
        day += dt.timedelta(days=1)
    noise = rng.standard_normal((days, 2)) * MARKET_VOL
    ret = np.empty((days, 2))
    ret[0] = noise[0]
    for t in range(1, days):
        ret[t, 0] = noise[t, 0] + MARKET_CROSS * ret[t - 1, 1]
        ret[t, 1] = noise[t, 1] + MARKET_CROSS * ret[t - 1, 0]
    prices = 100.0 * np.exp(np.cumsum(ret, axis=0))
    open_days = rng.random((days, 2)) >= HOLIDAY_RATE
    series = [
        [(dates[t], float(prices[t, j])) for t in range(days) if open_days[t, j]]
        for j in range(2)
    ]
    lo = max(series[0][0][0], series[1][0][0])
    hi = min(series[0][-1][0], series[1][-1][0])
    aligned = sum(1 for t in range(days) if open_days[t].any() and lo <= dates[t] <= hi)
    return series[0], series[1], aligned


def write_prices(path: Path, series: list) -> None:
    with open(path, "w") as fp:
        fp.write("date,adj_close\n")
        for day, price in series:
            fp.write(f"{day.isoformat()},{price:.6f}\n")


def _state_table(est: np.ndarray, target: np.ndarray, side: np.ndarray) -> dict:
    """Per-state statistics of a trace, the way the stock summary defines
    them: step i is grouped by the (target, side) symbols of step i - 1."""
    groups: dict = {}
    for i in range(1, est.size):
        groups.setdefault((int(target[i - 1]), int(side[i - 1])), []).append(est[i])
    usable = est.size - 1
    out = {}
    for state, vals in groups.items():
        v = np.array(vals)
        out[state] = [
            v.size,
            float(f"{100.0 * v.size / usable:.4f}"),  # printed with 4 decimals
            float(v.mean()),
            float(np.median(v)),
            float(np.quantile(v, 0.25)),
            float(np.quantile(v, 0.75)),
        ]
    return out


def read_summary(path: Path) -> tuple[dict, float]:
    states, plug_in = {}, math.nan
    with open(path) as fp:
        fp.readline()
        for line in fp:
            toks = line.rstrip("\n").split(",")
            if toks[0] == "plug_in_di_bits":
                plug_in = float(toks[4])
            else:
                states[(int(toks[0]), int(toks[1]))] = [int(toks[2])] + [float(t) for t in toks[3:]]
    return states, plug_in


class MarketSweep:
    """`causalpath stocks --d 3` on one seeded synthetic market pair per op:
    many short streams through a deep, sparse coupled tree, no oracle."""

    name = "market_sweep"
    labels = ("us", "hk")

    def __init__(self, cp, scale: str, seed: int, workdir: Path):
        self.cli = cp.cli
        size = SIZES[scale][self.name]
        self.days, self.d = size["days"], size["d"]
        self.seed = seed
        self.workdir = workdir
        self.reference = load_reference(self.name, scale)

    def make_input(self, i: int) -> dict:
        base = self.workdir / f"op{i}"
        (base / "in").mkdir(parents=True, exist_ok=True)
        seed = op_seed(self.seed, i)
        a, b, aligned = market_pair(seed, self.days)
        write_prices(base / "in" / "a.csv", a)
        write_prices(base / "in" / "b.csv", b)
        return {"i": i, "seed": seed, "in": base / "in", "out": base / "out", "aligned": aligned}

    def run(self, inp: dict) -> list[int]:
        la, lb = self.labels
        return [
            self.cli.main(
                ["stocks", "--prices-a", str(inp["in"] / "a.csv"),
                 "--prices-b", str(inp["in"] / "b.csv"), "--label-a", la, "--label-b", lb,
                 "--d", str(self.d), "--out", str(inp["out"])]
            )
        ]

    def outputs(self, inp: dict) -> list[Path]:
        return [inp["out"]]

    def _runs(self, sym: dict):
        """(label, target, side) per direction, as `causalpath stocks` pairs them."""
        la, lb = self.labels
        return [
            (f"{la}_to_{lb}", sym[lb], sym[la]),
            (f"{lb}_to_{la}", sym[la][1:], sym[lb][:-1]),
        ]

    def check(self, inp: dict, out) -> tuple[list, int]:
        problems: list = []
        if out != [0]:
            return [f"exit code {out}"], 0
        o = inp["out"]
        try:
            sym = {label: read_symbols(o / f"symbols_{label}.csv") for label in self.labels}
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable symbols: {exc}"], 0
        n = inp["aligned"] - 1
        for label, s in sym.items():
            if s.size != n:
                problems.append(f"symbols_{label}: {s.size} symbols, expected {n}")
            elif not np.all((s >= 0) & (s <= 2)):
                problems.append(f"symbols_{label}: symbol outside 0..2")
        if problems:
            return problems, 0
        runs = self._runs(sym)
        tables = _read_outputs({label: o / f"trace_{label}.csv" for label, _, _ in runs}, problems)
        if tables is None:
            return problems, 0
        for label, target, side in runs:
            table = tables[label]
            check_trace(label, table, target.size, False, problems)
            if problems:
                continue
            try:
                states, plug_in = read_summary(o / f"summary_{label}.csv")
            except (OSError, ValueError, IndexError) as exc:
                problems.append(f"summary_{label}: unreadable: {exc}")
                continue
            est = table["estimate_bits"]
            want = _state_table(est, target, side)
            if sorted(states) != sorted(want):
                problems.append(f"summary_{label}: states {sorted(states)}, expected {sorted(want)}")
                continue
            for state, row in want.items():
                got = states[state]
                if got[0] != row[0] or any(
                    abs(g - w) > DERIVED_TOL * max(1.0, abs(w)) for g, w in zip(got[1:], row[1:])
                ):
                    problems.append(f"summary_{label}: state {state} is {got}, trace gives {row}")
                    break
            if abs(plug_in - float(est.mean())) > DERIVED_TOL:
                problems.append(f"summary_{label}: plug-in rate {plug_in} is not the trace mean")
        if not (o / "metadata.json").exists():
            problems.append("stocks wrote no metadata.json")
        if inp["i"] == 0 and self.reference is not None and not problems:
            ref = self.reference
            for label in self.labels:
                if sha256(o / f"symbols_{label}.csv") != ref["symbols_sha256"][label]:
                    problems.append(f"symbols_{label}.csv differs from the reference")
            for label, table in tables.items():
                compare_sample(label, table, ref["traces"][label], problems)
                states, plug_in = read_summary(o / f"summary_{label}.csv")
                ref_states = {tuple(s["state"]): s["row"] for s in ref["summaries"][label]["states"]}
                for state, row in ref_states.items():
                    got = states.get(state)
                    if got is None or not all(ref_close(g, w) for g, w in zip(got, row)):
                        problems.append(f"summary_{label}: state {state} is {got}, reference {row}")
                        break
                if not ref_close(plug_in, ref["summaries"][label]["plug_in"]):
                    problems.append(f"summary_{label}: plug-in rate differs from the reference")
        steps = sum(len(t["i"]) for t in tables.values())
        return problems, steps

    def record(self, inp: dict, out) -> dict:
        o = inp["out"]
        out = {
            "symbols_sha256": {lb: sha256(o / f"symbols_{lb}.csv") for lb in self.labels},
            "traces": {},
            "summaries": {},
        }
        for label in (f"{self.labels[0]}_to_{self.labels[1]}", f"{self.labels[1]}_to_{self.labels[0]}"):
            out["traces"][label] = trace_sample(read_table(o / f"trace_{label}.csv"))
            states, plug_in = read_summary(o / f"summary_{label}.csv")
            out["summaries"][label] = {
                "states": [{"state": list(s), "row": states[s]} for s in sorted(states)],
                "plug_in": plug_in,
            }
        return out


# -- rates_oracle ---------------------------------------------------------------------

NO_FINITE_ORDER = "no-finite-order"


class RatesOracle:
    """Exact partial/truncated rates, the Monte Carlo rate, a dense stationary
    solve and two Markovicity classifications: markov and graphs, no CTW."""

    name = "rates_oracle"

    def __init__(self, cp, scale: str, seed: int, workdir: Path):
        self.cp = cp
        self.size = SIZES[scale][self.name]
        self.seed = seed
        self.reference = load_reference(self.name, scale)

    def make_input(self, i: int) -> dict:
        return {"i": i, "seed": op_seed(self.seed, i)}

    def run(self, inp: dict) -> dict:
        cp, size, seed = self.cp, self.size, inp["seed"]
        bidir = cp.scenario_model("bidirectional")
        pdi = [cp.exact_pdi_rate(bidir, k) for k in size["pdi_k"]]
        tdi = [cp.exact_tdi_rate(bidir, k) for k in size["tdi_k"]]
        mc = cp.mc_di_rate(bidir, size["mc_n"], seed=seed)
        rng = np.random.default_rng(seed)
        order = size["ternary_order"]
        ternary = cp.random_model(order, 3, 3, rng)
        stationary = cp.stationary_distribution(ternary)
        ternary_tdi = cp.exact_tdi_rate(ternary, order)
        binary = cp.random_model(size["binary_order"], 2, 2, rng)
        return {
            "pdi": pdi,
            "tdi": tdi,
            "mc_rate": mc.rate,
            "mc_stderr": mc.stderr,
            "mc_steps": mc.steps,
            "ternary_residual": stationary.residual,
            "ternary_tdi": ternary_tdi,
            "class_bidirectional": cp.classify_markovicity(bidir).branch,
            "class_binary": cp.classify_markovicity(binary).branch,
        }

    def outputs(self, inp: dict) -> list[Path]:
        return []

    def check(self, inp: dict, out: dict) -> tuple[list, int]:
        problems: list = []
        size = self.size
        rates = dict(
            [(f"pdi_{k}", v) for k, v in zip(size["pdi_k"], out["pdi"])]
            + [(f"tdi_{k}", v) for k, v in zip(size["tdi_k"], out["tdi"])]
            + [("ternary_tdi", out["ternary_tdi"])]
        )
        for key, value in rates.items():
            if not (math.isfinite(value) and value >= 0.0):
                problems.append(f"{key} = {value!r} is negative or not finite")
        rate, se = out["mc_rate"], out["mc_stderr"]
        if not (math.isfinite(rate) and math.isfinite(se) and se > 0.0):
            problems.append(f"MC rate {rate!r} with stderr {se!r}")
        else:
            for k, p in zip(size["pdi_k"], out["pdi"]):
                if not p <= rate + MC_SIGMAS * se:
                    problems.append(f"pdi_{k} = {p!r} > MC rate {rate!r} + 3 se ({se!r})")
            for k, t in zip(size["tdi_k"], out["tdi"]):
                if not rate <= t + MC_SIGMAS * se:
                    problems.append(
                        f"MC rate {rate!r} > tdi_{k} = {t!r} + 3 se ({se!r}),"
                        f" {(rate - t) / se:.2f} se above it"
                    )
        if out["mc_steps"] != size["mc_n"] - 1:
            problems.append(f"MC scored {out['mc_steps']} steps, expected {size['mc_n'] - 1}")
        if not out["ternary_residual"] <= RESIDUAL_MAX:
            problems.append(f"stationary residual {out['ternary_residual']!r} > {RESIDUAL_MAX}")
        for key in ("class_bidirectional", "class_binary"):
            if out[key] != NO_FINITE_ORDER:
                problems.append(f"{key} is {out[key]!r}, expected {NO_FINITE_ORDER!r}")
        ref = self.reference
        if ref is not None:
            # the bidirectional rates do not depend on the seed: every op is compared
            for key in ref["bidirectional"]:
                if not ref_close(rates[key], ref["bidirectional"][key]):
                    problems.append(f"{key} = {rates[key]!r}, reference {ref['bidirectional'][key]!r}")
            if inp["i"] == 0:
                for key in ("ternary_tdi", "ternary_residual"):
                    if not ref_close(out[key], ref[key]):
                        problems.append(f"{key} = {out[key]!r}, reference {ref[key]!r}")
        return problems, out["mc_steps"]

    def record(self, inp: dict, out: dict) -> dict:
        size = self.size
        bidir = {f"pdi_{k}": v for k, v in zip(size["pdi_k"], out["pdi"])}
        bidir.update({f"tdi_{k}": v for k, v in zip(size["tdi_k"], out["tdi"])})
        return {
            "bidirectional": bidir,
            "ternary_tdi": out["ternary_tdi"],
            "ternary_residual": out["ternary_residual"],
        }


WORKLOADS = {w.name: w for w in (TraceOracle, MarketSweep, RatesOracle)}
