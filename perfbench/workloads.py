"""The three study workloads: seeded inputs, one timed answer, and the
correctness gate each answer must pass.

A workload object is built once per process from the seed (the set-up the
benchmark reports as ``setup_s``); ``answer()`` then runs the study problem
end to end and may be called repeatedly on the same inputs. tiplab only ever
sees the generated inputs, never the seed. Package functions are looked up
through their modules at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import importlib
import random
import time
from dataclasses import dataclass
from pathlib import Path

SQ5 = math.sqrt(5.0)

# Criterion 2: the d-concave family flips from C2 to A at this rate, known
# to the width of the acceptance bracket (1e-6).
CRITICAL_RATE_REF = 0.999999267
CRITICAL_RATE_REF_TOL = 1.0e-6

# Criterion 6: the sign of lambda*(c, s) for the concave study model. A
# negative value means the untilted equation tracks (Case A).
NEGATIVE_CELLS = ((0.25, 0.0), (0.74, 0.0), (1.0, -5.0), (1.0, 10.0))
POSITIVE_CELLS = ((0.495, 0.0), (1.0, 2.5))


@dataclass
class Cell:
    """One op of an answer: a bracket, a lambda* cell or a reaction cell.
    t0 and t1 are ``time.perf_counter()`` readings around it."""

    t0: float
    t1: float
    ok: bool
    detail: str = ""

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


@dataclass
class Answer:
    t0: float
    t1: float
    cells: list[Cell]
    fingerprint: object              # JSON-able; compared exactly

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


def canonical(obj) -> str:
    """Exact text form of a fingerprint (floats keep every digit)."""
    return json.dumps(obj, sort_keys=True)


# ---------------------------------------------------------------------------
# models and profiles of the acceptance suite
# ---------------------------------------------------------------------------

DCONCAVE_MODEL = {
    "family": "allee-multiplicative-rational",
    "coefficients": {
        "r":   {"kind": "sin2", "offset": 1.5,  "amplitude": 1.0,  "omega": 0.25},
        "K":   {"kind": "sin2", "offset": 40.0, "amplitude": 40.0, "omega": SQ5 / 16},
        "mu":  {"kind": "sin2", "offset": 30.0, "amplitude": 30.0, "omega": 0.25},
        "nu":  {"kind": "sin2", "offset": 40.0, "amplitude": 40.0, "omega": SQ5 / 16},
        "phi": {"kind": "sin2", "offset": 0.75, "amplitude": 0.5,  "omega": SQ5 / 2},
    },
}
CAUCHY_PULSE = {"kind": "cauchy-pulse", "gamma_plus": 1.5, "gamma_star": 0.8,
                "b": 0.02386}
CONCAVE_MODEL = {
    "family": "concave-logistic-migration",
    "coefficients": {
        "r": 1.0,
        "I": {"kind": "sum", "offset": 0.895, "terms": [
            {"kind": "sin", "amplitude": -1.0, "omega": 0.5},
            {"kind": "sin", "amplitude": -1.0, "omega": SQ5},
        ]},
    },
}
HOLLING_MODEL = {
    "family": "holling-predation-linear-gamma",
    "coefficients": {
        "r": {"kind": "sin", "offset": 2.0, "amplitude": 1.0, "omega": 1.0},
        "K": {"kind": "sin2", "offset": 90.0, "amplitude": 18.0, "omega": SQ5 / 2},
        "b": 10.0,
    },
}


def build_models(name: str) -> dict:
    """Import tiplab and build the workload's models and profiles: the part
    of set-up that does not depend on the seed."""
    from tiplab.models import make_model
    from tiplab.transitions import make_profile

    if name == "critical-rate":
        return {"model": make_model(**DCONCAVE_MODEL),
                "profile": make_profile(**CAUCHY_PULSE)}
    if name == "lambda-star":
        return {"model": make_model(**CONCAVE_MODEL),
                "profile": make_profile("arctan", amplitude=2.0 / math.pi, scale=1.0)}
    if name == "early-warning":
        return {"model": make_model(**HOLLING_MODEL),
                "profile": make_profile("rational-dip", amplitude=-550.0, width=1000.0),
                "delta": make_profile("arctan", offset=19.5,
                                      amplitude=-1.0 / math.pi, scale=0.1)}
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# critical-rate: criterion 2 through the CLI
# ---------------------------------------------------------------------------

class CriticalRate:
    """``tiplab critical-rate`` on the d-concave family, ``cli.main`` called
    in-process. The seed places a bracket of fixed width around the known
    flip, so every seed takes the same number of bisection steps."""

    name = "critical-rate"
    OPS = 1
    WIDTH = 0.02
    TOL = 1.0e-3

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.lower = CRITICAL_RATE_REF - self.WIDTH * rng.uniform(0.3, 0.7)
        self.upper = self.lower + self.WIDTH
        self.workdir = workdir
        self.config = {
            "model": DCONCAVE_MODEL,
            "mechanism": {"kind": "constant-rate", "profile": CAUCHY_PULSE, "c": 1.0},
            "numerics": {},
            "experiment": {"lower": self.lower, "upper": self.upper, "tol": self.TOL},
        }
        self.config_path = workdir / "critical-rate.json"
        self.config_path.write_text(json.dumps(self.config), encoding="utf-8")
        self.out = workdir / "answer"
        from tiplab import cli
        self.cli = cli

    def _main(self, config: Path, out: Path) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(["critical-rate", "--config", str(config),
                                  "--out", str(out)])

    def answer(self) -> Answer:
        t0 = time.perf_counter()
        rc = self._main(self.config_path, self.out)
        text = (self.out / "critical.json").read_text(encoding="utf-8") if rc == 0 else ""
        ok, detail = self.check(rc, text)
        t1 = time.perf_counter()
        return Answer(t0, t1, [Cell(t0, t1, ok, detail)], text)

    def check(self, rc: int, text: str) -> tuple[bool, str]:
        if rc != 0:
            return False, f"cli exit code {rc}"
        res = json.loads(text)
        if (res["label_lower"], res["label_upper"]) != ("C2", "A"):
            return False, f"flip {res['label_lower']}->{res['label_upper']}"
        if not (res["lower"] - CRITICAL_RATE_REF_TOL <= CRITICAL_RATE_REF
                <= res["upper"] + CRITICAL_RATE_REF_TOL):
            return False, f"bracket [{res['lower']}, {res['upper']}] misses the flip"
        if res["width"] > self.TOL:
            return False, f"width {res['width']} above tol"
        return True, ""

    def invocation_checks(self) -> list[tuple[bool, str]]:
        """Criterion 9's manifest re-run, once per invocation, untimed."""
        rerun = self.workdir / "rerun"
        rc = self._main(self.out / "manifest.json", rerun)
        same = rc == 0 and ((rerun / "critical.json").read_bytes()
                            == (self.out / "critical.json").read_bytes())
        return [(same, "manifest re-run reproduces critical.json byte for byte")]


# ---------------------------------------------------------------------------
# lambda-star: criterion 6 cells
# ---------------------------------------------------------------------------

class LambdaStar:
    """``classify.lambda_star`` on one negative and one positive cell of
    criterion 6, drawn by the seed. The tilt bracket (-A, A) is symmetric, so
    its single bisection step classifies the untilted equation, which is what
    decides the sign. Every tilt builds fresh limit sets, the cost ROADMAP
    item 2 targets; they take the same work for every cell, while the
    pullbacks differ from cell to cell."""

    name = "lambda-star"
    OPS = 2
    A = 0.3                             # lambda*(1, 2.5) = +0.253 < A
    TOL = 0.4                           # one bisection step: 2A > TOL >= A

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        cells = [(*rng.choice(NEGATIVE_CELLS), -1), (*rng.choice(POSITIVE_CELLS), +1)]
        rng.shuffle(cells)
        self.cells = cells
        built = build_models(self.name)
        self.model, self.profile = built["model"], built["profile"]
        from tiplab.attractors import DEFAULT_NUMERICS
        self.num = DEFAULT_NUMERICS
        # the module, not the function tiplab/__init__.py re-exports as
        # tiplab.classify
        self.classify = importlib.import_module("tiplab.classify")

    def answer(self) -> Answer:
        t0 = time.perf_counter()
        cells, fp = [], []
        for c, s, sign in self.cells:
            c0 = time.perf_counter()
            try:
                res = self.classify.lambda_star(
                    self.model, self.profile, c, s, bracket=(-self.A, self.A),
                    tol=self.TOL, num=self.num)
            except (RuntimeError, ValueError, ArithmeticError) as exc:
                cells.append(Cell(c0, time.perf_counter(), False,
                                  f"({c},{s}): {type(exc).__name__}: {exc}"))
                fp.append(None)
                continue
            ok = res.value < 0.0 if sign < 0 else res.value > 0.0
            cells.append(Cell(c0, time.perf_counter(), ok,
                              "" if ok else f"({c},{s}): lambda*={res.value} wrong sign"))
            fp.append({"c": c, "s": s, **res.to_dict()})
        return Answer(t0, time.perf_counter(), cells, fp)

    def invocation_checks(self) -> list[tuple[bool, str]]:
        return []


# ---------------------------------------------------------------------------
# early-warning: criterion 8 on the Holling model
# ---------------------------------------------------------------------------

class EarlyWarning:
    """Lyapunov exponent of the past upper attractor, then
    ``ews.reaction_region`` over a 10x10 (r, kappa) grid. The seed jitters
    r > 0 by up to +-0.1 and lowers kappa > 0 by 0.02 to 0.05. A cell warns
    when kappa*L stays below the peak of the unreacted FTLE series, which
    holds for kappa > 0.486; so for every seed the columns kappa <= 0.48 do
    not warn and recompute the unreacted classify, the four above warn, and
    the work is the same. With 60 of 100 cells unwarned, the cell p50 and
    p90 both fall among those identical cells."""

    name = "early-warning"
    OPS = 100
    WINDOW = 1000.0                     # Lyapunov averaging window
    T = 50.0                            # FTLE window
    B = 1.0                             # reaction rate increase

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.rs = [0.0] + [0.5 * i + rng.uniform(-0.1, 0.1) for i in range(1, 10)]
        self.kappas = [0.0] + [0.1 * j - rng.uniform(0.02, 0.05) for j in range(1, 10)]
        built = build_models(self.name)
        self.model, self.profile, self.delta = (built["model"], built["profile"],
                                                built["delta"])
        from tiplab import attractors, ews
        self.num = attractors.DEFAULT_NUMERICS
        self.attractors, self.ews = attractors, ews

    @contextlib.contextmanager
    def _cell_clock(self, times: list, t1s: list):
        """Two clock reads around each reaction_run call of the sweep."""
        inner = self.ews.reaction_run

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                out = inner(*args, **kwargs)
            finally:
                times.append((t0, time.perf_counter()))
            t1s.append(out.t1)
            return out

        self.ews.reaction_run = timed
        try:
            yield
        finally:
            self.ews.reaction_run = inner

    def answer(self) -> Answer:
        t0 = time.perf_counter()
        half = 0.5 * self.WINDOW + 100.0
        ls = self.attractors.limit_hyperbolic_solutions(
            self.model, 0.0, (-half, half), self.num)
        L = self.attractors.estimate_lyapunov(
            self.model, 0.0, ls["upper-attractive"], self.WINDOW, self.num).value
        times, t1s = [], []
        with self._cell_clock(times, t1s):
            grid = self.ews.reaction_region(self.model, self.profile, self.delta,
                                            self.rs, self.kappas, self.B, self.T,
                                            L, self.num)
        cells = self.check(grid, times)
        fp = {"L": L, "outcomes": grid.outcomes, "t1": t1s}
        return Answer(t0, time.perf_counter(), cells, fp)

    def check(self, grid, times: list) -> list[Cell]:
        """One op per reaction cell; a cell that raised is labelled error."""
        out = grid.outcomes
        n_r, n_k = len(self.rs), len(self.kappas)
        # reaction_region sweeps kappa in the outer loop
        order = [(i, j) for j in range(n_k) for i in range(n_r)]
        cell_time = dict(zip(order, times))
        cells = []
        for i, j in order:
            lab = out[i][j]
            why = ""
            if lab in ("error", "indeterminate"):
                why = lab
            elif i == 0 and lab != "C2":
                why = f"r=0 cell is {lab}"
            elif lab == "A" and ((i + 1 < n_r and out[i + 1][j] != "A")
                                 or (j + 1 < n_k and out[i][j + 1] != "A")):
                why = "tracking set not monotone toward up-right"
            elif (i, j) == (n_r - 1, n_k - 1) and lab != "A":
                why = f"large-r, large-kappa corner is {lab}"
            cells.append(Cell(*cell_time[i, j], not why,
                              f"(r={self.rs[i]:.3f}, kappa={self.kappas[j]:.3f}): {why}"
                              if why else ""))
        return cells

    def invocation_checks(self) -> list[tuple[bool, str]]:
        return []


WORKLOADS = {w.name: w for w in (CriticalRate, LambdaStar, EarlyWarning)}
