"""Classification of transition equations into tracking and tipping cases.

For a d-concave field the labels are A (both extreme pullback solutions track
their future attractors), C2 (the upper one lands on the lower future
attractor), C1 (the lower one lands on the upper future attractor); for a
concave field they are A (tracking) and C (finite-time escape). Labels on the
boundary between cases (B, B1, B2) are only ever attached to bisection
brackets, never to a single run.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable

from .attractors import (
    AttractorError,
    DEFAULT_NUMERICS,
    LimitSet,
    MAX_HORIZON_DOUBLINGS,
    NonConvergentError,
    Numerics,
    PullbackSolution,
    SEP_TOL,
    TAIL_REL_TOL,
    TAIL_TRACK_FACTOR,
    TRACK_TOL_FACTOR,
    _role_for,
    limit_hyperbolic_solutions,
    pullback_attractive,
    pullback_repulsive,
)
from .integrator import Trajectory, _bisect, _first_hit
from .models import CONCAVE, DCONCAVE
from .transitions import Phase


class ClassifyError(RuntimeError):
    """Classification could not be carried out."""


class IndeterminateError(ClassifyError):
    """A run stayed indeterminate after the horizon was enlarged."""


@dataclass
class CaseLabel:
    label: str                    # A | C | C1 | C2 | indeterminate | boundary
    concavity: str
    horizon: float
    evidence: dict = field(default_factory=dict)

    @property
    def indeterminate(self) -> bool:
        return self.label == "indeterminate"

    def to_dict(self) -> dict:
        return asdict(self)


def resolve_horizon(mechanism, num: Numerics = DEFAULT_NUMERICS) -> float:
    """Default horizon, doubled while the parameter path is still far from
    its limits at the window edges (relative to the path's spread)."""
    H = num.horizon
    scale = mechanism.path_scale(num.horizon)
    if scale <= 0.0:
        return H
    for _ in range(MAX_HORIZON_DOUBLINGS):
        if mechanism.tail_gap(H) / scale <= TAIL_REL_TOL:
            break
        H *= 2.0
    return H


class LimitCache:
    """Limit sets keyed by (gamma, horizon). The sets are the ones the model
    keeps for num, so every caller on that model shares them. Each set is
    kept finished, its estimates cut to exact-size copies over the window
    (-horizon, horizon) (``Trajectory.window``): the burn-in before the
    window and the run past it are freed, and every read inside it is
    bitwise that of the full set. A translation-invariant
    model keeps only its gamma = 0 sets: the set at any other gamma is that
    base shifted on each read, a copy of the x buffers that the reader frees
    (t and f are shared)."""

    def __init__(self, model, num: Numerics):
        self.model = model
        self.num = num
        self._sets: dict[tuple[float, float], LimitSet] = model.limit_sets(num)

    def get(self, gamma: float, horizon: float) -> LimitSet:
        """The complete limit set over (-horizon, horizon). An incomplete
        one is kept too, and raises AttractorError on every get."""
        return self._limit_set(gamma, horizon).require_complete()

    def _limit_set(self, gamma: float, horizon: float) -> LimitSet:
        if self.model.translation_invariant and gamma != 0.0:
            return self._limit_set(0.0, horizon).shifted(gamma)
        key = (gamma, horizon)
        if key not in self._sets:
            ls = limit_hyperbolic_solutions(self.model, gamma, (-horizon, horizon), self.num)
            # finished first; one run at a time, so a full run and its copy
            # are alive together for one estimate only
            for est in ls.estimates.values():
                est.trajectory = est.trajectory.window(-horizon, horizon)
            self._sets[key] = ls
        return self._sets[key]


def classify(model, mechanism, num: Numerics = DEFAULT_NUMERICS,
             horizon: float | None = None,
             _allow_doubling: bool = True,
             _upper: PullbackSolution | None = None) -> CaseLabel:
    """Classify the transition equation x' = f(t, x, gamma(t)).

    Requires the full hyperbolic structure of the limit equations at the
    path's past and future limits. An indeterminate outcome is retried once
    with a doubled horizon.

    The pullback solution that can decide the label is integrated first,
    and the others only when it does not, so evidence lists only the runs
    that decided the label: a C2 label whose u lands on the lower attractor
    has the keys u_to_upper, u_to_lower, u_status and track_tol; a concave
    C whose a blows up has a_to_attractive, a_status, a_blow, a_band_exit
    and track_tol. An error that a run not integrated would have raised is
    not raised. Each run is freed once its distances and status are read,
    before the next one integrates: a before r (concave), u before l and l
    before m (d-concave).

    _upper is the pullback of the upper (concave: the) attractive solution
    at this horizon, when the caller already holds it (it stays alive with
    the caller). The retry at 2H integrates its own, in a nested classify
    call: the tracer of perfbench counts those as classify.horizon_doublings.
    """
    H = float(horizon) if horizon is not None else resolve_horizon(mechanism, num)
    cache = LimitCache(model, num)
    past = cache.get(mechanism.gamma_minus, H)
    future = cache.get(mechanism.gamma_plus, H)

    if model.concavity == DCONCAVE:
        out = _classify_dconcave(model, mechanism, past, future, H, num, _upper)
    elif model.concavity == CONCAVE:
        out = _classify_concave(model, mechanism, past, future, H, num, _upper)
    else:  # pragma: no cover
        raise ClassifyError(f"unknown concavity class {model.concavity!r}")

    if out.indeterminate and _allow_doubling:
        return classify(model, mechanism, num, horizon=2.0 * H, _allow_doubling=False)
    return out


def pullback_of(model, mechanism, role: str, num: Numerics = DEFAULT_NUMERICS,
                horizon: float | None = None) -> PullbackSolution:
    """Pullback solution of the transition equation for a (d-concave) role:
    an attractive role is anchored at the past limit set, a repulsive one at
    the future limit set. The horizon defaults to resolve_horizon."""
    H = float(horizon) if horizon is not None else resolve_horizon(mechanism, num)
    cache = LimitCache(model, num)
    role = _role_for(model, role)
    if role.endswith("attractive"):
        past = cache.get(mechanism.gamma_minus, H)
        return pullback_attractive(model, mechanism, past[role], H, num)
    future = cache.get(mechanism.gamma_plus, H)
    return pullback_repulsive(model, mechanism, future[role], H, num)


def _terminal_distance(traj: Trajectory, target: float, H: float) -> float:
    return abs(traj(H) - target) if traj.covers(H) else math.inf


def label_upper_run(traj: Trajectory, mechanism, future: LimitSet,
                    H: float) -> tuple[str, float, float | None, float]:
    """Label one run of the upper (concave: the) attractive solution alone:
    A when it tracks the future upper attractor at +H, else C2 when it
    tracks the lower one (d-concave), else C on a blow-up (concave), else
    indeterminate. Returns the label, the run's distances to the upper and
    the lower attractor (None, concave) and the tolerance: TRACK_TOL_FACTOR
    times the gap between the upper attractor and the solution below it,
    or TAIL_TRACK_FACTOR times the path's tail at H if more, since the
    pullback solution lags the frozen attractor by O(that tail)."""
    dconcave = future.concavity == DCONCAVE
    up, below = (("upper-attractive", "lower-attractive") if dconcave
                 else ("attractive", "repulsive"))
    upper, lower = future[up](H), future[below](H)
    tol = max(TRACK_TOL_FACTOR * (upper - lower), TAIL_TRACK_FACTOR * mechanism.tail_gap(H))
    to_upper = _terminal_distance(traj, upper, H)
    to_lower = _terminal_distance(traj, lower, H) if dconcave else None
    if to_upper < tol:
        label = "A"
    elif dconcave and to_lower < tol:
        label = "C2"
    elif not dconcave and traj.status == "blow-up":
        label = "C"
    else:
        label = "indeterminate"
    return label, to_upper, to_lower, tol


def _classify_dconcave(model, mechanism, past, future, H, num, u=None) -> CaseLabel:
    """u is integrated first, unless given: when its own label is C2, A is
    ruled out and C2 holds whatever l and m do, so they are not integrated."""
    if u is None:
        u = pullback_attractive(model, mechanism, past["upper-attractive"], H, num)
    u_label, d_u_up, d_u_low, track_tol = label_upper_run(u.trajectory, mechanism, future, H)
    evidence = {"u_to_upper": d_u_up, "u_to_lower": d_u_low, "u_status": u.status,
                "track_tol": track_tol}
    if u_label == "C2":
        return CaseLabel("C2", DCONCAVE, H, evidence)

    del u   # each run is freed once read, before the next integrates
    low = pullback_attractive(model, mechanism, past["lower-attractive"], H, num)
    d_l_up = _terminal_distance(low.trajectory, future["upper-attractive"](H), H)
    d_l_low = _terminal_distance(low.trajectory, future["lower-attractive"](H), H)
    l_status = low.status
    del low
    m = pullback_repulsive(model, mechanism, future["middle-repulsive"], H, num)
    evidence.update({"l_to_upper": d_l_up, "l_to_lower": d_l_low, "m_bounded": m.bounded,
                     "m_band_exit": m.band_exit_time, "l_status": l_status,
                     "m_status": m.status})
    if d_u_up < track_tol and d_l_low < track_tol and m.bounded:
        label = "A"
    elif d_u_low < track_tol:
        label = "C2"
    elif d_l_up < track_tol:
        label = "C1"
    else:
        label = "indeterminate"
    return CaseLabel(label, DCONCAVE, H, evidence)


def _classify_concave(model, mechanism, past, future, H, num, a=None) -> CaseLabel:
    """a is integrated first, unless given: when its own label is C (a
    blow-up), r is not integrated."""
    if a is None:
        a = pullback_attractive(model, mechanism, past["attractive"], H, num)
    a_label, d_a, _, track_tol = label_upper_run(a.trajectory, mechanism, future, H)
    evidence = {"a_to_attractive": d_a, "a_status": a.status, "a_blow": a.trajectory.t_blow,
                "a_band_exit": a.band_exit_time, "track_tol": track_tol}
    if a_label == "C":
        return CaseLabel("C", CONCAVE, H, evidence)

    a_bounded = a.bounded
    del a   # freed once read, before r integrates
    r = pullback_repulsive(model, mechanism, future["repulsive"], H, num)
    evidence.update({"r_status": r.status, "r_blow": r.trajectory.t_blow,
                     "r_band_exit": r.band_exit_time})
    if r.status == "blow-up":
        label = "C"
    elif a_bounded and r.bounded and d_a < track_tol:
        label = "A"
    else:
        label = "indeterminate"
    return CaseLabel(label, CONCAVE, H, evidence)


# ---------------------------------------------------------------------------
# critical values by bisection
# ---------------------------------------------------------------------------

_BOUNDARY = {
    frozenset(("C", "A")): "B",
    frozenset(("C1", "A")): "B1",
    frozenset(("C2", "A")): "B2",
}


@dataclass
class CriticalValueResult:
    lower: float
    upper: float
    label_lower: str
    label_upper: str
    boundary_label: str | None
    iterations: int
    horizon: float

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def to_dict(self) -> dict:
        return asdict(self)


def critical_value(model, mechanism_family: Callable[[float], object],
                   lower: float, upper: float, tol: float,
                   num: Numerics = DEFAULT_NUMERICS) -> CriticalValueResult:
    """Bisect a scalar mechanism parameter between two distinct case labels.

    mechanism_family maps the parameter to a mechanism; the parameter path
    limits must not depend on the parameter. Returns the final bracket with
    its endpoint labels and the boundary label for the crossed case border.
    """
    if not upper > lower:
        raise ClassifyError(f"empty bracket ({lower}, {upper})")
    mech_lo = mechanism_family(lower)
    mech_hi = mechanism_family(upper)
    if (mech_lo.gamma_minus != mech_hi.gamma_minus
            or mech_lo.gamma_plus != mech_hi.gamma_plus):
        raise ClassifyError("mechanism family must keep the same parameter limits")
    H = max(resolve_horizon(mech_lo, num), resolve_horizon(mech_hi, num))

    lab_lo = classify(model, mech_lo, num, horizon=H)
    lab_hi = classify(model, mech_hi, num, horizon=H)
    if lab_lo.indeterminate or lab_hi.indeterminate:
        raise IndeterminateError(
            f"endpoint classification indeterminate (lower={lab_lo.label}, upper={lab_hi.label})")
    if lab_lo.label == lab_hi.label:
        raise ClassifyError(
            f"both endpoints classify as {lab_lo.label}; nothing to bisect")

    def like_upper(mid: float) -> bool:
        lab_mid = classify(model, mechanism_family(mid), num, horizon=H)
        if lab_mid.indeterminate:
            raise IndeterminateError(
                f"indeterminate classification inside the bracket at parameter {mid}")
        if lab_mid.label not in (lab_lo.label, lab_hi.label):
            raise ClassifyError(
                f"unexpected third label {lab_mid.label!r} at parameter {mid}")
        return lab_mid.label == lab_hi.label

    lo, hi, iterations = _bisect(like_upper, float(lower), float(upper), tol)
    return CriticalValueResult(
        lower=lo, upper=hi, label_lower=lab_lo.label, label_upper=lab_hi.label,
        boundary_label=_BOUNDARY.get(frozenset((lab_lo.label, lab_hi.label))),
        iterations=iterations, horizon=H,
    )


# ---------------------------------------------------------------------------
# bifurcation map: critical additive tilt of a concave equation
# ---------------------------------------------------------------------------

_MAX_EXPAND = 6       # bracket expansions per end before lambda_star gives up


@dataclass
class LambdaStarResult:
    value: float
    lower: float
    upper: float
    iterations: int
    horizon: float

    def to_dict(self) -> dict:
        return asdict(self)


def lambda_star(model, profile, c: float, s: float,
                bracket: tuple[float, float] = (-0.6, 0.6),
                tol: float = 1.0e-3,
                num: Numerics = DEFAULT_NUMERICS) -> LambdaStarResult:
    """Critical additive tilt of the concave transition equation driven by
    Gamma(c*(t - s)).

    The phase s is the frozen value of a drifting phase Delta(t), so the
    driving path is Gamma(c*(t - s)), i.e. a phase mechanism with offset -s.
    The equation tilted by lam is in Case A above the returned value and in
    Case C below it, so a negative value means the untilted equation tracks.

    The search relies on that monotonicity (the comparison argument for
    concave fields): Case A at a tilt gives Case A at every larger tilt, and
    Case C at a tilt gives Case C at every smaller one. The plain search
    moves the upper end of the bracket up until it is A, the lower end down
    until it is C, then bisects; each tilt it asks that an earlier label
    decides this way is answered without classifying it. When the bracket
    is wider than tol, its midpoint, the first one the bisection asks, is
    classified first, so that its label decides one end: a negative
    lambda* needs no label of the upper end, a positive one none of the
    lower end. An error at that midpoint is held and raised only if the
    plain search asks it. So with monotone labels the result is the plain
    search's, bit for bit, from fewer classify calls.
    """
    if model.concavity != CONCAVE:
        raise ClassifyError("the bifurcation map is defined for concave models")
    mech = Phase(profile, c, -s)
    num_H = resolve_horizon(mech, num)
    lowest_a, highest_c = math.inf, -math.inf     # the labels known so far
    held: dict[float, Exception] = {}             # the early midpoint's error

    def classified(lam: float) -> str:
        try:
            out = classify(model.tilted(lam), mech, num, horizon=num_H)
        except (NonConvergentError, AttractorError):
            # Below the saddle-node of the limit equations the tilted field
            # has no bounded solutions at all, which is the Case C phenotype.
            return "C"
        if out.indeterminate:
            raise IndeterminateError(f"indeterminate classification at tilt {lam}")
        return out.label

    def label_at(lam: float) -> str:
        """The label at lam, by monotonicity when an earlier one decides it."""
        nonlocal lowest_a, highest_c
        if lam >= lowest_a:
            return "A"
        if lam <= highest_c:
            return "C"
        if lam in held:
            raise held[lam]
        label = classified(lam)
        if label == "A":
            lowest_a = lam
        else:
            highest_c = lam
        return label

    def expand(end: float, move: float, want: str, where: str) -> float:
        """Move a bracket end by ``move`` until it is labelled ``want``."""
        expansions = 0
        while label_at(end) != want:
            expansions += 1
            if expansions > _MAX_EXPAND:
                raise ClassifyError(f"no Case {want} tilt found {where} {end}")
            end += move
        return end

    lo, hi = float(bracket[0]), float(bracket[1])
    if not hi > lo:
        raise ClassifyError(f"empty tilt bracket {bracket}")
    step = hi - lo
    if step > tol:
        mid = 0.5 * (lo + hi)     # the float _bisect asks first
        try:
            label_at(mid)
        except Exception as exc:
            held[mid] = exc
    hi = expand(hi, step, "A", "up to")
    lo = expand(lo, -step, "C", "down to")
    lo, hi, iterations = _bisect(lambda lam: label_at(lam) == "A", lo, hi, tol)
    return LambdaStarResult(value=0.5 * (lo + hi), lower=lo, upper=hi,
                            iterations=iterations, horizon=num_H)


# ---------------------------------------------------------------------------
# bistability interval of a frozen-parameter family
# ---------------------------------------------------------------------------

_GAMMA_SCAN_POINTS = 13     # coarse scan of the gamma range before bisecting


@dataclass
class GammaIntervalResult:
    lower: tuple[float, float]    # bracket around the lower edge
    upper: tuple[float, float]    # bracket around the upper edge
    evaluations: int
    window: tuple[float, float]


def gamma_interval(model, gamma_range: tuple[float, float], tol: float,
                   num: Numerics = DEFAULT_NUMERICS,
                   window: tuple[float, float] | None = None) -> GammaIntervalResult:
    """Bracket both edges of the parameter interval on which the frozen
    d-concave equation has three uniformly separated hyperbolic solutions."""
    if model.concavity != DCONCAVE:
        raise ClassifyError("the bistability interval is defined for d-concave models")
    w = window if window is not None else (-num.horizon, num.horizon)
    evals = 0

    def bistable(gamma: float) -> bool:
        nonlocal evals
        evals += 1
        return limit_hyperbolic_solutions(model, gamma, w, num).complete

    g_lo, g_hi = float(gamma_range[0]), float(gamma_range[1])
    n = _GAMMA_SCAN_POINTS
    grid = [g_lo + (g_hi - g_lo) * i / (n - 1) for i in range(n)]
    edges = []
    for end, scan in (("lower", grid), ("upper", grid[::-1])):   # each edge from its own end
        hit = _first_hit(bistable, scan, tol)
        if hit is None:
            raise ClassifyError(f"no bistable parameter found in {gamma_range}")
        if hit[0] == hit[1]:
            raise ClassifyError(f"bistable set touches the {end} end of the scan range")
        edges.append(tuple(sorted(hit)))
    return GammaIntervalResult(*edges, evaluations=evals, window=w)


# ---------------------------------------------------------------------------
# switching between two parameter paths
# ---------------------------------------------------------------------------

def switching_classify(model, left_mechanism, right_mechanism, t0: float = 0.0,
                       num: Numerics = DEFAULT_NUMERICS) -> CaseLabel:
    """Classify the path that follows the left mechanism before t0 and the
    right one after: tracking holds when the left problem's pullback
    attractive solution passes above the right problem's pullback repulsive
    solution at the switching time."""
    H = max(resolve_horizon(left_mechanism, num), resolve_horizon(right_mechanism, num))
    if not -H < t0 < H:
        raise ClassifyError(f"switching time {t0} outside the horizon ({H})")
    a = pullback_of(model, left_mechanism, "upper-attractive", num, horizon=H)
    r = pullback_of(model, right_mechanism, "middle-repulsive", num, horizon=H)
    tip_label = "C2" if model.concavity == DCONCAVE else "C"
    if a.status != "completed" or not a.trajectory.covers(t0):
        raise ClassifyError("left pullback attractive solution does not reach t0")
    if r.status != "completed" or not r.trajectory.covers(t0):
        raise ClassifyError("right pullback repulsive solution does not reach t0")
    a0, r0 = a(t0), r(t0)
    evidence = {"a_at_t0": a0, "r_at_t0": r0, "margin": a0 - r0, "t0": t0}
    if a0 > r0 + SEP_TOL:
        label = "A"
    elif a0 < r0 - SEP_TOL:
        label = tip_label
    else:
        label = "boundary"
    return CaseLabel(label, model.concavity, H, evidence)
