"""The two case rules of ``classify`` as they were before they stopped
early, and ``lambda_star`` as it was before it answered tilts by
monotonicity.

Each rule integrated every pullback solution of its concavity class (u, l
and m for a d-concave field; a and r for a concave one) before it read any
of them. ``_classify_dconcave`` and ``_classify_concave`` below are kept
verbatim; they use the package's own pullbacks and terminal distances, and
the tracking targets as classify computed them then. ``classify`` must
give the same label, and every evidence key both report must hold the same
value.

``lambda_star`` below classifies every tilt the plain search asks: the
upper end until it is A, the lower end until it is C, then each bisection
midpoint. It is kept verbatim but for one line: it calls ``classify``
through the module, so that a stand-in set on ``tiplab.classify`` serves
it and the package's ``lambda_star`` alike.
"""

from __future__ import annotations

import importlib

from tiplab.attractors import (
    AttractorError,
    DEFAULT_NUMERICS,
    NonConvergentError,
    Numerics,
    TAIL_TRACK_FACTOR,
    TRACK_TOL_FACTOR,
    pullback_attractive,
    pullback_repulsive,
)
from tiplab.classify import (
    CaseLabel,
    ClassifyError,
    IndeterminateError,
    LambdaStarResult,
    _MAX_EXPAND,
    _terminal_distance,
    resolve_horizon,
)
from tiplab.integrator import _bisect
from tiplab.models import CONCAVE, DCONCAVE
from tiplab.transitions import Phase

# the module; tiplab.classify is the function the package re-exports
CLASSIFY = importlib.import_module("tiplab.classify")


def _tracking_targets(mechanism, future, H):
    """The future upper attractor at +H, the solution below it and the
    tracking distance, as classify read them before the early exits."""
    up, below = (("upper-attractive", "lower-attractive") if future.concavity == DCONCAVE
                 else ("attractive", "repulsive"))
    upper, lower = future[up](H), future[below](H)
    return upper, lower, max(TRACK_TOL_FACTOR * (upper - lower),
                             TAIL_TRACK_FACTOR * mechanism.tail_gap(H))


def _classify_dconcave(model, mechanism, past, future, H, num) -> CaseLabel:
    u = pullback_attractive(model, mechanism, past["upper-attractive"], H, num)
    low = pullback_attractive(model, mechanism, past["lower-attractive"], H, num)
    m = pullback_repulsive(model, mechanism, future["middle-repulsive"], H, num)

    up_target, low_target, track_tol = _tracking_targets(mechanism, future, H)
    d_u_up = _terminal_distance(u.trajectory, up_target, H)
    d_u_low = _terminal_distance(u.trajectory, low_target, H)
    d_l_up = _terminal_distance(low.trajectory, up_target, H)
    d_l_low = _terminal_distance(low.trajectory, low_target, H)
    evidence = {
        "u_to_upper": d_u_up, "u_to_lower": d_u_low,
        "l_to_upper": d_l_up, "l_to_lower": d_l_low,
        "m_bounded": m.bounded, "m_band_exit": m.band_exit_time,
        "u_status": u.status, "l_status": low.status, "m_status": m.status,
        "track_tol": track_tol,
    }
    if d_u_up < track_tol and d_l_low < track_tol and m.bounded:
        label = "A"
    elif d_u_low < track_tol:
        label = "C2"
    elif d_l_up < track_tol:
        label = "C1"
    else:
        label = "indeterminate"
    return CaseLabel(label, DCONCAVE, H, evidence)


def _classify_concave(model, mechanism, past, future, H, num) -> CaseLabel:
    a = pullback_attractive(model, mechanism, past["attractive"], H, num)
    r = pullback_repulsive(model, mechanism, future["repulsive"], H, num)

    a_target, _, track_tol = _tracking_targets(mechanism, future, H)
    d_a = _terminal_distance(a.trajectory, a_target, H)
    evidence = {
        "a_to_attractive": d_a, "a_status": a.status, "r_status": r.status,
        "a_blow": a.trajectory.t_blow, "r_blow": r.trajectory.t_blow,
        "a_band_exit": a.band_exit_time, "r_band_exit": r.band_exit_time,
        "track_tol": track_tol,
    }
    if a.status == "blow-up" or r.status == "blow-up":
        label = "C"
    elif a.bounded and r.bounded and d_a < track_tol:
        label = "A"
    else:
        label = "indeterminate"
    return CaseLabel(label, CONCAVE, H, evidence)


def lambda_star(model, profile, c: float, s: float,
                bracket: tuple[float, float] = (-0.6, 0.6),
                tol: float = 1.0e-3,
                num: Numerics = DEFAULT_NUMERICS) -> LambdaStarResult:
    if model.concavity != CONCAVE:
        raise ClassifyError("the bifurcation map is defined for concave models")
    mech = Phase(profile, c, -s)
    num_H = resolve_horizon(mech, num)

    def label_at(lam: float) -> str:
        try:
            out = CLASSIFY.classify(model.tilted(lam), mech, num, horizon=num_H)
        except (NonConvergentError, AttractorError):
            # Below the saddle-node of the limit equations the tilted field
            # has no bounded solutions at all, which is the Case C phenotype.
            return "C"
        if out.indeterminate:
            raise IndeterminateError(f"indeterminate classification at tilt {lam}")
        return out.label

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
    hi = expand(hi, step, "A", "up to")
    lo = expand(lo, -step, "C", "down to")
    lo, hi, iterations = _bisect(lambda lam: label_at(lam) == "A", lo, hi, tol)
    return LambdaStarResult(value=0.5 * (lo + hi), lower=lo, upper=hi,
                            iterations=iterations, horizon=num_H)
