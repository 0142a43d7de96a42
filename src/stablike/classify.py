"""Verdict assembly on top of the drift-condition tail scans.

A chain is scanned against every admissible drift display. A display
"fires" only when its margin is strictly positive and at least twice
the estimated scan error. The displays are sufficient conditions: a
non-firing scan proves nothing, so near-boundary cases come back
Inconclusive rather than guessed. classify decides on one ladder, and
the first rung whose evidence is present gives the verdict:

  1. displays fired in both directions   Inconclusive (the scan horizon lied)
  2. ergodicity without recurrence       Inconclusive (a positive chain recurs)
  3. ergodicity and recurrence           Ergodic
  4. recurrence                          Recurrent, or NullCandidate
  5. transience                          Transient
  6. two-valued index-sum dichotomy      Recurrent or Transient
  7. none of these                       Inconclusive, naming the closest display

Beta ladders (ledger defaults): recurrence and ergodicity scans use
beta in {min(1, inf alpha - 0.05), 0.01}, transience scans use
{0.5, 0.01}; the best (largest-margin) beta per condition is kept.
Each ladder keeps only the betas in its threshold's domain: below the
smallest limiting alpha for recurrence and ergodicity (r2), below 1
for transience (t). A display that needs beta and has none left is
not scanned, and a caveat names it.

One scan step: classify, classify_null and f_ergodic_check each reach
the scans through one _scan call. It checks the alpha profile, cuts the
ladders, names the displays it cannot scan, runs the jobs through
_run_scans (one raw-integral set per kernel, shared by the scans of the
call) and returns every report, the best-margin report of each
condition and those that fire. Apart from a custom weight's pointwise
check, nothing here looks a profile up or computes a tail constant: the
scans and the small-index check read the regimes of their x grids, and
the regimes' c(alpha, gamma), from drift._Grid.

Extra evidence channels:
  - null-chain check (rung 4): reversed-inequality versions of the
    log/power recurrence displays, thresholds taken at the largest
    limiting alpha; positive evidence turns a Recurrent verdict into
    NullCandidate (never overrides Transient).
  - small-index decay (rung 5): for chains with sup alpha < 1, the
    pointwise rate alpha(x)|x|^(alpha(x)-1)/c(x) decaying monotonically
    through 1e-6 is transience evidence on its own.
  - two-valued benchmark (rung 6): for a symmetric-jump chain whose
    index takes one value per half-line, the known exact dichotomy in
    the index sum (recurrent iff sum >= 2) decides, with an exemption
    band around the critical sum and an explicit caveat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .chain import ChainSpec, ProfileFn
from .drift import CONDITIONS, DEFAULT_DELTA_GRID, TailScanReport, _Grid, default_x_grid, tail_scan
from .errors import DomainError, QuadratureError, TableOverflowError
# r1 and r2 are unused here; perfbench's tracer wraps them by name
from .thresholds import r1, r2

_KERNELS = ("log_shift", "power_beta", "bounded_beta", "first_moment")  # scan order
_DECAY_TOL = 1e-6
_DECAY_HORIZON = 1e16  # |x| reach of the small-index decay shortcut
BETA_DOMAINS = ("(beta < smallest limiting alpha for recurrence and ergodicity, "
                "beta < 1 for transience)")


@dataclass(frozen=True)
class ScanSettings:
    """Grid knobs shared by all classification scans.

    d_grid None gives each display the drift layer's default (d levels
    only where it has a d-term); betas None gives the default ladders.
    """

    x_grid: tuple = default_x_grid()
    delta_grid: tuple = DEFAULT_DELTA_GRID
    d_grid: tuple | None = None
    betas: tuple | None = None


@dataclass(frozen=True)
class Classification:
    verdict: str
    conditions_used: tuple
    margins: dict = field(default_factory=dict)
    caveats: tuple = ()
    beta_used: float | None = None
    reports: tuple = ()

    def to_json_dict(self) -> dict:
        def fin(v):
            # strict-JSON safe: -inf margins (diverging trends) become text
            return v if v is None or math.isfinite(v) else repr(v)

        return {
            "verdict": self.verdict,
            "conditions_used": list(self.conditions_used),
            "margins": {k: fin(float(v)) for k, v in self.margins.items()},
            "caveats": list(self.caveats),
            "beta_used": self.beta_used,
            "reports": [
                {
                    "condition": r.condition_id,
                    "beta": r.beta,
                    "tail_sup": fin(r.tail_sup_estimate),
                    "tail_inf": fin(r.tail_inf_estimate),
                    "threshold": r.threshold,
                    "margin": fin(r.margin),
                    "scan_error": r.scan_error,
                    "trend": r.trend_flag,
                }
                for r in self.reports
            ],
        }

    def summary_line(self) -> str:
        if not self.conditions_used:
            tail = self.caveats[0] if self.caveats else "no display fired"
            return f"{self.verdict}: {tail}"
        conds = ",".join(self.conditions_used)
        parts = [f"{self.verdict} via {conds}"]
        if self.margins:
            parts.append(f"margin {max(self.margins.values()):.4g}")
        if self.beta_used is not None:
            parts.append(f"beta {self.beta_used:g}")
        return " | ".join(parts)


@dataclass(frozen=True)
class Evidence:
    """Boolean evidence with the numbers that produced it."""

    holds: bool
    detail: str
    margins: dict = field(default_factory=dict)
    caveats: tuple = ()
    reports: tuple = ()


def _require_builtin_alpha(spec: ChainSpec):
    if spec.alpha_profile.kind == "custom":
        raise DomainError(
            "classification needs an alpha profile with an enumerable value set"
        )


def _beta_ladders(spec: ChainSpec, settings: ScanSettings) -> dict:
    """The beta ladder of each conclusion, cut to its threshold's domain."""
    if settings.betas is not None:
        rec = trans = tuple(float(b) for b in settings.betas)
        if not rec or any(not 0.0 < b <= 1.0 for b in rec):
            raise DomainError("betas must be a non-empty subset of (0, 1]")
    else:
        a_inf = min(spec.alpha_profile.value_set())
        rec = tuple(dict.fromkeys((max(0.01, min(1.0, a_inf - 0.05)), 0.01)))
        trans = (0.5, 0.01)
    a_lim = min(spec.alpha_profile.limit_values())  # where r2 is taken
    rec = tuple(b for b in rec if b < a_lim)
    return {"rec": rec, "erg": rec, "trans": tuple(b for b in trans if b < 1.0)}


def _fired(report: TailScanReport) -> bool:
    return report.margin > 0.0 and report.margin >= 2.0 * report.scan_error


def _run_scans(spec: ChainSpec, settings: ScanSettings, jobs: list, caveats: list) -> list:
    # all scans share the grid's per-x data, and scans with the same kernel
    # (log_rec/log_erg, pow_rec/pow_erg per beta, the five first-moment scans)
    # one raw-integral set, for this call only; a scan whose density table
    # overflows or does not converge is left out, under one caveat for all
    integrals: dict = {}
    reports, skipped, reasons = [], {}, {}
    for cid, beta, weight in jobs:
        try:
            reports.append(tail_scan(
                spec, x_grid=settings.x_grid, delta_grid=settings.delta_grid,
                d_grid=settings.d_grid, condition_id=cid, beta=beta, d_weight=weight,
                integrals=integrals))
        except (TableOverflowError, QuadratureError) as exc:
            skipped[cid] = reasons[str(exc)] = None
    if skipped:
        caveats.append(f"{', '.join(skipped)}: not scanned, {'; '.join(reasons)}")
    return reports


def _scan(spec: ChainSpec, settings: ScanSettings, conclusions, moments, caveats: list,
          weight=None):
    """The one way from a verdict function to the scans: (reports, best, fired).

    Checks the alpha profile and cuts the beta ladders to their
    thresholds' domains. The displays with these conclusions are scanned,
    first-moment ones only if moments; one that needs beta and has none
    left is not, and one caveat names every such display. The jobs (id,
    beta, d-weight) run through _run_scans kernel by kernel, then in the
    order of conclusions, once per beta of the ladder for a display that
    needs beta. best is the largest-margin report of each condition, in
    the order of their first reports, and fired those of best that fire.
    """
    _require_builtin_alpha(spec)
    ladders = _beta_ladders(spec, settings)
    displays = [(cid, c) for cid, c in CONDITIONS.items()
                if c.conclusion in conclusions and (moments or c.kernel != "first_moment")]
    unscanned = [cid for cid, c in displays if c.needs_beta and not ladders[c.conclusion]]
    if unscanned:
        caveats.append(
            f"{', '.join(unscanned)}: not scanned, no beta of the ladder is admissible "
            + BETA_DOMAINS)
    displays.sort(key=lambda item: (_KERNELS.index(item[1].kernel),
                                    conclusions.index(item[1].conclusion)))
    jobs = [(cid, b, weight) for cid, c in displays
            for b in (ladders[c.conclusion] if c.needs_beta else (None,))]
    reports = _run_scans(spec, settings, jobs, caveats)
    best: dict = {}
    for rep in reports:
        if rep.condition_id not in best or rep.margin > best[rep.condition_id].margin:
            best[rep.condition_id] = rep
    return reports, best, {cid: rep for cid, rep in best.items() if _fired(rep)}


def _null_evidence(spec: ChainSpec, base_reports: dict) -> Evidence:
    """Reversed-inequality check of the recurrence displays.

    Evidence that the chain, if recurrent, has no finite invariant
    measure: the same log/power scans must stay ABOVE the threshold
    taken at the largest limiting alpha.
    """
    a_sup = max(spec.alpha_profile.limit_values())
    margins: dict = {}
    caveats: list = []
    holds = False
    for cid, rep in base_reports.items():
        cond = CONDITIONS[cid]
        if cond.conclusion != "rec" or cond.kernel == "first_moment":
            continue
        thr, thr_err = cond.threshold(a_sup, rep.beta)
        margin = rep.tail_inf_estimate - thr
        err = rep.quad_error + rep.inf_delta_gap + thr_err
        margins[cid + "_null"] = margin
        if margin > 0.0 and margin >= 2.0 * err:
            holds = True
    if (
        spec.alpha_profile.kind == "constant"
        and spec.family.gamma_profile.kind == "constant"
        and spec.family.delta_profile.kind == "constant"
    ):
        caveats.append(
            "independent-increment chain: no finite invariant measure exists "
            "(structural fact about this family, not a scan result)"
        )
    detail = (
        "reversed recurrence displays exceed the upper-index threshold"
        if holds
        else "reversed recurrence displays stay below the upper-index threshold"
    )
    return Evidence(holds, detail, margins, tuple(caveats))


def classify_null(spec: ChainSpec, settings: ScanSettings | None = None) -> Evidence:
    """Null-chain evidence: recurrent mass spreads out (no invariant law).

    Runs the log/power recurrence scans and checks the reversed
    inequalities against thresholds at the largest limiting alpha.
    Positive evidence only annotates a Recurrent verdict; it never
    produces one.
    """
    caveats: list = []
    reports, best, _ = _scan(spec, settings or ScanSettings(), ("rec",), False, caveats)
    ev = _null_evidence(spec, best)
    return replace(ev, caveats=ev.caveats + tuple(caveats), reports=tuple(reports))


def classify_transient_smallalpha(spec: ChainSpec) -> Evidence:
    """Transience shortcut for uniformly small index.

    When sup alpha < 1 the pointwise rate alpha(x)|x|^(alpha(x)-1)/c(x)
    decaying to zero is itself transience evidence. The decay check is
    discretized as: per-decade maxima of the rate are non-increasing on
    each half-line and the final decade sits below 1e-6. Pointwise
    evaluation is cheap, so the horizon extends far beyond the integral
    scans' grid. alpha(x) and c(x) come from drift._Grid, one grid per
    half-line.
    """
    _require_builtin_alpha(spec)
    a_sup = max(spec.alpha_profile.value_set())
    if not a_sup < 1.0:
        raise DomainError(
            f"small-index transience shortcut needs sup alpha < 1, got {a_sup}"
        )
    lo, hi = 1e2, _DECAY_HORIZON
    n = int(8 * math.log10(hi / lo))
    mags = np.geomspace(lo, hi, n)
    decade = np.floor(np.log10(mags)).astype(int)
    holds = True
    last_max = 0.0
    for side in (1.0, -1.0):
        grid = _Grid(spec, side * mags)
        rate = np.empty_like(mags)
        for key, idx in grid.groups.items():
            a, c = key[0], grid.c[key]
            rate[idx] = [a * abs(x) ** (a - 1.0) / c for x in grid.xs[idx].tolist()]
        maxima = [rate[decade == dec].max() for dec in np.unique(decade)]
        if any(m2 > m1 * (1.0 + 1e-12) for m1, m2 in zip(maxima, maxima[1:])):
            holds = False
        if maxima[-1] >= _DECAY_TOL:
            holds = False
        last_max = max(last_max, float(maxima[-1]))
    margins = {"idx_decay": _DECAY_TOL - last_max}
    detail = (
        f"jump rate decays monotonically to {last_max:.3g} at |x|={hi:.1e}"
        if holds
        else f"jump rate does not decay through {_DECAY_TOL:g} "
             f"(final-decade max {last_max:.3g})"
    )
    return Evidence(holds, detail, margins)


def f_ergodic_check(
    spec: ChainSpec,
    g_profile: ProfileFn,
    settings: ScanSettings | None = None,
) -> Evidence:
    """Weighted-ergodicity evidence for moments up to a weight function.

    Runs the ergodicity displays with the d-term scaled by g(x) (log
    kernel) or g(x)|x|^(-beta) (power kernel). Positive evidence
    certifies convergence in the g-weighted norm, hence finiteness of
    pi(f) for every f with 1 <= f <= g. g must be >= 1 everywhere; with
    g identically 1 the scans reduce exactly to the unweighted
    ergodicity displays.
    """
    settings = settings or ScanSettings()
    if g_profile.kind == "custom":
        g_min = min(float(g_profile(x)) for x in settings.x_grid)
        caveats = ["weight bound g >= 1 checked pointwise on the scan grid only"]
        weight_class = "custom weight (pointwise-checked)"
    else:
        g_min = min(g_profile.value_set())
        caveats = []
        vals = ", ".join(f"{v:g}" for v in g_profile.value_set())
        weight_class = f"{g_profile.kind} weight with values {{{vals}}}"
    if g_min < 1.0:
        raise DomainError("weight profile must satisfy g(x) >= 1")
    reports, best, fired = _scan(spec, settings, ("erg",), False, caveats, weight=g_profile)
    detail = (f"weighted drift certified for {weight_class}" if fired
              else f"no weighted display certified for {weight_class}")
    return Evidence(bool(fired), detail, {cid + "_w": rep.margin for cid, rep in best.items()},
                    tuple(caveats),
                    tuple(replace(rep, condition_id=rep.condition_id + "_w") for rep in reports))


def _two_valued_gap(spec: ChainSpec, caveats: list) -> float | None:
    """Signed index-sum gap (sum - 2) of a symmetric two-valued chain, or None.

    None also inside the 0.1 exemption band around the critical sum; each
    outcome of the exact dichotomy appends its caveat.
    """
    prof, dprof = spec.alpha_profile, spec.family.delta_profile
    if prof.kind != "two_valued" or dprof.kind == "custom" or set(dprof.value_set()) != {0.0}:
        return None
    gap = sum(prof.values) - 2.0
    if abs(gap) < 0.1:
        caveats.append(
            "index sum within 0.1 of the critical value 2: benchmark dichotomy "
            "withheld and no display fired"
        )
        return None
    caveats.append(
        "verdict from the exact two-valued index-sum dichotomy "
        "(symmetric jumps); drift displays were individually inconclusive"
    )
    return gap


def classify(spec: ChainSpec, settings: ScanSettings | None = None) -> Classification:
    """Scan all admissible drift displays and decide on the verdict ladder.

    Returns Ergodic/Recurrent/Transient only on strictly positive
    margins at least twice the scan error; Ergodic additionally
    requires a recurrence display to fire (a positive chain must be
    recurrent). Conflicting directions or near-boundary margins come
    back Inconclusive with the numbers attached.
    """
    caveats: list = []
    if spec.unchecked:
        # first-moment shortcuts need the scale floor and index ceiling that
        # only enumerable profiles guarantee
        caveats += ["model envelope assumptions assumed, not certified",
                    "first-moment displays skipped: jump-tail uniformity not "
                    "certifiable for custom profiles"]
    _, best, fired = _scan(spec, settings or ScanSettings(), ("rec", "trans", "erg"),
                           not spec.unchecked, caveats)
    for rep in best.values():
        if rep.trend_flag == "diverging":
            grid_margin = (
                rep.threshold - rep.tail_sup_estimate
                if CONDITIONS[rep.condition_id].conclusion != "trans"
                else rep.tail_inf_estimate - rep.threshold
            )
            if grid_margin > 0.0:
                caveats.append(
                    f"{rep.condition_id}: display holds on the grid but the "
                    "per-magnitude values keep moving toward the threshold; "
                    "not certified"
                )
        elif rep.trend_flag == "extrapolated":
            caveats.append(
                f"{rep.condition_id}: extrapolated truncation trend, margin error widened")
        elif rep.trend_flag == "non-monotone":
            caveats.append(f"{rep.condition_id}: non-monotone truncation trend "
                           "over the smallest delta levels")

    evidence = {cid: rep.margin for cid, rep in fired.items()}
    rec_fired, erg_fired, trans_fired = (
        [c for c in CONDITIONS if c in fired and CONDITIONS[c].conclusion == conclusion]
        for conclusion in ("rec", "erg", "trans")
    )
    if max(spec.alpha_profile.value_set()) < 1.0 and not spec.unchecked:
        decay = classify_transient_smallalpha(spec)
        if decay.holds:
            trans_fired.append("idx_decay")
            evidence.update(decay.margins)

    # the ladder: the first rung whose evidence is present sets the verdict,
    # the evidence it cites, the displays whose best beta it reports and
    # the caveat it adds
    verdict, used, beta_ids, null_margins = "Inconclusive", [], [], {}
    if (rec_fired or erg_fired) and trans_fired:
        used = rec_fired + erg_fired + trans_fired
        caveats.append(
            "displays fired in both directions; scan horizon is not to be "
            "trusted for this chain"
        )
    elif erg_fired and not rec_fired:
        used = beta_ids = erg_fired
        caveats.append(
            "ergodicity display fired without recurrence support; verdict withheld"
        )
    elif erg_fired:
        verdict, used, beta_ids = "Ergodic", erg_fired + rec_fired, erg_fired
    elif rec_fired:
        verdict, used, beta_ids = "Recurrent", rec_fired, rec_fired
        null_ev = _null_evidence(spec, best)
        caveats.extend(null_ev.caveats)
        if null_ev.holds:
            verdict = "NullCandidate"
            caveats.append("recurrent with evidence against a finite invariant measure")
            null_margins = {k: v for k, v in null_ev.margins.items() if v > 0.0}
    elif trans_fired:
        verdict, used, beta_ids = "Transient", trans_fired, trans_fired
    elif (gap := _two_valued_gap(spec, caveats)) is not None:
        verdict, used = ("Recurrent" if gap > 0.0 else "Transient"), ["two_valued_benchmark"]
        evidence["two_valued_benchmark"] = abs(gap)
    else:
        near = max(best.values(), key=lambda r: r.margin, default=None)
        if near is not None:  # a diverging closest display means every margin is -inf
            caveats.append(
                f"no display fired; all {len(best)} displays have a diverging |x| trend"
                if near.trend_flag == "diverging" else
                f"no display fired; closest was {near.condition_id} with margin "
                f"{near.margin:.4g} against scan error {near.scan_error:.4g}"
            )
    # the reported beta: the best-margin fired scan among the rung's displays
    scans = [fired[c] for c in beta_ids if c in fired and fired[c].beta is not None]
    return Classification(
        verdict,
        tuple(used),
        {**{c: evidence[c] for c in used}, **null_margins},
        tuple(caveats),
        max(scans, key=lambda r: r.margin).beta if scans else None,
        tuple(best.values()),
    )
