"""Decay-model fitting for recorded norm series.

Three parametric families cover the decay regimes the solver produces:
exponential K e^{-omega t}, polynomial K (1+t)^{-q}, and stretched
exponential K e^{-C t^{beta_s}}.  All fits run in log space so they are
scale-equivariant: rescaling the series moves only the prefactor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DecayFit",
    "predicted_q",
    "fit_exponential",
    "fit_power",
    "fit_stretched",
    "window_shift_stability",
]


def predicted_q(k: float, kbar: float, gamma: float) -> float:
    """Polynomial decay exponent (kbar - k)/(2 - gamma)."""
    if gamma >= 2.0:
        raise ValueError(f"polynomial regime requires gamma < 2, got gamma={gamma:g}")
    if kbar < k:
        raise ValueError(f"predicted exponent needs kbar >= k, got kbar={kbar:g}, k={k:g}")
    return (kbar - k) / (2.0 - gamma)


@dataclass(frozen=True)
class DecayFit:
    """A fitted decay law on a time window."""

    model: str
    params: dict
    window: tuple
    r2: float
    series_source: str = ""

    @property
    def exponent(self) -> float:
        """The rate/exponent that identifies the fit within its family."""
        key = {"exponential": "omega", "power": "q", "stretched": "beta_s"}[self.model]
        return self.params[key]

    def to_json(self) -> dict:
        return {
            "model": self.model,
            "params": {k: float(v) for k, v in self.params.items()},
            "window": [float(self.window[0]), float(self.window[1])],
            "r2": float(self.r2),
            "series_source": self.series_source,
        }


def _as_series(times, values):
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != v.shape:
        raise ValueError("times and values must be 1-d arrays of equal length")
    if t.size < 3:
        raise ValueError("need at least 3 recorded points to fit a decay law")
    if not np.all(np.isfinite(t)) or np.any(np.diff(t) <= 0):
        raise ValueError("times must be finite and strictly increasing")
    return t, v


def _resolve_window(t, window, transient_frac):
    if window is None:
        horizon = t[-1] - t[0]
        window = (t[0] + transient_frac * horizon, t[-1])
    t_lo, t_hi = float(window[0]), float(window[1])
    if not (t_lo < t_hi):
        raise ValueError(f"empty fit window [{t_lo:g}, {t_hi:g}]")
    # tiny slack so a window quoted at the recorded endpoints is accepted
    slack = 1e-9 * max(1.0, abs(t[-1]))
    if t_lo < t[0] - slack or t_hi > t[-1] + slack:
        raise ValueError(
            f"fit window [{t_lo:g}, {t_hi:g}] must lie inside the recorded range [{t[0]:g}, {t[-1]:g}]"
        )
    mask = (t >= t_lo - slack) & (t <= t_hi + slack)
    if mask.sum() < 3:
        raise ValueError("fit window contains fewer than 3 recorded points")
    return (t_lo, t_hi), mask


def _check_positive(v, what="series"):
    if np.any(~np.isfinite(v)) or np.any(v <= 0.0):
        raise ValueError(f"{what} must be positive and finite on the fit window")


def _r2(y, y_fit):
    ss_res = float(np.sum((y - y_fit) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res <= 1e-24 else float("-inf")
    return 1.0 - ss_res / ss_tot


def _linear_fit(x, y):
    A = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(slope), float(intercept)


def fit_exponential(times, values, window=None, transient_frac=0.2, series_source="") -> DecayFit:
    """Least squares of log(value) against t: omega = -slope."""
    t, v = _as_series(times, values)
    window, mask = _resolve_window(t, window, transient_frac)
    tw, vw = t[mask], v[mask]
    _check_positive(vw)
    logv = np.log(vw)
    slope, intercept = _linear_fit(tw, logv)
    r2 = _r2(logv, slope * tw + intercept)
    params = {"omega": -slope, "K": float(np.exp(intercept))}
    return DecayFit("exponential", params, window, r2, series_source)


def fit_power(times, values, window=None, transient_frac=0.2, series_source="") -> DecayFit:
    """Least squares of log(value) against log(1 + t): q = -slope."""
    t, v = _as_series(times, values)
    window, mask = _resolve_window(t, window, transient_frac)
    tw, vw = t[mask], v[mask]
    _check_positive(vw)
    logv = np.log(vw)
    x = np.log1p(tw)
    slope, intercept = _linear_fit(x, logv)
    r2 = _r2(logv, slope * x + intercept)
    params = {"q": -slope, "K": float(np.exp(intercept))}
    return DecayFit("power", params, window, r2, series_source)


def fit_stretched(times, values, window=None, transient_frac=0.0, series_source="") -> DecayFit:
    """Two-stage stretched-exponential fit K e^{-C t^{beta_s}}.

    Stage one regresses log(-log(value/value(anchor))) against log t for the
    shape exponent; stage two recovers C and K by a linear fit of log(value)
    against t^{beta_s}.  The series must decrease on the window.

    The anchor is the first recorded sample of the whole series, not the
    window start: the profile's clock starts where the recording does, and
    normalizing inside the window would subtract the accumulated exponent
    C t_lo^{beta_s} and steepen the regression.
    """
    t, v = _as_series(times, values)
    window, mask = _resolve_window(t, window, transient_frac)
    tw, vw = t[mask], v[mask]
    _check_positive(vw)
    if np.any(np.diff(vw) >= 0.0):
        raise ValueError("stretched fit needs a strictly decreasing series on the window")
    if not v[0] > 0.0:
        raise ValueError(f"stretched fit needs a positive anchor value, got {v[0]:g}")
    u = vw / v[0]
    # the anchor point itself (u = 1) and any t = 0 sample have no log-log image
    ok = (u < 1.0) & (tw > 0.0)
    if ok.sum() < 3:
        raise ValueError("fit window leaves fewer than 3 usable points after anchoring")
    beta_s, _ = _linear_fit(np.log(tw[ok]), np.log(-np.log(u[ok])))
    if not np.isfinite(beta_s) or beta_s <= 0.0:
        raise ValueError(f"stretched-shape regression produced an unusable exponent {beta_s:g}")
    logv = np.log(vw)
    x = tw**beta_s
    slope, intercept = _linear_fit(x, logv)
    r2 = _r2(logv, slope * x + intercept)
    params = {"beta_s": beta_s, "C": -slope, "K": float(np.exp(intercept))}
    return DecayFit("stretched", params, window, r2, series_source)


def window_shift_stability(fitter, times, values, window=None, shift_frac=0.2, **kwargs) -> dict:
    """Refit with the window start shifted by +-shift_frac of the horizon.

    Returns the base fit, the shifted exponents, and the largest relative
    exponent change; acceptance gates read max_rel_change.
    """
    t = np.asarray(times, dtype=float)
    base = fitter(times, values, window=window, **kwargs)
    t_lo, t_hi = base.window
    horizon = t[-1] - t[0]
    shifted = {}
    for sign in (-1.0, 1.0):
        lo = t_lo + sign * shift_frac * horizon
        lo = min(max(lo, t[0]), t_hi - 0.05 * horizon)
        fit = fitter(times, values, window=(lo, t_hi), **kwargs)
        shifted[f"{sign * shift_frac:+g}"] = fit.exponent
    ref = max(abs(base.exponent), 1e-12)
    max_rel = max(abs(e - base.exponent) / ref for e in shifted.values())
    return {"fit": base, "shifted_exponents": shifted, "max_rel_change": max_rel}
