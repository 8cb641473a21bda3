"""Campaign statistics (paper §IV-D).

The paper's protocol: a campaign is 100 experiments; its SDC rate is one
random sample; campaigns are run until (1) the sample distribution is
normal or near normal and (2) the t-based margin of error at 95% confidence
is within ±3 percentage points.  These helpers implement that machinery.

The t* and z quantiles that the shipped configs reach are committed copies
of scipy's, and the 3-sample Shapiro-Wilk test is a closed form whose
decisions equal scipy's.  scipy loads only for another confidence level,
more than 65 campaigns, or Shapiro-Wilk on 4 or more samples (DESIGN.md,
"Stopping-rule statistics").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: scipy's ``t.ppf(0.975, df)`` for df = 1..64: t* of a 95% margin.
_T_975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078,
    2.7764451051977934, 2.5705818356363146, 2.4469118511449786,
    2.364624251592784, 2.306004135204166, 2.262157162798205,
    2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776,
    2.1199052992212546, 2.1098155778333156, 2.1009220402410382,
    2.0930240544083087, 2.085963447265864, 2.0796138447276795,
    2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846,
    2.0484071417952454, 2.045229642132703, 2.0422724563012378,
    2.039513446396408, 2.0369333434601016, 2.0345152974493383,
    2.0322445093177186, 2.030107928250343, 2.0280940009804502,
    2.0261924630291093, 2.0243941639119694, 2.022690920036761,
    2.021075390306273, 2.019540970441376, 2.0180817028184443,
    2.016692199227824, 2.0153675744437636, 2.014103388880846,
    2.012895598919429, 2.0117405137297655, 2.010634757624232,
    2.0095752371292392, 2.008559112100761, 2.007583770315836,
    2.006646805061688, 2.0057459953178687, 2.0048792881880564,
    2.0040447832891455, 2.003240718847872, 2.002465459291007,
    2.0017174841452356, 2.000995378088267, 2.0002978220142604,
    1.999623584994939, 1.9989715170333788, 1.998340542520741,
    1.997729654317693,
)

#: scipy's ``norm.ppf(0.975)``; ``statistics.NormalDist`` is one ulp lower.
_Z_975 = 1.959963984540054

#: ``asin(sqrt(3/4))``, the least value of ``asin(sqrt(W))`` at n = 3.
_ASIN_SQRT_3_4 = math.asin(math.sqrt(0.75))


def _t_star(confidence: float, df: int) -> float:
    if confidence == 0.95 and df <= len(_T_975):
        return _T_975[df - 1]
    from scipy import stats as sps

    return sps.t.ppf(0.5 + confidence / 2.0, df=df)


def _z(confidence: float) -> float:
    if confidence == 0.95:
        return _Z_975
    from scipy import stats as sps

    return sps.norm.ppf(0.5 + confidence / 2.0)


def margin_of_error(samples, confidence: float = 0.95) -> float:
    """t-based margin of error of the sample mean.

    ``t* · s / sqrt(n)`` with ``s`` the sample standard deviation — the
    "standard t-value based formula where the sample size and the standard
    error of the sample distribution is known" [paper §IV-D, ref 25].
    """
    x = np.asarray(list(samples), dtype=float)
    n = x.size
    if n < 2:
        return math.inf
    s = x.std(ddof=1)
    if s == 0.0:
        return 0.0
    t_star = _t_star(confidence, n - 1)
    return float(t_star * s / math.sqrt(n))


def confidence_interval(samples, confidence: float = 0.95) -> tuple[float, float]:
    x = np.asarray(list(samples), dtype=float)
    moe = margin_of_error(x, confidence)
    m = float(x.mean())
    return (m - moe, m + moe)


def is_near_normal(samples, alpha: float = 0.05) -> bool:
    """Shapiro-Wilk normality check; degenerate (constant) samples count as
    normal (a zero-variance estimate needs no distributional caveats)."""
    x = np.asarray(list(samples), dtype=float)
    if x.size < 3 or np.allclose(x, x[0]):
        return True
    if x.size == 3:
        return _shapiro_p3(x) > alpha
    from scipy import stats as sps

    _w, p = sps.shapiro(x)
    return bool(p > alpha)


def _shapiro_p3(x) -> float:
    """Shapiro-Wilk p-value of three samples, in closed form.

    At n = 3 the coefficients are ``±sqrt(1/2)``, so
    ``W = (y3 - y1)**2 / (2 * SS)``, and the p-value is exact:
    ``(6/pi) * (asin(sqrt(W)) - asin(sqrt(3/4)))`` (Royston, AS R94).
    """
    y1, y2, y3 = sorted(float(v) for v in x)
    mean = (y1 + y2 + y3) / 3.0
    ss = (y1 - mean) ** 2 + (y2 - mean) ** 2 + (y3 - mean) ** 2
    w = min(1.0, (y3 - y1) ** 2 / (2.0 * ss))
    return max(0.0, 6.0 / math.pi * (math.asin(math.sqrt(w)) - _ASIN_SQRT_3_4))


@dataclass
class RateEstimate:
    """A rate (e.g. SDC rate) with its campaign-level uncertainty."""

    mean: float
    margin: float
    samples: list[float]
    confidence: float = 0.95

    @property
    def interval(self) -> tuple[float, float]:
        return (self.mean - self.margin, self.mean + self.margin)

    def __str__(self) -> str:
        return f"{100 * self.mean:.1f}% ± {100 * self.margin:.1f}"


def estimate_rate(samples, confidence: float = 0.95) -> RateEstimate:
    x = [float(v) for v in samples]
    mean = float(np.mean(x)) if x else float("nan")
    return RateEstimate(mean, margin_of_error(x, confidence), x, confidence)


def wilson_interval(successes: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a single pooled proportion — used for the
    micro-benchmark study, which pools experiments rather than campaigns."""
    if trials == 0:
        return (0.0, 1.0)
    z = _z(confidence)
    p = successes / trials
    denom = 1 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return (max(0.0, centre - half), min(1.0, centre + half))
