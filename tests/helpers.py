"""Statistical helpers the tests share and the package does not ship.

``ks_two_sample`` needs scipy, which is a test dependency only: the
package computes its own chi-squared and one-sample Kolmogorov p-values.
"""

from typing import Sequence

import numpy as np
from scipy import stats


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and asymptotic p-value."""
    res = stats.ks_2samp(np.asarray(a), np.asarray(b), method="asymp")
    return float(res.statistic), float(res.pvalue)
