"""Statistical significance of paired comparisons (§6.4).

The paper reports that VS2's improvement over the text-only baseline is
statistically significant (paired t-test, p < 0.05) on all datasets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class TTestResult:
    statistic: float
    p_value: float
    mean_difference: float

    def significant(self, alpha: float = 0.05) -> bool:
        return self.p_value < alpha


def paired_t_test(a: Sequence[float], b: Sequence[float]) -> TTestResult:
    """Paired t-test of series ``a`` against series ``b``.

    ``a`` and ``b`` are per-document scores of two systems on the same
    corpus, in the same order.  A degenerate (all-equal-differences)
    input returns p = 1.0 rather than NaN.
    """
    if len(a) != len(b):
        raise ValueError("paired series must have equal length")
    if len(a) < 2:
        raise ValueError("need at least two paired observations")
    # Imported here: scipy.stats costs ~0.85 s of import time, which
    # would otherwise land on every `import repro.harness`.
    from scipy import stats

    diffs = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    if np.allclose(diffs.std(), 0.0):
        return TTestResult(0.0, 1.0, float(diffs.mean()))
    statistic, p_value = stats.ttest_rel(a, b)
    return TTestResult(float(statistic), float(p_value), float(diffs.mean()))
