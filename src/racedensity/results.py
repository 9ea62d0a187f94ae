"""The result record of a density or exceedance evaluation; its method
names the route that produced it ("fourier", the only one built)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class DensityResult:
    """One density/exceedance evaluation, annotated for reproducibility.

    log_p and log_e are natural logs; either may be -inf when the
    method resolves the quantity as an exact zero to working accuracy,
    and nan when the method does not produce that quantity at all.
    """

    v: float
    log_p: float
    log_e: float
    method: str
    params: dict = field(default_factory=dict)
    error_estimate: float = 0.0

    @property
    def p(self) -> float:
        return math.exp(self.log_p)

    @property
    def e(self) -> float:
        return math.exp(self.log_e)
