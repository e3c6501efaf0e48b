"""Figure 3: do the three subject groups agree?

Computed from merged study partials by
:func:`repro.study.pipeline.agreement_by_condition`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.analysis.stats import MeanCI


@dataclass
class ConditionAgreement:
    """One x-position of Figure 3: a rating condition seen by all groups."""

    condition: Tuple[str, str, str]        # (website, network, stack)
    lab: Optional[MeanCI]
    microworker: Optional[MeanCI]
    internet_median: Optional[float]

    @property
    def microworker_within_lab_ci(self) -> Optional[bool]:
        """The paper's agreement criterion for trusting µWorker votes."""
        if self.lab is None or self.microworker is None:
            return None
        return self.lab.overlaps(self.microworker)

    @property
    def internet_within_lab_ci(self) -> Optional[bool]:
        if self.lab is None or self.internet_median is None:
            return None
        return self.lab.contains(self.internet_median)
