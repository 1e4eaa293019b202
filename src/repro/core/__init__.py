"""ALERT's core: estimation and selection machinery.

The flow, per input ``n`` (paper Section 3.2):

1. **Measure** the previous input's latency, energy, and quality.
2. **Adjust goals** (shared sentence deadlines, scheduler overhead).
3. **Estimate**: update the global slowdown factor ξ with the adaptive
   Kalman filter (Eq. 5) and the idle-power ratio φ (Eq. 8); derive,
   for every (DNN, power cap) configuration, the probability of meeting
   the deadline (Eq. 6), the expected accuracy (Eqs. 3/7/13), and the
   expected energy (Eqs. 9/12).
4. **Pick** the configuration that optimises the user objective subject
   to the constraints (Eqs. 1/2/4/10/11), with the
   latency > accuracy > power priority fallback when nothing is
   feasible.

Public entry point: :class:`AlertKernel`.
"""

from repro.core.batch_estimator import BatchAlertEstimator, BatchEstimates
from repro.core.config_space import Configuration, ConfigurationSpace
from repro.core.estimator import AlertEstimator, ConfigEstimate
from repro.core.goals import Goal, GoalAdjuster, ObjectiveKind
from repro.core.kalman import AdaptiveKalmanFilter, IdlePowerFilter
from repro.core.kernel import (
    AlertKernel,
    ControllerState,
    Measurement,
    kernel_of,
    measurement_from_outcome,
)
from repro.core.selector import ConfigSelector, SelectionResult
from repro.core.slowdown import GlobalSlowdownEstimator

__all__ = [
    "BatchAlertEstimator",
    "BatchEstimates",
    "Configuration",
    "ConfigurationSpace",
    "ControllerState",
    "AlertEstimator",
    "ConfigEstimate",
    "Goal",
    "GoalAdjuster",
    "ObjectiveKind",
    "AdaptiveKalmanFilter",
    "IdlePowerFilter",
    "AlertKernel",
    "Measurement",
    "kernel_of",
    "measurement_from_outcome",
    "ConfigSelector",
    "SelectionResult",
    "GlobalSlowdownEstimator",
]
