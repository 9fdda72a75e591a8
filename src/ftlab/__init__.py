"""ftlab: a deterministic simulation laboratory for composite adaptive
finite-time set-point control of Euler-Lagrange systems."""

from .errors import ConfigError, NumericalDegeneracyError
from .plant import FrictionModel, NoiseModel, PhysicalParams, Plant, ThetaVector
from .regression import (ForceBalanceRegression, PowerBalanceRegression,
                         RegressionPair, make_regression)
from .drem import (KreisParams, KreisselmeierDre, LeastSquaresDre, LsDreParams,
                   excitation_gramian)
from .control import (CompositeAdaptGains, CompositeFtController, FtPdGains,
                      SlotineLiLsController, SwitchingTsmController, TsmParams,
                      excitation_gain, saturation)
from .sim import (Metrics, SimConfig, Trace, compute_metrics, lyapunov_v1,
                  read_trace_csv, run_closed_loop, trace_csv_string,
                  write_trace_csv)

__version__ = "0.1.0"
