"""SINR outage analysis for UAV corridors served by uptilted BS antennas."""

from .closed_form import ClosedFormResult, outage
from .geometry import (
    BorderlineGeometry,
    CaseId,
    CaseUndefined,
    CorridorScenario,
    CrossingHeights,
    GeometryError,
    GeometryInfeasible,
    TauOutOfRange,
    borderline_geometry,
    classify_case,
    crossing_heights,
)
from .monte_carlo import LosMode, McConfig, McResult, estimate_outage
from .oracle import (
    Association,
    BeamKind,
    OracleAssumptions,
    coverage_by_quadrature,
    evaluate_sinr,
)
from .propagation import (
    AirToGroundPathLoss,
    BeamPattern,
    CosineBeam,
    FreeSpacePathLoss,
    InterferenceMode,
    LinkBudget,
    PathLossModel,
    RectangularBeam,
    noise_power_dbm,
    suggested_element_count,
)

__version__ = "0.1.0"
