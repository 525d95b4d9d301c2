"""SINR outage analysis for UAV corridors served by uptilted BS antennas."""

from .closed_form import ClosedFormResult, coverage_case_expression, outage
from .geometry import (
    BorderlineGeometry,
    CaseId,
    CaseUndefined,
    CornerHeights,
    CorridorScenario,
    CrossingHeights,
    DegenerateGeometry,
    GeometryError,
    GeometryInfeasible,
    TauOutOfRange,
    borderline_geometry,
    classify_case,
    corner_heights,
    crossing_heights,
    delta_angles,
    elevation_angles,
    theta1_pdf,
)
from .monte_carlo import LosMode, McConfig, McResult, estimate_outage, sample_point
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
