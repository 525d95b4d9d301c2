"""Reference simulation settings shared by the CLI and the test suite.

These are the default corridor values; the link budget's are the
`LinkBudget` field defaults. The peak sector gain follows the usual
wide-sector rule of 297.6/beta dB for a beamwidth of beta degrees.
"""

from __future__ import annotations

import math

from .geometry import CorridorScenario
from .propagation import LinkBudget

D1_M = 1000.0
H1_M = 100.0
H2_M = 300.0
TAU_DB = 2.0

# Default uptilt sweep grid, degrees.
ALPHA_GRID_DEG = [float(a) for a in range(2, 39)]


def peak_gain_db(beta_rad: float) -> float:
    """Sector peak gain in dB for a given beamwidth: 297.6 / beta_deg."""
    return 297.6 / math.degrees(beta_rad)


def reference_scenario(alpha_deg: float, beta_deg: float, *,
                       d1=D1_M, h1=H1_M, h2=H2_M, tau_db=TAU_DB,
                       radio: LinkBudget = LinkBudget()) -> CorridorScenario:
    """Corridor scenario at the reference settings with the given tilt."""
    return CorridorScenario(
        d1=d1, h1=h1, h2=h2,
        alpha=math.radians(alpha_deg),
        beta=math.radians(beta_deg),
        tau=10.0 ** (tau_db / 10.0),
        radio=radio,
    )
