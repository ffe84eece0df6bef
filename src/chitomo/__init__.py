"""Direct readout of field characteristic functions via a Ramsey probe.

A pulsed two-level probe imprints a chosen coherent displacement xi on each
field mode and stores chi(xi) = Tr[rho D(xi)] in its own coherences. The
package covers the full pipeline: Gaussian field states and their closed-form
chi, the pulse-sequence displacement map, qubit readout with shot noise,
grid/Wigner/moment reconstruction, and an independent truncated-Fock oracle
that brute-force checks every closed form. A condensate-impurity mapping
feeds the same pipeline from cold-atom parameters.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .errors import NumericalCheckError, ValidationError
from .gaussian_field import (
    GaussianFieldState,
    ModeSet,
    Squeezed,
    Thermal,
    Vacuum,
    char_analytic,
    char_points,
    covariance,
    moments_analytic,
)
from .pulse_protocol import PulseSchedule, displacement_param, reachable_manifold
from .ramsey_readout import estimate_chi, final_qubit_state, required_shots, sample_shots
from .tomography import (
    ChiGrid,
    WignerGrid,
    chi_grid_from_state,
    gaussian_fit,
    hermitian_fill,
    moments_fd,
    sampled_chi_grid,
    wigner_transform,
)

__all__ = [
    "__version__",
    "NumericalCheckError",
    "ValidationError",
    "GaussianFieldState",
    "ModeSet",
    "Vacuum",
    "Thermal",
    "Squeezed",
    "char_analytic",
    "char_points",
    "covariance",
    "moments_analytic",
    "PulseSchedule",
    "displacement_param",
    "reachable_manifold",
    "final_qubit_state",
    "sample_shots",
    "estimate_chi",
    "required_shots",
    "ChiGrid",
    "WignerGrid",
    "chi_grid_from_state",
    "sampled_chi_grid",
    "hermitian_fill",
    "wigner_transform",
    "moments_fd",
    "gaussian_fit",
]
