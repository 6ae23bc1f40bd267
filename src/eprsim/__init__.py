"""Continuous-variable EPR-state synthesis simulator.

Builds two-mode squeezed (EPR) states by interfering a pair of single-mode
squeezed vacua, samples homodyne data from them, reconstructs density
matrices by iterative maximum-likelihood tomography, fits variance traces
back to physical parameters, and computes the beam-geometry and
group-velocity walk-off numbers needed to design the source.
"""

__version__ = "0.1.0"

from .errors import (
    DataFormatError,
    IllConditionedDatumError,
    IllPosedFitError,
    UnsupportedStateError,
)
from .gaussian import (
    GaussianState,
    PipelineConfig,
    VACUUM_VARIANCE,
    beamsplit,
    epr_pipeline,
    epr_variance,
    joint_position_pdf,
    joint_quad_variance,
    loss,
    phase_shift,
    quad_variance,
    reduce_modes,
    single_mode_variance,
    squeeze,
    symplectic_form,
    thermal_variance,
    vacuum,
)
from .fock import (
    FockDensityMatrix,
    TruncationReport,
    fidelity,
    gaussian_to_fock,
    loss_fock,
    mean_photon,
    quad_covariance,
    squeezed_vacuum_fock,
    tmsv_fock,
)
from .homodyne import (
    PhaseSchedule,
    QuadratureDataset,
    SweepConfig,
    VarianceTrace,
    binned_variance,
    sample,
)
from .tomography import (
    TomographyConfig,
    TomographyDiagnostics,
    quad_wavefunction,
    reconstruct,
)
from .fitting import (
    FitResult,
    fit_epr,
    fit_single,
    fit_sinusoid,
    squeezing_db,
)
from .optics import (
    WALKOFF_PRESETS,
    beam_radius,
    compensation_length,
    parse_length,
    rayleigh_range,
    walkoff_path,
)
