"""Polarization transport along null rays of the flat-space wave operator.

Library layout:

* :mod:`polaray.symbols` -- exact matrix polynomial symbols and their
  calculus (derivatives, Hamilton fields, Poisson brackets,
  subprincipal symbols).
* :mod:`polaray.principal_type` -- the decomposition p~ p = q * 1,
  characteristic-set membership, numerical kernels.
* :mod:`polaray.rays` -- null bicharacteristic tracing.
* :mod:`polaray.transport` -- fiber transport along rays and wavefront
  projection.
* :mod:`polaray.gauge` -- polarization bases, Lorenz constraint,
  residual gauge transforms, the physical transverse subspace.
* :mod:`polaray.wavepacket` -- wave-packet synthesis and the windowed
  oscillation-direction estimator.
* :mod:`polaray.serialization` -- CSV/JSON/grid-field file formats.
* :mod:`polaray.cli` -- command-line entry point.
"""

from .errors import (
    DimensionMismatch,
    InvalidInput,
    NumericalFailure,
    ParseError,
    PolarayError,
)
from .minkowski import MINKOWSKI, Metric, PhaseSpacePoint, phase_point, spatial_momentum
from .symbols import (
    MatrixSymbol,
    builtin_symbol,
    check_homogeneity,
    differentiate,
    flat_maxwell,
    hamilton_field,
    parse_x_polynomial,
    poisson_bracket,
    pretty,
    scalar_wave,
    scaled_wave,
    subprincipal_symbol,
)
from .principal_type import (
    ComplexSymbol,
    KernelBasis,
    NoDecomposition,
    PrincipalTypeDecomposition,
    char_membership,
    decompose_principal_type,
    is_real_principal_type,
    kernel_basis,
    kernel_residual,
)
from .rays import (
    ConstraintDrift,
    NonNullStart,
    Ray,
    StepFailure,
    TooFewSamples,
    ZeroSpatialPart,
    geodesic_residual,
    line_deviation,
    null_curve_residual,
    null_project,
    trace_ray,
)
from .transport import (
    HamiltonOrbit,
    KernelEscape,
    PolarizationSample,
    connection_matrix,
    fiber_scale,
    project_wavefront,
    transport,
)
from .gauge import (
    FieldStrengthMode,
    FourierMode,
    GaugeFunction,
    ModeClassification,
    PolarizationBasis,
    ZeroFrequency,
    classify_mode,
    completeness_residual,
    field_strength_mode,
    gauge_transform,
    lorenz_residual,
    minkowski_pairing,
    pairing_matrix,
    physical_kernel,
    physical_polarizations,
    radiation_fix,
    standard_basis,
    subspace_angle_max,
    transverse_oracle,
)
from .wavepacket import (
    CompareReport,
    CompareTolerances,
    DegenerateField,
    EmptyOrbit,
    GridField,
    GridSpec,
    LineTrack,
    PolarizationEstimate,
    WavePacketSpec,
    WindowOutOfBounds,
    compare,
    estimate_polarization_set,
    scalar_component_flags,
    straightness_track,
    synthesize,
    windowed_spectrum,
)

__version__ = "0.1.0"
