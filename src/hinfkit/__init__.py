"""hinfkit: closed-form H-infinity state feedback for structured linear systems.

Synthesis (synth) builds explicit gains from a single frequency sample of
the plant; verification (verify) certifies them by computing the
closed-loop norm and the matching lower bound; netgen compiles buffer,
irrigation, thermal, machine and circulant network descriptions into
plants; baseline provides the classical Riccati bisection for comparison.
"""

from .baseline import AreProblem, are_feasible, gamma_bisect
from .exceptions import (
    DimensionError,
    HinfkitError,
    HypothesisViolationError,
    InvalidInputError,
    ModelError,
    NotRealGainError,
    NumericalError,
    PoleAtEvaluationError,
    PoleOnAxisError,
    SchemaError,
    SingularMatrixError,
    StandingAssumptionError,
    UnstabilizableError,
    UnstableSystemError,
)
from .linalg import (
    Polynomial,
    eigenvalues,
    generalized_eigenvalues,
    pseudoinverse,
    rational_eval,
    spectral_norm,
)
from .netgen import (
    NetworkModel,
    compile_buffer,
    compile_circulant,
    compile_irrigation,
    compile_machine,
    compile_network,
    compile_thermal,
    laplacian_from_edges,
)
from .sysmodel import (
    DescriptorPlant,
    Gain,
    RationalPlant,
    StateSpace,
    WeightedObjective,
    close_loop,
    droop_plant,
    eval_closed_rational,
    modal_plant,
)
from .synth import (
    assemble_subsystem_plant,
    buffer_law,
    closed_form_gain,
    descriptor_gain,
    droop_gain,
    machine_modal_gains,
    subsystem_law,
    weighted_gain,
)
from .verify import (
    Certificate,
    certify_optimality,
    hinf_norm_grid,
    hinf_norm_ss,
    lower_bound,
    pencil_stability,
    rational_stability,
    sparsity_pattern,
    symmetric_commuting_check,
    weighted_lower_bound,
    zero_peak_inequality,
)

__version__ = "0.1.0"
