"""Photon counting for a laser-driven two-level atom.

A small numpy/scipy library covering:

* exact 2x2/4x4 linear algebra for atom operators and superoperators
  (:mod:`resfluor.linalg`),
* the physical model, its generators and semigroups (:mod:`resfluor.model`),
* counting maps for cylinder detection events (:mod:`resfluor.davies`,
  :mod:`resfluor.events`),
* an independent integral-sum-kernel oracle (:mod:`resfluor.guichardet`)
  with a cross-check battery (:mod:`resfluor.verify`),
* reproducible trajectory Monte Carlo (:mod:`resfluor.trajectories`),
* waiting-time densities and renewal statistics (:mod:`resfluor.renewal`),
* a deterministic batch CLI (:mod:`resfluor.cli`).
"""

from .config import RunConfig, TOOL_VERSION, config_hash
from .davies import DaviesResult, davies_map, event_probability
from .events import (
    ChannelEvent,
    Event,
    Window,
    concat_events,
    event_from_json,
    event_to_json,
    exact_count,
    free_channel,
    shift_event,
    zero_photons,
)
from .guichardet import (
    GuichardetPoint,
    KernelArgs,
    OracleResult,
    driven_amplitude,
    integral_sum_kernel,
    integral_sum_kernel_batch,
    oracle_davies_map,
)
from .linalg import (
    EXCITED_PROJ,
    I2,
    LOWER,
    ad_map,
    apply_superop,
    choi_matrix,
    devec,
    excited_state,
    frobenius_dist,
    ground_state,
    is_completely_positive,
    mat_exp,
    maximally_mixed,
    require_density_matrix,
    superop_exp,
    vec,
)
from .model import (
    Model,
    bounded_rate_check,
    build_model,
    drive_commutator_form,
    emission_amplitude,
    forward_jump,
    interaction_rate_constant,
    lindblad_generator,
    master_generator,
    master_map,
    no_count_map,
    no_jump_generator,
    no_jump_matrix_generator,
    no_jump_operator,
    no_side_count_generator,
    no_side_count_map,
    side_jump,
)
from .renewal import (
    RenewalReport,
    WaitingDensities,
    factorized_probability,
    first_click_hazard,
    renewal_test,
    theoretical_cdf,
    waiting_densities,
)
from .trajectories import (
    SeedSpec,
    Trajectory,
    apply_side_jump,
    evolve_no_jump,
    sample_batch,
    sample_trajectory,
    sample_waiting_time,
    survival,
    trajectory_density_audit,
)
from .verify import run_battery

__version__ = "0.1.0"
