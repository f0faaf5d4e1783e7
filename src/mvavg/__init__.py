"""Slow-fast mean-field particle simulation and averaging-rate studies."""

from .measure import (DimensionMismatchError, MeasureMoments, SampleSet,
                      UnsupportedCaseError, w2_1d, w2_bruteforce,
                      w2_coupling_bound)
from .models import (ModelSpec, ProbeSampler, REGISTRY, build_model,
                     empirical_view, make_linear_benchmark, make_mvsde_cubic,
                     make_plaplace_1d, make_porous_media_1d, probe_hypothesis,
                     run_probe_suite)
from .noise import NoisePlan
from .integrate import (BlowUpError, FullRunner, MultiscaleParams, TrajectoryRecorder,
                        resolve_params, simulate_full)
from .averaging import (AveragedRunner, FrozenEstimate, FrozenParams, HmmConfig,
                        MixingFailure, default_frozen_params, estimate_fbar,
                        estimate_mixing_rate, frozen_simulate, simulate_averaged)
from .study import (ConfigError, RateReport, StudyConfig, load_config,
                    run_aux_diagnostic, run_rate_study, write_report)

__version__ = "0.1.0"
