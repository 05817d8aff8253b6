"""Lattice PDE trajectories, patch tokenization, observability
certificates, and linear latent forecasting."""

from .errors import (DataFormatError, DegenerateStatisticError, DivergenceError,
                     LatentPdeError, NonObservableError, ParameterError)
from .random_fields import GrfParams, build_conductivity, sample_matern_field
from .lattice_ops import (GridSpec, build_difference, build_modified_laplacian,
                          build_tokenizer_matrix, build_wave_generator)
from .solvers import (EtdrkCoefficients, Trajectory, etdrk_coefficients, euler_frames,
                      simulate_kse1d, simulate_kse2d, simulate_linear)
from .tokenizer import (amplitude, build_histories, build_reconstruction_pairs,
                        forecast_pairs, sliding_histories, tokenize_trajectory)
from .observability import (GramianReport, HautusReport, KalmanReport, LieLogDetReport,
                            LieLogDetSeries, RankReport, WitnessReport, annihilation_witness,
                            empirical_lie_logdet, gramian_reconstruction, hautus_test,
                            kalman_observability_matrix, kalman_rank_test,
                            lie_logdet_report, linear_reconstruct_initial_state,
                            observability_gramian, rank_test, witness_orbit)
from .learners import (LinearMap, TrainConfig, fit_blocks, fit_least_squares, fit_sgd,
                       fit_sgd_blocks, fit_superres, history_sweep, mse_loss_and_grad)
from .rollout_metrics import (CorrelationSeries, RolloutResult, autoregressive_rollout,
                              correlation_ensemble_stats, full_pipeline_rollout,
                              nearest_subvideo_distance, residue_norms,
                              temporal_correlation)
from .dataset import (DatasetManifest, apply_normalization, compute_normalization,
                      export_frame_image, generate_dataset, lattice_system, load_all,
                      load_manifest, load_trajectory, tokenize_dataset, write_csv,
                      write_dataset, write_generated_dataset)

__version__ = "0.1.0"
