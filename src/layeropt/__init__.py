"""Layer-wise block coordinate descent training for deep feedforward networks.

The package trains fully connected regression networks (sigmoid hidden
layers, linear output, no biases) by treating each layer's weight matrix as a
coordinate block. It provides a batch block-layer method with inner L-BFGS
solves and Armijo-guarded acceptance, a minibatch layer-wise incremental
gradient method with a diminishing clamped stepsize, full-variable L-BFGS and
incremental gradient baselines, and a multi-seed benchmark harness.
"""

from .linalg import SeededRng, frobenius_norm
from .network import (Architecture, NetworkWeights, ForwardCache, forward,
                      forward_partial, init_weights, parse_architecture,
                      sigmoid, sigmoid_prime)
from .objective import (ObjectiveConfig, block_gradient, default_rho,
                        full_gradient, gradient_norm, objective_value)
from .solvers import (ArmijoParams, LbfgsParams, armijo_linesearch,
                      lbfgs_minimize, lbfgs_minimize_block, llsq_last_layer)
from .batch import (AcceptanceParams, BlockSelectionRule, OptimizerRun,
                    StoppingCriteria, accept_trial, b2ld_run,
                    lbfgs_baseline_run)
from .minibatch import (BlingParams, MinibatchSelectionRule, Partition,
                        bling_run, clamped_scale, ig_run, make_partition,
                        stepsize_update)
from .data import (Dataset, fit_apply_normalization, load_delimited,
                   save_dataset, synth_teacher_dataset, train_test_split)
from .harness import (ExperimentConfig, ExperimentReport, DatasetSpec,
                      depth_ratio, emit_report, load_report, run_experiment,
                      run_single, tally_wins)

__version__ = "0.1.0"
