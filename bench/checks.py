"""Output checks. Each raises CheckError naming what is wrong.

They compare layeropt's results with values the benchmark computes itself
(``reference``) or with properties the methods must have.
"""

import dataclasses
import math
import struct

import numpy as np

import reference as ref

OBJECTIVE_RTOL = 1e-9   # the reference sigmoid differs from the package's by ulps


class CheckError(AssertionError):
    pass


def check_objective(run, X, Y, rho):
    """The reported final objective equals the reference objective of the
    returned weights."""
    blocks = [run.final_weights.block(l)
              for l in range(1, run.final_weights.num_layers + 1)]
    own = ref.objective(blocks, X, Y, rho)
    if not (math.isfinite(run.final_objective)
            and abs(own - run.final_objective) <= OBJECTIVE_RTOL * abs(own)):
        raise CheckError(f"{run.algorithm} seed {run.seed}: final objective "
                         f"{run.final_objective!r}, recomputed {own!r}")


def check_monotone(run):
    """Batch methods commit only points that do not increase the objective,
    and the trajectory ends at the reported final objective."""
    traj = run.trajectory
    for i in range(1, len(traj)):
        if not traj[i] <= traj[i - 1]:
            raise CheckError(f"{run.algorithm} seed {run.seed}: objective "
                             f"rose at step {i}: {traj[i - 1]!r} -> {traj[i]!r}")
    if traj[-1] != run.final_objective:
        raise CheckError(f"{run.algorithm} seed {run.seed}: trajectory ends at "
                         f"{traj[-1]!r}, final objective {run.final_objective!r}")


def check_iteration_budget(run, budget):
    """A batch run stops on its inner-iteration budget and spends all of it."""
    if run.stop_reason != "iteration_budget" or run.inner_iterations < budget:
        raise CheckError(f"{run.algorithm} seed {run.seed}: stopped on "
                         f"{run.stop_reason!r} after {run.inner_iterations} of "
                         f"{budget} inner iterations")


def check_epoch_budget(run, epochs, minibatches):
    """A minibatch run stops on its epoch budget, and every block was updated
    once per minibatch visit."""
    visits = epochs * minibatches
    layers = run.final_weights.num_layers
    if (run.stop_reason != "max_epochs" or run.inner_iterations != visits
            or list(run.layer_update_counts) != [visits] * layers):
        raise CheckError(f"{run.algorithm} seed {run.seed}: stopped on "
                         f"{run.stop_reason!r} after {run.inner_iterations} "
                         f"minibatches, layer updates {run.layer_update_counts}, "
                         f"expected {visits} each")


def check_equal(what, got, expected):
    if got != expected:
        raise CheckError(f"{what}: {got!r} != {expected!r}")


def bits(value):
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, list):
        return [bits(v) for v in value]
    return value


def check_round_trip(emitted, loaded):
    """load_report returns the emitted rows field by field, floats bitwise."""
    if len(emitted) != len(loaded):
        raise CheckError(f"report has {len(loaded)} rows, emitted {len(emitted)}")
    for i, (a, b) in enumerate(zip(emitted, loaded)):
        for f in dataclasses.fields(a):
            va, vb = getattr(a, f.name), getattr(b, f.name)
            if bits(va) != bits(vb):
                raise CheckError(f"report row {i} field {f.name}: emitted "
                                 f"{va!r}, loaded {vb!r}")


def check_experiment_rows(rows, expect):
    """Rows of the experiment workload against the benchmark's own inputs.

    ``expect["init"]`` maps (architecture, seed) to the reference init
    digest, initial objective and layer count; ``expect`` also holds the
    row count, the epoch budget and the minibatches per epoch.
    """
    if len(rows) != expect["count"]:
        raise CheckError(f"experiment has {len(rows)} rows, expected "
                         f"{expect['count']}")
    for r in rows:
        tag = f"{r.algorithm} {r.architecture} seed {r.seed}"
        if r.error:
            raise CheckError(f"{tag}: error row {r.error!r}")
        digest, f0, layers = expect["init"][(r.architecture, r.seed)]
        check_equal(f"{tag}: initial-weights digest", r.init_digest, digest)
        if not (math.isfinite(r.final_objective) and r.final_objective > 0):
            raise CheckError(f"{tag}: final objective {r.final_objective!r}")
        if r.algorithm in ("B2LD", "LBFGS"):
            if not r.final_objective <= f0:
                raise CheckError(f"{tag}: final objective {r.final_objective!r} "
                                 f"above the initial {f0!r}")
            allowed = ("max_cycles", "iteration_budget") \
                if r.algorithm == "B2LD" else ("iteration_budget",)
            if r.stop_reason not in allowed:
                raise CheckError(f"{tag}: stopped on {r.stop_reason!r}")
        else:
            visits = expect["epochs"] * expect["minibatches"]
            if r.stop_reason != "max_epochs" \
                    or r.layer_update_counts != [visits] * layers:
                raise CheckError(f"{tag}: stopped on {r.stop_reason!r} with "
                                 f"layer updates {r.layer_update_counts}, "
                                 f"expected {visits} each")


def check_inputs(X, Y, X_own, Y_own):
    """The package's prepared data matches the reference pipeline to 1e-12
    (the teacher's sigmoid differs from the reference one by ulps)."""
    for name, got, own in (("X", X, X_own), ("Y", Y, Y_own)):
        if got.shape != own.shape or not np.allclose(got, own, rtol=0, atol=1e-12):
            raise CheckError(f"prepared training {name} differs from the "
                             f"reference pipeline")
