"""The helper thread that runs large layers by halves: the halves give the
serial kernels' bits, and the helper starts only where it can pay off."""

import hashlib
import os
import select
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_problem
from layeropt import network
from layeropt.batch import StoppingCriteria
from layeropt.harness import ExperimentConfig, prepare_dataset, run_experiment
from layeropt.minibatch import (BlingParams, MinibatchSelectionRule,
                                bling_run, make_partition)
from layeropt.network import ForwardCache, forward, forward_partial, sigmoid
from layeropt.objective import backprop_deltas, block_gradient, full_gradient


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def same_bits(a, b):
    return np.array_equal(bits(a), bits(b))


def reference(weights, X, Y, cfg):
    """Outputs, deltas and block gradients, each layer one numpy call on
    whole arrays."""
    L = weights.num_layers
    W = [None] + [weights.block(l) for l in range(1, L + 1)]
    z = [X]
    for l in range(1, L + 1):
        a = z[-1] @ W[l]
        z.append(a if l == L else sigmoid(a))
    deltas = {L: z[L] - Y}
    for l in range(L - 1, 0, -1):
        deltas[l] = (deltas[l + 1] @ W[l + 1].T) * ((1.0 - z[l]) * z[l])
    grads = [(2.0 / cfg.sample_count) * (z[l - 1].T @ deltas[l])
             + 2.0 * cfg.rho * W[l] for l in range(1, L + 1)]
    return z, deltas, grads


class NoHelper:
    def __init__(self):
        raise AssertionError("a helper thread was started")


def idle_cpu(mp):
    """An affinity of two CPUs and BLAS on one thread, whatever the machine
    has; BLAS keeps its own thread count."""
    mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    mp.setattr(network, "_blas_threads", lambda: 1)


@pytest.fixture
def helper_allowed(monkeypatch):
    idle_cpu(monkeypatch)


def first_split_rows(width):
    """The fewest rows at which a width x width block runs by halves."""
    return max(-(-network._SPLIT_MIN // width),
               2 * -(-network._HALF_PRODUCT_MIN // width ** 2))


@settings(max_examples=12, deadline=None)
@given(width=st.sampled_from([10, 50]), offset=st.integers(-3, 3),
       seed=st.integers(0, 2**16))
def test_halves_give_the_bits_of_one_numpy_call(width, offset, seed):
    rows = first_split_rows(width) + offset
    with pytest.MonkeyPatch.context() as mp:
        idle_cpu(mp)
        w, X, Y, cfg = make_problem([width] * 3 + [1], 10, rows, seed)
        _, cache = forward(w, X)
    assert cache.split == (() if offset < 0 else (2, 3) if width == 50
                           else (1, 2, 3))
    z, deltas, grads = reference(w, X, Y, cfg)
    assert all(same_bits(cache.z[l], z[l]) for l in range(1, 5))

    got = {}
    backprop_deltas(w, cache, Y, 1, lambda l, d: got.setdefault(l, d.copy()))
    assert all(same_bits(got[l], deltas[l]) for l in range(1, 5))
    forward(w, X, cache)
    assert all(same_bits(g, r) for g, r in zip(full_gradient(w, Y, cfg, cache),
                                               grads))

    w.set_block(2, w.block(2) * 0.5)
    forward_partial(w, cache, 2)
    z, _, _ = reference(w, X, Y, cfg)
    assert all(same_bits(cache.z[l], z[l]) for l in range(1, 5))


def test_block_gradient_has_the_bits_of_the_full_sweep(helper_allowed):
    w, X, Y, cfg = make_problem([50] * 10 + [1], 10, 1600, 3)
    _, cache = forward(w, X)
    assert cache.split == tuple(range(2, 11))
    full = full_gradient(w, Y, cfg, cache)
    for l in range(1, 12):
        assert same_bits(block_gradient(w, Y, cfg, l, cache), full[l - 1])


@pytest.mark.parametrize("cpus, blas_threads", [({0}, 1), ({0, 1}, 2),
                                                 ({0, 1}, None)])
def test_no_idle_cpu_runs_serially(monkeypatch, cpus, blas_threads):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    monkeypatch.setattr(network, "_blas_threads", lambda: blas_threads)
    monkeypatch.setattr(network, "_helper", None)
    monkeypatch.setattr(network, "_Helper", NoHelper)
    w, X, Y, cfg = make_problem([50, 50, 1], 10, 1600, 4)
    out, cache = forward(w, X)
    assert cache.split == ()
    assert same_bits(out, reference(w, X, Y, cfg)[0][-1])
    full_gradient(w, Y, cfg, cache)


def test_blas_threads_are_read_from_openblas():
    script = ("from layeropt.network import _blas_threads; "
              "print(_blas_threads())")
    src = os.path.dirname(os.path.dirname(network.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    if out.strip() == "None":
        pytest.skip("numpy's BLAS is no OpenBLAS")
    assert out.strip() == "1"


def test_an_error_in_the_helpers_half_reaches_the_caller(helper_allowed):
    def body(lo, hi):
        if lo > 0:
            raise ValueError(f"helper half {lo}..{hi}")

    with pytest.raises(ValueError, match="helper half 5..10"):
        network._in_halves(10, body)
    w, X, Y, cfg = make_problem([50, 50, 1], 10, 1600, 5)
    out, cache = forward(w, X)
    assert cache.split and same_bits(out, reference(w, X, Y, cfg)[0][-1])


def test_an_error_in_this_threads_half_waits_for_the_helper(helper_allowed):
    done = []

    def body(lo, hi):
        if lo == 0:
            raise KeyError("mine")
        done.append((lo, hi))

    with pytest.raises(KeyError, match="mine"):
        network._in_halves(9, body)
    assert done == [(4, 9)]


def test_calling_threads_take_turns_on_the_helper(helper_allowed):
    w, X, Y, cfg = make_problem([50, 50, 1], 10, 1600, 8)
    want = reference(w, X, Y, cfg)[0][-1]
    got = []

    def run():
        for _ in range(4):
            got.append(same_bits(forward(w, X)[0], want))
    threads = [threading.Thread(target=run) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [True] * 12


def test_forked_child_starts_its_own_helper(helper_allowed):
    w, X, _, _ = make_problem([50, 50, 1], 10, 1600, 6)
    out, cache = forward(w, X)
    assert cache.split and network._helper.pid == os.getpid()
    r, wr = os.pipe()
    pid = os.fork()
    if pid == 0:                                    # the child
        try:
            child_out, _ = forward(w, X)
            os.write(wr, hashlib.sha256(bits(child_out)).hexdigest().encode()
                     + str(network._helper.pid).encode())
        finally:
            os._exit(0)
    os.close(wr)
    try:
        ready, _, _ = select.select([r], [], [], 60)
        assert ready, "the forked child's forward did not finish"
        reply = os.read(r, 200).decode()
    finally:
        os.close(r)
        os.waitpid(pid, 0)
    assert reply == hashlib.sha256(bits(out)).hexdigest() + str(pid)


def test_pool_workers_start_no_helper_and_match_one_worker(monkeypatch,
                                                           helper_allowed):
    raw = {"datasets": [{"name": "wide", "teacher_arch": "10-[1x20]-1",
                         "samples": 2000, "data_seed": 9}],
           "architectures": ["[1x50]"], "algorithms": ["B2LD", "LBFGS"],
           "seeds": [0, 1],
           "stopping": {"time_limit_seconds": None, "max_cycles": 2,
                        "max_inner_iters": 5}}
    config = ExperimentConfig.from_dict(raw)
    assert prepare_dataset(config.datasets[0])[0].num_samples == 1600
    with monkeypatch.context() as mp:
        mp.setattr(network, "_helper", None)
        mp.setattr(network, "_Helper", NoHelper)   # forked workers inherit it
        pooled = run_experiment(config, workers=2).rows
    inline = run_experiment(config, workers=1).rows
    assert network._helper is not None and network._helper.pid == os.getpid()
    assert not any(r.error for r in pooled + inline)
    for a, b in zip(pooled, inline):
        a.elapsed_seconds = b.elapsed_seconds = 0.0
        assert repr(a) == repr(b)


def test_minibatch_sized_run_starts_no_thread(monkeypatch, helper_allowed):
    monkeypatch.setattr(network, "_helper", None)
    threads = threading.active_count()
    w, X, Y, cfg = make_problem([50] * 10 + [1], 10, 1600, 7)
    part = make_partition(1600, 128)
    bling_run(w, X, Y, cfg, part,
              MinibatchSelectionRule(MinibatchSelectionRule.INCREMENTAL),
              BlingParams(alpha0=BlingParams.default_alpha0(11)),
              StoppingCriteria(time_limit_seconds=None, max_epochs=1))
    assert network._helper is None
    assert threading.active_count() == threads


def test_only_blocks_with_large_products_split(helper_allowed):
    teacher = network.parse_architecture("10-[2x20]-1")
    assert ForwardCache.for_rows(teacher, 2000).split == ()
    # 3277 rows x 20 pass the element count, but a half of 20x20 blocks
    # does too few multiply-adds
    assert ForwardCache.for_rows(teacher, 3277).split == ()
    assert ForwardCache.for_rows(teacher, 5244).split == (2,)
    student = network.parse_architecture("10-[10x50]-1")
    assert ForwardCache.for_rows(student, 1310).split == ()
    assert ForwardCache.for_rows(student, 1311).split == tuple(range(2, 11))
    assert ForwardCache.for_rows(student, 128).split == ()
    # a matrix-vector product never splits
    narrow = network.parse_architecture("64-[1,64]-1")
    assert ForwardCache.for_rows(narrow, 70000).split == ()
