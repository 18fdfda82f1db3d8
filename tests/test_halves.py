"""The helper thread that runs large layers by halves: the halves give the
serial kernels' bits, and the helper starts only where it can pay off."""

import concurrent.futures
import hashlib
import os
import select
import signal
import subprocess
import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import idle_cpu, make_problem
from layeropt import network
from layeropt.batch import StoppingCriteria
from layeropt.harness import ExperimentConfig, prepare_dataset, run_experiment
from layeropt.minibatch import (BlingParams, MinibatchSelectionRule,
                                bling_run, make_partition)
from layeropt.network import ForwardCache, forward, forward_partial, sigmoid
from layeropt.objective import (backprop_deltas, block_gradient, flat_gradient,
                                full_gradient)


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
    """An executor that takes no job, for `concurrent.futures`'
    ThreadPoolExecutor."""

    def __init__(self, *args, **kwargs):
        pass

    def submit(self, job):
        raise AssertionError("a job was handed to the helper")


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

    assert all(same_bits(backprop_deltas(w, cache, Y, l), deltas[l])
               for l in range(1, 5))
    got = {l: np.empty(w.arch.block_shape(l)) for l in range(1, 5)}
    backprop_deltas(w, cache, Y, 1, got)
    assert all(same_bits(got[l], z[l - 1].T @ deltas[l]) for l in range(1, 5))
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
    assert same_bits(flat_gradient(w, Y, cfg, cache),
                     np.concatenate([g.ravel() for g in full]))


def count_handoffs(mp):
    """A list that grows by one for each job handed to the helper."""
    jobs = []
    alongside = network._alongside

    def counted(job, mine):
        jobs.append(job)
        alongside(job, mine)
    mp.setattr(network, "_alongside", counted)
    return jobs


def test_a_pass_hands_the_helper_one_job_per_run(monkeypatch,
                                                helper_allowed):
    """Blocks 2-10 of the student split and block 1 does not: each thread
    carries its rows through layers 1-10 of a forward pass (layer 1 by its
    sigmoid alone), and through the eight split delta steps of a one-block
    sweep.
    A step whose product is asked for hands off once, the product beside
    the whole step, and ends a run."""
    w, X, Y, cfg = make_problem([50] * 10 + [1], 10, 1600, 15)
    _, cache = forward(w, X)
    assert cache.split == tuple(range(2, 11))
    got = {l: np.full(w.arch.block_shape(l), np.nan) for l in (3, 6, 9)}
    jobs = count_handoffs(monkeypatch)
    for call, want in [(lambda: forward(w, X, cache), 1),
                       (lambda: forward_partial(w, cache, 5), 1),
                       (lambda: block_gradient(w, Y, cfg, 2, cache), 1),
                       (lambda: full_gradient(w, Y, cfg, cache), 9),
                       (lambda: backprop_deltas(w, cache, Y, 1, got), 7)]:
        jobs.clear()
        call()
        assert len(jobs) == want
    z, deltas, _ = reference(w, X, Y, cfg)
    assert all(same_bits(g, z[l - 1].T @ deltas[l]) for l, g in got.items())


@pytest.mark.parametrize("rows", [1600, 1601])
def test_runs_broken_by_whole_layers_give_the_bits_of_one_numpy_call(
        monkeypatch, helper_allowed, rows):
    """Split blocks 2 and 5 are not consecutive: a pass joins the helper
    after layer 2, runs layer 3 whole and starts a second run at layer 4,
    whose product is whole and whose sigmoid goes by halves."""
    w, X, Y, cfg = make_problem([50, 50, 20, 50, 50, 1], 10, rows, 16)
    jobs = count_handoffs(monkeypatch)
    _, cache = forward(w, X)
    assert cache.split == (2, 5) and len(jobs) == 2
    z, deltas, grads = reference(w, X, Y, cfg)
    assert all(same_bits(cache.z[l], z[l]) for l in range(1, 7))
    for l in range(1, 7):
        assert same_bits(backprop_deltas(w, cache, Y, l), deltas[l])
        assert same_bits(block_gradient(w, Y, cfg, l, cache), grads[l - 1])
    assert all(same_bits(g, r) for g, r in zip(full_gradient(w, Y, cfg, cache),
                                               grads))
    for start in range(1, 7):
        w.set_block(start, w.block(start) * 0.75)
        forward_partial(w, cache, start)
        z, _, _ = reference(w, X, Y, cfg)
        assert all(same_bits(cache.z[l], z[l]) for l in range(1, 7))


MIXED = [50, 100, 50, 1]


@pytest.mark.parametrize("widths", [MIXED, [50] * 3 + [1]])
@pytest.mark.parametrize("rows", [1311, 1601, 2001])
def test_full_sweep_gives_the_bits_of_one_numpy_call(helper_allowed, widths,
                                                     rows):
    """The overlapped sweep, where delta_{l+1} shares a buffer with
    slopes[l] (equal widths) and where it does not (mixed), on odd row
    counts."""
    w, X, Y, cfg = make_problem(widths, 10, rows, 11)
    _, cache = forward(w, X)
    assert cache.split == (2, 3)
    _, _, grads = reference(w, X, Y, cfg)
    for _ in range(2):
        got = full_gradient(w, Y, cfg, cache)
        assert all(same_bits(g, r) for g, r in zip(got, grads))
    for l in range(1, 5):
        assert same_bits(block_gradient(w, Y, cfg, l, cache), grads[l - 1])


@pytest.mark.parametrize("widths", [MIXED, [50] * 3 + [1]])
def test_each_product_is_written_before_its_delta_is_overwritten(
        monkeypatch, helper_allowed, widths):
    """The products of split blocks are formed on the helper, slowly, while
    this thread forms the next delta, and each still has the bits of one
    numpy call on its delta."""
    w, X, Y, cfg = make_problem(widths, 10, 1601, 12)
    _, cache = forward(w, X)
    z, deltas, _ = reference(w, X, Y, cfg)
    got = {l: np.full(w.arch.block_shape(l), np.nan) for l in range(1, 5)}
    written = []
    alongside = network._alongside

    def slowed(job, mine):
        def slow_job():
            time.sleep(0.01)
            unwritten = [l for l, g in got.items() if np.isnan(g).all()]
            job()
            written.extend((l, threading.current_thread().name)
                           for l in unwritten if not np.isnan(got[l]).all())
        alongside(slow_job, mine)
    monkeypatch.setattr(network, "_alongside", slowed)
    backprop_deltas(w, cache, Y, 1, got)
    assert written == [(3, "layeropt-halves_0"), (2, "layeropt-halves_0")]
    assert all(same_bits(got[l], z[l - 1].T @ deltas[l]) for l in range(1, 5))


def test_an_error_in_the_helpers_gradient_reaches_the_caller(
        monkeypatch, helper_allowed):
    """A product buffer of the wrong shape for split block 3 fails in the
    helper's job; the error reaches the caller and the next sweep holds."""
    w, X, Y, cfg = make_problem(MIXED, 10, 1601, 13)
    _, cache = forward(w, X)
    _, _, grads = reference(w, X, Y, cfg)
    raised_on = []
    alongside = network._alongside

    def watched(job, mine):
        def watched_job():
            try:
                job()
            except ValueError:
                raised_on.append(threading.current_thread().name)
                raise
        alongside(watched_job, mine)
    monkeypatch.setattr(network, "_alongside", watched)
    with pytest.raises(ValueError):
        backprop_deltas(w, cache, Y, 1, {3: np.empty((50, 100))})
    assert raised_on == ["layeropt-halves_0"]
    got = full_gradient(w, Y, cfg, cache)
    assert all(same_bits(g, r) for g, r in zip(got, grads))


def test_the_helper_holds_no_array_past_its_job(helper_allowed):
    """Once a sweep is done, dropping the cache frees all its arrays: the
    helper keeps no closure of its last job alive."""
    w, X, Y, cfg = make_problem(MIXED, 10, 1601, 14)
    cache = forward(w, X)[1]
    full_gradient(w, Y, cfg, cache)
    held = [weakref.ref(a) for a in cache.z[1:] + cache.deltas[1:]
            + cache.slopes[1:-1]] + [weakref.ref(cache)]
    del cache
    assert [r() is None for r in held] == [True] * len(held)


@pytest.mark.parametrize("cpus, blas_threads", [({0}, 1), ({0, 1}, 2),
                                                 ({0, 1}, None)])
def test_no_idle_cpu_runs_serially(monkeypatch, cpus, blas_threads):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    monkeypatch.setattr(network, "_blas_threads", lambda: blas_threads)
    monkeypatch.setattr(network, "_helper", NoHelper())
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


def test_threads_whose_first_calls_overlap_share_one_helper(monkeypatch):
    """Two threads make their first calls at once, with no executor made
    yet and one slow to make: one is made, one worker thread starts, and it
    runs both helper halves."""
    def helpers():
        return {t for t in threading.enumerate()
                if t.name.startswith("layeropt-halves")}

    made = []

    class SlowToMake(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            time.sleep(0.01)    # room for the other thread to make one too
            super().__init__(*args, **kwargs)
            made.append(self)

    before = helpers()
    monkeypatch.setattr(network, "_helper", None)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SlowToMake)
    start = threading.Barrier(2)
    ran = []

    def first_call():
        start.wait(timeout=60)
        network._in_halves(10, lambda lo, hi: ran.append(
            (lo, hi, threading.current_thread() in helpers())))
    threads = [threading.Thread(target=first_call) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        started = helpers() - before
    finally:
        sys.setswitchinterval(interval)
        for executor in made:
            executor.shutdown()
    assert not any(t.is_alive() for t in threads)
    assert len(made) == len(started) == 1
    assert sorted(ran) == [(0, 5, False), (0, 5, False), (5, 10, True),
                           (5, 10, True)]


def test_forked_child_starts_its_own_helper(helper_allowed):
    """The parent's helper has run a job when it forks; the child's
    `_helper` is a new executor, whose worker gives the parent's bits."""
    w, X, _, _ = make_problem([50, 50, 1], 10, 1600, 6)
    out, cache = forward(w, X)
    assert cache.split
    parents = network._helper
    r, wr = os.pipe()
    pid = os.fork()
    if pid == 0:                                    # the child
        try:
            child_out, child_cache = forward(w, X)
            own = network._helper is not parents and bool(child_cache.split)
            os.write(wr, hashlib.sha256(bits(child_out)).hexdigest().encode()
                     + str(own).encode())
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
    assert reply == hashlib.sha256(bits(out)).hexdigest() + "True"


def test_a_child_forked_before_any_split_makes_its_own_helper(
        monkeypatch, helper_allowed):
    """No helper exists yet and the parent holds the helper's lock at the
    fork, as a thread making the helper would: the child has no helper and
    a free lock, makes its own helper at its first split and gives the
    serial bits, and the parent still has none."""
    monkeypatch.setattr(network, "_helper", None)
    w, X, Y, cfg = make_problem([50, 50, 1], 10, 1600, 18)
    want = hashlib.sha256(bits(reference(w, X, Y, cfg)[0][-1])).hexdigest()
    r, wr = os.pipe()
    lock = network._helper_lock
    lock.acquire()
    try:
        pid = os.fork()
        if pid == 0:                                # the child
            try:
                fresh = network._helper is None \
                    and not network._helper_lock.locked()
                out, cache = forward(w, X)
                made = type(network._helper) is ThreadPoolExecutor \
                    and bool(cache.split)
                os.write(wr, f"{hashlib.sha256(bits(out)).hexdigest()} "
                             f"{fresh} {made}".encode())
            finally:
                os._exit(0)
    finally:
        lock.release()
    os.close(wr)
    ready = []
    try:
        ready, _, _ = select.select([r], [], [], 60)
        reply = os.read(r, 200).decode() if ready else "no reply"
    finally:
        os.close(r)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert reply == f"{want} True True"
    assert network._helper is None


EXIT_SCRIPT = """
import atexit, os, sys
import numpy as np
from conftest import idle_cpu, make_problem
from layeropt import network

os.sched_getaffinity = lambda pid: {0, 1}
network._blas_threads = lambda: 1
w, X, _, _ = make_problem([50, 50, 1], 10, 1600, 17)
W = w.blocks
serial = network.sigmoid(network.sigmoid(X @ W[0]) @ W[1]) @ W[2]


def refused():
    try:
        (network._helper or network._start_helper()).submit(int)
    except RuntimeError:
        return True
    return False


def split_forward(when):
    out, cache = network.forward(w, X)
    same = np.array_equal(out.view(np.uint64), serial.view(np.uint64))
    print(when, cache.split, same, refused(), flush=True)


if sys.argv[1:] == ["first-at-exit"]:
    print("no split yet", network._helper,
          "concurrent.futures.thread" in sys.modules, flush=True)
else:
    split_forward("main")
if sys.argv[1:] in (["atexit"], ["first-at-exit"]):
    atexit.register(split_forward, "atexit")
"""


def run_script(script, *args):
    """The stdout of `script`, run with BLAS on one thread, which must exit
    with status 0 in time."""
    here = os.path.dirname(__file__)
    src = os.path.join(os.path.dirname(here), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", script, *args],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_a_process_whose_layers_split_exits():
    """The helper is no daemon: the interpreter joins it at exit."""
    assert run_script(EXIT_SCRIPT) == "main (2,) True False\n"


def test_a_split_pass_in_an_atexit_hook_gives_the_serial_bits():
    """By then the executor takes no job, and both halves run here."""
    assert run_script(EXIT_SCRIPT, "atexit") == ("main (2,) True False\n"
                                                 "atexit (2,) True True\n")


def test_a_first_split_in_an_atexit_hook_gives_the_serial_bits():
    """No helper exists and its executor's module is not loaded when the
    interpreter begins to exit. By then none can be made: both halves run
    here, and the process exits."""
    assert run_script(EXIT_SCRIPT, "first-at-exit") == (
        "no split yet None False\n"
        "atexit (2,) True True\n")


LAZY_SCRIPT = """
import os, sys, threading
import numpy as np
import layeropt
from conftest import make_problem
from layeropt import network
from layeropt.batch import StoppingCriteria
from layeropt.minibatch import (BlingParams, MinibatchSelectionRule,
                                bling_run, ig_run, make_partition)

os.sched_getaffinity = lambda pid: {0, 1}
network._blas_threads = lambda: 1
w, X, Y, cfg = make_problem([50] * 10 + [1], 10, 1600, 19)
for run in (bling_run, ig_run):
    run(w, X, Y, cfg, make_partition(1600, 128),
        MinibatchSelectionRule(MinibatchSelectionRule.INCREMENTAL),
        BlingParams(alpha0=BlingParams.default_alpha0(11)),
        StoppingCriteria(time_limit_seconds=None, max_epochs=1))
print(sorted({"concurrent.futures.process", "concurrent.futures.thread",
              "multiprocessing"} & set(sys.modules)),
      threading.active_count(), network._helper)
serial = X
for l, W in enumerate(w.blocks, start=1):
    serial = serial @ W if l == w.num_layers else network.sigmoid(serial @ W)
out, cache = network.forward(w, X)
print(cache.split, np.array_equal(out.view(np.uint64), serial.view(np.uint64)),
      type(network._helper).__name__, threading.active_count())
"""


def test_minibatch_runs_load_no_pool_and_start_no_thread():
    """`import layeropt` and BLInG and IG runs on 128 rows load neither
    the process pool, the thread executor nor multiprocessing, and start no
    thread. A later split pass makes the executor and gives the serial
    bits."""
    assert run_script(LAZY_SCRIPT) == (
        "[] 1 None\n"
        "(2, 3, 4, 5, 6, 7, 8, 9, 10) True ThreadPoolExecutor 2\n")


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
    before = network._helper
    with monkeypatch.context() as mp:
        # a helper that a forked worker made would be a NoHelper
        mp.setattr(concurrent.futures, "ThreadPoolExecutor", NoHelper)
        pooled = run_experiment(config, workers=2).rows
    inline = run_experiment(config, workers=1).rows
    assert network._helper is before
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


def block_split_rows(k, n):
    """The fewest rows at which a k x n block runs by halves."""
    return max(-(-network._SPLIT_MIN // min(k, n)),
               2 * -(-network._HALF_PRODUCT_MIN // (k * n)))


@st.composite
def planner_cases(draw):
    """A net with widths from {10, 20, 50, 100}, rows from 1 below to 2
    above where one of its blocks starts to split, a sweep's down_to and the
    products it asks for, and a layer that forward_partial restarts from."""
    d = draw(st.sampled_from([50, 10]))
    widths = draw(st.lists(st.sampled_from([50, 100, 20, 10]), min_size=1,
                           max_size=4)) + [draw(st.sampled_from([16, 1]))]
    edges = sorted({block_split_rows(k, n)
                    for k, n in zip([d] + widths, widths) if min(k, n) >= 2})
    rows = draw(st.sampled_from([r for r in edges if r < 4200] or [1600])) \
        + draw(st.integers(-1, 2))
    L = len(widths)
    down_to = draw(st.integers(1, L))
    products = draw(st.sets(st.integers(down_to, L)))
    return d, widths, rows, down_to, products, draw(st.integers(1, L))


@settings(max_examples=40, deadline=None)
@example((50, [50, 20, 50, 50, 1], 1600, 1, {1, 4, 5}, 4))  # split (1, 4)
@example((50, [50, 20, 50, 50, 1], 1600, 2, set(), 3))
@example((10, [50, 50, 16], 4100, 1, {2, 3}, 2))         # split (2, 3)
@example((10, [50, 50, 16], 4100, 2, set(), 1))
@given(case=planner_cases())
def test_planners_give_the_bits_of_one_numpy_call(case):
    """Forward passes from any layer, and a sweep down to any block asking
    for any products, give `reference`'s bits wherever the runs begin and
    end. The examples split block 1 with runs broken by whole layers, and
    an output block."""
    d, widths, rows, down_to, products, start = case
    with pytest.MonkeyPatch.context() as mp:
        idle_cpu(mp)
        w, X, Y, cfg = make_problem(widths, d, rows, rows)
        _, cache = forward(w, X)
        z, deltas, _ = reference(w, X, Y, cfg)
        assert all(same_bits(cache.z[l], z[l]) for l in range(1, len(z)))
        got = {l: np.full(w.arch.block_shape(l), np.nan) for l in products}
        assert same_bits(backprop_deltas(w, cache, Y, down_to, got),
                         deltas[down_to])
        assert all(same_bits(g, z[l - 1].T @ deltas[l])
                   for l, g in got.items())
        w.set_block(start, w.block(start) * 0.5)
        forward_partial(w, cache, start)
    z, _, _ = reference(w, X, Y, cfg)
    assert all(same_bits(cache.z[l], z[l]) for l in range(1, len(z)))
