"""Pure-Python reference execution of ``@kernel`` functions.

The differential oracle for the jit frontend: run the *original* Python
function (the one the user decorated) directly on numpy buffers, one
simulated thread at a time, with the DSL intrinsics provided as real
callables.  The result must be **bit-identical** to the simulated-device
execution of the compiled kernel — so the scheduling here deliberately
mirrors the interpreter's deterministic order:

* blocks execute sequentially in ascending linear block id;
* within a block, threads run in ascending thread id — either each
  thread to completion (no barriers), or phase-by-phase between
  barriers with a cooperative token-passing scheduler;
* arithmetic goes through the same numpy scalar operations the
  interpreter uses (``np.sqrt`` and friends, numpy dtype propagation),
  so floating-point rounding and accumulation order agree.

Bit-identity is only promised for the well-behaved subset the example
corpus sticks to: ``f64`` floats, non-negative integers (Python ``//``
floors where the ISA truncates — they agree on non-negative values),
and data-race-free phases (threads in one barrier phase don't write
locations other threads in the same phase read).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.frontends.kernel_dsl import ArrayAnn, TypeRef
from repro.isa.instructions import Barrier, walk

#: numpy scalar constructor per DSL dtype name — doubles as the
#: conversion intrinsic (``f64(x)``) and the first argument of
#: ``shared(f64, n)``.
_NP_TYPES = {
    "f32": np.float32, "f64": np.float64,
    "i32": np.int32, "i64": np.int64,
    "u32": np.uint32, "u64": np.uint64,
}


@dataclass
class _BlockState:
    """Per-block shared state: shared-memory arrays by allocation order."""

    shared_arrays: list[np.ndarray] = field(default_factory=list)


class _ThreadCtx(threading.local):
    """The currently executing simulated thread (per OS thread)."""

    def __init__(self):
        self.tid = (0, 0, 0)
        self.bid = (0, 0, 0)
        self.block = (1, 1, 1)
        self.grid = (1, 1, 1)
        self.warp_size = 32
        self.block_state: _BlockState | None = None
        self.shared_index = 0
        self.barrier_wait = None  # set by the cooperative scheduler


def _intrinsics(ctx: _ThreadCtx) -> dict:
    """The DSL intrinsic surface as real Python callables over ``ctx``."""

    def gid(d):
        return np.int64(ctx.bid[d] * ctx.block[d] + ctx.tid[d])

    def lid(d):
        return np.int64(ctx.tid[d])

    def bid(d):
        return np.int64(ctx.bid[d])

    def bdim(d):
        return np.int64(ctx.block[d])

    def gdim(d):
        return np.int64(ctx.grid[d])

    def gsize(d):
        return np.int64(ctx.grid[d] * ctx.block[d])

    def lane():
        linear = (ctx.tid[2] * ctx.block[1] + ctx.tid[1]) * ctx.block[0] \
            + ctx.tid[0]
        return np.int64(linear % ctx.warp_size)

    def warpsize():
        return np.int64(ctx.warp_size)

    def barrier():
        if ctx.barrier_wait is None:
            raise RuntimeError(
                "barrier() reached outside the cooperative scheduler")
        ctx.barrier_wait()

    def shared(tref, count):
        dtype = _np_dtype(tref)
        state = ctx.block_state
        idx = ctx.shared_index
        ctx.shared_index += 1
        if idx == len(state.shared_arrays):
            state.shared_arrays.append(np.zeros(int(count), dtype=dtype))
        return state.shared_arrays[idx]

    def _atomic(op):
        def apply(arr, idx, val):
            old = arr[idx]
            arr[idx] = op(old, arr.dtype.type(val))
            return old
        return apply

    def atomic_cas(arr, idx, expected, desired):
        old = arr[idx]
        if old == arr.dtype.type(expected):
            arr[idx] = arr.dtype.type(desired)
        return old

    env = {
        "gid": gid, "lid": lid, "bid": bid, "bdim": bdim, "gdim": gdim,
        "gsize": gsize, "lane": lane, "warpsize": warpsize,
        "barrier": barrier, "shared": shared,
        "atomic_add": _atomic(lambda a, b: a + b),
        "atomic_min": _atomic(np.minimum),
        "atomic_max": _atomic(np.maximum),
        "atomic_exch": _atomic(lambda a, b: b),
        "atomic_cas": atomic_cas,
        # Submitted source is exec'd with empty builtins; the one
        # builtin the DSL grammar allows is ``range`` (for loops).
        "range": range,
        # math — the interpreter evaluates these through numpy, so the
        # reference must too (math.floor returns int; np.floor doesn't).
        "sqrt": np.sqrt, "rsqrt": lambda v: 1.0 / np.sqrt(v),
        "exp": np.exp, "log": np.log, "sin": np.sin, "cos": np.cos,
        "tanh": np.tanh, "floor": np.floor, "ceil": np.ceil,
        "abs": np.abs, "min": np.minimum, "max": np.maximum,
    }
    env.update({name: t for name, t in _NP_TYPES.items()})
    return env


def _np_dtype(tref):
    """``shared()``'s first argument: a TypeRef, a numpy scalar type
    (when running under the intrinsics overlay), or a dtype name."""
    if isinstance(tref, TypeRef):
        return np.dtype(_NP_TYPES[tref.dtype.name])
    if isinstance(tref, str):
        return np.dtype(_NP_TYPES[tref])
    return np.dtype(tref)


def _uses_barrier(jk) -> bool:
    return any(isinstance(i, Barrier) for i in walk(jk.ir.body))


def _bind(jk, env: dict):
    """The user's function with the intrinsic overlay as its globals."""
    import types

    pyfunc = jk.pyfunc
    g = dict(pyfunc.__globals__)
    g.update(env)
    return types.FunctionType(pyfunc.__code__, g, pyfunc.__name__,
                              pyfunc.__defaults__, pyfunc.__closure__)


def _coerce_args(jk, args):
    """Scalars -> numpy scalars of the declared dtype; arrays unchanged."""
    kfn = jk.kernelfn
    out = []
    for value, is_ptr, dt in zip(args, kfn.arg_is_pointer, kfn.arg_dtypes):
        want = np.dtype(_NP_TYPES[dt.name])
        if is_ptr:
            arr = np.asarray(value)
            if arr.dtype != want:
                raise TypeError(
                    f"array argument has dtype {arr.dtype}, kernel "
                    f"declares {dt.name}")
            out.append(arr)
        else:
            out.append(want.type(value))
    return tuple(out)


def _norm_shape(shape) -> tuple[int, int, int]:
    if isinstance(shape, int):
        shape = (shape,)
    shape = tuple(int(s) for s in shape)
    return shape + (1,) * (3 - len(shape))


def _thread_ids(block):
    for tz in range(block[2]):
        for ty in range(block[1]):
            for tx in range(block[0]):
                yield (tx, ty, tz)


def reference_launch(jk, grid, block, args, warp_size: int = 32) -> None:
    """Execute ``jk``'s Python source directly over ``args`` in place.

    ``grid``/``block`` are ints or tuples, as for the simulated device.
    Arrays in ``args`` must be numpy arrays of the declared dtypes; they
    are mutated in place (kernels are void).
    """
    grid = _norm_shape(grid)
    block = _norm_shape(block)
    args = _coerce_args(jk, args)
    ctx = _ThreadCtx()
    fn = _bind(jk, _intrinsics(ctx))
    cooperative = _uses_barrier(jk)

    for bz in range(grid[2]):
        for by in range(grid[1]):
            for bx in range(grid[0]):
                state = _BlockState()
                ctx.bid = (bx, by, bz)
                ctx.grid = grid
                ctx.block = block
                ctx.warp_size = warp_size
                ctx.block_state = state
                if cooperative:
                    _run_block_cooperative(
                        fn, args, (bx, by, bz), grid, block, warp_size,
                        state)
                else:
                    for tid in _thread_ids(block):
                        ctx.tid = tid
                        ctx.shared_index = 0
                        fn(*args)


def _run_block_cooperative(fn, args, bid, grid, block, warp_size, state):
    """One block with barriers: real threads, one runnable at a time.

    Each simulated thread gets an OS thread but only ever runs while it
    holds the baton; at a ``barrier()`` (or on return) it hands the
    baton to the next thread in ascending tid order.  When the wave
    reaches the end of the roster the phase is over and the baton
    restarts at the lowest still-running thread — which is exactly the
    interpreter's deterministic ascending-lane order per phase, so
    atomic application order (and therefore float accumulation order)
    matches bit for bit.
    """
    tids = list(_thread_ids(block))
    go = [threading.Event() for _ in tids]
    done_or_waiting = [threading.Event() for _ in tids]
    finished = [False] * len(tids)
    errors: list[BaseException] = []

    def runner(i, tid):
        ctx = _ThreadCtx()
        ctx.tid = tid
        ctx.bid = bid
        ctx.grid = grid
        ctx.block = block
        ctx.warp_size = warp_size
        ctx.block_state = state
        ctx.shared_index = 0

        def wait_at_barrier():
            done_or_waiting[i].set()
            go[i].wait()
            go[i].clear()

        ctx.barrier_wait = wait_at_barrier
        bound = _bind_ctx(fn, ctx)
        try:
            go[i].wait()
            go[i].clear()
            bound(*args)
        except BaseException as exc:  # noqa: BLE001 - re-raised by controller
            errors.append(exc)
        finally:
            finished[i] = True
            done_or_waiting[i].set()

    threads = [threading.Thread(target=runner, args=(i, tid), daemon=True)
               for i, tid in enumerate(tids)]
    for t in threads:
        t.start()
    while not all(finished):
        for i in range(len(tids)):
            if finished[i]:
                continue
            go[i].set()
            done_or_waiting[i].wait()
            done_or_waiting[i].clear()
            if errors:
                # daemon threads still parked at a barrier die with the
                # process; the first error is the launch's outcome
                raise errors[0]
    for t in threads:
        t.join(timeout=5)


def _bind_ctx(fn, ctx: _ThreadCtx):
    """Rebind ``fn`` so its intrinsics read this thread's ``ctx``."""
    import types

    g = dict(fn.__globals__)
    g.update(_intrinsics(ctx))
    return types.FunctionType(fn.__code__, g, fn.__name__,
                              fn.__defaults__, fn.__closure__)


def reference_run(jk, grid, block, args, warp_size: int = 32):
    """Copy array args, run the reference, return the copies.

    Convenience wrapper for tests: scalars pass through, arrays are
    copied so the caller's buffers are untouched.
    """
    kfn = jk.kernelfn
    copies = [np.array(a, copy=True) if is_ptr else a
              for a, is_ptr in zip(args, kfn.arg_is_pointer)]
    reference_launch(jk, grid, block, copies, warp_size=warp_size)
    return copies
