"""One ordered map for independent tasks: serial, forked or threaded.

PerPCA is federated, so each client's work depends only on its own data.
:func:`ordered` runs the per-file tasks of :mod:`fileio` and the
per-client draws of :mod:`synth`, and yields ``task(i)`` in task order
with the same results on every path. The caller picks the backend:
``"fork"`` for tasks that hold the interpreter lock, such as CSV
formatting and parsing (workers inherit the task by fork and pickle only
their results back), or ``"thread"`` for tasks that run outside it, as
numpy's random draws, BLAS and large ufuncs do (results are not copied).
:func:`workers` decides whether the backend runs or the serial loop does.
"""

import contextlib
import multiprocessing
import os
import threading

# Forking and joining two workers costs 6-14 ms on a 2-vCPU host; 2 MiB is
# about 26 ms of parsing CSV, or 2^18 values (0.1-0.2 s of writing them as CSV by
# ``%``, 0.04-0.06 s through fileio's kernel). A CSV file read from its verified sidecar costs
# about 3 ms per 2 MiB, an eighth of its parse, so fileio's read gate counts a CSV
# file with a sidecar beside it at an eighth of its bytes: such reads fork from
# about 16 MiB of CSV on. The count is an estimate, as no task knows before it
# runs whether its sidecar verifies.
# Starting and joining a thread pool costs well under a millisecond; 1 MiB is
# about 7 ms of serial planted draws (2^17 values) on a 2.1 GHz Xeon core.
MIN_BYTES = {"fork": 2 << 20, "thread": 1 << 20}


def _usable_cpus():
    affinity = getattr(os, "sched_getaffinity", None)  # not every platform has it
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def workers(count, payload_bytes, backend):
    """The one gate: workers for ``count`` tasks of ``payload_bytes`` in all on ``backend``;
    0, and always for backend None, means the serial loop. A backend needs two tasks, two
    usable CPUs and its ``MIN_BYTES`` of payload, and runs ``min(count, usable CPUs)``
    workers. Forking also needs the ``fork`` start method and a single-threaded,
    non-daemon process."""
    if backend is None or count < 2 or payload_bytes < MIN_BYTES[backend]:
        return 0
    if backend == "fork" and ("fork" not in multiprocessing.get_all_start_methods()
                              # forking beside another thread can copy a lock that
                              # thread holds; a daemonic process may not have children
                              or threading.active_count() > 1
                              or multiprocessing.current_process().daemon):
        return 0
    count = min(count, _usable_cpus())
    return count if count > 1 else 0


def _serve(conn, task, indices):
    # a forked worker: one reply per index, (True, result) or (False, exception),
    # stopping after the first exception
    for i in indices:
        try:
            conn.send((True, task(i)))
        except Exception as exc:
            conn.send((False, exc))
            return


def _reply(conn, name):
    try:
        ok, value = conn.recv()
    except EOFError:
        raise RuntimeError(f"{name}: worker process exited without replying") from None
    if not ok:
        raise value
    return value


@contextlib.contextmanager
def ordered(task, names, payload_bytes, backend):
    """Yield ``task(i)`` for each of ``names``, lazily and in task order.

    The gate is :func:`workers`. A task that raises is re-raised for the lowest
    index that raised, as the serial loop would raise it, and a dead forked worker
    raises RuntimeError naming its next task. Forked worker ``w`` of ``W`` takes
    tasks ``w, w + W, ...``. Every worker is joined on exit, even when the caller raised.
    """
    count = len(names)
    n = workers(count, payload_bytes, backend)
    if not n:
        yield (task(i) for i in range(count))
        return
    if backend == "thread":
        # imported on first use: it loads logging (0.4 MB), which the file commands never
        # need. perfbench's tracer assumes one thread, so a threaded task should call no
        # function it wraps (tracer.WRAPPED): its spans would interleave
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(n) as pool:
            yield pool.map(task, range(count))
        return
    ctx = multiprocessing.get_context("fork")
    procs, conns = [], []
    try:
        for w in range(n):
            recv_end, send_end = ctx.Pipe(duplex=False)
            conns.append(recv_end)
            proc = ctx.Process(target=_serve, args=(send_end, task, range(w, count, n)))
            proc.start()
            procs.append(proc)
            # with the worker's copy the only one open, its exit reads as EOF
            send_end.close()
        yield (_reply(conns[i % n], name) for i, name in enumerate(names))
    finally:
        for proc in procs:  # a worker that sent its last reply has nothing left to do
            proc.terminate()
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()
