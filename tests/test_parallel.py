import multiprocessing
import os
import threading
import time
import types

import pytest

from forcing import deadline, force  # noqa: F401 (deadline is a fixture)
from perpca import fileio, parallel, synth

FORK, THREAD = parallel.MIN_BYTES["fork"], parallel.MIN_BYTES["thread"]


def _files(kind, count):
    # fileio picks the fork backend only when every path is CSV
    paths = {"csv": ["c.csv"] * count, "mat64": ["c.mat64"] * count,
             "mixed": ["c.csv"] * (count - 1) + ["c.mat64"]}[kind]
    return fileio._fork_if_csv(paths)


@pytest.mark.parametrize("tasks, count, cpus, payload, rule, workers", [
    ("csv", 20, 2, FORK, None, 2),
    ("csv", 20, 3, 1 << 30, None, 3),
    ("csv", 2, 3, FORK, None, 2),
    ("csv", 20, 2, FORK - 1, None, 0),
    ("csv", 1, 2, FORK, None, 0),
    ("csv", 20, 1, 1 << 30, None, 0),
    ("mat64", 20, 2, FORK, None, 0),
    ("mixed", 20, 2, FORK, None, 0),
    ("csv", 20, 2, FORK, "another thread", 0),
    ("csv", 20, 2, FORK, "daemon", 0),
    ("csv", 20, 2, FORK, "no fork method", 0),
    ("thread", 4, 2, THREAD, None, 2),
    ("thread", 4, 3, 1 << 30, None, 3),
    ("thread", 4, 2, THREAD - 1, None, 0),
    ("thread", 1, 2, 1 << 30, None, 0),
    ("thread", 4, 1, 1 << 30, None, 0),
    ("thread", 4, 2, THREAD, "another thread", 2),
    ("thread", 4, 2, THREAD, "daemon", 2),
])
def test_gate(monkeypatch, tasks, count, cpus, payload, rule, workers):
    backend = "thread" if tasks == "thread" else _files(tasks, count)
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: cpus)
    if rule == "daemon":
        monkeypatch.setattr(multiprocessing, "current_process",
                            lambda: types.SimpleNamespace(daemon=True))
    if rule == "no fork method":
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    if rule == "another thread":
        other.start()
    try:
        assert parallel.workers(count, payload, backend) == workers
    finally:
        release.set()
    if rule == "another thread":
        other.join(timeout=10)
        assert not other.is_alive()


def _where(i):
    return i, os.getpid(), threading.get_ident()


def _failing(i):
    if i == 2:
        time.sleep(0.05)  # task 4 raises first
    if i in (2, 4):
        raise ValueError(f"task {i} failed")
    return i


@pytest.mark.usefixtures("deadline")
@pytest.mark.parametrize("backend", ["fork", "thread"])
def test_order_lowest_error_and_no_worker_left(monkeypatch, backend):
    force(monkeypatch, "parallel")
    threads = threading.active_count()
    with parallel.ordered(_where, range(8), 0, backend) as results:
        done = list(results)
    assert [i for i, _, _ in done] == list(range(8))
    # every task ran in a worker: another process or another thread
    assert all(pid != os.getpid() or ident != threading.get_ident() for _, pid, ident in done)
    with pytest.raises(ValueError, match="task 2 failed"):
        with parallel.ordered(_failing, range(8), 0, backend) as results:
            list(results)
    with parallel.ordered(_where, range(8), 0, backend) as results:
        assert next(results)[0] == 0  # a caller that stops early
    assert threading.active_count() == threads
    assert multiprocessing.active_children() == []


@pytest.mark.usefixtures("deadline")
def test_write_clients_forks_right_after_a_threaded_draw(tmp_path, monkeypatch):
    force(monkeypatch, "parallel")
    drawn_on, draw = set(), synth.client_observations
    monkeypatch.setattr(synth, "client_observations",
                        lambda *args: drawn_on.add(threading.get_ident()) or draw(*args))
    before = threading.active_count()
    spec = synth.GenerativeSpec(d=6, N=3, r1=1, r2=1, n_per_client=80, noise_std=0.2)
    Ys = synth.generate_observations(synth.generate_components(spec), spec)
    assert drawn_on and threading.get_ident() not in drawn_on
    assert threading.active_count() == before
    workers, gate = [], parallel.workers
    monkeypatch.setattr(parallel, "workers",
                        lambda *args: workers.append(gate(*args)) or workers[-1])
    fileio.write_clients(tmp_path, Ys.__getitem__, [Y.shape for Y in Ys])
    assert workers == [3]
