"""Force every :func:`perpca.parallel.ordered` map onto one path, to compare the paths.

``"serial"`` sends every map through the serial loop. ``"parallel"`` runs every
map that names a backend on three workers, forked or threaded, at any payload
and even on one CPU. Imported by the test modules and by the code they run in
fresh interpreters.
"""

import multiprocessing
import signal

import pytest

from perpca import parallel

MODES = ("serial", "parallel")


def force(patch, mode):
    """Force ``mode`` through the ``pytest.MonkeyPatch`` ``patch``, which undoes it."""
    on = mode == "parallel"
    patch.setattr(parallel, "MIN_BYTES", dict.fromkeys(parallel.MIN_BYTES, 0 if on else 1 << 62))
    patch.setattr(parallel, "_usable_cpus", lambda: 3 if on else 1)


def each_mode(fn):
    """``[fn(mode) for mode in MODES]``, each call forced to its mode."""
    results = []
    for mode in MODES:
        with pytest.MonkeyPatch.context() as patch:
            force(patch, mode)
            results.append(fn(mode))
    return results


def _hung(signum, frame):
    raise TimeoutError("a forked map did not return within 60 s")


@pytest.fixture()
def deadline():
    """Fail a forked map that hangs; afterwards no worker may be left."""
    previous = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []
