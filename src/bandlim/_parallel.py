"""Work split over the CPUs the process may use.

`run_split` runs consecutive ranges of one job, the first in the caller and
each other one in a thread of its own, and re-raises a failure only after
every thread has been joined. Three jobs go through it: Monte-Carlo
realizations (`stochastic.squared_errors`), the blocks of a long psi
evaluation (`kernel.psi_closed_form`), and the even and odd halves of the
Gram system (`run_halves`): filling and factoring them in `build_gram`, and
the stages of `bounds.power_function`.
"""

import os
import threading

from . import _lapack

# Flops of the odd half at least, for it to go to a thread of its own
# (`run_halves`). On a 2-core host with the BLAS on one thread, starting and
# joining a thread took about 30 us. Both halves of a dpotrf or dtrsm of
# 1.1e6 to 1.8e6 flops each ran slower split (66 to 73 us, 119 to 152 us),
# of 1.6e6 to 2.7e6 about even (80 to 76 us, 194 to 181 us), and of 4e6
# faster (166 to 120 us).
_MIN_SPLIT_FLOPS = 3_000_000


def cpu_count():
    """CPUs this process may run on: its affinity set where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_split(fill, bounds):
    """Call ``fill(start, stop)`` for each consecutive pair of ``bounds``: the
    first pair in the caller, every other pair in a thread of its own.

    Every thread is joined before this returns or raises. A thread's exception
    is kept rather than printed, and that of the first failing chunk is
    re-raised here.
    """
    pairs = list(zip(bounds[:-1], bounds[1:]))
    failures = [None] * len(pairs)

    def guarded(i, start, stop):
        try:
            fill(start, stop)
        except BaseException as exc:
            failures[i] = exc

    started = []
    try:
        for i, (start, stop) in enumerate(pairs[1:], 1):
            thread = threading.Thread(target=guarded, args=(i, start, stop))
            thread.start()
            started.append(thread)
        fill(*pairs[0])
    finally:
        for thread in started:
            thread.join()
    for exc in failures:
        if exc is not None:
            raise exc


def run_halves(half, work, min_work=None):
    """Call ``half(0)`` for the even half and ``half(1)`` for the odd one.

    The odd half goes to a worker thread, concurrent with the even one in
    the caller, only when ``work`` (its flops, unless the caller measures
    it otherwise and says so in ``min_work``) reaches ``min_work``
    (``_MIN_SPLIT_FLOPS`` by default),
    the process may use at least 2 CPUs, and the BLAS reports one thread:
    a multi-threaded BLAS already spreads each call over the CPUs, and two
    callers then contend for its pool. Otherwise both run in the caller,
    even first. ``half(1)`` must release the GIL to gain anything (`_lapack`
    calls, numpy ufuncs) and call no public bandlim function (a profiler that
    wraps those, as ``perfbench/tracing.py`` does, keeps one span stack). It
    writes its results into arrays the caller made and allocates nothing of
    their size itself, so that the process keeps about the memory footprint
    of one thread; the same holds for a worker of `run_split`, whose
    temporaries, like those of the psi blocks, stay O(block).
    """
    if min_work is None:
        min_work = _MIN_SPLIT_FLOPS
    if work >= min_work and cpu_count() >= 2 and _lapack.blas_threads() == 1:
        run_split(lambda h, _: half(h), [0, 1, 2])
    else:
        half(0)
        half(1)
