"""A fixed numpy reference kernel, timed next to every workload iteration.

On a shared 2-core cloud VM the host's speed changes by 20-40% over tens
of seconds, as other tenants load its cores, so raw wall times of runs a
few minutes apart differ by more than any useful regression bound.
Dividing each iteration's wall time by the time of this kernel, measured
just before and just after it, cancels most of that drift.  The kernel
calls no shelab code, so a change to shelab moves the ratio and not the
kernel.

One kernel serves all three workloads.  Its parts follow their hot loops:
many small counter-based draws (the white-noise slices), a random walk
with pair sums (the moment oracle), and batched FFTs with a complex
contraction (the Picard sum).  With ``threads`` > 1 that many copies run
at once, like the replica farm of ``pam_moments_2t``.

Set-up time must be reported in seconds, so it is rescaled to a nominal
kernel speed instead (see NOMINAL_S).
"""

from __future__ import annotations

import threading
import time

import numpy as np

REPEATS = 2
# A typical timed(1) on a 2-core cloud VM.  Set-up times are reported at
# this kernel speed: setup_s = raw set-up time * NOMINAL_S / timed(1), with
# timed(1) measured in the same process right after set-up.
NOMINAL_S = 0.09


def kernel(k: int) -> float:
    acc = 0.0
    key = np.array([7, k], dtype=np.uint64)
    for i in range(96):
        g = np.random.Generator(np.random.Philox(key=key, counter=np.array([0, 0, i, 0], dtype=np.uint64)))
        acc += float(g.standard_normal(256)[0])
    pos = np.zeros((4000, 3, 1))
    for _ in range(24):
        pos += 0.1 * g.standard_normal(pos.shape)
        d = pos[:, [0, 0, 1], :] - pos[:, [1, 2, 2], :]
        acc += float(np.exp(-np.sum(d * d, axis=-1)).sum())
    z = np.fft.rfft(g.standard_normal((16, 64, 512)), axis=-1)
    kh = np.fft.rfft(g.standard_normal((16, 512)), axis=-1)
    for i in range(1, 17):
        acc += float(np.einsum("jrf,jf->rf", z[:i], kh[:i][::-1], optimize=True)[0, 0].real)
    return acc + float(np.fft.irfft(z, n=512, axis=-1)[0, 0, 0])


def timed(threads: int = 1) -> float:
    """Wall time of REPEATS rounds of the kernel, each round running one
    copy per thread at once."""
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        if threads <= 1:
            kernel(0)
            continue
        pool = [threading.Thread(target=kernel, args=(k,)) for k in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
    return time.perf_counter() - t0
