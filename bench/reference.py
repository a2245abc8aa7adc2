"""Reference job: a fixed command that stands for the machine's speed.

Usage:

    python reference.py <out.txt>

The machines this benchmark was built on are shared, and their speed
drifts as other tenants load them, by about 15% either way over seconds to
minutes.  Raw wall-time medians of one workload spread by 6-33% (quartile
spread over five to ten seeds) between 40 s runs, depending on the hour.
A pure-Python loop did not track that drift: it misses the part that comes
from memory, cache and file-system contention.

This job does what a dressedprobe command does, without dressedprobe: a
fresh interpreter imports numpy, runs a Python loop and a vectorized
computation, and writes 17-digit floats to a file.  The benchmark runs it
once per pass and reports every time scaled by ``REFERENCE_S`` over the
median time of this job in the run, i.e. in seconds at a reference machine
speed.  Over ten minutes of one machine this cut the spread of 40 s
window medians from 5-7% raw to 2-3%; over ten seeded runs it cut the
worst spread from 16% to 10% in one hour and left it at 15% in another,
where the job's own noise matched the drift it removes.  The job never
changes with the program, so the scaling cancels machine drift and
nothing else.
"""

import sys

import numpy as np

#: Wall time of this job at the reference speed, seconds (about its time on
#: the 2-CPU Xeon the benchmark was built on).
REFERENCE_S = 0.35


def main(out: str) -> None:
    total = 0
    for i in range(200_000):
        total += i * i
    x = np.linspace(0.0, 1.0, 200_000)
    y = np.exp(50j * x).real
    text = "\n".join(format(v, ".17g") for v in y[:50_000].tolist())
    with open(out, "w") as sink:
        sink.write(f"{total}\n{text}\n")


if __name__ == "__main__":
    main(sys.argv[1])
