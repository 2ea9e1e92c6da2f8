"""Set-up probe: import tiplab and build one workload's models and profiles,
then report ready on stdout. ``run.py`` times this from process start to
the ready line to measure ``setup_s``.

The ready line also carries the probe's own time from its first statement to
ready, as wall time and rescaled to the reference CPU speed by the sampler in
speed.py, so that ``run.py`` can rescale that part of set-up.

Usage (from the repository root): python3 perfbench/setup_probe.py <workload>
"""

import os
import sys
import time

t_start = time.perf_counter()

from speed import SpeedSampler  # noqa: E402  (after the first clock read)

with SpeedSampler() as speed:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import workloads  # noqa: E402  (after the path set-up)

    workloads.build_models(sys.argv[1])
    t_ready = time.perf_counter()
print(f"ready {t_ready - t_start!r} {speed.reference_seconds(t_start, t_ready)!r}",
      flush=True)
