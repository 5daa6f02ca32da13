"""Set-up probe: import ghzdist and run one tiny point of a workload in this
fresh process, then print the seconds that took.

    python3 perfbench/probe.py factory_fig5

``run.py`` starts it several times during a run and reports the median as
``setup_s``.
"""

import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    from run import load_package

    load_package()
    import workloads

    name = sys.argv[1]
    workloads.Workload(name, seed=0).warmup([workloads.probe_point(name)])
    print(time.perf_counter() - t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
