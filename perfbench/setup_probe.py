"""Set-up cost of one workload, measured in this fresh interpreter: import
``lora_reliability``, then build the config, grid, spec and ChannelModel the
workload's first public call needs.  Prints one JSON object.

Run by ``run.py`` as ``python3 setup_probe.py SRC_DIR WORKLOAD SEED SIZE``.
Only the standard library is imported before the clock starts.
"""

import json
import sys
import time


def main() -> None:
    start = time.perf_counter()
    src, workload, seed, size = sys.argv[1:]
    sys.path.insert(0, src)
    import lora_reliability  # noqa: F401

    imported = time.perf_counter()
    from workloads import WORKLOADS

    WORKLOADS[workload].build(int(seed), size == "tiny")
    built = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "setup_s": built - start}))


if __name__ == "__main__":
    main()
