"""Time one set-up in a fresh interpreter: import streamsim, parse the inputs.

Usage: python3 -I perfbench/setup_probe.py <inputs.json>
Prints the seconds from before ``import streamsim`` to the parsed inputs,
then the host speed measured right after it (see reference.py).
"""

import json
import os
import sys
import time


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    inputs = {k: tuple(map(tuple, v)) if k in ("link_segments", "vbr_weights")
              else v for k, v in spec["inputs"].items()}
    sys.path[:0] = [spec["src"], os.path.dirname(os.path.abspath(__file__))]
    t0 = time.perf_counter()
    import workloads   # imports streamsim
    workloads.parse_inputs(spec["workload"], inputs)
    setup_s = time.perf_counter() - t0
    from reference import reference_speed
    print(repr(setup_s), repr(reference_speed()))


if __name__ == "__main__":
    main()
