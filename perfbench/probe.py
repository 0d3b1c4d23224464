"""One cold start: import himcf and himcf.cli, then generate the inputs.

    python3 perfbench/probe.py --workload NAME --seed N

run.py starts this in a fresh interpreter several times and times each
process from the outside (setup_s).  The probe prints one JSON line with its
own import time and the digest of the generated inputs, which run.py
compares with its own to show that set-up is deterministic.
"""
import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    t0 = time.perf_counter()
    import himcf  # noqa: F401
    import himcf.cli  # noqa: F401
    t1 = time.perf_counter()
    import inputs
    data = inputs.generate(args.workload, args.seed)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "generate_s": t2 - t1,
                      "digest": inputs.digest(data)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
