"""One set-up of a benchmark run, in a fresh interpreter.

    python3 bench/make_inputs.py WORKLOAD SEED DIR

Imports the program from the checkout's `src`, then generates and writes
the workload's inputs into DIR. Prints {"import_s", "inputs_s"}. run.py
runs this several times and reports the median as setup_s; doing it in a
child process keeps the generator's memory out of the chain's peak RSS
and times a cold import every time.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(workload: str, seed: str, work: str) -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    start = time.perf_counter()
    import ircur.cli  # noqa: F401  (loads every module cli uses)
    import ircur.bench_eval  # noqa: F401
    imported = time.perf_counter()
    import gen
    gen.make(workload, Path(work), int(seed))
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "inputs_s": done - imported}))


if __name__ == "__main__":
    main(*sys.argv[1:])
