"""One fresh-process CLI invocation, timed from inside the interpreter.

    python3 perfbench/invoke.py RESULT_JSON CONFIG [--spans SPANS_JSON --run-id N] -- ARGV...

Measures, in this order and in this process only:

  import_s  ``import shockwear.cli`` (numpy and scipy come with it)
  load_s    ``load_config(CONFIG)``
  calib_s   the fixed calibration job, once before and once after the verb
  wall_s    ``shockwear.cli.main(ARGV)``, after set-up

and writes them, the verb's exit code and the peak resident set size of the
process to RESULT_JSON. With ``--spans`` the verb runs under the tracer in
``tracing.py`` and the spans are written to SPANS_JSON when the process ends.
An ARGV that is ``--config CONFIG`` alone stops after set-up (a warm-up).

The package must come from ``src/`` of the checkout that holds this file;
the caller puts that directory on PYTHONPATH and this script refuses any
other copy.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALIB_ITERS = 6000


def calibrate(iters: int = CALIB_ITERS) -> float:
    """Seconds for a fixed job shaped like the engine's inner loop: build a
    generator, then draw one chunk of gamma and uniform blocks from it.

    It uses numpy only, so no change to shockwear can change its time; it
    measures how fast this CPU runs that kind of work right now.
    """
    from numpy.random import PCG64, Generator, SeedSequence

    t = time.perf_counter()
    for i in range(iters):
        g = Generator(PCG64(SeedSequence(12345, spawn_key=(i, 0))))
        g.gamma(0.005, 1.0, size=256)
        g.random(256)
        g.random(256)
    return time.perf_counter() - t


def main(argv: list[str]) -> int:
    split = argv.index("--")
    head, cli_argv = argv[:split], argv[split + 1:]
    result_path, config = head[0], head[1]
    spans_path = head[head.index("--spans") + 1] if "--spans" in head else None
    run_id = int(head[head.index("--run-id") + 1]) if "--run-id" in head else 0

    t0 = time.perf_counter()
    import shockwear.cli
    t1 = time.perf_counter()
    shockwear.cli.load_config(config)
    t2 = time.perf_counter()

    src = (ROOT / "src").resolve()
    if Path(shockwear.cli.__file__).resolve().parent.parent != src:
        print(f"shockwear imported from {shockwear.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    record = {"import_s": t1 - t0, "load_s": t2 - t1}
    if cli_argv != ["--config", config]:
        calibrate(CALIB_ITERS // 20)  # first calls into numpy's generator code
        record["calib_s"] = [calibrate()]
        tracer = None
        if spans_path is not None:
            from tracing import Tracer  # perfbench/tracing.py; this directory is sys.path[0]
            tracer = Tracer(run_id)
            tracer.install()
        t3 = time.perf_counter()
        try:
            code = shockwear.cli.main(cli_argv) if tracer is None else tracer.call_main(cli_argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
        record["wall_s"] = time.perf_counter() - t3
        record["exit_code"] = code
        record["calib_s"].append(calibrate())
        if tracer is not None:
            tracer.write(spans_path)
    sys.stdout.flush()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(result_path).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
