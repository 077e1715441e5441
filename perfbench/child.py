"""One measured process: a fresh interpreter that imports the program from
the checkout's ``src/`` and does one job.

    python3 perfbench/child.py RESULT [--spans PATH] [--memory]
                               [--calibrate INSTANCE:BATCH] MODE ARGS...

Modes:
  probe              import ``timefair.cli`` and report the environment probe
  setup CONFIG SEED  time import + config load + validate_config + plan_from_config
  cli ARGV...        time ``timefair.cli.main(ARGV)``, capturing stdout and stderr

``--spans`` traces the layers (see tracer.py) and writes the spans to PATH;
``--memory`` adds a tracemalloc peak to each ``median_trajectory`` span;
``--calibrate`` times the bare objective before and after the job.
``setup`` and ``cli`` also time the reference kernels of speed.py, during
the job where they can and right after it otherwise, so that the parent can
scale the job's time to a nominal machine speed. The result is one JSON
object written to RESULT.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
REFERENCE_BLOCKS = 8  # timed right after a job that was not sampled
MIN_SAMPLES = 5  # fewer samples during the job: use blocks after it


def _import_cli():
    sys.path.insert(0, SRC)
    import timefair.cli

    location = os.path.realpath(timefair.cli.__file__)
    if not location.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"timefair imported from {location}, not from {SRC}")
    return timefair.cli


def _calibrate(instance_id: str, batch: int) -> dict:
    """µs per evaluation of the bare objective, single and batched, in five
    blocks each."""
    import numpy as np
    from timefair.problems import get_problem

    instance = get_problem(instance_id)
    rng = np.random.default_rng(0)
    points = [instance.uniform(rng) for _ in range(500)]
    rows = instance.uniform(rng, batch)
    single, batched = [], []
    for _ in range(5):
        t0 = time.perf_counter()
        for x in points:
            instance.evaluate(x)
        single.append((time.perf_counter() - t0) / len(points) * 1e6)
        t0 = time.perf_counter()
        for _ in range(100):
            instance.evaluate_rows(rows)
        batched.append((time.perf_counter() - t0) / (100 * batch) * 1e6)
    return {"single_us": single, "batch_us": batched}


def main(argv: list) -> int:
    result_path = argv.pop(0)
    spans = calibrate = None
    memory = False
    while argv and argv[0].startswith("--"):
        flag = argv.pop(0)
        if flag == "--spans":
            spans = argv.pop(0)
        elif flag == "--memory":
            memory = True
        elif flag == "--calibrate":
            calibrate = argv.pop(0)
        else:
            raise SystemExit(f"unknown flag {flag}")
    mode = argv.pop(0)
    out: dict = {"mode": mode}

    if mode == "setup":
        config_path, seed = argv
        t0 = time.perf_counter()
        cli = _import_cli()
        import json

        with open(config_path, encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["master_seed"] = int(seed)
        cli.plan_from_config(cli.validate_config(raw))
        out["seconds"] = time.perf_counter() - t0
        import speed  # after the job: it imports numpy

        out["reference"] = speed.blocks(REFERENCE_BLOCKS)
        out["exit_code"] = 0
    elif mode == "probe":
        _import_cli()
        from timefair import report

        out["probe"] = report.probe_environment(virtual=False)
        out["exit_code"] = 0
    elif mode == "cli":
        import contextlib
        import io

        cli = _import_cli()
        import speed

        tracer = None
        if spans is not None:
            from tracer import Tracer, install

            tracer = Tracer()
            install(tracer, memory=memory)
        # the tracer would count the sampler in whatever span it interrupts
        sampler = speed.Sampler() if tracer is None else None
        if sampler is not None:
            from timefair.clock import RealClock

            sampler.hide_from(RealClock)
        if calibrate is not None:
            instance_id, batch = calibrate.split(":")
            before = _calibrate(instance_id, int(batch))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if sampler is not None:
                sampler.start()
            t0 = time.perf_counter()
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.run(f"phase.{argv[0]}", cli.main, argv)
            if sampler is not None:
                sampler.stop()
            out["seconds"] = time.perf_counter() - t0
        out["exit_code"] = code
        out["stdout"] = stdout.getvalue()
        out["stderr_tail"] = stderr.getvalue()[-2000:]
        if calibrate is not None:
            after = _calibrate(instance_id, int(batch))
            out["calibration"] = {k: before[k] + after[k] for k in before}
        if sampler is not None:
            out["seconds"] -= sampler.handler_s
        if sampler is not None and len(sampler.samples) >= MIN_SAMPLES:
            out["reference"] = sampler.reference()
        else:
            out["reference"] = speed.blocks(REFERENCE_BLOCKS)
        if tracer is not None:
            tracer.dump(spans)
    else:
        raise SystemExit(f"unknown mode {mode}")

    import json

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
