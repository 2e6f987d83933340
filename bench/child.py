"""Run one `netsec` command in a fresh interpreter and record its cost.

Usage: python3 child.py SPEC_JSON SPAWN_TIME

SPEC_JSON names the source directory, the CLI arguments (null to only set
up), whether to trace, the kind of reference work, and the file that
receives the timings.  SPAWN_TIME
is the parent's `time.perf_counter()` just before the process was started;
on Linux that clock is system-wide, so set-up time covers interpreter start
and imports.  The CSV goes to stdout exactly as the `netsec` entry point
writes it, and the exit code is the one `cli.main` returns.  After the
command the child times the reference work (reference.py), so the speed
it measures is that of the same process and moment as the command.
"""

import json
import resource
import sys
import time
import traceback


def main():
    spec_path, spawn_time = sys.argv[1], float(sys.argv[2])
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    from netsec import cli

    ready = time.perf_counter()
    record = {
        "module": sys.modules["netsec"].__file__,
        "numpy": sys.modules["numpy"].__version__,
        "setup_s": ready - spawn_time,
    }
    if spec["argv"] is None:
        write(spec, record)
        return 0

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    cpu_start, start = time.process_time(), time.perf_counter()
    try:
        code = cli.main(spec["argv"])
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        code = 1
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    sys.stdout.flush()
    record.update(wall_s=wall, cpu_s=cpu,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  trace=tracer.report() if tracer else None)
    # After the command, so the command itself starts as cold as a user's.
    import reference

    record["speed"] = reference.speed(spec["reference"], wall)
    write(spec, record)
    return code


def write(spec, record):
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(record, handle)


if __name__ == "__main__":
    sys.exit(main())
