"""Run one `kromatic` CLI job in this fresh interpreter, the way the
`kromatic` console script does, and report how long set-up took.

    python3 perfbench/launch.py REPORT TRACE [kromatic arguments...]

REPORT is a JSON file written at exit with `ready`, the `time.perf_counter`
reading once `kromatic.cli` is imported (the clock is system-wide, so the
parent can subtract its spawn time), and, with TRACE = 1, the tracer's
per-layer snapshot.  With no kromatic arguments only set-up is measured.
The exit status is the CLI's.
"""
import json
import sys
import time


def main():
    report_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import kromatic.cli
    report = {"ready": time.perf_counter()}
    code = 0
    try:
        if argv:
            if trace:
                import tracer
                tr, modules = tracer.install()
            try:
                code = kromatic.cli.main(argv)
            except SystemExit as e:
                code = e.code
            if trace:
                report["trace"] = tr.snapshot(modules)
    finally:
        with open(report_path, "w") as f:
            json.dump(report, f)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
