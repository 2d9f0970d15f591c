"""One cold brieskorn-lab CLI job, as `run.py` starts it.

    python3 bench/job.py MARKS_FILE TRACE(0|1) CLI-ARGS...

Runs `brieskornlab.cli.main` on CLI-ARGS in this fresh interpreter, exactly
as the `brieskorn-lab` console script does, and writes MARKS_FILE when it
returns: the CLOCK_MONOTONIC time at which set-up ended (the first
`parse_poly` call returned, so the interpreter had started, the package was
imported and the problem was loaded and parsed), the time spent inside
`main`, and with TRACE=1 the recorded spans.  The exit code is main's.
"""

import json
import sys

from tracing import Recorder, clock, rebind


def main() -> int:
    marks_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import brieskornlab.cli as cli
    from brieskornlab import gradedpoly

    marks = {"setup_end": None}
    parse = gradedpoly.parse_poly

    def parse_then_mark(*args, **kwargs):
        result = parse(*args, **kwargs)
        if marks["setup_end"] is None:
            marks["setup_end"] = clock()
        return result

    rebind(parse, parse_then_mark)
    recorder = None
    if trace:
        recorder = Recorder()
        recorder.install()
    t0 = clock()
    code = cli.main(argv)
    marks["compute_s"] = clock() - t0
    sys.stdout.flush()
    if recorder is not None:
        marks["spans"] = recorder.spans
    with open(marks_path, "w", encoding="utf-8") as fh:
        json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
