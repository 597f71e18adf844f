"""Run one `frachh` command in this fresh interpreter, as the console script
would, and report what the parent cannot see from outside.

    python3 perfbench/cli_boot.py REPORT_JSON TRACE ARGV...

With TRACE `1` the layer wrappers are installed before `frachh.cli.main`
runs. REPORT_JSON receives the `import frachh.cli` time, this process's peak
resident memory and, when traced, the span summary. The exit code is the
command's. `frachh` must be importable (PYTHONPATH pointing at the source
tree).

Peak memory is read from VmHWM, which covers this program image only: the
`ru_maxrss` a parent gets from `wait4` also counts the pages the child shared
with the parent before `exec`.
"""

import json
import sys
import time


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    report_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    t0 = time.perf_counter()
    import frachh.cli

    report = {"cli.import_s": time.perf_counter() - t0}
    if traced:
        from instrument import instrumented, summarize
        from spans import Tracer

        tracer = Tracer()
        with instrumented(tracer):
            code = frachh.cli.main(argv)
        report["summary"] = summarize(tracer)
    else:
        code = frachh.cli.main(argv)
    report["peak_rss_kb"] = peak_rss_kb()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
