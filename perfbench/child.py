"""Run one ``ncforms`` report in a fresh interpreter, as a user's call would.

    python3 perfbench/child.py RESULT.json TRACE [--setup-only | CLI ARGS...]

The report's own output goes to this process's stdout.  RESULT.json gets
the monotonic time at which ``import ncforms.cli`` finished, the time the
report returned, the exit code, ``ru_maxrss`` and, with TRACE 1, the
tracer's per-layer summary; the spans go beside it in ``*.spans.npz``.
"""

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    result_path, trace, *argv = sys.argv[1:]
    sys.path.insert(0, str(ROOT / "src"))
    import ncforms.cli

    out = {"t_ready": time.monotonic()}
    if argv != ["--setup-only"]:
        tracer = None
        if trace == "1":
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            import tracer as tracing
            tracer = tracing.install()

        def report():
            try:
                ncforms.cli.main.main(args=argv, prog_name="ncforms")
            except SystemExit as exc:
                code = exc.code
                return code if isinstance(code, int) else int(code is not None)
            return 0

        out["exit"] = tracer.run_report(report) if tracer else report()
        out["t_done"] = time.monotonic()
        sys.stdout.flush()
        if tracer:
            out["trace"] = tracer.summary()
            tracer.write_spans(result_path[:-len(".json")] + ".spans.npz")
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(result_path).write_text(json.dumps(out), encoding="utf-8")


if __name__ == "__main__":
    main()
