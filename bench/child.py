"""One measurement in a fresh interpreter; prints a single JSON line.

    python3 child.py import SRC          time `import aspill.cli`
    python3 child.py run SRC JOB.json    time one aspill.pipeline.run_pipeline

SRC is the source directory aspill must be imported from. JOB.json holds
the RunConfig fields ("config") and, for a traced run, the path the spans
are written to ("spans") once the run has finished.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _check_origin(module, src: Path) -> None:
    origin = Path(module.__file__).resolve().parent.parent
    if origin != src.resolve():
        raise SystemExit(f"aspill imported from {origin}, expected {src}")


def time_import(src: Path) -> dict:
    start = time.perf_counter()
    import aspill.cli

    elapsed = time.perf_counter() - start
    _check_origin(aspill.cli, src)
    return {"import_s": elapsed}


def run_once(src: Path, job: dict) -> dict:
    import aspill.pipeline as pipeline

    _check_origin(pipeline, src)
    tracer = None
    if job.get("spans"):
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    cfg = pipeline.RunConfig.from_dict(job["config"])
    start = time.perf_counter()
    pipeline.run_pipeline(cfg)
    run_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.write(Path(job["spans"]))
    return {"run_s": run_s, "peak_rss_mb": peak_rss_mb}


def main(argv: list[str]) -> int:
    mode, src = argv[0], Path(argv[1])
    if mode == "import":
        result = time_import(src)
    else:
        result = run_once(src, json.loads(Path(argv[2]).read_text(encoding="utf-8")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
