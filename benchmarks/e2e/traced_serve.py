"""``repro serve`` with the benchmark's timing wrappers installed.

Usage::

    python benchmarks/e2e/traced_serve.py TRACE_JSON [serve flags...]

Installs :func:`tracing.install`, then runs ``repro.cli.main(["serve", ...])``.
When the server has drained after SIGINT, the spans are written to
``TRACE_JSON`` together with the final partition count of the engine.
"""

from __future__ import annotations

import sys

from tracing import Tracer, install


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: traced_serve.py TRACE_JSON [serve flags...]", file=sys.stderr)
        return 2
    out, serve_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)

    import repro.service
    from repro.cli import main as cli_main

    served = []
    run_service = repro.service.run_service

    def recording_run_service(engine, config=None, **kwargs):
        served.append(engine)
        return run_service(engine, config, **kwargs)

    repro.service.run_service = recording_run_service
    try:
        return cli_main(["serve", *serve_args])
    finally:
        if served:
            tracer.facts["partitions"] = served[0].n_partitions
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
