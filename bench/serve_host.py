"""Server process of the serve workload: ``python -m bench.serve_host``.

Runs the ``python -m repro.serve --port 0`` CLI entry point unchanged,
with :class:`bench.probe.SpeedProbe` sampling this process's CPU speed
(the two vCPUs of the host slow down independently, so the server's own
speed must be sampled in the server).  With ``--trace`` it serves
:class:`repro.serve.http.ThermalServer` with the layer timers installed
instead; ``SIGUSR1`` then removes the timers and ``SIGUSR2`` puts them
back, so the load generator can alternate traced and untraced blocks.

``SIGINT`` stops the server; the process then prints one JSON line with
the probe samples, its peak RSS and, traced, the timings of the traced
spans.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import time
from typing import Any, Dict

from . import peak_rss_mb
from .probe import SpeedProbe


def _serve_traced() -> Dict[str, Any]:
    start = time.perf_counter()
    from repro.serve.http import ThermalServer
    from repro.serve.service import ServeConfig

    from .layers import SERVE_LAYERS, SERVE_WAITS, new_timer

    import_s = time.perf_counter() - start
    timer = new_timer()
    cpu = {"total": 0.0, "since": None}

    def trace_on() -> None:
        if cpu["since"] is None:
            timer.install(SERVE_LAYERS, SERVE_WAITS)
            cpu["since"] = time.process_time()

    def trace_off() -> None:
        if cpu["since"] is not None:
            timer.uninstall()
            cpu["total"] += time.process_time() - cpu["since"]
            cpu["since"] = None

    server = ThermalServer(ServeConfig(port=0))

    async def serve() -> None:
        loop = asyncio.get_running_loop()
        stop = loop.create_future()
        loop.add_signal_handler(signal.SIGINT, lambda: stop.done() or stop.set_result(None))
        loop.add_signal_handler(signal.SIGUSR1, trace_off)
        loop.add_signal_handler(signal.SIGUSR2, trace_on)
        await server.start()
        print(f"bench.serve_host listening on http://127.0.0.1:{server.port}", flush=True)
        await stop
        await server.close()

    trace_on()
    asyncio.run(serve())
    trace_off()
    return {
        "import_s": import_s,
        "cpu_s": cpu["total"],
        "self_time": timer.self_time,
        "inclusive": timer.inclusive,
        "top_level": timer.top_level,
        "calls": timer.calls,
        "counts": timer.counts,
        "waits": timer.waits,
    }


def main(argv=None) -> int:
    traced = "--trace" in (sys.argv[1:] if argv is None else argv)
    with SpeedProbe() as probe:
        if traced:
            out = _serve_traced()
        else:
            from repro.serve.__main__ import main as serve_cli

            serve_cli(["--port", "0"])
            out = {}
    out["probe"] = probe.samples()
    out["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
