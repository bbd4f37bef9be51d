"""The HTTP/JSON face of the sweep service (``repro serve``).

Stdlib only: :class:`http.server.ThreadingHTTPServer` gives one thread
per connection, and the :class:`~repro.serve.service.SweepService`
underneath deduplicates whatever those threads ask for concurrently.

Endpoints (all bodies JSON):

* ``GET /health`` — liveness + store summary.
* ``GET /stats`` — service counters (hits/joins/dispatches, queue
  depth, latency percentiles) plus the engine-side sweep metrics.
* ``GET /workloads`` — the available workload names (plus a
  ``details`` list tagging each as builtin or frontend).
* ``POST /kernels`` — ``{"source": "<python text>", "filename": ...}``
  → register the ``@kernel`` functions in the source; they become
  sweepable by name immediately (``{"kernels": [{"name", ...}]}``).
* ``POST /query`` — ``{"kind": "sweep"|"pareto"|"edp"|"figure",
  "workload": ..., "space"/"density" or "designs": [...],
  "fidelity": ..., "evaluate": bool}`` →
  :meth:`SweepService.query`.
* ``POST /sweep`` — ``{"workload": ..., "designs": [{...}, ...],
  "fidelity": ...}`` → evaluate (hit/join/dispatch) and return the
  result records plus the provenance report.

Malformed bodies, unknown or out-of-range design fields and unknown
workloads are 400s with a JSON ``{"error": ...}`` body; simulation failures of individual
points are *not* errors — they come back as failure records inside a
200 response (the service collects them).
"""

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.core.config import DesignPoint
from repro.core.export import result_record
from repro.errors import (
    CalibrationError,
    ConfigError,
    FrontendError,
    WorkloadError,
)
from repro.workloads.registry import workload_names, workload_source


class _Handler(BaseHTTPRequestHandler):
    # One log line per request is noise the service metrics already
    # cover; opt back in with server.verbose = True.
    def log_message(self, fmt, *args):
        if getattr(self.server, "verbose", False):
            super().log_message(fmt, *args)

    @property
    def service(self):
        return self.server.service

    # -- plumbing ------------------------------------------------------------

    def _send(self, status, payload):
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status, message):
        self._send(status, {"error": message})

    def _body(self):
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        doc = json.loads(raw.decode("utf-8"))
        if not isinstance(doc, dict):
            raise ValueError("request body must be a JSON object")
        return doc

    def _workload(self, doc):
        workload = doc.get("workload")
        if workload not in workload_names():
            raise ValueError(
                f"unknown workload {workload!r}; see GET /workloads "
                f"(or register it first via POST /kernels)")
        return workload

    # -- GET -----------------------------------------------------------------

    def do_GET(self):
        if self.path == "/health":
            self._send(200, {
                "status": "ok",
                "cache_dir": self.service.cache_dir,
                "cached_points": len(self.service.cache.index()),
                "fidelity": self.service.fidelity or "per-workload",
            })
        elif self.path == "/stats":
            self._send(200, {
                "service": self.service.metrics.snapshot(),
                "engine": self.service.sweep_metrics.as_dict(),
            })
        elif self.path == "/workloads":
            names = workload_names()
            self._send(200, {
                "workloads": names,
                "details": [{"name": n, "source": workload_source(n)}
                            for n in names],
            })
        else:
            self._error(404, f"no such endpoint: GET {self.path}")

    # -- POST ----------------------------------------------------------------

    def do_POST(self):
        if self.path not in ("/query", "/sweep", "/kernels"):
            self._error(404, f"no such endpoint: POST {self.path}")
            return
        try:
            doc = self._body()
            if self.path == "/kernels":
                source = doc.get("source")
                kernels = self.service.register_kernel(
                    source, filename=doc.get("filename"))
                self._send(200, {"kernels": kernels})
                return
            workload = self._workload(doc)
            designs = doc.get("designs")
            if designs is not None:
                designs = [DesignPoint.from_record(d) for d in designs]
            if self.path == "/query":
                response = self.service.query(
                    doc.get("kind", "sweep"), workload, designs=designs,
                    space=doc.get("space", "both"),
                    density=doc.get("density", "standard"),
                    fidelity=doc.get("fidelity"),
                    evaluate=doc.get("evaluate", True))
            else:
                if not designs:
                    raise ValueError(
                        'POST /sweep needs a non-empty "designs" list')
                results, report = self.service.submit(
                    workload, designs, fidelity=doc.get("fidelity"))
                records = []
                for result in results:
                    if getattr(result, "is_failure", False):
                        records.append({"failed": True,
                                        **result.as_dict()})
                    else:
                        records.append(result_record(result))
                response = {"workload": workload, "results": records,
                            "service": report}
        except (ValueError, KeyError, TypeError, CalibrationError,
                ConfigError, FrontendError, WorkloadError) as exc:
            self._error(400, str(exc))
            return
        except Exception as exc:  # noqa: BLE001 — the server must answer
            self._error(500, repr(exc))
            return
        self._send(200, response)


class ServeHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that owns a :class:`SweepService`."""

    daemon_threads = True

    def __init__(self, addr, service, verbose=False):
        self.service = service
        self.verbose = verbose
        super().__init__(addr, _Handler)


def make_server(service, host="127.0.0.1", port=0, verbose=False):
    """Bind a server around an existing service (port 0 = ephemeral)."""
    return ServeHTTPServer((host, port), service, verbose=verbose)


def serve(cache_dir, host="127.0.0.1", port=8642, jobs=None, fidelity=None,
          verbose=False, out=print, ready=None):
    """Run the sweep service until interrupted (the ``repro serve`` body).

    ``ready`` (if given) is called with the bound server before the
    serve loop starts — tests use it to learn the ephemeral port and to
    arrange shutdown.
    """
    from repro.serve.service import SweepService
    service = SweepService(cache_dir, jobs=jobs, fidelity=fidelity)
    server = make_server(service, host=host, port=port, verbose=verbose)
    bound_host, bound_port = server.server_address[:2]
    out(f"repro serve: listening on http://{bound_host}:{bound_port} "
        f"(store: {cache_dir}, {len(service.cache.index())} cached points)")
    if ready is not None:
        ready(server)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        out("repro serve: shutting down")
    finally:
        server.server_close()
        service.close()
