"""A tiny urllib client for a running ``repro serve`` (no dependencies).

Backs ``repro query`` and the test/CI harnesses.  Every method returns
the decoded JSON body; HTTP error statuses raise :class:`ServiceError`
carrying the server's ``{"error": ...}`` message.
"""

import json
import urllib.error
import urllib.request

from repro.errors import ReproError

DEFAULT_TIMEOUT = 300.0


class ServiceError(ReproError):
    """The server answered with an error status."""

    def __init__(self, status, message):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServiceClient:
    """Client for one ``repro serve`` endpoint (``http://host:port``)."""

    def __init__(self, base_url, timeout=DEFAULT_TIMEOUT):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _request(self, path, payload=None):
        url = self.base_url + path
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(url, data=data, headers=headers)
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                message = json.loads(exc.read().decode("utf-8"))["error"]
            except Exception:  # noqa: BLE001 — body may not be JSON
                message = exc.reason
            raise ServiceError(exc.code, message) from exc

    # -- endpoints -----------------------------------------------------------

    def health(self):
        return self._request("/health")

    def stats(self):
        return self._request("/stats")

    def workloads(self):
        return self._request("/workloads")["workloads"]

    def query(self, kind, workload, designs=None, space="both",
              density="standard", fidelity=None, evaluate=True):
        """POST /query — see :meth:`repro.serve.service.SweepService.query`.

        ``designs`` entries may be DesignPoints or plain field dicts.
        """
        payload = {"kind": kind, "workload": workload, "space": space,
                   "density": density, "evaluate": evaluate}
        if fidelity is not None:
            payload["fidelity"] = fidelity
        if designs is not None:
            payload["designs"] = [
                d if isinstance(d, dict) else d.to_record() for d in designs]
        return self._request("/query", payload)

    def submit_kernel(self, source, filename=None):
        """POST /kernels — register ``@kernel`` source on the server.

        Returns the decoded body: ``{"kernels": [{"name", "description",
        "source"}, ...]}``.  After this, the kernel names are valid
        ``workload`` values for :meth:`query` / :meth:`sweep`.
        """
        payload = {"source": source}
        if filename is not None:
            payload["filename"] = filename
        return self._request("/kernels", payload)

    def sweep(self, workload, designs, fidelity=None):
        """POST /sweep — evaluate points (hit / join / dispatch)."""
        payload = {"workload": workload,
                   "designs": [d if isinstance(d, dict) else d.to_record()
                               for d in designs]}
        if fidelity is not None:
            payload["fidelity"] = fidelity
        return self._request("/sweep", payload)
