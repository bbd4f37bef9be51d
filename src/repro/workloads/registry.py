"""Workload registry with trace caching.

Traces are design-independent (lanes and partitions are applied at schedule
time), so one captured trace per kernel is reused across every design point
of a sweep — this is what keeps full Figure 8 sweeps tractable in Python.

Two registration populations live here:

* **builtin** — the 19 MachSuite kernels, registered as classes at import
  time via the :func:`register` decorator;
* **dynamic** — :class:`Workload` *instances* registered at runtime via
  :func:`register_workload` (the public API behind the Python kernel
  frontend, :mod:`repro.frontend`, and :meth:`Workload.from_builder`).

Dynamic registrations made from a kernel *file* (``repro trace-kernel``,
``repro sweep --kernel``, ``POST /kernels``) also record their source path
in ``$REPRO_KERNEL_PATHS`` so spawn-context sweep workers — fresh
interpreters that only ever see a workload *name* — can re-load the file
and resolve the same workload (see :mod:`repro.frontend.loader`).
"""

import os
import random

from repro.errors import WorkloadError
from repro.aladdin.ddg import DDDG

#: ``os.pathsep``-separated kernel files auto-loaded into the registry on
#: first use.  Set by the CLI/service when a kernel file is registered, so
#: spawned sweep workers inherit the registrations by name.
ENV_KERNEL_PATHS = "REPRO_KERNEL_PATHS"


class Workload:
    """Base class: a named kernel that builds (and can verify) its trace."""

    name = None
    description = ""

    def rng(self):
        """Deterministic per-workload random source.

        The stream is seeded by the workload *name*, so two workloads
        registered under different names can never share a seed stream.
        An unnamed workload has no identity to seed from — seeding it
        ``"repro-None"`` would silently alias every other unnamed kernel —
        so this raises instead.
        """
        if not self.name:
            raise WorkloadError(
                f"{type(self).__name__} has no name; set .name (or register "
                f"it) before drawing from its rng — unnamed workloads would "
                f"all share the same seed stream")
        return random.Random(f"repro-{self.name}")

    def build(self):
        """Execute the kernel through a TraceBuilder; returns the builder."""
        raise NotImplementedError

    def verify(self, trace):
        """Check the functional outputs captured in ``trace`` against a
        plain-Python reference computation.  Raises on mismatch."""
        raise NotImplementedError

    @classmethod
    def from_builder(cls, name, build, verify=None, description=""):
        """A dynamic :class:`Workload` from plain callables.

        ``build()`` must return a captured
        :class:`~repro.aladdin.trace.TraceBuilder`; ``verify(trace)``
        checks its functional outputs (required for registration — a
        workload that cannot self-check is not a workload, it is a bug
        generator).  The returned instance is *not* registered; pass it
        to :func:`register_workload`.
        """
        if not name or not isinstance(name, str):
            raise WorkloadError(f"workload name must be a non-empty string, "
                                f"got {name!r}")
        if not callable(build):
            raise WorkloadError(f"build must be callable, got {build!r}")
        if verify is not None and not callable(verify):
            raise WorkloadError(f"verify must be callable, got {verify!r}")
        wl = _BuilderWorkload()
        wl.name = name
        wl.description = description
        wl._build_fn = build
        wl._verify_fn = verify
        return wl


class _BuilderWorkload(Workload):
    """Instance-level workload wrapping ``build``/``verify`` callables."""

    _build_fn = None
    _verify_fn = None

    def build(self):
        return self._build_fn()

    def verify(self, trace):
        if self._verify_fn is None:
            raise WorkloadError(
                f"workload {self.name!r} has no verify function")
        return self._verify_fn(trace)


_REGISTRY = {}    # name -> Workload subclass (builtin, import-time)
_INSTANCES = {}   # name -> Workload instance (dynamic, runtime)
_GENERATION = 0   # bumped by every dynamic (un)registration


def registry_generation():
    """A counter that changes whenever a dynamic registration changes.

    Long-lived sweep workers resolve workloads from the registry state
    they started with; the worker pool compares this counter to retire
    workers that could serve a replaced or removed workload.
    """
    return _GENERATION


def register(cls):
    """Class decorator adding a builtin workload to the registry."""
    if cls.name is None:
        raise WorkloadError(f"{cls.__name__} has no name")
    if cls.name in _REGISTRY:
        raise WorkloadError(f"duplicate workload {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def _check_registrable(instance):
    """Validate a dynamic registration candidate; raises WorkloadError."""
    if not isinstance(instance, Workload):
        raise WorkloadError(
            f"register_workload needs a Workload instance, got "
            f"{instance!r}; subclass Workload or use Workload.from_builder")
    name = instance.name
    if not name or not isinstance(name, str):
        raise WorkloadError(
            f"workload has no usable name ({name!r}); set a non-empty "
            f"string .name before registering")
    # A workload that cannot verify its own trace is unusable: the
    # functional check is what separates "simulated something" from
    # "simulated the kernel you meant".
    verify = type(instance).verify
    if verify is Workload.verify and not isinstance(
            instance, _BuilderWorkload):
        raise WorkloadError(
            f"workload {name!r} does not override verify(); a registered "
            f"workload must be able to self-check its trace")
    if isinstance(instance, _BuilderWorkload) and instance._verify_fn is None:
        raise WorkloadError(
            f"workload {name!r} has no verify function; pass verify= to "
            f"Workload.from_builder")


def register_workload(instance, replace=False):
    """Register a :class:`Workload` *instance* under its ``.name``.

    The public dynamic-registration API: frontend kernels, example
    scripts and services use this instead of poking the private trace
    caches.  Raises :class:`WorkloadError` when the instance has no
    name, does not override :meth:`Workload.verify`, or the name is
    already taken (builtin names can never be replaced; dynamic ones
    only with ``replace=True``).  Any cached trace/DDG for the name is
    dropped, so a replacement can never serve a stale trace.

    Returns the instance, so it can be used as a decorator-style call.
    """
    _ensure_loaded()
    _check_registrable(instance)
    name = instance.name
    if name in _REGISTRY:
        raise WorkloadError(
            f"workload name {name!r} collides with a builtin workload; "
            f"pick a different name (builtins are never replaceable)")
    if name in _INSTANCES and not replace:
        raise WorkloadError(
            f"workload {name!r} is already registered; unregister it or "
            f"pass replace=True to overwrite")
    _INSTANCES[name] = instance
    _forget(name)
    return instance


def unregister_workload(name):
    """Remove a dynamic registration (builtins cannot be removed)."""
    if name in _REGISTRY:
        raise WorkloadError(f"cannot unregister builtin workload {name!r}")
    if name not in _INSTANCES:
        raise WorkloadError(f"workload {name!r} is not registered")
    del _INSTANCES[name]
    _forget(name)


def _forget(name):
    """Drop cached state for a (re)registered name; bump the generation."""
    global _GENERATION
    _GENERATION += 1
    _TRACE_CACHE.pop(name, None)
    _DDG_CACHE.pop(name, None)


def workload_source(name):
    """Where a workload comes from: ``"builtin"`` or ``"frontend"``."""
    _ensure_loaded()
    if name in _REGISTRY:
        return "builtin"
    if name in _INSTANCES:
        return "frontend"
    raise WorkloadError(
        f"unknown workload {name!r}; available: {sorted(_all_names())}")


_LOADED_KERNEL_PATHS = set()


def _ensure_loaded():
    # Import kernel modules lazily to avoid import cycles; each module
    # registers its workload class at import time.
    from repro.workloads import (  # noqa: F401
        aes, backprop, bfs, bfs_queue, fft_strided, fft_transpose, gemm,
        gemm_blocked, kmp, md_grid, md_knn, nw, sort_merge, sort_radix,
        spmv_crs, spmv_ellpack, stencil2d, stencil3d, viterbi,
    )
    # Kernel files advertised by the environment (set by the CLI/service
    # in the parent process) register here too, so spawn-context sweep
    # workers resolve dynamically registered workloads by name.
    spec = os.environ.get(ENV_KERNEL_PATHS, "")
    if spec:
        from repro.frontend.loader import load_kernel_file
        for path in spec.split(os.pathsep):
            if not path or path in _LOADED_KERNEL_PATHS:
                continue
            _LOADED_KERNEL_PATHS.add(path)
            load_kernel_file(path, register=True, replace=True,
                             advertise=False)


def _all_names():
    return set(_REGISTRY) | set(_INSTANCES)


def get_workload(name):
    """Instantiate (builtin) or fetch (dynamic) a workload by name."""
    _ensure_loaded()
    instance = _INSTANCES.get(name)
    if instance is not None:
        return instance
    cls = _REGISTRY.get(name)
    if cls is None:
        raise WorkloadError(
            f"unknown workload {name!r}; available: {sorted(_all_names())}")
    return cls()


def workload_names():
    """Sorted names of every registered workload (builtin + dynamic)."""
    _ensure_loaded()
    return sorted(_all_names())


_TRACE_CACHE = {}
_DDG_CACHE = {}


def cached_trace(name):
    """The workload's captured trace (built once per process)."""
    if name not in _TRACE_CACHE:
        _TRACE_CACHE[name] = get_workload(name).build()
    return _TRACE_CACHE[name]


def cached_ddg(name):
    """The workload's DDDG over the cached trace."""
    if name not in _DDG_CACHE:
        _DDG_CACHE[name] = DDDG(cached_trace(name))
    return _DDG_CACHE[name]


CORE_EIGHT = [
    "aes-aes",
    "nw-nw",
    "gemm-ncubed",
    "stencil-stencil2d",
    "stencil-stencil3d",
    "md-knn",
    "spmv-crs",
    "fft-transpose",
]

# The full 19-kernel MachSuite sweep (Figure 2b runs "all the MachSuite
# benchmarks"); CORE_EIGHT are the ones Figures 6-10 analyze in depth.
ALL_WORKLOADS = CORE_EIGHT + [
    "backprop", "bfs-bulk", "bfs-queue", "fft-strided", "gemm-blocked",
    "kmp", "md-grid", "sort-merge", "sort-radix", "spmv-ellpack", "viterbi",
]
