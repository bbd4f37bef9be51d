"""Opt-in runtime correctness checking (`repro.check`).

Three layers, all following the zero-overhead-when-detached discipline of
:mod:`repro.obs` — a detached simulation pays one ``is None`` test per
hook site and nothing else:

* **MOESI invariants** (:mod:`repro.check.invariants`) — every line-state
  installation and writeback re-validates the global coherence invariants;
  a violation raises :class:`~repro.errors.InvariantError` at the exact
  transition that broke the protocol.
* **End-of-run audits** (:mod:`repro.check.audit`) — after the event queue
  drains, every component is checked for leaked state (unreleased MSHRs,
  pending full/empty waiters, in-flight DMA, bus reservations past the
  final tick) and every accelerator TLB hit for its one cache access;
  findings raise :class:`~repro.errors.LeakError`.
* **Deadlock watchdog** (:mod:`repro.check.watchdog`) — when the queue
  drains with an unfinished offload, the kernel raises a structured
  :class:`~repro.errors.DeadlockError` whose report says which lanes
  stalled on which full/empty bits, which MSHRs are pending, and what the
  DMA channel was doing.

Enable it per run (``run_design(..., check=True)``, ``SoC(...,
check=True)``), from the CLI (``repro run/sweep --check``), or globally
via ``REPRO_CHECK=1``.  The health report dumps as JSON in the style of
:mod:`repro.obs.stats`::

    checker = Checker()
    result = run_design("gemm-ncubed", check=checker)
    checker.dump_json("health-report.json")
"""

import json
import os
import weakref

from repro.check.audit import audit_platform, format_leaks
from repro.check.invariants import MOESIChecker
from repro.check.watchdog import diagnose_platform
from repro.errors import LeakError

ENV_VAR = "REPRO_CHECK"
_FALSY = ("", "0", "false", "off", "no")


def enabled_from_env(environ=None):
    """True when ``REPRO_CHECK`` asks for checking (unset/0/false = off)."""
    if environ is None:
        environ = os.environ
    value = environ.get(ENV_VAR, "")
    return value.strip().lower() not in _FALSY


def resolve_check(check):
    """Normalize a ``check=`` argument into a :class:`Checker` or ``None``.

    ``None`` falls back to the ``REPRO_CHECK`` environment variable; an
    existing :class:`Checker` passes through (so callers can keep one
    across runs and read accumulated counters); any other truthy value
    builds a fresh checker, and falsy disables checking explicitly.
    """
    if isinstance(check, Checker):
        return check
    if check is None:
        return Checker() if enabled_from_env() else None
    return Checker() if check else None


class Checker:
    """One correctness-checking session, attachable to successive platforms.

    :meth:`attach` hooks the MOESI checker into the platform's coherence
    domain and registers the deadlock diagnoser on its simulator;
    :meth:`audit` runs the end-of-run leak audit.  Counters accumulate
    across re-attachment (e.g. one checker spanning a whole sweep).

    The platform owns its checker, so the checker refers back to it
    weakly: a finished platform is freed as soon as its last user drops
    it, and :attr:`platform` then reads ``None``.
    """

    def __init__(self):
        self._platform = None
        self.moesi = None
        self.audits = 0
        self.last_audit = None
        self._prior_checks = 0
        self._prior_writeback_checks = 0
        self._prior_violations = 0
        self._prior_deferred = 0

    # -- lifecycle ---------------------------------------------------------

    def attach(self, platform):
        """Hook every check layer into ``platform``; returns self."""
        if self.moesi is not None:
            self._prior_checks += self.moesi.checks
            self._prior_writeback_checks += self.moesi.writeback_checks
            self._prior_violations += self.moesi.violations
            self._prior_deferred += self.moesi.domain.deferred_fetches
        self._platform = weakref.ref(platform)
        self.moesi = MOESIChecker(platform.domain)
        platform.domain.attach_checker(self.moesi)
        platform.sim.add_deadlock_diagnoser(
            lambda: diagnose_platform(platform))
        return self

    @property
    def platform(self):
        """The platform last attached to, while it is alive."""
        return self._platform() if self._platform is not None else None

    def audit(self, platform=None):
        """Run the end-of-run leak audit; raises :class:`LeakError` on
        findings, returns the (clean) audit result otherwise."""
        if platform is None:
            platform = self.platform
        if platform is None:
            raise LeakError("checker was never attached to a platform"
                            if self._platform is None else
                            "the checker's platform was freed; pass it "
                            "to audit()")
        self.audits += 1
        report = audit_platform(platform)
        self.last_audit = report
        if not report["clean"]:
            findings = format_leaks(report["leaks"])
            raise LeakError(
                f"end-of-run audit found {len(findings)} leak(s) at tick "
                f"{report['tick']}:\n  " + "\n  ".join(findings),
                leaks=report["leaks"])
        return report

    # -- accumulated counters ----------------------------------------------

    @property
    def invariant_checks(self):
        current = self.moesi.checks if self.moesi is not None else 0
        return self._prior_checks + current

    @property
    def writeback_checks(self):
        current = (self.moesi.writeback_checks
                   if self.moesi is not None else 0)
        return self._prior_writeback_checks + current

    @property
    def violations(self):
        current = self.moesi.violations if self.moesi is not None else 0
        return self._prior_violations + current

    @property
    def deferred_fetches(self):
        current = (self.moesi.domain.deferred_fetches
                   if self.moesi is not None else 0)
        return self._prior_deferred + current

    # -- reporting -----------------------------------------------------------

    def health_report(self):
        """The structured health summary (JSON-serializable)."""
        return {
            "enabled": True,
            "invariant_checks": self.invariant_checks,
            "writeback_checks": self.writeback_checks,
            "violations": self.violations,
            "deferred_fetches": self.deferred_fetches,
            "audits": self.audits,
            "audit": self.last_audit,
        }

    def dump_json(self, path):
        """Write the health report as JSON (obs.stats export style)."""
        with open(path, "w") as fh:
            json.dump(self.health_report(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def reg_stats(self, stats, prefix="check"):
        """Mirror the checker's counters into a stats registry."""
        stats.scalar(f"{prefix}.invariant_checks",
                     lambda: self.invariant_checks,
                     desc="MOESI state installations validated")
        stats.scalar(f"{prefix}.writeback_checks",
                     lambda: self.writeback_checks,
                     desc="writebacks validated against dirty states")
        stats.scalar(f"{prefix}.violations", lambda: self.violations,
                     desc="invariant violations detected")
        stats.scalar(f"{prefix}.audits", lambda: self.audits,
                     desc="end-of-run leak audits performed")
        stats.scalar(f"{prefix}.deferred_fetches",
                     lambda: self.deferred_fetches,
                     desc="same-line fetches serialized by the domain")


__all__ = ["Checker", "MOESIChecker", "ENV_VAR", "enabled_from_env",
           "resolve_check", "audit_platform", "format_leaks",
           "diagnose_platform"]
