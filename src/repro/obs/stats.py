"""Hierarchical statistics registry (gem5's Stats framework, in miniature).

Components expose their counters through a :class:`StatRegistry` under
dotted names mirroring the SoC topology::

    soc.dram.row_hits            soc.bus.queue_ticks
    accel0.tlb.miss_rate         accel0.dma.bytes_moved

Four stat types cover everything the paper's figures need:

* :class:`Scalar` — one number.  Either *stored* (incremented through the
  stat) or *getter-backed*, mirroring a live component attribute so the
  simulation hot path never touches the registry.
* :class:`Vector` — a fixed-length family of scalars (per-bank, per-lane),
  with optional subnames and an automatic ``::total``.
* :class:`Formula` — derived from other registered stats by name
  (``miss_rate = misses / (hits + misses)``), evaluated at dump time so it
  stays consistent with per-ROI resets.
* :class:`Distribution` — sampled values summarized as count / min / max /
  mean / stdev plus an equal-width histogram.

``dump_text()`` renders a gem5-style ``stats.txt`` block; ``to_json()``
returns a structured dict (flat or nested).  :meth:`StatRegistry.reset`
snapshots every counter so subsequent values are deltas relative to the
reset point — the per-region-of-interest idiom (``m5_reset_stats``).

The registry is strictly *pull*-based for getter-backed stats: attaching
one adds zero work per simulated event, which is what lets the golden
snapshot suite stay bit-identical and the perf gate stay flat.
"""

import json
import math
import weakref

from repro.errors import ConfigError


def _validate_name(name):
    if not name or any(not part for part in name.split(".")):
        raise ConfigError(f"invalid stat name {name!r}")
    return name


class Stat:
    """Base class: a named, described, resettable statistic."""

    kind = "stat"

    def __init__(self, name, desc=""):
        self.name = _validate_name(name)
        self.desc = desc
        self._registry = None  # set by StatRegistry.add

    @property
    def registry(self):
        """The registry this stat was added to, or ``None``.  Held weakly:
        the registry owns its stats, so a dropped registry (and the
        components its getters read) is freed by reference counting."""
        return self._registry() if self._registry is not None else None

    def value(self):
        raise NotImplementedError

    def reset(self):
        """Rebase so future values are deltas from this point."""

    # -- rendering -----------------------------------------------------------

    def lines(self):
        """(suffix, value) pairs for the text dump; scalars yield one."""
        return [("", self.value())]

    def json_value(self):
        return self.value()


class Scalar(Stat):
    """One number: a stored counter or a mirror of a live attribute."""

    kind = "scalar"

    def __init__(self, name, getter=None, desc="", value=0):
        super().__init__(name, desc)
        self._getter = getter
        self._value = value
        self._base = 0

    def raw(self):
        return self._getter() if self._getter is not None else self._value

    def value(self):
        raw = self.raw()
        if raw is None:
            return None
        return raw - self._base

    def reset(self):
        self._base = self.raw() or 0

    # Stored-mode mutation (getter-backed scalars are read-only mirrors).

    def inc(self, n=1):
        if self._getter is not None:
            raise ConfigError(f"{self.name}: getter-backed scalar is read-only")
        self._value += n

    def set(self, value):
        if self._getter is not None:
            raise ConfigError(f"{self.name}: getter-backed scalar is read-only")
        self._value = value


class Vector(Stat):
    """A fixed-length family of scalars (per-bank, per-lane, ...)."""

    kind = "vector"

    def __init__(self, name, getter=None, size=None, subnames=None, desc=""):
        super().__init__(name, desc)
        if getter is None and size is None:
            raise ConfigError(f"{self.name}: stored Vector needs size=")
        self._getter = getter
        self._values = [0] * (size or 0)
        self.subnames = list(subnames) if subnames else None
        self._base = None

    def raw(self):
        if self._getter is not None:
            return list(self._getter())
        return list(self._values)

    def value(self):
        raw = self.raw()
        if self._base is None:
            return raw
        base = self._base
        return [v - (base[i] if i < len(base) else 0)
                for i, v in enumerate(raw)]

    def total(self):
        return sum(self.value())

    def reset(self):
        self._base = self.raw()

    def inc(self, index, n=1):
        if self._getter is not None:
            raise ConfigError(f"{self.name}: getter-backed vector is read-only")
        self._values[index] += n

    def _subname(self, i):
        if self.subnames and i < len(self.subnames):
            return self.subnames[i]
        return str(i)

    def lines(self):
        values = self.value()
        out = [(f"::{self._subname(i)}", v) for i, v in enumerate(values)]
        out.append(("::total", sum(values)))
        return out

    def json_value(self):
        values = self.value()
        return {self._subname(i): v for i, v in enumerate(values)}


class Formula(Stat):
    """Derived stat: ``fn`` applied to the current values of ``deps``.

    ``deps`` are names of other stats in the same registry, resolved at
    evaluation time — so a formula over reset counters reflects the ROI,
    not the whole run.  Division by zero yields 0.0 (gem5's convention of
    printing ``nan`` helps nobody downstream).
    """

    kind = "formula"

    def __init__(self, name, fn, deps=(), desc=""):
        super().__init__(name, desc)
        self._fn = fn
        self.deps = tuple(deps)

    def value(self):
        if self.registry is None:
            raise ConfigError(f"{self.name}: formula not registered")
        args = [self.registry.value(dep) for dep in self.deps]
        try:
            return self._fn(*args)
        except ZeroDivisionError:
            return 0.0
        except TypeError:
            # A dep returned None (e.g. a duration not yet measured).
            return None


class Distribution(Stat):
    """Sampled values: summary moments plus an equal-width histogram."""

    kind = "distribution"

    def __init__(self, name, desc="", buckets=8):
        super().__init__(name, desc)
        if buckets < 1:
            raise ConfigError(f"{self.name}: need at least one bucket")
        self.buckets = buckets
        self._samples = []
        self._start = 0  # reset point into _samples

    def sample(self, value):
        self._samples.append(value)

    def reset(self):
        self._start = len(self._samples)

    @property
    def samples(self):
        return self._samples[self._start:]

    def summary(self):
        """count / min / max / mean / stdev plus histogram buckets."""
        data = self.samples
        n = len(data)
        if n == 0:
            return {"count": 0, "min": None, "max": None,
                    "mean": None, "stdev": None, "histogram": []}
        lo, hi = min(data), max(data)
        mean = sum(data) / n
        var = sum((v - mean) ** 2 for v in data) / n
        if hi == lo:
            hist = [{"lo": lo, "hi": hi, "count": n}]
        else:
            width = (hi - lo) / self.buckets
            counts = [0] * self.buckets
            for v in data:
                idx = min(int((v - lo) / width), self.buckets - 1)
                counts[idx] += 1
            hist = [{"lo": lo + i * width, "hi": lo + (i + 1) * width,
                     "count": c} for i, c in enumerate(counts)]
        return {"count": n, "min": lo, "max": hi, "mean": mean,
                "stdev": math.sqrt(var), "histogram": hist}

    def value(self):
        return self.summary()

    def lines(self):
        s = self.summary()
        out = [(f"::{key}", s[key])
               for key in ("count", "min", "max", "mean", "stdev")]
        for b in s["histogram"]:
            out.append((f"::[{_fmt_num(b['lo'])},{_fmt_num(b['hi'])}]",
                        b["count"]))
        return out


class StatRegistry:
    """All stats of one simulation, keyed by dotted hierarchical name."""

    def __init__(self):
        self._stats = {}  # insertion-ordered

    # -- registration --------------------------------------------------------

    def add(self, stat):
        if stat.name in self._stats:
            raise ConfigError(f"duplicate stat {stat.name!r}")
        stat._registry = weakref.ref(self)
        self._stats[stat.name] = stat
        return stat

    def scalar(self, name, getter=None, desc="", value=0):
        return self.add(Scalar(name, getter=getter, desc=desc, value=value))

    def vector(self, name, getter=None, size=None, subnames=None, desc=""):
        return self.add(Vector(name, getter=getter, size=size,
                               subnames=subnames, desc=desc))

    def formula(self, name, fn, deps=(), desc=""):
        return self.add(Formula(name, fn, deps=deps, desc=desc))

    def distribution(self, name, desc="", buckets=8):
        return self.add(Distribution(name, desc=desc, buckets=buckets))

    # -- lookup --------------------------------------------------------------

    def __contains__(self, name):
        return name in self._stats

    def __getitem__(self, name):
        return self._stats[name]

    def __len__(self):
        return len(self._stats)

    def names(self):
        return list(self._stats)

    def value(self, name):
        return self._stats[name].value()

    def group(self, prefix):
        """{name: value} of every stat under ``prefix.`` (or equal to it)."""
        dotted = prefix + "."
        return {name: stat.value() for name, stat in self._stats.items()
                if name == prefix or name.startswith(dotted)}

    # -- per-ROI reset -------------------------------------------------------

    def reset(self):
        """Rebase every stat: values become deltas from this point.

        The region-of-interest idiom — call at ROI entry, dump at exit.
        """
        for stat in self._stats.values():
            stat.reset()

    # -- dumping -------------------------------------------------------------

    def dump_text(self):
        """A gem5-style ``stats.txt`` block."""
        lines = ["---------- Begin Simulation Statistics ----------"]
        for stat in self._stats.values():
            for suffix, value in stat.lines():
                label = stat.name + suffix
                comment = f"  # {stat.desc}" if stat.desc and not suffix \
                    else ""
                lines.append(f"{label:48s} {_fmt_num(value):>14s}{comment}")
        lines.append("---------- End Simulation Statistics   ----------")
        return "\n".join(lines)

    def to_json(self, nested=False):
        """Structured dump: flat ``{dotted_name: value}`` or a nested tree."""
        flat = {name: stat.json_value() for name, stat in self._stats.items()}
        if not nested:
            return flat
        tree = {}
        for name, value in flat.items():
            node = tree
            parts = name.split(".")
            for part in parts[:-1]:
                node = node.setdefault(part, {})
            node[parts[-1]] = value
        return tree

    def dump_json(self, path, nested=False):
        """Write :meth:`to_json` to ``path`` (canonical, trailing newline)."""
        with open(path, "w") as fh:
            json.dump(self.to_json(nested=nested), fh, indent=2,
                      sort_keys=True)
            fh.write("\n")


def _fmt_num(value):
    """gem5-ish number formatting: ints plain, floats to 6 significant."""
    if value is None:
        return "n/a"
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.6g}"
    return str(value)


def percentile(values, q):
    """The ``q``-th percentile of ``values`` by linear interpolation.

    ``q`` is in [0, 100].  Returns 0.0 for an empty sequence — service
    latency distributions start empty and dashboards want a number, not
    an exception.  Matches ``numpy.percentile``'s default method without
    importing numpy on the serving path.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q!r}")
    data = sorted(values)
    if not data:
        return 0.0
    if len(data) == 1:
        return float(data[0])
    pos = (len(data) - 1) * (q / 100.0)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    frac = pos - lo
    return float(data[lo]) + (float(data[hi]) - float(data[lo])) * frac
