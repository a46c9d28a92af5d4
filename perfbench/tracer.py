"""Span tracer for traced benchmark runs.

The tracer wraps the public functions of galab's modules from outside: each
module attribute that holds one of those functions is replaced by a wrapper
that records a span (name, parent span, start, end).  A name imported by
value into another module, such as ``galab.extensions.quotient``, is a
separate attribute holding the same function object, so it is replaced where
it is looked up as well.  Spans stay in memory in flat arrays; self times and
the per-layer metrics are computed from them at the end.

Nothing under ``src/`` is changed: uninstall() puts every original back.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = ("cli", "classifier", "quadfields", "finabelian", "extensions", "descriptors")

_SPLIT_SOURCES = {
    "builtin_table": "classifier.split.builtin",
    "user_supplied": "classifier.split.user",
    "forced_trivial": "classifier.split.forced_trivial",
}


class Tracer:
    """Records spans around calls into galab's layers while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []
        self._targets: list[object] = []  # quotient C of the enumerations in progress

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        self.span_name.append(name_id)
        self.span_parent.append(self.current)
        self.end.append(0.0)
        self.current = sid
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.current = self.span_parent[sid]

    @contextlib.contextmanager
    def root(self, name: str):
        """A root span, such as one benchmark op."""
        sid = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, fn, name: str, before=None, after=None):
        name_id = self._name_id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                close(sid)
                if after is not None:
                    after(None, exc)
                raise
            close(sid)
            if after is not None:
                after(result, None)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of every layer, wherever it is looked up."""
        modules = {layer: sys.modules[f"galab.{layer}"] for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                before, after = self._hooks(f"{layer}.{attr}")
                wrappers[id(fn)] = self._wrap(fn, f"{layer}.{attr}", before, after)
        holders = [m for name, m in sys.modules.items() if name == "galab" or name.startswith("galab.")]
        for mod in holders:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._replace(mod, attr, wrappers[id(value)])
        # enumerate_extensions iterates partitions_desc from its own namespace;
        # counting there leaves the generator's internal recursion alone.
        ext = modules["extensions"]
        self._replace(ext, "partitions_desc", self._counting(ext.partitions_desc))

    def _replace(self, mod, attr: str, value) -> None:
        self._restore.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _counting(self, gen_fn):
        counts = self.counts

        @functools.wraps(gen_fn)
        def wrapper(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                counts["extensions.partitions_considered"] += 1
                yield item

        return wrapper

    def _hooks(self, name: str):
        """(before, after) callbacks that record counts at a layer boundary."""
        counts = self.counts
        targets = self._targets
        if name == "classifier.resolve_split_data":
            def after(result, exc):
                if result is not None:
                    counts[_SPLIT_SOURCES[result.source.value]] += 1
                elif type(exc).__name__ == "SplitDataUnavailable":
                    counts["classifier.split.unavailable"] += 1
            return None, after
        if name == "quadfields.reduced_forms":
            def after(result, exc):
                if result is not None:
                    counts["quadfields.reduced_forms.forms"] += len(result)
            return None, after
        if name == "finabelian.subgroups_isomorphic_to":
            def after(result, exc):
                if result is not None:
                    counts["finabelian.subgroups_isomorphic_to.returned"] += len(result)
            return None, after
        if name == "finabelian.quotient":
            def after(result, exc):
                if targets and result is not None:
                    counts["extensions.quotient_tests"] += 1
                    counts["extensions.quotient_hits"] += result == targets[-1]
            return None, after
        if name == "extensions.enumerate_extensions":
            def before(args, kwargs):
                spec = args[0] if args else kwargs["spec"]
                targets.append(spec.quotient_group)

            def after(result, exc):
                targets.pop()
                if result is not None:
                    counts["extensions.survivors"] += len(result.classes)
            return before, after
        return None, None

    # -- results -----------------------------------------------------------

    def state(self) -> dict:
        """Plain-data copy of the spans and counts (for a child process to hand back)."""
        return {
            "names": self.names,
            "span_name": self.span_name.tolist(),
            "span_parent": self.span_parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counts": dict(self.counts),
        }

    def merge(self, state: dict) -> None:
        """Append the spans and counts of another tracer's state()."""
        offset = len(self.start)
        remap = [self._name_id(n) for n in state["names"]]
        self.span_name.extend(remap[i] for i in state["span_name"])
        self.span_parent.extend(p + offset if p >= 0 else -1 for p in state["span_parent"])
        self.start.extend(state["start"])
        self.end.extend(state["end"])
        self.counts.update(state["counts"])

    def write(self, path: Path) -> None:
        """Write the span log as gzipped CSV: id, parent, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.span_parent[i]},{self.names[self.span_name[i]]},"
                    f"{self.start[i]!r},{self.end[i]!r}\n"
                )

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parents = self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(n):
            k = self.span_name[i]
            calls[k] += 1
            incl[k] += dur[i]
            own[k] += dur[i] - child[i]
        return {name: (calls[k], incl[k], own[k]) for k, name in enumerate(self.names)}

    def nested_time(self, name: str, ancestor: str) -> float:
        """Inclusive time of `name` spans that run inside an `ancestor` span."""
        if name not in self._ids or ancestor not in self._ids:
            return 0.0
        want, anc = self._ids[name], self._ids[ancestor]
        total = 0.0
        for i in range(len(self.start)):
            if self.span_name[i] != want:
                continue
            p = self.span_parent[i]
            while p >= 0 and self.span_name[p] != anc:
                p = self.span_parent[p]
            if p >= 0:
                total += self.end[i] - self.start[i]
        return total

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of the benchmark (import times are added by the caller)."""
        t = self.totals()
        c = self.counts

        def calls(name):
            return t.get(name, (0, 0.0, 0.0))[0]

        def incl(name):
            return t.get(name, (0, 0.0, 0.0))[1]

        def own(name):
            return t.get(name, (0, 0.0, 0.0))[2]

        forms = c["quadfields.reduced_forms.forms"]
        tests = c["extensions.quotient_tests"]
        return {
            "cli.main.self_s": own("cli.main"),
            "classifier.classify_field.calls": calls("classifier.classify_field"),
            "classifier.classify_field.self_s": own("classifier.classify_field"),
            "classifier.split.builtin": c["classifier.split.builtin"],
            "classifier.split.user": c["classifier.split.user"],
            "classifier.split.forced_trivial": c["classifier.split.forced_trivial"],
            "classifier.split.unavailable": c["classifier.split.unavailable"],
            "quadfields.reduced_forms.s": incl("quadfields.reduced_forms"),
            "quadfields.reduced_forms.forms": forms,
            "quadfields.compose.calls": calls("quadfields.compose"),
            "quadfields.compose.s": incl("quadfields.compose"),
            "quadfields.form_power.calls": calls("quadfields.form_power"),
            "quadfields.form_power.s": incl("quadfields.form_power"),
            "quadfields.reduce_form.calls": calls("quadfields.reduce_form"),
            "quadfields.compose_per_form": calls("quadfields.compose") / forms if forms else 0.0,
            "quadfields.class_group.self_s": own("quadfields.class_group"),
            "quadfields.is_fundamental.s": incl("quadfields.is_fundamental"),
            "finabelian.subgroups_isomorphic_to.calls": calls("finabelian.subgroups_isomorphic_to"),
            "finabelian.subgroups_isomorphic_to.s": incl("finabelian.subgroups_isomorphic_to"),
            "finabelian.subgroups_isomorphic_to.returned": c["finabelian.subgroups_isomorphic_to.returned"],
            "finabelian.quotient.calls": calls("finabelian.quotient"),
            "finabelian.quotient.s": incl("finabelian.quotient"),
            "finabelian.smith_normal_form.calls": calls("finabelian.smith_normal_form"),
            "finabelian.smith_normal_form.s": incl("finabelian.smith_normal_form"),
            "finabelian.span_elements.s": incl("finabelian.span_elements"),
            "finabelian.generating_subset.s": incl("finabelian.generating_subset"),
            "extensions.enumerate_extensions.calls": calls("extensions.enumerate_extensions"),
            "extensions.enumerate_extensions.s": incl("extensions.enumerate_extensions"),
            "extensions.partitions_considered": c["extensions.partitions_considered"],
            "extensions.survivors": c["extensions.survivors"],
            "extensions.quotient_hit_ratio": c["extensions.quotient_hits"] / tests if tests else 0.0,
            "extensions.verify_diagram.enumeration_s": self.nested_time(
                "extensions.enumerate_extensions", "extensions.verify_diagram"
            ),
            "extensions.verify_diagram.self_s": own("extensions.verify_diagram"),
            "descriptors.from_text.s": incl("descriptors.descriptor_from_text"),
            "descriptors.dual.s": incl("descriptors.dual_profinite") + incl("descriptors.dual_discrete"),
            "descriptors.truncate.s": incl("descriptors.truncate"),
        }
