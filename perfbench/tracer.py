"""Outside-in tracer for fpal.

fpal has no spans of its own, so this module wraps its functions from the
outside.  Each wrapper opens a span when the function is entered and
closes it when the function returns; a generator's span is open only
while the consumer is pulling the next item, so a lazy generator is timed
while it is consumed, not when it is created.

A wrapper replaces the function wherever fpal looks it up: the defining
module's attribute and every other fpal module that imported the same
object by name (``entailment.transition_monoid`` for instance).  Calls
made through a module attribute are therefore all seen; calls that bind
the function some other way are not.

Spans are kept in memory as a call tree: one node per (parent node,
span name), holding calls, total seconds and self seconds (total minus
the time covered by child spans).  Aggregating by path keeps memory
bounded however many millions of calls a pass makes.  ``write`` dumps
the tree as JSON at the end of the pass.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

# (module, attribute) pairs to wrap.  A name a later version of fpal no
# longer has is skipped and its metrics read 0.
TARGETS = {
    "cpo_model": [
        "check_equation", "interpretation_count", "count_monotone",
        "enumerate_monotone", "random_monotone", "eval_morphism",
    ],
    "algebra": [
        "transition_monoid", "idempotents", "maximal_subgroup_at",
        "all_subgroup_sets", "_conjugacy_classes", "subgroups",
        "normal_subgroup_sets", "composition_factors",
        "_group_divisors_with_witnesses", "divisor_witnesses_monoid",
        "simple_divisors_monoid", "algebra_report",
    ],
    "entailment": ["entails"],
    "cli": ["main", "load_config", "_load_automaton", "emit", "cmd_divisors"],
}


class _Node:
    __slots__ = ("name", "children", "calls", "total", "self_time")

    def __init__(self, name: str):
        self.name = name
        self.children = {}
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.self_time,
            "children": [c.to_json() for c in self.children.values()],
        }


class Tracer:
    def __init__(self):
        self.root = _Node("pass")
        # Each frame is [node, start, seconds covered by child spans].
        self._stack = [[self.root, 0.0, 0.0]]
        self.counts = Counter()
        self._seen_monoids = set()
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0]
        node = parent.children.get(name)
        if node is None:
            node = parent.children[name] = _Node(name)
        self._stack.append([node, perf_counter(), 0.0])

    def exit(self) -> None:
        end = perf_counter()
        node, start, covered = self._stack.pop()
        duration = end - start
        node.calls += 1
        node.total += duration
        node.self_time += duration - covered
        self._stack[-1][2] += duration

    # -- wrapping ------------------------------------------------------------

    def _function(self, fn, name, key=None, on_return=None):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name if key is None else f"{name}.{key(*args)}")
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if on_return is not None:
                on_return(result, args)
            return result

        return traced

    def _generator(self, fn, name, per_item):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    enter(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        exit_()
                    per_item()
                    yield item
            finally:
                gen.close()

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target in every loaded fpal module that holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "fpal" or n.startswith("fpal."))]
        hooks = self._hooks()
        for short, attrs in TARGETS.items():
            home = sys.modules.get(f"fpal.{short}")
            for attr in attrs:
                original = getattr(home, attr, None)
                if original is None:
                    continue
                name = f"{short}.{attr.lstrip('_')}"
                if inspect.isgeneratorfunction(original):
                    wrapper = self._generator(original, name, hooks.get(name, lambda: None))
                else:
                    key = (lambda m, *_: type(m).__name__) if name == "cpo_model.eval_morphism" else None
                    wrapper = self._function(original, name, key, hooks.get(name))
                for module in modules:
                    for held, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, held, wrapper)
        self._install_table_property()

    def _install_table_property(self) -> None:
        """Time ``TransformationMonoid.table`` when it builds the table and
        count the reads that find it built.  A span per read would cost more
        than the read itself."""
        algebra = sys.modules["fpal.algebra"]
        cls = getattr(algebra, "TransformationMonoid", None)
        prop = cls and cls.__dict__.get("table")
        if not isinstance(prop, property):
            return
        getter, counts, enter, exit_ = prop.fget, self.counts, self.enter, self.exit

        def table(monoid):
            if getattr(monoid, "_table", None) is not None:
                counts["algebra.TransformationMonoid.table.reads"] += 1
                return getter(monoid)
            enter("algebra.TransformationMonoid.table")
            try:
                return getter(monoid)
            finally:
                exit_()

        self._patch(cls, "table", property(table, doc=prop.__doc__))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def _hooks(self) -> dict:
        counts = self.counts

        def interpretations(result, _args):
            counts["cpo_model.interpretations"] += result.interpretations_checked

        def generated():
            counts["cpo_model.monotone_generated"] += 1

        def subgroups(result, _args):
            counts["algebra.subgroups_enumerated"] += len(result)

        def idempotents(result, _args):
            counts["algebra.idempotents.count"] += len(result)

        def monoid(result, _args):
            counts["algebra.monoid_elements"] += len(result.elements)

        def divisors(_result, args):
            key = tuple(t.map for t in args[0].elements)
            if key in self._seen_monoids:
                counts["algebra.divisor_witnesses_monoid.repeats"] += 1
            self._seen_monoids.add(key)

        return {
            "cpo_model.check_equation": interpretations,
            "cpo_model.enumerate_monotone": generated,
            "algebra.all_subgroup_sets": subgroups,
            "algebra.idempotents": idempotents,
            "algebra.transition_monoid": monoid,
            "algebra.divisor_witnesses_monoid": divisors,
        }

    # -- reporting -----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, self seconds, and inclusive seconds counted
        only at the outermost span of that name (so recursion is not
        counted twice).  ``eval_morphism`` spans, keyed by node type, also
        roll up under ``cpo_model.eval_morphism``."""
        out: dict = {}

        def family(name):
            return "cpo_model.eval_morphism" if name.startswith("cpo_model.eval_morphism.") else None

        def add(name, node, outermost):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += node.calls
            agg["self_s"] += node.self_time
            if outermost:
                agg["s"] += node.total

        def walk(node, open_names):
            for child in node.children.values():
                names = [child.name] + ([family(child.name)] if family(child.name) else [])
                for name in names:
                    add(name, child, name not in open_names)
                walk(child, open_names | set(names))

        walk(self.root, frozenset())
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"tree": self.root.to_json(), "counts": dict(self.counts)}, f)
