"""Spans around calls into randaudit's modules, recorded from outside.

A span is (name, parent, start, end).  The tracer wraps a module's public
functions and methods at the places other modules (or the workloads)
reach them: the class attribute for a method, the importing module's
global for a function imported by name, a stand-in namespace for a module
imported whole.  A call made while a span of the same layer is open is a
call inside that module and records nothing, so each span marks one
crossing of a layer boundary.

Spans live in flat arrays until the run ends; counts are read from the
program's public state (``words_emitted``, ``HashCounterGenerator.counter``,
``RandomSource.draws``, ``Sample.words``/``Sample.draws``) around the
calls that move them.
"""

from __future__ import annotations

import builtins
import sys
import time
import types
from array import array

LAYERS = ("generators", "integers", "sampling", "pathenum", "bounds", "audit", "cli", "stats")


class ImportTimer:
    """Seconds spent in imports that load new modules, outermost only."""

    def __init__(self):
        self.seconds = 0.0
        self._active = False

    def __enter__(self):
        self._original = original = builtins.__import__

        def timed_import(*args, **kwargs):
            if self._active:
                return original(*args, **kwargs)
            loaded = len(sys.modules)
            self._active = True
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self._active = False
                if len(sys.modules) > loaded:
                    self.seconds += time.perf_counter() - t0

        builtins.__import__ = timed_import
        return self

    def __exit__(self, *exc):
        builtins.__import__ = self._original


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]  # open spans, each as span index << 4 | layer index
        self.counts = dict.fromkeys(
            ("words", "blocks", "draws", "draw_words", "draw_ns", "word_ns", "ri_draws", "ri_items"), 0
        )

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, name: str, fn, hook=None):
        """``fn`` recording one span per call from outside its layer.

        ``hook`` is a pair ``(probe, count)``: ``probe(args)`` reads the
        program's state before the call, ``count(args, kwargs, result,
        state, duration_ns)`` after it, both outside the span's clock.
        """
        layer = LAYERS.index(name.split(":")[0])
        nid = self._name_id(name)
        stack, push, pop, clock = self._stack, self._stack.append, self._stack.pop, time.perf_counter_ns
        add_name, add_parent = self.name.append, self.parent.append
        add_start, add_end, ends = self.start.append, self.end.append, self.end
        probe, count = hook or (None, None)

        def traced(*args, **kwargs):
            top = stack[-1]
            if top & 15 == layer:
                return fn(*args, **kwargs)
            state = probe(args) if probe else None
            i = len(ends)
            add_name(nid)
            add_parent(top >> 4)
            add_end(0)
            push(i << 4 | layer)
            t0 = clock()
            add_start(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = t1 = clock()
                pop()
            if count:
                count(args, kwargs, result, state, t1 - t0)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, hook=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), hook))

    # -- count hooks (public state only) -------------------------------------

    def _word_hook(self, hash_class):
        """Words a generator call emitted; hash blocks when it is a hash counter."""
        counts = self.counts

        def probe(args):
            gen = args[0]
            return gen.words_emitted, gen.counter if isinstance(gen, hash_class) else 0

        def count(args, kwargs, result, state, ns):
            gen = args[0]
            counts["words"] += gen.words_emitted - state[0]
            counts["word_ns"] += ns
            if isinstance(gen, hash_class):
                counts["blocks"] += gen.counter - state[1]

        return probe, count

    def _draw_hook(self, source_method: bool):
        """A draw through RandomSource.randint, or a direct kernel call
        randint_*(gen, m), which is one draw by definition."""
        counts = self.counts

        def probe(args):
            if source_method:
                return args[0].draws, args[0].gen.words_emitted
            return 0, args[0].words_emitted

        def count(args, kwargs, result, state, ns):
            if source_method:
                counts["draws"] += args[0].draws - state[0]
                counts["draw_words"] += args[0].gen.words_emitted - state[1]
            else:
                counts["draws"] += 1
                counts["draw_words"] += args[0].words_emitted - state[1]
            counts["draw_ns"] += ns

        return probe, count

    def _sample_hook(self, algorithm):
        """Duplicate-rejection waste of random_indices, from the Sample it returns.

        ``algorithm`` is the sampler's tag, or a function of the call's
        arguments giving it (for SampleSpec.run)."""
        counts = self.counts

        def count(args, kwargs, result, state, ns):
            if callable(algorithm):
                algo, replacement = algorithm(args), args[0].with_replacement
            else:
                algo = algorithm
                replacement = args[3] if len(args) > 3 else kwargs.get("with_replacement", False)
            if algo == "random_indices" and not replacement:
                counts["ri_draws"] += result.draws
                counts["ri_items"] += len(result.items)

        return None, count

    # -- installation ------------------------------------------------------

    def install(self, api) -> None:
        """Wrap every boundary crossing the workloads can reach, for the
        rest of the process."""
        from randaudit import audit, bounds, cli, generators, integers, pathenum, sampling

        for cls in (
            generators.Generator,
            generators.LcgGenerator,
            generators.WichmannHillGenerator,
            generators.Mt19937Generator,
            generators.HashCounterGenerator,
            generators.ScriptedGenerator,
        ):
            for meth in ("next_word", "words", "next_fraction"):
                if meth in vars(cls) and not (cls is generators.Generator and meth == "next_word"):
                    hook = self._word_hook(generators.HashCounterGenerator)
                    self.patch(cls, meth, f"generators:{cls.__name__}.{meth}", hook)
        self.patch(audit, "full_period", "generators:full_period")

        self.patch(integers.RandomSource, "randint", "integers:RandomSource.randint", self._draw_hook(True))
        for meth in ("fraction", "fraction_nonzero"):
            self.patch(integers.RandomSource, meth, f"integers:RandomSource.{meth}")
        self.patch(audit, "randint_mask", "integers:randint_mask", self._draw_hook(False))
        self.patch(audit, "floor_even_probability", "integers:floor_even_probability")
        for fn in ("randint_floor", "randint_round", "randint_mask"):
            self.patch(cli, fn, f"integers:{fn}", self._draw_hook(False))
        self.patch(api, "exact_distribution", "integers:exact_distribution")
        self.patch(api, "floor_even_probability", "integers:floor_even_probability")

        for fn in ("fisher_yates", "random_indices", "reservoir_r"):
            self.patch(audit, fn, f"sampling:{fn}", self._sample_hook(fn))
        for fn in ("cormen_sample", "fisher_yates", "pikk", "random_indices", "reservoir_r", "vitter_z"):
            self.patch(pathenum, fn, f"sampling:{fn}", self._sample_hook(fn))
        self.patch(
            sampling.SampleSpec, "run", "sampling:SampleSpec.run", self._sample_hook(lambda args: args[0].algorithm)
        )

        self.patch(api, "exact_subset_distribution", "pathenum:exact_subset_distribution")
        self.patch(api, "exact_permutation_distribution", "pathenum:exact_permutation_distribution")

        stand_in = types.SimpleNamespace(**vars(bounds))
        for fn in bounds.__all__:
            if isinstance(getattr(bounds, fn), types.FunctionType):
                self.patch(stand_in, fn, f"bounds:{fn}")
        audit.bounds = cli.bounds_mod = stand_in
        self.patch(api, "table1_report", "bounds:table1_report")

        for fn in ("murdoch_experiment", "calibration", "permutation_coverage"):
            self.patch(api, fn, f"audit:{fn}")
        # audit imports scipy.stats inside the call, so its names are looked
        # up there each time; only workloads that loaded it during set-up use it
        stats = sys.modules.get("scipy.stats")
        if stats is not None:
            for fn in ("binomtest", "chisquare"):
                self.patch(stats, fn, f"stats:{fn}")

        self.patch(api, "cli_main", "cli:main")

    # -- aggregation -------------------------------------------------------

    def mark(self) -> int:
        """Start a round: the index of its first span; counts restart at 0."""
        for key in self.counts:
            self.counts[key] = 0
        return len(self.end)

    def summarize(self, first: int) -> dict:
        """Per-layer figures of the spans recorded since ``first``."""
        import numpy as np

        name = np.frombuffer(self.name, dtype=np.uint16)[first:]
        parent = np.frombuffer(self.parent, dtype=np.int32)[first:].astype(np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64))[first:]
        layer_of_name = np.array([LAYERS.index(n.split(":")[0]) for n in self.names], dtype=np.int64)
        layer = layer_of_name[name]
        nested = parent >= first
        child_ns = np.bincount(parent[nested] - first, weights=dur[nested], minlength=len(dur))
        self_ns = np.bincount(layer, weights=dur - child_ns, minlength=len(LAYERS))
        parent_layer = np.where(nested, layer[np.maximum(parent - first, 0)], -1)
        sampling, pathenum = LAYERS.index("sampling"), LAYERS.index("pathenum")
        samplers = layer == sampling
        calls = int(np.count_nonzero(samplers))

        c = self.counts
        return {
            "self_s": {n: float(self_ns[i]) / 1e9 for i, n in enumerate(LAYERS)},
            "generators.words": c["words"],
            "generators.ns_per_word": c["word_ns"] / c["words"] if c["words"] else 0.0,
            "generators.hash_blocks": c["blocks"],
            "integers.draws": c["draws"],
            "integers.words_per_draw": c["draw_words"] / c["draws"] if c["draws"] else 0.0,
            "integers.ns_per_draw": c["draw_ns"] / c["draws"] if c["draws"] else 0.0,
            "sampling.calls": calls,
            "sampling.us_per_call": float(dur[samplers].sum()) / 1e3 / calls if calls else 0.0,
            "sampling.draws_per_item": c["ri_draws"] / c["ri_items"] if c["ri_items"] else 0.0,
            "pathenum.replays": int(np.count_nonzero(samplers & (parent_layer == pathenum))),
        }

    def save(self, path) -> None:
        """Write every span of the run as one numpy archive."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )
