"""Outside-in span recording for gfdmsim: wraps public functions at their module attributes.

Each wrapped call records one span (name, start, end, parent). Spans live in
memory until :meth:`Tracer.write` dumps them once at exit. The program is
single-threaded, so spans nest strictly and a span's self time is its
duration minus the durations of its direct children; no layer waits on
another.
"""

import time
from contextlib import contextmanager

# (module attribute that the sweep looks up, function name, span name).
# simulate imports compute_blocks and receive_transform by name, so they are
# wrapped in gfdmsim.simulate; every other call site looks the function up on
# its defining module (detect's own calls to sqrd and sphere_decode resolve
# through detect's globals, which are the module attributes).
TRACED = (
    ("waveform", "fast_modulate", "waveform.fast_modulate"),
    ("waveform", "build_transmitter_matrix", "waveform.build_transmitter_matrix"),
    ("channel", "generate_channel", "channel.generate_channel"),
    ("channel", "apply_channel", "channel.apply_channel"),
    ("channel", "assemble_full_matrix", "channel.assemble_full_matrix"),
    ("channel", "snr_db_to_noise_power", "channel.snr_db_to_noise_power"),
    ("simulate", "compute_blocks", "decoupling.compute_blocks"),
    ("simulate", "receive_transform", "decoupling.receive_transform"),
    ("detect", "factorize_blocks", "detect.factorize_blocks"),
    ("detect", "baseline_factorization", "detect.baseline_factorization"),
    ("detect", "sqrd", "detect.sqrd"),
    ("detect", "sphere_decode", "detect.sphere_decode"),
    ("detect", "detect_proposed", "detect.detect_proposed"),
    ("detect", "detect_baseline_near_ml", "detect.detect_baseline_near_ml"),
    ("detect", "detect_ofdm", "detect.detect_ofdm"),
    ("simulate", "run_sweep", "simulate.run_sweep"),
)

ROOT = "simulate.run_sweep"


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = []

    def _wrap(self, fn, name):
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack,
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return traced

    @contextmanager
    def installed(self, package):
        """Wrap every TRACED function of ``package`` for the duration of the block."""
        saved = []
        try:
            for mod_name, attr, span_name in TRACED:
                module = getattr(package, mod_name)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, span_name))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def roots(self) -> list[int]:
        """Indices of the top-level run_sweep spans, one per traced sweep."""
        return [i for i, p in enumerate(self.parents) if p == -1 and self.names[i] == ROOT]

    def sweep_summary(self, root: int) -> dict:
        """Per-key self time and call counts, and realization times, for one sweep.

        ``detect.sqrd`` is also split by its parent span, as
        ``detect.sqrd.in_<parent function>``.
        """
        end = len(self.names)
        later = [r for r in self.roots() if r > root]
        if later:
            end = later[0]
        dur = {i: self.ends[i] - self.starts[i] for i in range(root, end)}
        child = dict.fromkeys(dur, 0.0)
        for i in range(root + 1, end):
            child[self.parents[i]] += dur[i]
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i in range(root, end):
            keys = [self.names[i]]
            if keys[0] == "detect.sqrd":
                parent = self.names[self.parents[i]].rsplit(".", 1)[1]
                keys.append(f"detect.sqrd.in_{parent}")
            for key in keys:
                self_s[key] = self_s.get(key, 0.0) + dur[i] - child[i]
                calls[key] = calls.get(key, 0) + 1
        # a realization runs from its channel draw to the next draw, the next
        # SNR point's set-up, or the end of the sweep
        marks = [
            (self.starts[i], self.names[i] == "channel.generate_channel")
            for i in range(root + 1, end)
            if self.parents[i] == root
            and self.names[i] in ("channel.generate_channel", "channel.snr_db_to_noise_power")
        ]
        marks.append((self.ends[root], False))
        realizations = [
            nxt[0] - cur[0] for cur, nxt in zip(marks, marks[1:]) if cur[1]
        ]
        return {"self_s": self_s, "calls": calls, "realizations_s": realizations}

    def write(self, path: str) -> None:
        """Dump every span as tab-separated index, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{name}\t{self.starts[i]!r}\t{self.ends[i]!r}\t{self.parents[i]}\n")
