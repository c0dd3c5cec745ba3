"""Deterministic work counts: Python calls per layer via ``sys.setprofile``.

Every Python-level call (``call`` event, including each resumption of a
generator) is attributed to the layer whose module defines the called
code; C calls are counted in total.  The counts depend only on the
inputs, so two runs on the same seed give identical numbers - the noise
free companion of the wall-clock self times.
"""

from __future__ import annotations

import sys
from typing import Callable

from perfbench.layers import layer_of


class CallCounts:
    """Python calls per layer plus the C-call total of one profiled run."""

    def __init__(self) -> None:
        self.python: dict[str, int] = {}
        self.c_calls = 0

    def profile(self, fn: Callable[[], object]) -> object:
        """Run ``fn()`` under the profiler, adding to these counts."""
        python = self.python
        layer_by_code: dict[object, str] = {}
        c_calls = 0

        def on_event(frame, event, arg):
            nonlocal c_calls
            if event == "call":
                code = frame.f_code
                layer = layer_by_code.get(code)
                if layer is None:
                    layer = layer_by_code[code] = layer_of(
                        frame.f_globals.get("__name__"),
                        getattr(code, "co_qualname", code.co_name),
                        code.co_filename)
                python[layer] = python.get(layer, 0) + 1
            elif event == "c_call":
                c_calls += 1

        sys.setprofile(on_event)
        try:
            return fn()
        finally:
            sys.setprofile(None)
            self.c_calls += c_calls
