"""Per-layer tracing from outside the program.

Every hooked function is found by name in its defining module and then
wrapped at every place the package binds it: module globals such as
`game.project` or `cli.evaluate_all`, and function defaults such as the
`fit=train_gnb` that `GameSpec` captured when its class was created.  Each
call records a span (id, parent, name, start, end, info).  A hooked name
that no longer exists is recorded as absent; its metrics are left out.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass
from statistics import median

# module.function of every traced call; the module part names the layer.
HOOKED = (
    "dataset.load_csv",
    "dataset.split",
    "dataset.project",
    "model.train_gnb",
    "model.score",
    "curves.roc_from_scores",
    "curves.estimate_tpr",
    "game.evaluate_all",
    "game.evaluate_slices",
    "shapley.shapley_exact",
    "shapley.shapley_curve",
    "shapley.shapley_sampled",
    "uncertainty.mc_attributions",
    "uncertainty.mc_curves",
    "report.write_csv",
    "report.write_svg",
)
ROOT = "cli.main"
EXACT_GAMES = ("game.evaluate_all", "game.evaluate_slices")
SAMPLED_GAME = "shapley.shapley_sampled"

# (name, unit) of every per-layer metric the benchmark reports.
PER_LAYER = (
    *[(f"{h}.{stat}", unit) for h in (
        "dataset.load_csv", "dataset.split", "dataset.project",
        "model.train_gnb", "model.score",
        "curves.roc_from_scores", "curves.estimate_tpr",
        "shapley.shapley_exact",
    ) for stat, unit in (("calls", "count"), ("s", "s"))],
    ("game.evaluate_all.s", "s"),
    ("game.evaluate_slices.s", "s"),
    ("game.self_s", "s"),
    ("game.fits_per_coalition", "ratio"),
    ("game.memo_hit_ratio", "ratio"),
    ("game.degenerate", "count"),
    ("shapley.shapley_curve.s", "s"),
    ("shapley.shapley_curve.self_s", "s"),
    ("shapley.shapley_sampled.s", "s"),
    ("shapley.shapley_sampled.self_s", "s"),
    ("uncertainty.mc_attributions.s", "s"),
    ("uncertainty.mc_curves.s", "s"),
    ("uncertainty.self_s", "s"),
    *[(f"{h}.{stat}", unit) for h in ("report.write_csv", "report.write_svg")
      for stat, unit in (("calls", "count"), ("s", "s"), ("bytes", "B"))],
    ("cli.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    info: float | None = None   # coalitions requested by a game, bytes written by a report

    @property
    def duration(self) -> float:
        return self.end - self.start


def _game_size(args, kwargs) -> int:
    """Coalition payoffs an exact game requests: 2^n − 1."""
    spec = args[0] if args else kwargs["spec"]
    return (1 << spec.n) - 1


def _sampled_size(args, kwargs) -> int:
    """Coalition payoffs a sampled game requests: n per permutation."""
    spec = args[0] if args else kwargs["spec"]
    samples = args[1] if len(args) > 1 else kwargs["samples"]
    return spec.n * int(samples)


def _written_bytes(args, kwargs) -> int:
    return os.path.getsize(args[0] if args else kwargs["path"])


INFO = {
    "game.evaluate_all": _game_size,
    "game.evaluate_slices": _game_size,
    SAMPLED_GAME: _sampled_size,
    "report.write_csv": _written_bytes,
    "report.write_svg": _written_bytes,
}


def package_modules() -> dict:
    """Loaded modules of the curveshap package, by short name."""
    return {name.rpartition(".")[2]: module for name, module in list(sys.modules.items())
            if name == "curveshap" or name.startswith("curveshap.")}


class Tracer:
    """Records spans around hooked calls while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._next = 0
        self._undo: list = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run `fn` inside a span called `name`."""
        span_id, self._next = self._next, self._next + 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            info = None
            if name in INFO:
                try:
                    info = INFO[name](args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    info = None
            self.spans.append(Span(span_id, parent, name, start, end, info))

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def install(self, modules: dict) -> None:
        """Wrap every binding of each HOOKED function in `modules` (short name → module)."""
        for name in HOOKED:
            home, attr = name.split(".")
            original = getattr(modules.get(home), attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            traced = self._wrap(name, original)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, traced)
                    elif isinstance(value, type):
                        self._patch_defaults(getattr(value, "__init__", None), original, traced)

    def _patch(self, module, key, value) -> None:
        old = getattr(module, key)
        setattr(module, key, value)
        self._undo.append(lambda: setattr(module, key, old))

    def _patch_defaults(self, fn, original, traced) -> None:
        defaults = getattr(fn, "__defaults__", None)
        if defaults and any(d is original for d in defaults):
            fn.__defaults__ = tuple(traced if d is original else d for d in defaults)
            self._undo.append(lambda: setattr(fn, "__defaults__", defaults))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def aggregate(spans: list[Span], absent=(), degenerate: int = 0) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    A span's self time is its duration minus its children's durations; a
    layer's self time sums that over the spans of the layer's module, and
    `cli.self_s` is the root span's own.
    """
    by_id = {s.id: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration

    def self_time(s: Span) -> float:
        return s.duration - child_time.get(s.id, 0.0)

    def under(s: Span, names) -> bool:
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name in names:
                return True
        return False

    out: dict[str, float] = {}
    for name in HOOKED:
        if name in absent:
            continue
        mine = [s for s in spans if s.name == name]
        out[f"{name}.calls"] = len(mine)
        out[f"{name}.s"] = sum(s.duration for s in mine)
        out[f"{name}.self_s"] = sum(self_time(s) for s in mine)
        if name.startswith("report."):
            out[f"{name}.bytes"] = sum(s.info or 0 for s in mine)
    for layer in {name.split(".")[0] for name in HOOKED}:
        out[f"{layer}.self_s"] = sum(self_time(s) for s in spans if s.name.startswith(layer + "."))
    out["cli.self_s"] = sum(self_time(s) for s in spans if s.name == ROOT)

    games = [g for g in (*EXACT_GAMES, SAMPLED_GAME) if g not in absent]
    if "model.train_gnb" not in absent and games:
        requested = sum(s.info or 0 for s in spans if s.name in games)
        fits = sum(1 for s in spans if s.name == "model.train_gnb" and under(s, games))
        out["game.fits_per_coalition"] = fits / requested if requested else 0.0
    if "curves.roc_from_scores" not in absent and SAMPLED_GAME not in absent:
        requested = sum(s.info or 0 for s in spans if s.name == SAMPLED_GAME)
        curves = sum(1 for s in spans
                     if s.name == "curves.roc_from_scores" and under(s, (SAMPLED_GAME,)))
        out["game.memo_hit_ratio"] = 1.0 - curves / requested if requested else 0.0
    out["game.degenerate"] = degenerate
    return out


def summarize(traced: list[dict], traced_wall: list[float], untraced_wall: list[float]):
    """Median of each per-layer metric over traced runs, plus the tracing overhead."""
    keys = set().union(*traced) if traced else set()
    out = {k: median(run[k] for run in traced if k in run) for k in keys}
    out["trace.wall_s"] = median(traced_wall)
    out["trace.overhead_s"] = median(traced_wall) - median(untraced_wall)
    return out
