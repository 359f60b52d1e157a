"""The stage graph: explicit dataflow for the daily pipeline.

``Kizzle.process_day`` is a linear graph of first-class :class:`Stage`
objects with declared inputs (``requires``) and outputs (``provides``) over
a shared context dictionary.  There is one graph with one implementation
per stage: the warm path's shedding and carry-forward are settings the
stages read, not substituted stages or a duplicated day loop.

Two stage flavours exist:

* **context stages** (``over is None``): ``fn(context)`` runs once, reading
  its declared inputs from the context and writing its declared outputs
  back;
* **itemized stages** (``over="key"``): ``fn(context, item, carry)`` runs
  once per element of ``context[key]``.  Consecutive itemized stages over
  the same key form a *chain* executed depth-first per item — item ``i``
  flows through the whole chain before item ``i+1`` starts.  This is
  load-bearing for the label → compile stages: compiling cluster ``i``
  feeds the corpus that labeling cluster ``i+1`` winnows against, so a
  barrier between the stages would change labels.  ``carry`` threads each
  item's intermediate value down the chain (``None`` at the first stage).

The graph records wall-clock seconds per stage on every run
(:attr:`StageGraph.last_walls`), which the pipeline surfaces through
``DailyResult.timing.wall_stage_seconds`` — itemized stages in a chain are
timed individually, so label and compile costs stay attributable even
though they interleave.  A context stage may additionally return a mapping
of sub-stage walls (``{"map": seconds}``), recorded as dotted entries
(``cluster.map``) alongside its own wall — this is how the cluster stage
attributes the partition-parallel map's pool time inside its total without
the graph knowing anything about execution backends.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, \
    Tuple


class StageGraphError(ValueError):
    """A structurally invalid graph or a stage contract violation."""


@dataclass
class Stage:
    """One named unit of pipeline work with a declared dataflow contract.

    Attributes
    ----------
    name:
        Unique stage name; the key under which wall time is recorded.
    fn:
        ``fn(context)`` for context stages — optionally returning a
        ``{sub_name: seconds}`` mapping recorded as ``name.sub_name`` wall
        entries; ``fn(context, item, carry)`` returning the next ``carry``
        for itemized stages.
    requires / provides:
        Context keys the stage reads / writes.  Validated on every run:
        a stage whose requirements are not provided by the initial context
        or an earlier stage fails fast, as does a stage that finishes
        without having written what it promised.
    over:
        Context key holding the item sequence for itemized stages.
    """

    name: str
    fn: Callable
    requires: Tuple[str, ...] = ()
    provides: Tuple[str, ...] = ()
    over: Optional[str] = None


@dataclass
class StageGraph:
    """An ordered stage pipeline with validated dataflow."""

    stages: Sequence[Stage]
    last_walls: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [stage.name for stage in self.stages]
        if len(set(names)) != len(names):
            raise StageGraphError(f"duplicate stage names in {names}")

    # ------------------------------------------------------------------
    def validate(self, initial: Iterable[str]) -> None:
        """Check that every stage's inputs are satisfiable in order."""
        available = set(initial)
        for stage in self.stages:
            needed = set(stage.requires)
            if stage.over is not None:
                needed.add(stage.over)
            missing = needed - available
            if missing:
                raise StageGraphError(
                    f"stage {stage.name!r} requires {sorted(missing)} "
                    f"which no earlier stage provides")
            available.update(stage.provides)

    # ------------------------------------------------------------------
    def run(self, context: Dict[str, Any]) -> Dict[str, float]:
        """Execute the graph over ``context``; returns wall seconds per stage.

        The context is mutated in place.  Itemized chains (consecutive
        stages sharing an ``over`` key) run depth-first per item.
        """
        self.validate(context.keys())
        walls: Dict[str, float] = {stage.name: 0.0 for stage in self.stages}
        index = 0
        stages = list(self.stages)
        while index < len(stages):
            stage = stages[index]
            if stage.over is None:
                started = time.perf_counter()
                sub_walls = stage.fn(context)
                walls[stage.name] += time.perf_counter() - started
                if isinstance(sub_walls, dict):
                    for sub_name, seconds in sub_walls.items():
                        key = f"{stage.name}.{sub_name}"
                        walls[key] = walls.get(key, 0.0) + float(seconds)
                self._check_provides(stage, context)
                index += 1
                continue
            chain = [stage]
            index += 1
            while index < len(stages) and stages[index].over == stage.over:
                chain.append(stages[index])
                index += 1
            for item in list(context[stage.over]):
                carry: Any = None
                for link in chain:
                    started = time.perf_counter()
                    carry = link.fn(context, item, carry)
                    walls[link.name] += time.perf_counter() - started
            for link in chain:
                self._check_provides(link, context)
        self.last_walls = walls
        return walls

    @staticmethod
    def _check_provides(stage: Stage, context: Dict[str, Any]) -> None:
        missing = [key for key in stage.provides if key not in context]
        if missing:
            raise StageGraphError(
                f"stage {stage.name!r} finished without providing {missing}")

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """A compact multi-line rendering of the graph's dataflow.

        Used by the README example and ``examples/backend_comparison.py``;
        one line per stage::

            shed[samples, date -> survivors, ...]
        """
        lines: List[str] = []
        for stage in self.stages:
            flow = ""
            if stage.requires or stage.provides:
                flow = "[{} -> {}]".format(
                    ", ".join(stage.requires) or "-",
                    ", ".join(stage.provides) or "-")
            marker = f" (per {stage.over})" if stage.over else ""
            lines.append(f"{stage.name}{flow}{marker}")
        return "\n".join(lines)

    def names(self) -> List[str]:
        return [stage.name for stage in self.stages]
