"""The paper's evaluation, one harness per table/figure — and the one
list of them.

:data:`EXPERIMENTS` maps an artefact name to its title, the parts it is
computed from (zero-argument callables that carry the paper-scale
arguments — stated here and nowhere else) and the renderer that takes
those parts.  ``newton-repro experiment <name>`` prints
``render(*run())``; ``benchmarks/bench_<name>.py`` times the same
``run()``, prints the same text and asserts the paper's claims on the
parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Tuple

from repro.experiments.ablations import (
    ablate_admission,
    ablate_layout,
    ablate_placement,
    ablate_sketch_shape,
    render_ablations,
)
from repro.experiments.exp_control_scaling import (
    control_scaling,
    render_control_scaling,
    service_scaling,
)
from repro.experiments.exp_fig7 import figure7, render_figure7
from repro.experiments.exp_fig10 import figure10a, figure10b, render_figure10
from repro.experiments.exp_fig11 import figure11, render_figure11
from repro.experiments.exp_fig12 import figure12, render_figure12
from repro.experiments.exp_fig13 import figure13, render_figure13
from repro.experiments.exp_fig14 import figure14, render_figure14
from repro.experiments.exp_fig15 import (
    figure15,
    figure15_sonata,
    render_figure15,
)
from repro.experiments.exp_fig16 import figure16, render_figure16
from repro.experiments.exp_fig17 import figure17a, figure17b, render_figure17
from repro.experiments.exp_table3 import render_table3, table3

__all__ = ["EXPERIMENTS", "Experiment"]


@dataclass(frozen=True)
class Experiment:
    """One artefact of the evaluation."""

    title: str
    render: Callable[..., str]
    parts: Tuple[Callable[[], Any], ...]

    def run(self) -> Tuple[Any, ...]:
        """Every part at paper scale: the arguments ``render`` takes."""
        return tuple(part() for part in self.parts)


EXPERIMENTS: Dict[str, Experiment] = {
    "table3": Experiment(
        "Table 3: data-plane resource usage", render_table3, (table3,)),
    "fig7": Experiment(
        "Figure 7: compilation reduction ratios", render_figure7,
        (figure7,)),
    "fig10": Experiment(
        "Figure 10: Sonata update interruption", render_figure10,
        (figure10a, figure10b)),
    "fig11": Experiment(
        "Figure 11: query operation delay", render_figure11,
        (partial(figure11, repetitions=100),)),
    "fig12": Experiment(
        "Figure 12: monitoring overhead comparison", render_figure12,
        (partial(figure12, n_packets=20_000, duration_s=0.5),)),
    "fig13": Experiment(
        "Figure 13: overhead vs path length", render_figure13, (figure13,)),
    "fig14": Experiment(
        "Figure 14: accuracy vs register budget", render_figure14,
        (figure14,)),
    "fig15": Experiment(
        "Figure 15: compilation evaluation", render_figure15,
        (figure15, figure15_sonata)),
    "fig16": Experiment(
        "Figure 16: concurrent-query multiplexing", render_figure16,
        (figure16,)),
    "fig17": Experiment(
        "Figure 17: network-wide placement", render_figure17,
        (figure17a, figure17b)),
    "ablations": Experiment(
        "design-choice ablations (beyond paper)", render_ablations,
        (ablate_layout, ablate_placement, ablate_sketch_shape,
         ablate_admission)),
    "control-scaling": Experiment(
        "control-op scaling: update_query vs resident queries (beyond "
        "paper)", render_control_scaling,
        (control_scaling, service_scaling)),
}
