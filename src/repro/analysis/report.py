"""One-shot report generation: every experiment in a single document.

``generate_report`` runs the full experiment registry (at a configurable
scale) and writes one markdown file with every table and text figure —
the artifact a release ships alongside EXPERIMENTS.md, and the quickest way
for a reviewer to regenerate the whole evaluation:

    repro-sim report REPORT.md --quick
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, List, Optional, Sequence, Union

from . import experiments as exp


def generate_report(
    path: Union[str, Path],
    workloads=None,
    ops_per_core: int = exp.DEFAULT_OPS,
    sections: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[str]:
    """Run every registered experiment, in order, into one markdown report.

    The order and the ids are those of
    :data:`~repro.analysis.experiments.EXPERIMENTS`.  ``workloads`` follows :func:`~repro.analysis.experiments.resolve_workloads`
    (None = quick subset, "all" = the full suite); ``sections`` restricts
    to specific experiment ids.  Returns the list of section ids written.
    """
    wanted = set(sections) if sections is not None else None
    chunks: List[str] = [
        "# Stash Directory — regenerated evaluation report",
        "",
        f"Scale: {ops_per_core} ops/core; workloads: "
        f"{', '.join(exp.resolve_workloads(workloads))}.",
        "Regenerate with `repro-sim report` (see DESIGN.md for the experiment index).",
        "",
    ]
    written: List[str] = []
    for exp_id in exp.EXPERIMENTS:
        if wanted is not None and exp_id not in wanted:
            continue
        if progress is not None:
            progress(exp_id)
        out = exp.run_experiment(exp_id, workloads, ops_per_core)
        chunks.append(f"## {out.experiment_id}: {out.title}")
        chunks.append("")
        chunks.append("```")
        chunks.append(out.text)
        chunks.append("```")
        chunks.append("")
        written.append(exp_id)
    Path(path).write_text("\n".join(chunks))
    return written
