"""The monoid of folded states: one reduction for every collection path.

A grid's reports matter to its estimate only through a fixed-length
sufficient statistic, :class:`~repro.fo.base.FoldedState` (see
:meth:`repro.fo.base.FrequencyOracle.fold`). Every collection path folds
each shard where it is perturbed — a batch or budget-split ``(group,
chunk)`` task, a streaming batch's shard — and reduces the shard states
of a group through :func:`merge_reports`: the user counts add and the
vectors go through one left fold (:func:`repro.fo.kernels.fold_arrays`).
Integer counts add exactly, and float sums keep the order given, so
merging shard states in ``(group, chunk)`` order gives, byte for byte,
the state one fold of all their reports gives.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ProtocolError
from repro.fo import kernels as fo_kernels
from repro.fo.base import FoldedState


def merge_reports(parts: List[Optional[FoldedState]]
                  ) -> Optional[FoldedState]:
    """Merge the folded states of disjoint user sets into one.

    ``None`` entries are skipped, and an empty merge is ``None``, so
    accumulators need no empty-group special case. A single part is
    returned as it is — the one shard of an interactive backend (a
    fitted AHEAD model) passes through unchanged. Two or more parts must
    be folded states of one vector shape and dtype.

    A state carries no protocol parameters, so only its layout can be
    checked: merge only states folded by one oracle. States of two
    protocols, hash ranges, thresholds or wave widths whose vectors
    happen to share a layout (GRR and OLH states of one domain, say)
    merge without complaint into a state neither oracle can unbias
    correctly.
    """
    parts = [part for part in parts if part is not None]
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    if not all(isinstance(part, FoldedState) for part in parts):
        raise ProtocolError(
            f"unsupported parts "
            f"{sorted({type(part).__name__ for part in parts})}; "
            f"merge_reports merges folded states")
    layouts = {(part.vector.dtype.str, part.vector.shape) for part in parts}
    if len(layouts) > 1:
        raise ProtocolError(
            f"cannot merge folded states of different lengths or dtypes: "
            f"{sorted(layouts)}")
    return FoldedState(sum(part.n for part in parts),
                       fo_kernels.fold_arrays([part.vector
                                               for part in parts]))
