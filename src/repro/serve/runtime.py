"""Accelerator replica: executes request batches on the timing model.

One :class:`AcceleratorReplica` stands for one FPGA board (or one
partition of a board) programmed with the compiled strategy.  It
executes batches through the same streaming-engine timing the
single-image simulator replays — service time comes from
:class:`repro.sim.simulator.ServiceModel`, i.e. the row-level pipeline
recurrence with the per-group resident-weight preload paid once per
batch — but tracks only *time*, not feature maps, so a replica can
serve thousands of requests in microseconds of host time.

Replicas live entirely on the scheduler's virtual clock: ``execute``
takes the dispatch cycle and returns the span the batch occupied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.optimizer.strategy import Strategy
from repro.serve.batcher import InferenceRequest, ServingError
from repro.sim.simulator import ServiceModel, build_service_model


@dataclass(frozen=True)
class ReplicaStats:
    """Lifetime counters of one replica, frozen at report time."""

    replica_id: int
    batches: int
    requests: int
    busy_cycles: float
    failed_batches: int = 0  # batches lost to crashes / transient faults
    wasted_cycles: float = 0.0  # service cycles spent on failed batches

    def utilization(self, makespan_cycles: float) -> float:
        """Busy fraction over the serving window (successful work only)."""
        return self.busy_cycles / makespan_cycles if makespan_cycles > 0 else 0.0


@dataclass(frozen=True)
class BatchAttempt:
    """Outcome of dispatching one batch to one replica.

    ``end_cycle`` is the completion cycle on success, or the cycle the
    failure was detected (crash instant, or end of the wasted service
    for a transient fault).
    """

    start_cycle: float
    end_cycle: float
    ok: bool
    failure: Optional[str] = None  # "crash" | "transient"


class AcceleratorReplica:
    """One accelerator instance executing batches back to back."""

    def __init__(self, replica_id: int, service_model: ServiceModel):
        self.replica_id = replica_id
        self.service_model = service_model
        self.busy_until = 0.0
        self.busy_cycles = 0.0
        self.batches = 0
        self.requests = 0
        self.failed_batches = 0
        self.wasted_cycles = 0.0

    @classmethod
    def for_strategy(cls, replica_id: int, strategy: Strategy) -> "AcceleratorReplica":
        """Build a replica programmed with ``strategy``."""
        return cls(replica_id, build_service_model(strategy))

    def batch_cycles(self, batch_size: int) -> float:
        """Service time of one batch on this replica."""
        return self.service_model.batch_cycles(batch_size)

    def execute(
        self, batch: Sequence[InferenceRequest], dispatch_cycle: float
    ) -> Tuple[float, float]:
        """Run a batch, starting no earlier than ``dispatch_cycle``.

        The replica serves batches strictly in dispatch order: if it is
        still busy, the batch waits for the previous one to drain.

        Returns:
            ``(start_cycle, completion_cycle)`` of the batch.
        """
        attempt = self.execute_attempt(batch, dispatch_cycle)
        return attempt.start_cycle, attempt.end_cycle

    def execute_attempt(
        self,
        batch: Sequence[InferenceRequest],
        dispatch_cycle: float,
        injector=None,
    ) -> BatchAttempt:
        """Run a batch under an optional fault injector.

        With no injector this is exactly :meth:`execute` (the zero-fault
        path is bit-identical to an unfaulted fleet).  With one, the
        start skips the replica's down windows, the service time absorbs
        any active brownout scale, and the attempt can fail: a crash
        window opening mid-batch aborts it at the crash cycle, and a
        transient fault wastes the full service time.  Failed work is
        tracked in ``wasted_cycles`` / ``failed_batches``, never in the
        success counters.
        """
        if not batch:
            raise ServingError("cannot execute an empty batch")
        attempt, cycles, _ = _occupy(
            self, self.batch_cycles(len(batch)), dispatch_cycle, injector
        )
        if attempt.ok:
            self.busy_cycles += cycles
            self.batches += 1
            self.requests += len(batch)
        else:
            self.wasted_cycles += cycles
            self.failed_batches += 1
        return attempt

    def stats(self) -> ReplicaStats:
        return ReplicaStats(
            replica_id=self.replica_id,
            batches=self.batches,
            requests=self.requests,
            busy_cycles=self.busy_cycles,
            failed_batches=self.failed_batches,
            wasted_cycles=self.wasted_cycles,
        )

    def __repr__(self) -> str:
        return (
            f"AcceleratorReplica(id={self.replica_id}, "
            f"busy_until={self.busy_until:.0f}, requests={self.requests})"
        )


def _occupy(
    replica, service_cycles: float, dispatch_cycle: float, injector
) -> Tuple[BatchAttempt, float, float]:
    """Occupy ``replica`` with one batch's ``service_cycles`` of work.

    The shared execution math of every single-board replica: the batch
    starts once the replica drains (and, under an injector, once its
    down windows pass), runs at the active brownout scale, and may fail
    — a crash window opening mid-batch aborts it at the crash cycle, a
    transient fault wastes the full service time.  Advances
    ``busy_until`` and returns the attempt, the cycles it occupied the
    replica, and the brownout scale applied.
    """
    start = max(dispatch_cycle, replica.busy_until)
    if injector is None:
        end = start + service_cycles
        replica.busy_until = end
        return BatchAttempt(start, end, ok=True), service_cycles, 1.0
    start = injector.available_from(replica.replica_id, start)
    scale = injector.service_scale(replica.replica_id, start)
    service = service_cycles * scale
    end = start + service
    crash = injector.crash_in(replica.replica_id, start, end)
    if crash is not None:
        replica.busy_until = crash
        attempt = BatchAttempt(start, crash, ok=False, failure="crash")
        return attempt, crash - start, scale
    replica.busy_until = end
    if injector.transient_failure(replica.replica_id):
        attempt = BatchAttempt(start, end, ok=False, failure="transient")
        return attempt, service, scale
    return BatchAttempt(start, end, ok=True), service, scale


def build_fleet(
    service_model: ServiceModel, replicas: int
) -> List[AcceleratorReplica]:
    """Instantiate ``replicas`` identical accelerator instances."""
    if replicas < 1:
        raise ServingError(f"a fleet needs >= 1 replica, got {replicas}")
    return [AcceleratorReplica(i, service_model) for i in range(replicas)]
