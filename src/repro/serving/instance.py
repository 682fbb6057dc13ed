"""Generic serving instance: execution lanes, KV pool, swap machinery.

An :class:`Instance` owns a set of GPUs running one model replica with a
given parallelism.  It executes one batch per *lane* at a time — a lane is a
pipeline-parallel interleave slot, so a ``PP-2`` instance keeps two batches
in flight, which models pipeline throughput without simulating per-stage
micro-batches.

Subclasses implement the scheduling policy by overriding ``_form_batch``
(what to run next on a free lane) and ``_on_batch_complete`` (what the
results mean).  Shared machinery here covers continuous-batching decode
iterations, KV growth, and CPU swap preemption — the substrate every system
in the paper builds on.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import defaultdict, deque
from dataclasses import dataclass
from math import inf
from operator import attrgetter
from typing import Callable, Iterator, Optional, TYPE_CHECKING

from repro.hardware.gpu import GB, GPUSpec
from repro.kvcache.blocks import BlockLocation, KVBlockManager
from repro.kvcache.transfer import KVTransferEngine
from repro.models.parallelism import ParallelConfig
from repro.models.spec import ModelSpec
from repro.perf.interference import StreamContentionModel
from repro.perf.roofline import BatchTiming, LatencyModel
from repro.policies.preemption import PREEMPTION_POLICIES
from repro.serving.batching import Batch
from repro.serving.metrics import MetricsCollector
from repro.serving.request import TIER_PRIORITY, Phase, Request
from repro.sim.engine import Simulator
from repro.sim.trace import TraceLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.serving.system import ServingSystem


#: Tokens per KV block (vLLM's default).
BLOCK_SIZE = 16
#: HBM each GPU keeps for activations, outside the KV pool.
ACTIVATION_RESERVE_GB = 8.0
#: Most decode requests one lane batches.
MAX_DECODE_BATCH_SIZE = 256
#: Free KV blocks required before a swapped request comes back in (capped
#: at a twentieth of small pools).
SWAP_IN_FREE_BLOCKS = 64


@dataclass(frozen=True)
class InstanceConfig:
    """Tunables shared by all instance types."""

    cpu_swap_gb: float = 128.0
    max_prefill_tokens_per_batch: int = 8192
    max_batched_tokens: int = 512  # chunked-prefill budget per hybrid iteration
    preemption_mode: str = "swap"  # "swap" (to CPU DRAM) or "recompute"
    kv_capacity_override_tokens: Optional[int] = None
    # Swap-victim selection policy name (see repro.policies.preemption).
    preemption_policy: str = "latest-arrived"
    # Automatic prefix caching (repro.kvcache.prefix): tokens of warm
    # shared-prefix KV this instance may keep resident.  0 (the default)
    # disables the cache entirely, keeping prefix-free runs byte-identical.
    prefix_cache_tokens: int = 0


class _Member:
    """A lane member's place on its lane's iteration clock (see :class:`Lane`)."""

    __slots__ = ("request", "key", "mark", "due", "phase")

    def __init__(self, request: Request, key: int, mark: int) -> None:
        self.request = request
        self.key = key  # admission order
        self.mark = mark  # the step its stored counters are exact at
        self.due = mark  # the step it is walked at: its last, or a boundary
        self.phase: Optional[int] = None  # its boundaries' class, once in one


_ADMISSION_ORDER = attrgetter("key")


class Lane:
    """One pipeline interleave slot: runs one batch at a time.

    ``running`` keeps the lane's decode requests in admission order (batch
    formation and preemption policies read it).  Every change goes through
    :meth:`add`, :meth:`remove` and :meth:`clear`, which also keep
    ``members`` (O(1) ``request in lane``) and the summed
    ``context_tokens`` of the members, which pricing reads every iteration.

    Decode tokens run on an iteration clock.  ``step`` counts the decode
    iterations the lane has applied.  A member's stored ``output_generated``
    and KV token count are exact as of its *mark*; it has generated one
    token per step since.  A request that joins while a batch formed
    without it is in flight is marked one step ahead, so that batch gives
    it nothing.

    KV blocks run on the same clock.  Once a member's next block boundary
    (the step whose token starts a new block) is the next of its residue
    modulo ``block_size``, its boundaries recur every ``block_size`` steps:
    it joins that residue's *phase class*, kept in admission order, and a
    step takes one new block for each member of its class with a single
    :meth:`KVBlockManager.charge`.  A member is *due* at its last step, or
    at a boundary it meets outside a class (a late joiner one block ahead
    of the batch it missed, which joins after).  Applying an iteration
    (:meth:`apply_step`) walks only that step's due members, in admission
    order; before each, the class members ahead of it are charged, so the
    pool is exactly what a member-by-member walk would leave there.  The
    clock gives every other batch member its token (:meth:`advance`
    applies a step with no one due and an empty class in O(1)).  Counters
    and crossed blocks are written back to the request and its allocation
    (:meth:`KVBlockManager.settle`) when the member leaves (:meth:`remove`,
    :meth:`clear`), is walked, or on :meth:`sync`, which readers outside
    the decode loop call first; ``context_tokens`` is always exact.
    """

    def __init__(self, index: int, kv: KVBlockManager) -> None:
        self.index = index
        self.kv = kv
        self.busy = False
        self.busy_until = 0.0
        self.running: list[Request] = []
        self.members: dict[Request, _Member] = {}
        self.context_tokens = 0
        # The batch in flight; pure-prefill batch members may live in no
        # other pool, so crash handling must be able to find them here.
        self.current_batch: Optional[Batch] = None
        self.step = 0
        self._next_key = 0
        # First admission key the decode batch in flight left out (None: no
        # decode batch in flight), and the keys of its members that left
        # the lane before it applied, in case they come back.
        self._batch_end: Optional[int] = None
        self._left: dict[Request, int] = {}
        self._ahead = 0  # members whose counters already hold this step's token
        self._due: defaultdict[int, list[_Member]] = defaultdict(list)
        self._walk: Optional[int] = None  # key of the member being stepped
        self._block = kv.block_size
        self._phases: list[list[_Member]] = [[] for _ in range(self._block)]

    def __contains__(self, request: Request) -> bool:
        return request in self.members

    def launch(self, batch: Batch, until: float) -> None:
        """Start ``batch``, which runs until ``until``.  A batch with decode
        members is over every current member of the lane (see :meth:`add`)."""
        self.busy = True
        self.current_batch = batch
        self.busy_until = until
        if batch.decode_requests:
            self._batch_end = self._next_key

    def land(self) -> None:
        """The batch in flight is over: its results are applied next, or
        died with the node."""
        self.busy = False
        self.current_batch = None

    def add(self, request: Request) -> None:
        key = self._left.pop(request, None)
        if key is None:
            key = self._next_key
            self._next_key += 1
        late = self._batch_end is not None and key >= self._batch_end
        member = _Member(request, key, self.step + late)
        self._ahead += late
        self.running.append(request)
        self.members[request] = member
        self.context_tokens += request.context_tokens
        self._schedule(member, self.step)

    def remove(self, request: Request) -> None:
        member = self.members.pop(request)
        self.running.remove(request)
        self._settle(member)
        phase = member.phase
        if phase is not None:
            members = self._phases[phase]
            del members[bisect_left(members, member.key, key=_ADMISSION_ORDER)]
        if member.mark > self.step:
            self._ahead -= 1
        self.context_tokens -= request.context_tokens
        batch_end = self._batch_end
        if batch_end is not None and self._walk is None and member.key < batch_end:
            self._left[request] = member.key  # left the batch in flight

    def clear(self) -> None:
        self.sync()
        self.running.clear()
        self.members.clear()
        self.context_tokens = 0
        self._batch_end = None
        self._left.clear()
        self._ahead = 0
        self._due.clear()
        for members in self._phases:
            members.clear()

    def sync(self) -> None:
        """Write every member's clock tokens and blocks back to its request and KV."""
        for member in self.members.values():
            self._settle(member)

    def advance(self) -> bool:
        """Apply the decode batch in flight at a step no member is due and
        no block is charged.

        The clock gives every member of the batch its token in O(1), as
        :meth:`apply_step` does when it has no one to walk or charge.
        Returns False, changing nothing, otherwise: apply it with
        :meth:`apply_step`.
        """
        step = self.step
        if step in self._due or self._phases[step % self._block]:
            return False
        self._left.clear()
        self.context_tokens += len(self.running) - self._ahead
        self.step = step + 1
        self._ahead = 0
        self._batch_end = None
        return True

    def apply_step(self, grow: Callable[[Request], bool]) -> Iterator[Request]:
        """Apply the decode batch in flight: one token per member still here.

        Walks only this step's due members, in admission order.  Before
        each, the members of this step's phase class ahead of it take their
        new blocks (:meth:`_charge`).  A walked member's clock tokens are
        written back; its token for this step goes into a free slot of its
        last KV block when one is left, else through ``grow(request)``,
        which reserves a block (maybe preempting) and returns False if the
        member itself was preempted.  A member whose last token this was
        leaves the lane and is yielded, for the caller to retire before the
        walk goes on.  A member that leaves mid-walk keeps this step's token
        only if the walk had passed it.  When the walk ends, the rest of the
        class takes its blocks and the clock gives every other member of
        the batch its token.
        """
        if self._batch_end is None:
            return  # the batch decoded nothing here
        step = self.step
        self._left.clear()
        phase = self._phases[step % self._block]
        charged_to = 0  # class members with lower keys have their blocks
        bucket = self._due.pop(step, None)
        if bucket:
            bucket.sort(key=_ADMISSION_ORDER)
            members = self.members
            for member in bucket:
                request = member.request
                if member.due != step or members.get(request) is not member:
                    continue  # left (or came back) since it was bucketed
                key = member.key
                if phase:
                    self._charge(phase, charged_to, key, step, grow)
                charged_to = key + 1
                if members.get(request) is not member:
                    continue  # preempted by a class member ahead of it
                self._walk = key
                if not self._step_member(member, step, grow):
                    continue  # preempted itself; it left with what it had
                if request.output_generated < request.output_tokens:
                    self._schedule(member, step + 1)
                else:
                    self.remove(request)
                    yield request
        if phase:
            self._charge(phase, charged_to, None, step, grow)
        self._walk = None
        self.context_tokens += len(self.running) - self._ahead
        self.step = step + 1
        self._ahead = 0
        self._batch_end = None

    def _step_member(self, member: _Member, step: int, grow) -> bool:
        """Give a walked member its clock tokens and this step's token."""
        self._settle(member)
        request = member.request
        if not self.kv.append(request.request_id, 1) and not grow(request):
            return False
        request.output_generated += 1
        self.context_tokens += 1  # the rest were counted as they accrued
        member.mark = step + 1
        self._ahead += 1
        return True

    def _charge(self, phase: list[_Member], lo: int, hi: Optional[int], step: int, grow) -> None:
        """Give the class members with keys in ``[lo, hi)`` this step's
        block with one charge; if the pool is short, walk them in admission
        order instead, as a member-by-member walk would, preempting."""
        start = bisect_left(phase, lo, key=_ADMISSION_ORDER) if lo else 0
        end = len(phase) if hi is None else bisect_left(phase, hi, key=_ADMISSION_ORDER)
        count = end - start
        if not count:
            return
        if self.kv.charge(count):
            self.context_tokens += count
            self._ahead += count
            return
        members = self.members
        for member in phase[start:end]:
            if members.get(member.request) is member:  # else preempted meanwhile
                self._walk = member.key
                self._step_member(member, step, grow)

    def _schedule(self, member: _Member, now: int) -> None:
        """Bucket the member at its next due step; ``now`` is the next step
        the lane applies."""
        request = member.request
        room = self.kv.slack(request.request_id)
        left = request.output_tokens - request.output_generated - 1
        mark = member.mark
        if left <= room:
            due = mark + left if left > 0 else mark  # its last token
        else:
            due = boundary = mark + room
            if boundary - now < self._block:
                # Its boundaries from here on are its class's steps.
                member.phase = phase = boundary % self._block
                insort(self._phases[phase], member, key=_ADMISSION_ORDER)
                due = mark + left
        member.due = due
        self._due[due].append(member)

    def _settle(self, member: _Member) -> None:
        """Write the member's clock tokens back and mark it current."""
        step = self.step
        lag = step - member.mark
        if lag < 0:
            return  # its counters already hold this step's token
        if self._walk is not None and member.key < self._walk:
            # The walk has passed it: it holds this step's token too,
            # counted already if its class was charged for this step.
            lag += 1
            member.mark = step + 1
            if member.phase != step % self._block:
                self._ahead += 1
                self.context_tokens += 1
        else:
            member.mark = step
        if lag:
            request = member.request
            request.output_generated += lag
            self.kv.settle(request.request_id, lag)

    @property
    def batch_size(self) -> int:
        return len(self.running)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Lane({self.index}, busy={self.busy}, running={len(self.running)})"


class Instance:
    """Base serving instance; see module docstring."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        spec: ModelSpec,
        gpu: GPUSpec,
        parallel: ParallelConfig,
        gpus: tuple[int, ...],
        metrics: MetricsCollector,
        transfers: KVTransferEngine,
        config: InstanceConfig,
        contention: Optional[StreamContentionModel] = None,
        trace: Optional[TraceLog] = None,
    ) -> None:
        if len(gpus) != parallel.num_gpus:
            raise ValueError(
                f"{name}: placement has {len(gpus)} GPUs but parallelism "
                f"{parallel.label()} needs {parallel.num_gpus}"
            )
        self.name = name
        self.sim = sim
        self.spec = spec
        self.gpu = gpu
        self.parallel = parallel
        self.gpus = gpus
        self.metrics = metrics
        self.transfers = transfers
        self.config = config
        self.contention = contention or StreamContentionModel()
        self.trace = trace if trace is not None else TraceLog(enabled=False)
        self.latency = LatencyModel(spec, gpu, parallel)
        self.preemption = PREEMPTION_POLICIES.create(config.preemption_policy)
        self.system: Optional["ServingSystem"] = None

        self.kv = self._new_kv_pool()
        self.prefix_cache = self._build_prefix_cache()
        self.lanes = [Lane(i, self.kv) for i in range(parallel.pp)]
        self.waiting: deque[Request] = deque()
        self.swapped: deque[Request] = deque()
        self._swapping_in: set[int] = set()
        self.halted = False  # failure injection: drop all future work
        # Recoverable-failure state (chaos injection).  ``failed`` is ground
        # truth (transport-level guards); schedulers must instead consult
        # ``system.known_failed``, filled at heartbeat detection.  ``epoch``
        # increments on every fail so stale completions/transfer callbacks
        # from before a crash can be recognised and dropped.
        self.failed = False
        self.epoch = 0
        self.compute_slowdown = 1.0  # straggler injection; 1.0 == healthy
        self.retired_kv: list[KVBlockManager] = []
        # Whoever gets control back from the event loop reads exact counters.
        sim.on_return(self.sync)

    def detach(self) -> None:
        """Unhook a replaced instance from the simulator, so it can be freed."""
        self.sim.off_return(self.sync)

    # -- construction helpers ----------------------------------------------

    def _new_kv_pool(self) -> KVBlockManager:
        """An empty KV pool sized for the current parallelism."""
        return KVBlockManager(
            gpu_capacity_tokens=self._kv_capacity_tokens(),
            cpu_capacity_tokens=int(
                self.config.cpu_swap_gb * GB / self.spec.kv_bytes_per_token
            ),
            block_size=BLOCK_SIZE,
            bytes_per_token=self.spec.kv_bytes_per_token,
        )

    def _build_prefix_cache(self):
        if self.config.prefix_cache_tokens <= 0:
            return None
        from repro.kvcache.prefix import PrefixCacheIndex

        cache = PrefixCacheIndex(self.kv, self.config.prefix_cache_tokens)
        previous = getattr(self, "prefix_cache", None)
        if previous is not None:
            # A rebuilt cache starts cold, but its ledger spans the
            # instance's whole history, as the saved-tokens counter does.
            cache.stats = previous.stats
        return cache

    def _kv_capacity_tokens(self) -> int:
        if self.config.kv_capacity_override_tokens is not None:
            return self.config.kv_capacity_override_tokens
        per_gpu_budget = (
            self.gpu.hbm_capacity_bytes
            - self.parallel.weight_bytes_per_gpu(self.spec)
            - int(ACTIVATION_RESERVE_GB * GB)
        )
        if per_gpu_budget <= 0:
            raise ValueError(
                f"{self.name}: model weights do not fit — "
                f"{self.spec.name} on {self.parallel.num_gpus}x {self.gpu.name}"
            )
        total = per_gpu_budget * self.parallel.num_gpus
        return int(total / self.spec.kv_bytes_per_token)

    # -- queue API ------------------------------------------------------------

    def enqueue(self, request: Request) -> None:
        """Add a request to this instance's waiting queue.

        FCFS within a tier; a higher-tier request is inserted ahead of all
        queued lower-tier work (never ahead of its own tier), so interactive
        traffic jumps best-effort backlogs while single-tier workloads keep
        the exact FCFS order the tier-free goldens pin down.

        Fair-share admission stamps a WFQ virtual-time key into
        ``request.fs_key``; within an equal tier, a keyed request is
        inserted ahead of keyed work with a strictly larger key (FIFO on
        ties and against unkeyed work), so tenant fairness orders the
        queue *inside* the tier bands without touching tier priority.
        Key-free runs take the exact pre-existing path.
        """
        rank = TIER_PRIORITY[request.tier]
        key = request.fs_key
        slot = len(self.waiting)
        if key is None:
            while slot > 0 and TIER_PRIORITY[self.waiting[slot - 1].tier] > rank:
                slot -= 1
        else:
            while slot > 0:
                ahead = self.waiting[slot - 1]
                ahead_rank = TIER_PRIORITY[ahead.tier]
                if ahead_rank > rank:
                    slot -= 1
                    continue
                if ahead_rank == rank:
                    ahead_key = ahead.fs_key
                    if ahead_key is not None and ahead_key > key:
                        slot -= 1
                        continue
                break
        if slot == len(self.waiting):
            self.waiting.append(request)
        else:
            self.waiting.insert(slot, request)
        self.kick()

    @property
    def running_requests(self) -> list[Request]:
        return [r for lane in self.lanes for r in lane.running]

    @property
    def total_running(self) -> int:
        return sum(lane.batch_size for lane in self.lanes)

    def queued_prefill_tokens(self) -> int:
        """Prompt tokens waiting in the queue (the Profiler's overload input)."""
        return sum(r.remaining_prefill_tokens for r in self.waiting)

    # -- execution loop ----------------------------------------------------------

    def kick(self) -> None:
        """Try to start work on every idle lane."""
        if self.halted or self.failed:
            return
        if self.swapped:
            self._try_swap_in()
        for lane in self.lanes:
            if lane.busy:
                continue
            batch = self._form_batch(lane)
            if batch is None:
                continue
            self._execute(lane, batch)

    def _execute(self, lane: Lane, batch: Batch) -> None:
        # ``* 1.0`` is bit-exact: healthy runs are byte-identical to runs
        # without the straggler machinery.
        duration = batch.duration * self.compute_slowdown
        self._begin_batch(lane, batch, duration)
        self.sim.schedule(duration, self._complete, lane, batch, self.epoch)

    def _begin_batch(self, lane: Lane, batch: Batch, duration: float) -> None:
        """Batch-launch bookkeeping shared by the scheduled and inline paths."""
        now = self.sim.now
        lane.launch(batch, now + duration)
        timing = batch.timing
        if timing is not None:
            self.metrics.record_batch(
                self.name, duration, timing.compute_time, timing.io_time, lanes=len(self.lanes)
            )
        if self.trace.enabled:
            self.trace.emit(
                now,
                self.name,
                "batch-start",
                kind=batch.kind,
                prefill_tokens=batch.prefill_tokens,
                decode_batch=len(batch.decode_requests),
                duration=duration,
            )

    def _complete(self, lane: Lane, batch: Batch, epoch: Optional[int] = None) -> None:
        if epoch is not None and epoch != self.epoch:
            return  # launched before a crash; the results died with the node
        lane.land()
        if self.halted or self.failed:
            return  # the node died mid-batch; results are lost
        self._on_batch_complete(lane, batch)
        self._decode_run(lane)
        self.kick()

    def _decode_run(self, lane: Lane) -> None:
        """Run ``lane``'s next plain decode iterations inside the completing
        event's frame.

        Steady-state decode is one completion event per iteration; at scale
        that dominates the heap.  This loop folds consecutive iterations
        into the frame *only* while the next one is provably
        indistinguishable from scheduling it:

        * the ensuing ``kick()`` would form a plain decode batch on this
          lane and do nothing else: not halted or failed, the lane idle,
          nothing waiting or swapped out, every other lane busy, members
          present, and :meth:`_decode_pass` prices the pass;
        * the iteration completes inside the simulator's inline window:
          before any other pending event, within the run horizon and the
          event budget (:meth:`Simulator.inline_window`).

        Each iteration is what ``_form_batch`` → ``_begin_batch`` →
        ``_on_batch_complete`` would do for a plain decode batch, in the
        same order: launch (trace row, utilization), advance the clock by
        one inline event, apply the step (walking members only at a step
        with due members, else an O(1) clock advance), then
        :meth:`_after_decode_step` (skipped after a plain step once it
        said it has nothing to do).  One :class:`Batch` viewing the lane's
        run list serves every inline iteration; nothing outside this frame
        can see it between them.  The inline window is read again only
        after a step that ran more than the clock.  An iteration that does
        not fit the window is executed as priced, through the scheduled
        path; every other batch is formed by ``kick()``.

        The clock arithmetic, ``events_processed`` count, trace rows and
        metrics calls are exactly those of the scheduled path, so run
        fingerprints, and the recorded goldens, are byte-identical.
        """
        for other in self.lanes:
            if other is not lane and not other.busy:
                return  # kick() owes the other idle lanes a scan
        # Every other lane stays busy throughout: only its own completion
        # event or a crash frees it.
        sim = self.sim
        batch: Optional[Batch] = None
        armed = True  # _after_decode_step has work after a plain step
        window = None  # (horizon, budget), while only the clock moved
        while lane.running and not (
            self.halted or self.failed or lane.busy or self.waiting or self.swapped
        ):
            plain = self._decode_pass(lane)
            if plain is None:
                return
            kind, duration, timing = plain
            # ``* 1.0`` is bit-exact: see _execute.
            scaled = duration * self.compute_slowdown
            if window is None:
                window = sim.inline_window() or (-inf, 0)
            horizon, budget = window
            if budget <= 0 or sim.now + scaled > horizon:
                running = list(lane.running)
                self._execute(lane, Batch(kind, duration, decode_requests=running, timing=timing))
                return
            if batch is None:
                batch = Batch(kind, duration, decode_requests=lane.running, timing=timing)
            else:
                batch.kind, batch.duration, batch.timing = kind, duration, timing
            self._begin_batch(lane, batch, scaled)
            sim.advance_inline(scaled)
            window = horizon, budget - 1
            lane.land()
            due = not lane.advance()
            if due:
                self.finish_decode_iteration(lane, batch)
            if due or armed:
                armed = self._after_decode_step()
                window = None  # what ran may have scheduled or cancelled events

    # -- policy hooks (subclasses override) -----------------------------------------

    def _form_batch(self, lane: Lane) -> Optional[Batch]:
        raise NotImplementedError

    def _on_batch_complete(self, lane: Lane, batch: Batch) -> None:
        raise NotImplementedError

    def _decode_pass(self, lane: Lane) -> Optional[tuple[str, float, BatchTiming]]:
        """``(kind, duration, timing)`` of a plain decode iteration over the
        lane's members, or None if this instance's next batch on the lane,
        with nothing waiting, is not one.

        ``duration`` is before ``compute_slowdown``.  The default is a plain
        decode pass; a decode instance's ``_form_batch`` prices its plain
        decode batches here too.
        """
        timing = self.latency.decode(len(lane.running), lane.context_tokens)
        return "decode", timing.duration, timing

    def _after_decode_step(self) -> bool:
        """What ``_on_batch_complete`` does after applying a plain decode
        batch.  Returns False when another call would do nothing until a
        step walks due members or charges blocks: the other steps change
        no KV block count and run nothing else."""
        return False

    # -- shared decode machinery ------------------------------------------------

    def least_loaded_lane(self) -> Lane:
        return min(self.lanes, key=lambda lane: lane.batch_size)

    def start_decoding(self, request: Request, lane: Optional[Lane] = None) -> None:
        """Place a request (whose KV is resident here) into a decode lane."""
        target = lane or self.least_loaded_lane()
        request.phase = Phase.DECODING
        target.add(request)

    def remove_running(self, request: Request) -> bool:
        """Take ``request`` out of the lane running it; False if none is."""
        for lane in self.lanes:
            if request in lane:
                lane.remove(request)
                return True
        return False

    def finish_decode_iteration(self, lane: Lane, batch: Batch) -> None:
        """Apply the results of one decode iteration: grow KV, emit tokens,
        retire finished requests, preempt under memory pressure.

        Costs O(due members + log batch), not O(batch): the lane's
        iteration clock (:class:`Lane`) gives every member its token at
        once, charges the new blocks of the members whose token starts one
        by count, and walks only the members whose token is their last (or
        starts a block outside a phase class), in admission order.  A
        walked boundary, or a charge the pool cannot cover, goes through
        :meth:`_grow_kv`, which reserves (and maybe preempts) exactly as a
        token-by-token loop would, so the pool, the swap victims and their
        order are unchanged.  ``batch`` is the one that just ran; the lane
        recorded its membership when it launched."""
        now = self.sim.now
        for request in lane.apply_step(self._grow_kv):
            self._retire(request, now)

    def sync(self) -> None:
        """Write every lane member's clock tokens back (see :class:`Lane`)."""
        for lane in self.lanes:
            lane.sync()

    def _grow_kv(self, request: Request) -> bool:
        """Reserve a new KV block for the request's next token, preempting
        if needed.

        Returns False when the request itself had to be swapped out (its
        token is not counted; it resumes after swap-in)."""
        while not self.kv.can_extend(request.request_id, 1):
            victim = self._pick_swap_victim(exclude=request)
            if victim is None:
                victim = request
            self._preempt(victim)
            if victim is request:
                return False
        self.kv.extend(request.request_id, 1)
        return True

    def _preempt(self, victim: Request) -> None:
        """Evict a running request's KV: CPU swap or recompute, per config."""
        if self.config.preemption_mode == "recompute" and self._supports_recompute():
            self._recompute_preempt(victim)
        else:
            self._swap_out(victim)

    def _supports_recompute(self) -> bool:
        """Only instances that can run prefill locally may recompute."""
        return False

    def _recompute_preempt(self, victim: Request) -> None:
        """Drop the victim's KV and requeue it for a full re-prefill."""
        self.remove_running(victim)
        self.kv.free(victim.request_id)
        victim.restart_prefill()
        self.metrics.bump("recompute_preempt")
        self.waiting.appendleft(victim)
        self.trace.emit(
            self.sim.now, self.name, "recompute-preempt", request_id=victim.request_id
        )

    def _retire(self, request: Request, now: float) -> None:
        request.phase = Phase.FINISHED
        request.finish_time = now
        self.kv.free(request.request_id)
        self.metrics.record_completion(request)
        self.trace.emit(now, self.name, "finish", request_id=request.request_id)
        if self.system is not None:
            self.system.on_request_finished(request, self)
            for listener in list(self.system.finish_listeners):
                listener(request, self)

    # -- swapping ----------------------------------------------------------------

    def swap_candidates(self, exclude: Optional[Request] = None) -> list[Request]:
        """Running requests *eligible* for preemption.

        Subclasses narrow eligibility (e.g. a mid-migration request must not
        be evicted); the preemption policy only orders this set.
        """
        return [r for r in self.running_requests if r is not exclude]

    def _pick_swap_victim(self, exclude: Optional[Request] = None) -> Optional[Request]:
        return self.preemption.pick_swap_victim(self, exclude)

    def _swap_out(self, victim: Request) -> None:
        self.remove_running(victim)
        victim.phase = Phase.SWAPPED
        victim.swap_out_count += 1
        self.metrics.bump("swap_out")
        nbytes = self.kv.swap_out(victim.request_id)
        self.transfers.swap(nbytes, list(self.gpus), kind="swap-out")
        self.swapped.append(victim)
        self.trace.emit(
            self.sim.now, self.name, "swap-out", request_id=victim.request_id, nbytes=nbytes
        )

    def _swap_in_watermark(self) -> int:
        """Free blocks required before swapping back in (scaled for small pools)."""
        return min(SWAP_IN_FREE_BLOCKS, max(1, self.kv.gpu_capacity_blocks // 20))

    def _try_swap_in(self) -> None:
        # Drop entries whose allocation left this instance (e.g. migrated away).
        swapped = self.swapped = deque(r for r in self.swapped if self.kv.has(r.request_id))
        while (
            swapped
            and self.kv.free_gpu_blocks >= self._swap_in_watermark()
            and self.kv.can_swap_in(swapped[0].request_id)
        ):
            request = swapped.popleft()
            if request.request_id in self._swapping_in:
                continue
            self._swapping_in.add(request.request_id)
            nbytes = self.kv.swap_in(request.request_id)
            self.metrics.bump("swap_in")
            self.transfers.swap(
                nbytes,
                list(self.gpus),
                on_complete=lambda job, r=request: self._swap_in_done(r),
                kind="swap-in",
            )

    def _swap_in_done(self, request: Request) -> None:
        self._swapping_in.discard(request.request_id)
        if self.halted or self.failed:
            return
        if request.finished or not self.kv.has(request.request_id):
            return  # retired or migrated away while the copy was in flight
        if request.migrating or request.phase == Phase.MIGRATING:
            return  # the migration manager owns this request now
        self.start_decoding(request)
        self.trace.emit(self.sim.now, self.name, "swap-in", request_id=request.request_id)
        self.kick()

    # -- automatic prefix caching ------------------------------------------------

    def _apply_prefix_hit(self, request: Request) -> int:
        """Try to serve ``request``'s shared prefix from the warm cache.

        On a hit the request's ``prefilled_tokens`` is preset (the same
        shortened-prefill mechanism §3.3 backup re-prefill uses) so the
        batch former only schedules the uncached suffix.  At most one
        attempt per (request, instance): the grant is memoised in
        ``request.prefix_cached`` and a reference is held on the cache
        entry until :meth:`_settle_prefix` releases it at prefill
        completion.  Returns the tokens skipped (0 on miss / cache off /
        no shared prefix).
        """
        cache = self.prefix_cache
        if cache is None or request.prefix_hash == 0:
            return 0
        if request.prefix_cached is not None:
            return request.prefix_cached
        if (
            request.prefilled_tokens
            or request.output_generated
            or request.recompute_count
        ):
            return 0  # only a fresh first prefill can reuse; re-prefills recompute
        want = min(request.prefix_len, request.prefill_required - 1)
        if want <= 0:
            return 0
        cached = cache.acquire(request.request_id, request.prefix_hash, want)
        request.prefix_cached = cached
        if cached:
            request.prefilled_tokens = cached
            self.metrics.bump("prefix_hits")
            self.metrics.bump("prefix_tokens_saved", cached)
            self.trace.emit(
                self.sim.now,
                self.name,
                "prefix-hit",
                request_id=request.request_id,
                tokens=cached,
            )
        else:
            self.metrics.bump("prefix_misses")
        return cached

    def _settle_prefix(self, request: Request) -> None:
        """Prefill finished: release the request's warm-prefix hold, or —
        if it computed a cold prefix from scratch — publish it for
        followers."""
        cache = self.prefix_cache
        if cache is None or request.prefix_hash == 0:
            return
        if cache.holding(request.request_id):
            cache.release(request.request_id)
            return
        if request.recompute_count or request.output_generated > 1:
            return  # recomputes / restarted decodes don't publish
        tokens = min(request.prefix_len, request.prefill_required - 1)
        if tokens > 0 and cache.insert(request.prefix_hash, tokens):
            self.metrics.bump("prefix_inserts")
            self.trace.emit(
                self.sim.now,
                self.name,
                "prefix-insert",
                request_id=request.request_id,
                prefix_hash=request.prefix_hash,
                tokens=tokens,
            )

    # -- recoverable failures (chaos injection) ----------------------------------

    def fail(self) -> list[Request]:
        """Crash this instance: all resident KV and in-flight work is lost.

        Returns the unfinished requests that were resident here so the
        system can stash them for re-queueing once the failure is
        *detected* (schedulers do not learn of the crash until the
        heartbeat monitor declares it).  A failed instance can later
        :meth:`recover`.
        """
        if self.failed or self.halted:
            return []
        self.failed = True
        self.epoch += 1
        lost: dict[int, Request] = {}

        def collect(requests) -> None:
            for request in requests:
                if request is not None and not request.finished:
                    lost.setdefault(request.request_id, request)

        for lane in self.lanes:
            collect(lane.running)
            if lane.current_batch is not None:
                # Pure-prefill batch members live in no other pool.
                collect(lane.current_batch.prefill_requests)
                collect(lane.current_batch.decode_requests)
            lane.land()
            lane.clear()
        collect(self.waiting)
        self.waiting.clear()
        collect(self.swapped)
        self.swapped.clear()
        self._swapping_in.clear()
        prefilling = getattr(self, "prefilling", None)
        if prefilling is not None:
            collect(list(prefilling))
            prefilling.clear()
        assist = getattr(self, "assist", None)
        if assist is not None:
            collect(list(assist.queue))
            assist.queue.clear()
            if assist.active is not None:
                collect([assist.active.request])
                assist.active = None
        # HBM contents are gone: free every allocation (GPU and CPU-swap)
        # so the pool's alloc/free ledger stays balanced.
        for alloc in self.kv.residents(BlockLocation.GPU) + self.kv.residents(
            BlockLocation.CPU
        ):
            self.kv.free(alloc.request_id)
        if self.prefix_cache is not None:
            # The residents sweep above already freed the cache's blocks;
            # reset() forgets the entries without double-freeing.
            self.prefix_cache.reset()
        self.metrics.bump("instance_crash")
        return list(lost.values())

    def recover(self) -> None:
        """Bring a failed instance back with an empty, fresh KV pool."""
        if not self.failed:
            return
        self.failed = False
        # Keep the (fully freed) crashed pool so post-run audits can check
        # the KV ledger across the instance's whole history.
        self.retired_kv.append(self.kv)
        self.kv = self._new_kv_pool()
        # The recovered instance comes back with a cold prefix cache over
        # the fresh pool (the cache ledger carries over).
        self.prefix_cache = self._build_prefix_cache()
        self.lanes = [Lane(i, self.kv) for i in range(self.parallel.pp)]
        self.swapped = deque()
        self._swapping_in = set()
        self.metrics.bump("instance_recover")
        if self.system is not None:
            self.system.on_instance_recovered(self)
        self.kick()

    def sweep_waiting(self) -> list[Request]:
        """Drain the waiting queue (arrivals routed here between the crash
        and its detection); the system re-queues them elsewhere."""
        lost = [r for r in self.waiting if not r.finished]
        self.waiting.clear()
        if self.prefix_cache is not None:
            # A queued request may already hold a warm-prefix reference
            # (taken at the head of the queue while waiting for KV room);
            # it is leaving this instance, so drop the hold and let it try
            # again wherever it lands.
            for request in lost:
                self.prefix_cache.release(request.request_id)
                request.prefix_cached = None
        return lost

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}({self.name}, gpus={self.gpus}, "
            f"{self.parallel.label()}, waiting={len(self.waiting)}, "
            f"running={self.total_running})"
        )
