(** A dependency-free domain pool for the data-parallel kernels.

    The paper's whole methodology is bulk relational work — cross-product
    pruning, pairwise composition, breadth-first reachability — and those
    kernels split into independent chunks whose results only need to be
    concatenated back in chunk order.  This module provides exactly that:
    chunked parallel maps over arrays and lists with a {e deterministic
    merge order}, so the parallel result is structurally identical to the
    sequential one, element for element, plus a work-stealing loop.

    Worker domains are spawned lazily on first use and then persist,
    blocked on a condition variable, so a long run pays the spawn cost
    once.  With [domains () <= 1] every entry point falls back to the
    plain [Stdlib] sequential implementation ([List.map], …), making the sequential path byte-identical to a
    build without this module.

    Determinism contract: callers must pass chunk functions that are pure
    (no shared mutable state, no I/O, no observability recording); all
    bookkeeping belongs in the spawning domain, after the join.  Chunk
    results are merged left-to-right in chunk index order.

    Two carve-outs: transition-coverage recording ({!Obs.Coverage.record})
    and flight-recorder events ({!Obs.Flightrec.record}) are legal inside
    workers.  Each domain writes a private shard (a bitmap, a ring), and
    the only projections consumers may treat as deterministic are
    order-free merges — bitmap OR for coverage, per-tag / per-rule counts
    for events.  Anything whose merge is order-sensitive (ordered traces,
    interleavings) remains scheduling-dependent and is reported as such.

    Nested parallel regions are not parallelized: a call made from inside
    a worker runs sequentially, so kernels freely compose without
    deadlocking the pool. *)

val available : unit -> int
(** [Domain.recommended_domain_count ()] — what the hardware offers. *)

val domains : unit -> int
(** Current parallelism degree.  Initialized from the [ASURA_DOMAINS]
    environment variable (default [1]); [--domains N] on the CLI calls
    {!set_domains}. *)

val set_domains : int -> unit
(** Set the parallelism degree (clamped to at least 1). *)

val with_domains : int -> (unit -> 'a) -> 'a
(** Run a thunk under a temporary parallelism degree, restoring the
    previous degree afterwards (exception-safe). *)

val sequential : unit -> bool
(** [domains () <= 1], or the caller is itself a pool worker. *)

val in_worker : unit -> bool
(** Is the calling domain a pool worker? *)

val degree : ?min_chunk:int -> int -> int
(** [degree ~min_chunk n]: how many chunks {!map_chunks} would split [n]
    items into — [1] means the sequential fallback.  Each chunk gets at
    least [min_chunk] items (default [1]), and inputs smaller than the
    {!set_inline_below} threshold always run inline: for small regions
    the queue/barrier traffic and extra GC coordination of a fan-out
    cost more than the parallelism recovers. *)

val set_inline_below : int -> unit
(** Set the small-work threshold (item count) below which chunked entry
    points run inline regardless of {!domains}.  Default [128],
    overridable with the [ASURA_PAR_INLINE] environment variable; [0]
    disables the fallback.  {!steal_loop} is unaffected. *)

val map_chunks : ?min_chunk:int -> ('a array -> 'b) -> 'a array -> 'b array
(** Split the input into [degree] contiguous chunks, apply [f] to each
    chunk (in parallel when [degree > 1]), and return the per-chunk
    results in chunk order.  With one chunk this is [[| f input |]] run in
    the calling domain. *)

val map_list : ?min_chunk:int -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map], preserving order. *)

type 'job ctl = { push : 'job -> unit; stop : unit -> unit }
(** Handle given to {!steal_loop} work functions: [push] enqueues a new
    job on the calling participant's own deque; [stop] requests global
    early termination (best-effort — jobs already mid-execution finish). *)

val steal_loop :
  ?workers:int ->
  init:(int -> 'acc) ->
  work:('acc -> 'job ctl -> 'job -> unit) ->
  'job list ->
  'acc array
(** Work-stealing parallel loop: the initial [jobs] are dealt round-robin
    to [workers] participants (default {!domains}[ ()]), each of which
    repeatedly pops from its own deque — newest first — executes
    [work acc ctl job], and steals the {e oldest} job from a random victim
    when its own deque is empty.  Terminates when every pushed job has
    been executed (detected by a global unfinished-job count) or when
    [ctl.stop] is called.  Returns the per-participant accumulators in
    participant order.

    Unlike the chunked entry points, the execution order — and therefore
    anything order-sensitive a caller folds into its accumulators — is
    {e not} deterministic at [workers > 1]; callers needing the
    deterministic-merge contract must only extract order-free results
    (sets, bitmap ORs, sums) from the accumulator array.  With
    [workers = 1] (or under {!sequential}) the loop degenerates to a
    single FIFO queue on the calling domain, i.e. exact breadth-first
    order.  Participants are ordinary pool jobs, so the resident worker
    domains are reused ("spawn" counter in the ["par"] registry counts
    every [Domain.spawn]). *)
