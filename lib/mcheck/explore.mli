(** Breadth-first explicit-state exploration with counterexample traces.

    This is the Murphi-style baseline the paper positions itself against:
    exhaustive, able to find deep interleavings, and exponential in the
    number of nodes — experiment E9 sweeps [nodes] and shows the state
    count exploding while the SQL static analysis stays flat. *)

type violation = {
  kind : [ `Coherence | `Stale_data | `Unhandled | `Deadlock ];
  detail : string;
  trace : string list;  (** transition labels from the initial state *)
}

type result = {
  explored : int;  (** distinct states visited *)
  transitions : int;
  max_depth : int;
  elapsed : float;  (** wall-clock seconds *)
  cpu_s : float;
      (** process CPU seconds over the search, summed across domains: above
          [elapsed] when several domains work *)
  violation : violation option;  (** first violation found, if any *)
  complete : bool;  (** false if [max_states] stopped the search *)
  dedup_hits : int;  (** successors already in the visited set *)
  per_depth : (int * int) list;  (** states expanded per BFS depth *)
  max_frontier : int;
      (** peak BFS queue length (approximate in-flight peak for the
          stealing engine) *)
  states : string list option;
      (** sorted visited-set keys, when requested with [keep_states] *)
  engine : string;
      (** which exploration core ran: ["seq"], ["seq-packed"], ["level"]
          or ["steal"] *)
  probabilistic : bool;
      (** dedup used hash compaction ([compact_bits]): a fingerprint
          collision may have hidden states, so a clean result is
          high-confidence, not proof *)
}

val states_per_sec : result -> float
(** [explored] per wall-clock second. *)

val dedup_rate : result -> float
(** Fraction of transitions whose target was already visited. *)

val layout_of_tables : Semantics.tables -> Semantics.config -> Pack.layout
(** The packing layout the stealing engine uses for a model: per-field
    dictionaries seeded with the full vocabulary of the controller
    tables ({!Semantics.pack_vocab}) plus the protocol constants the
    semantics writes programmatically. *)

val run :
  ?max_states:int ->
  ?symmetry:bool ->
  ?tables:Semantics.tables ->
  ?keep_states:bool ->
  ?engine:[ `Auto | `Seq | `Seq_packed | `Level | `Steal ] ->
  ?compact_bits:int ->
  Semantics.config ->
  result
(** Explicit-state search from the all-invalid initial state.
    [max_states] (default 200_000) bounds the search; [tables] lets
    callers reuse precompiled rule lists across runs.  [symmetry]
    (default false) visits one representative per node-permutation orbit
    ({!Mstate.canonical_key} / {!Pack.canonical}) — same verdicts, far
    fewer states; counterexample traces then describe a representative
    of each orbit rather than the literal interleaving.  [keep_states]
    (default false) returns the sorted visited-set keys in
    {!field-states}, used by the differential test suite to compare
    reachable-state sets; the packed engines report the same strings by
    unpacking their visited vectors through the boxed key function.

    [engine] selects the exploration core:
    - [`Seq]: the boxed reference — FIFO BFS, Marshal-string visited
      set, exact parent-pointer counterexample traces.
    - [`Seq_packed]: the same single-threaded BFS order over the
      bit-packed representation ({!Pack}) — the isolation benchmark for
      packing.
    - [`Level]: the level-synchronized parallel BFS whose merge replays
      sequential bookkeeping, bit-identical to [`Seq] in every field.
    - [`Steal]: the work-stealing packed frontier
      ({!Par.Pool.steal_loop}).  For complete exact searches the
      reachable set, [explored], [transitions], [dedup_hits], verdicts
      and coverage bitmaps are identical to [`Seq]; [per_depth],
      [max_depth] and [max_frontier] are schedule-dependent.  A bounded
      search still expands exactly [max_states] states (atomic tickets)
      but an arbitrary subset.  When the steal path hits a violation it
      stops and replays through [`Seq] for a bit-identical verdict and
      trace.
    - [`Auto] (default): [`Seq] when {!Par.Pool.sequential}, otherwise
      [`Steal].

    [compact_bits] (packed engines only) switches the visited set to
    N-bit hash compaction: memory bounded by the fingerprint table, but
    the result is flagged {!field-probabilistic}, [keep_states] is
    unavailable, and violations are reported without traces. *)

val pp_result : Format.formatter -> result -> unit

val pp_depth_profile : Format.formatter -> result -> unit
(** ASCII histogram of states expanded per BFS depth. *)
