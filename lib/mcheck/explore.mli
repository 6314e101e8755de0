(** Breadth-first explicit-state exploration with counterexample traces.

    This is the Murphi-style baseline the paper positions itself against:
    exhaustive, able to find deep interleavings, and exponential in the
    number of nodes — experiment E9 sweeps [nodes] and shows the state
    count exploding while the SQL static analysis stays flat.

    One engine searches: {!run}, a work-stealing frontier
    ({!Par.Pool.steal_loop}) over bit-packed states ({!Pack}) with
    Stern–Dill-style dedup.  On one domain it is an exact FIFO BFS.
    The boxed BFS it replaced stays for two uses only: replaying a
    violation into an exact counterexample trace (on the same compiled
    tables), and, as {!run_reference}, the differential oracle of the
    test suite (on the naive rule matcher). *)

type violation = {
  kind : [ `Coherence | `Stale_data | `Unhandled | `Deadlock ];
  detail : string;
  trace : string list;  (** transition labels from the initial state *)
}

type result = {
  explored : int;  (** distinct states visited *)
  transitions : int;
  max_depth : int option;
      (** deepest BFS level expanded; [None] when the search ran on
          several participants, whose discovery depths are not BFS
          depths *)
  elapsed : float;  (** wall-clock seconds *)
  cpu_s : float;
      (** process CPU seconds over the search, summed across domains: above
          [elapsed] when several domains work *)
  violation : violation option;  (** first violation found, if any *)
  complete : bool;  (** false if [max_states] stopped the search *)
  dedup_hits : int;  (** successors already in the visited set *)
  per_depth : (int * int) list;
      (** states expanded per BFS depth; [[]] when [max_depth] is
          [None] *)
  max_frontier : int;
      (** peak BFS queue length (an approximate in-flight peak on
          several participants) *)
  states : string list option;
      (** sorted visited-set keys, when requested with [keep_states] *)
  engine : string;
      (** which core produced the result: ["steal"] from {!run}, ["seq"]
          from {!run_reference} *)
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
(** The packing layout {!run} uses for a model: per-field
    dictionaries seeded with the full vocabulary of the controller
    tables ({!Semantics.pack_vocab}) plus the protocol constants the
    semantics writes programmatically. *)

val run :
  ?max_states:int ->
  ?symmetry:bool ->
  ?tables:Semantics.tables ->
  ?keep_states:bool ->
  ?compact_bits:int ->
  Semantics.config ->
  result
(** Explicit-state search from the all-invalid initial state.
    [max_states] (default 200_000) bounds the search: exactly that many
    states are expanded (atomic tickets), an arbitrary subset on several
    participants.  [tables] lets callers reuse precompiled rule lists
    across runs.  [symmetry] (default false) visits one representative
    per node-permutation orbit ({!Pack.canonical}) — same verdicts, far
    fewer states; counterexample traces then describe a representative
    of each orbit rather than the literal interleaving.  [keep_states]
    (default false) returns the sorted visited-set keys in
    {!field-states}, unpacked through the boxed key function
    ({!Mstate.key} / {!Mstate.canonical_key}), so the differential suite
    can compare reachable-state sets with {!run_reference}.

    The search runs on [min (Par.Pool.domains ()) (Domain.recommended_domain_count ())]
    participants.  On one it is a FIFO BFS and every field except the
    clocks equals {!run_reference}'s.  On several, the reachable set,
    [explored], [transitions], [dedup_hits], verdicts and coverage
    bitmaps of a complete search are still identical; [max_depth] is
    [None], [per_depth] is empty and [max_frontier] is approximate.
    When the search hits a violation it stops and replays the search
    through the boxed BFS of {!run_reference}, on the same compiled
    tables, for a bit-identical verdict and trace.

    [compact_bits] switches the visited set to N-bit hash compaction:
    memory bounded by the fingerprint table, but the result is flagged
    {!field-probabilistic}, [keep_states] is unavailable, and violations
    are reported without traces. *)

val run_reference :
  ?max_states:int ->
  ?symmetry:bool ->
  ?tables:Semantics.tables ->
  ?keep_states:bool ->
  Semantics.config ->
  result
(** The boxed reference search: FIFO BFS, Marshal-string visited set
    ({!Mstate.key} / {!Mstate.canonical_key}), exact parent-pointer
    counterexample traces, always one domain, and rules matched by the
    naive first match of {!Semantics.reference_tables} instead of the
    compiled dispatch.  Same arguments and defaults as {!run}.  It is
    the test oracle and the benchmark baseline, not a production
    path. *)

val pp_result : Format.formatter -> result -> unit

val pp_depth_profile : Format.formatter -> result -> unit
(** ASCII histogram of states expanded per BFS depth, or a note that the
    profile needs a one-domain search when [max_depth] is [None]. *)
