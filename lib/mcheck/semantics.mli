(** Operational semantics of the protocol, driven directly by the
    generated controller tables.

    Each transition either {e issues} a processor operation through the
    PIF table or {e delivers} the head of one FIFO to its endpoint and
    executes the matching row of the D / C / N / M table.  Executing the
    tables (rather than a hand-written re-implementation) means the model
    checker validates exactly the artifact the methodology produces — the
    same rows that are mapped to hardware in section 5. *)

type tables
(** The six executable tables (D, C, N, PIF, M, IO), each compiled once
    against the delivery site that fires it.  A site builds its binding
    as a [string array] over a fixed column order; a guard becomes
    (binding position, value) pairs, an action a [string option array]
    over the site's output positions, and rules are bucketed by a
    discriminating guard position (the input message name, in practice)
    so dispatch compares a handful of candidates.  The matched row is
    exactly the row first match over the priority-ordered rules gives,
    so coverage and flight-recorder attribution (table id, row) are
    those of the string rules. *)

val load_tables : unit -> tables

val load_tables_with : ?dir:Protocol.Ctrl_spec.t -> unit -> tables
(** Like {!load_tables} but with the directory-controller specification
    replaced — used to model-check seeded-bug variants of D. *)

val reference_tables : tables -> tables
(** The same tables dispatched by the naive matcher: each binding is
    zipped with its site's columns and matched first-match over the
    string rules by {!Mapping.Codegen.eval_rule}.  The boxed reference
    search runs on these, so the differential suites check the compiled
    dispatch against a matcher that shares none of its code. *)

type config = {
  nodes : int;  (** caches in the system (2–5 are practical) *)
  addrs : int;  (** distinct cache lines (1–2 are practical) *)
  ops : string list;
      (** processor operations the workload may issue, from
          [load; store; evictmod; evictsh] *)
  capacity : int;
      (** FIFO capacity per (source, destination, class) channel; a
          transition whose outputs would overflow a queue is disabled
          (hardware backpressure), which both keeps the state space
          finite and lets the search find channel deadlocks *)
  io_addrs : int list;
      (** addresses living in the uncached I/O space: only I/O operations
          ([ioload] / [iostore] / [iormwop]) target them, and they are
          served by the device-bus (IO) controller table *)
  lossy : bool;
      (** inter-node links may silently drop a message (the link
          controller's crcdrop behaviour); the search then finds the
          orphaned transactions lost messages leave behind — the protocol
          has no timeout/recovery layer, as in the paper *)
}

type outcome =
  | Next of Mstate.t
  | Broken of string  (** the transition exposed a protocol error *)

val successors :
  ?labels:bool -> tables -> config -> Mstate.t -> (string * outcome) list
(** All enabled transitions with human-readable labels.  [~labels:false]
    returns [""] in place of every label, skipping the rendering cost —
    for engines that reconstruct traces by replay instead of storing a
    label per visited state. *)

val state_violations : config -> Mstate.t -> string list
(** Structural coherence violations of a state itself: two owners, an
    owner coexisting with sharers, or caches alive under an idle invalid
    directory. *)

(** {1 Single-step primitives}

    Exposed for the queue-accurate simulator ({!Sim}), which schedules
    deliveries itself against virtual-channel capacities instead of
    exploring all interleavings. *)

val deliver :
  ?config:config ->
  tables ->
  Mstate.t ->
  cls:string ->
  dst:int ->
  Mstate.msg ->
  outcome
(** Process one already-dequeued message at its endpoint.  [config]
    defaults to an all-memory address space (only [io_addrs] is
    consulted here). *)

val issue_op :
  tables -> Mstate.t -> node:int -> addr:int -> op:string -> Mstate.t option
(** Run one processor operation through the PIF table; [None] if it is a
    pure cache hit (no state change) or undefined for the line state. *)

val reissue : Mstate.t -> node:int -> addr:int -> Mstate.t option
(** Re-enter a backed-off (retried) operation into the network as a
    fresh request; [None] if nothing is backed off at that line. *)

val dir_binding :
  config -> Mstate.t -> cls:string -> Mstate.msg -> (string * string) list
(** The input binding the directory table sees for a message — also the
    first half of the ED binding used by the implementation-level
    simulator ({!Sim.Impl_runner}). *)

val directory_rules : tables -> Mapping.Codegen.rule list
(** The directory's string rule list (for gating against ED variants). *)

val pack_vocab : tables -> (string * string list) list
(** Every (column, value) string pair appearing in any guard or action
    of the tables, grouped by column and sorted.  The bit-packer
    ({!Pack.layout}) seeds its per-field dictionaries from this, so
    packing in pool workers never has to intern. *)

(** {1 Compiled dispatch}

    Exposed for the differential tests, which check it against first
    match over the string rules ({!Mapping.Codegen.eval_rule}). *)

type ruleset
(** One compiled table. *)

val rulesets : tables -> (string * ruleset) list
(** Every table by name: D, C, N, PIF, M, IO. *)

val compile_table :
  columns:string array ->
  inputs:string list ->
  outputs:string list ->
  Relalg.Table.t ->
  ruleset
(** Compile any table against a binding column order, the way
    {!load_tables} compiles the executable ones, without registering it
    for coverage: lets the tests check dispatch on tables whose rules
    overlap, where priority order decides the row (the generated
    controller tables never overlap). *)

val columns : ruleset -> string array
(** The binding columns of the table's delivery site, in binding-array
    order. *)

val rules : ruleset -> Mapping.Codegen.rule list
(** The string rules the table was compiled from, in priority order. *)

val dispatch : ruleset -> string array -> (int * (string * string) list) option
(** The row compiled dispatch fires for a binding (in {!columns} order),
    with its non-null outputs; recorded nowhere.  A value no guard names
    stands for an absent column.
    @raise Invalid_argument if the binding's length is not the site's. *)
