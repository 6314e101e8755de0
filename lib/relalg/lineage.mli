(** Row-level provenance for derived tables.

    When tracking is enabled, every table derived by the query executor
    ({!Planner} over {!Batch}, which carries each row's id in the table
    it streams from and gathers lineage on materialization), by {!Ops}
    or by {!Solver} carries, per row, a compact {e lineage}: the set of
    base contributors [(source id, row index)] that the row was derived
    from.  Group and count results carry none.  A base table is any
    table that does not itself carry lineage; the first operator that
    consumes it synthesizes the identity lineage [row i <- (id, i)] and
    registers the table here, so the contributors of any derived row can
    later be decoded back into named base rows — the raw material of the
    checker's [asura why] narratives.

    Tracking is {e off} by default and the whole subsystem then costs
    one check per operator: no row-id vector is allocated and the
    columnar hot path stays integer-only.  Enabling it is meant for
    diagnostic runs (invariant explanation, deadlock narratives, the
    lineage test suite), not for benchmarking. *)

type contrib = { source : int; row : int }
(** One base contributor: [source] identifies a registered base table,
    [row] a row index within it. *)

type row = contrib array
(** The contributors of one derived row, in derivation order
    (duplicates removed). *)

val tracking : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val with_tracking : (unit -> 'a) -> 'a
(** Run a thunk with tracking enabled, restoring the previous state
    (exception-safe). *)

(** {1 Source registry}

    Base tables are registered the first time an operator synthesizes
    their identity lineage, keyed by {!Table.id}.  The registry keeps
    the table name, its schema columns and a row accessor, so
    diagnostics can render a contributor without holding the original
    table value.  Guarded by a mutex: safe from any domain. *)

type source = {
  id : int;
  name : string;
  columns : string list;
  get : int -> Value.t array;  (** decode one row of the base table *)
}

val register : id:int -> name:string -> columns:string list ->
  get:(int -> Value.t array) -> unit
(** Idempotent per [id]. *)

val source : int -> source option
val source_name : int -> string
(** The registered name, or ["#<id>"] when unknown. *)

val clear : unit -> unit
(** Drop every registered source (test isolation). *)

(** {1 Helpers} *)

val base : int -> int -> row
(** [base id i]: the identity lineage of row [i] of base table [id]. *)

val merge : row -> row -> row
(** Contributors of a row derived from two parents (set union,
    left-to-right order preserved). *)

val pp : Format.formatter -> row -> unit
(** Render as [name[row] + name[row] + ...]. *)

val to_string : row -> string
