(** Cost-based query planning over the vectorized {!Batch} layer: the
    one relational executor.

    The planner annotates an optimized logical {!Plan.t} with cardinality
    estimates — per-column dictionary sizes are exact distinct counts in
    the columnar engine, so selectivity estimation is unusually well
    informed — then picks physical operators: an index scan for an
    indexed [col = literal] conjunct, hash-join build side by estimated
    input size, [LIMIT]-over-[ORDER BY] as a bounded top-k, selections
    pushed below joins into whichever side covers their columns.
    Execution streams batches of dictionary codes through {!Batch} and
    records actual per-operator cardinalities, so [EXPLAIN --analyze]
    can show estimated vs. actual rows for every operator.

    Every SQL query ({!Sql_exec}), index lookup and programmatic
    select/join/group/distinct runs here, with lineage carried through
    the batches when it is tracked ({!Lineage}), so [why] narratives
    come from the same executor as the verdicts.  The test suite checks
    it against a row-at-a-time oracle kept only there. *)

val forced_build_side : unit -> bool option
(** [ASURA_PLAN_BUILD=left|right] overrides every hash-join build-side
    choice (read dynamically); [Some true] means build-left.  The
    deterministic "planted plan regression" knob the plan gate drills
    with: the structural fingerprint covers the build side, so forcing
    the non-chosen side is exactly what [asura plan diff --strict] must
    catch. *)

type keys = (string * [ `Asc | `Desc ]) list

type op =
  | Scan of string
  | Index_scan of {
      table : string;
      column : string;
      value : Value.t;
      index : Index.t;
    }  (** the rows whose [column] equals [value], through [index] *)
  | Filter of Expr.t
  | Project of string list
  | Distinct
  | Sort of keys
  | Topk of int * keys  (** first [k] of the stable sort, bounded buffer *)
  | Limit of int
  | Hash_join of { on : (string * string) list; build_left : bool }
  | Union
  | Except
  | Intersect
  | Count
  | Group of string list
  | Nothing of string list  (** provably empty *)

type t = {
  op : op;
  est : float;  (** estimated output rows *)
  cost : float;  (** cumulative cost estimate (abstract row-touches) *)
  mutable actual : int;  (** rows observed by execution; [-1] before *)
  mutable ns : int64;
      (** wall time observed at this node, inclusive of children *)
  mutable batches : int;  (** batches pulled through (streaming nodes) *)
  children : t list;
}

val plan : ?indexes:Index.t list -> Database.t -> Plan.t -> t
(** Optimize ({!Plan.optimize} + join pushdown), then annotate with
    estimates and physical choices.  A filter directly over a scan whose
    predicate has a [col = literal] conjunct (the first such) on a column
    of one of [indexes] becomes an {!op.Index_scan} leaf, with the other
    conjuncts as a filter above it.  An index applies only to the table
    snapshot it was built from: one whose {!Index.source} is not the
    table the database currently holds under that name (another
    {!Table.id}) is ignored.  The caller builds each index once and may
    reuse it across queries.
    @raise Database.Unknown_table for unresolvable scans. *)

val fingerprint : Database.t -> t -> string
(** Structural plan fingerprint (16 hex chars, {!Obs.Planlog.fingerprint}
    over canonical node strings).  Invariant under conjunct reordering
    and column renaming (column references canonicalize to positional
    indices); sensitive to operator shape, access path (an index scan
    canonicalizes as [indexscan:T:#k=v]), hash-join build side, pushdown
    placement and top-k recognition.  Stable across processes,
    so safe to persist in manifests and committed baselines. *)

val execute : Database.t -> t -> Table.t
(** Run the annotated plan through {!Batch}, filling [actual], [ns] and
    [batches] fields. *)

val run_plan : ?indexes:Index.t list -> Database.t -> Plan.t -> Table.t
val run_query : ?label:string -> Database.t -> Sql_ast.query -> Table.t
(** Plan, execute, and report the execution to the plan observatory
    ({!Obs.Planlog}) under [label] (default: the query pretty-printed);
    the result of [run_query] is named ["<query>"]. *)

val render : t -> string
(** Indented tree with [est]/[actual]/[cost] per operator ([actual=-]
    before execution). *)

val explain : ?indexes:Index.t list -> Database.t -> string -> string
(** Plan a query string and render it unexecuted — the [EXPLAIN] (no
    [--analyze]) view with cost estimates. *)

type report = {
  table : Table.t;
  root : t;
  total_ns : int64;
  fingerprint : string;
}

val analyze : ?indexes:Index.t list -> Database.t -> string -> report
(** Plan, execute, and time a query string: [EXPLAIN --analyze] with
    estimated vs. actual rows per operator.  Also records the execution
    to the plan observatory under the query text. *)

val render_report : report -> string
val to_json : report -> Obs.Json.t
(** [asura-explain/2]-schema document: every [asura-explain/1] member
    unchanged, plus the top-level ["fingerprint"] and per-node
    ["misest"]/["actual_ms"]/["batches"]. *)

(** {2 Programmatic operators}

    Entry points for consumers that build operator chains in code
    (solver, checkers, mapping, bench), on the same vectorized operators
    as planned queries; results carry lineage when an input is tracked.
    Each call is recorded to the plan observatory when telemetry is on. *)

val equi_join : on:(string * string) list -> Table.t -> Table.t -> Table.t
(** [equi_join ~on:[(a1, b1); ...] ta tb]: rows of the product where each
    [ta.ai = tb.bi], keeping all columns of [ta] and the non-key columns
    of [tb], in [ta]-major order ({!Batch.join_tables}; builds on the
    smaller side unless {!forced_build_side}).
    @raise Ops.Schema_clash if a kept [tb] column collides with a [ta]
    column. *)

val select : ?funcs:Expr.funcs -> Expr.t -> Table.t -> Table.t
(** Keep the rows satisfying the predicate, in order; the result keeps
    the input's name. *)

val group_count : by:string list -> Table.t -> Table.t
(** The materialized [by @ ["count"]] table (name ["<group>"]), like the
    SQL layer's GROUP BY result. *)

val distinct : Table.t -> Table.t
