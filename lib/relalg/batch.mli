(** Vectorized physical operators over fixed-size batches of dictionary
    codes: the one executor behind every query, index lookup and
    programmatic operator.

    The cost-based planner ({!Planner}) compiles to this module.  A
    {!source} streams batches of up to {!batch_rows} rows as plain [int]
    code vectors over per-operator column buffers, so selection and
    projection inner loops are tight integer loops with no per-row
    boxing, and the blocking operators (join/group/distinct/sort/top-k)
    key their hash and direct-address indexes on combined dictionary
    codes instead of polymorphic row hashing.

    Ordering semantics are those of SQL over row lists: select, project
    and limit keep input order, distinct and group are first-occurrence,
    sort is stable under {!Value.order}, and {!join_tables} emits pairs
    left-major with right matches ascending.  The test suite checks every
    operator against a row-at-a-time oracle.

    Lineage: a source over a tracked table (one that carries lineage, or
    any table while {!Lineage.tracking} is on) also carries each row's id
    in that table, and every materializing operator gathers the table's
    {!Lineage.row}s by those ids; {!join_tables} merges both parents'.
    Group and count results carry no lineage.  Untracked sources
    allocate no id vector. *)

val batch_rows : int
(** Rows per re-batching operator's batch (1024).  Borrowed table scans
    ({!of_table}) emit one batch of the full cardinality instead;
    operators size their buffers to the stream's declared width, so
    either shape flows through every consumer. *)

type source
(** A pull-based stream of batches.  Each pull refills (or, for borrowed
    scans, reveals) the source's own stable column buffers and returns
    the number of valid rows, so compiled predicates can bind to the
    buffers once, before the first pull. *)

val schema : source -> Schema.t

val of_table : Table.t -> source
(** Borrow the table's code buffers as a single full-cardinality batch —
    no per-batch copy, safe because {!Table.codes} buffers are immutable
    by contract.  Bytes handed out this way are counted by the
    [batch.bytes_borrowed] counter of the ["relalg"] metrics registry
    (vs [batch.bytes_copied] for filter gathers and drains), so
    [sys.metrics] shows the scan-copy win. *)

val of_rows : Table.t -> int array -> source
(** One batch of the table's rows at the given positions, in the given
    order (an index lookup's access path); the gathered bytes count
    toward [batch.bytes_copied]. *)

val select : ?funcs:Expr.funcs -> Expr.t -> source -> source
(** Filter with a predicate compiled once against the input buffers
    ({!Expr.compile_columns}); surviving rows are gathered contiguously,
    preserving order. *)

val project : string list -> source -> source
(** Zero-copy column selection: aliases the parent's buffers. *)

val limit : int -> source -> source
(** First [n] rows; stops pulling upstream once satisfied. *)

val tap : (int -> unit) -> source -> source
(** Observe the stream: [f] is called with each non-empty batch's row
    count — how the planner records actual per-operator cardinalities
    for [EXPLAIN --analyze] without materializing. *)

val timed : (int64 -> int -> unit) -> source -> source
(** Time the stream: [f ns b] is called after every pull with the wall
    time spent in it (inclusive of upstream pulls) and the pull's result
    ([-1] at end of stream) — how the planner fills per-operator
    [actual_ms]/[batches] for the plan observatory. *)

val count : source -> int
(** Drain, counting rows. *)

val to_table : name:string -> source -> Table.t
(** Drain into a table sharing the source's dictionaries (and carrying
    the gathered lineage when the source is tracked). *)

val group_table : by:string list -> source -> Table.t
(** [GROUP BY … COUNT]: one row per distinct key in first-occurrence
    order, schema [by @ ["count"]], named ["<group>"].  Uses a dense
    direct-address index when the product of key-dictionary sizes is
    small, an open-addressing code-keyed hash table otherwise. *)

val distinct_table : name:string -> source -> Table.t
(** First-occurrence dedup over whole rows (same index strategy as
    {!group_table}). *)

val sort_table : name:string -> (string * [ `Asc | `Desc ]) list -> source -> Table.t
(** Stable sort under {!Value.order}; ties keep input order. *)

val topk_table :
  name:string -> int -> (string * [ `Asc | `Desc ]) list -> source -> Table.t
(** First [k] rows of the stable sort, computed with a bounded
    sorted-insertion buffer instead of materializing and sorting the
    whole input — the planner's rewrite of [LIMIT k] over [ORDER BY]. *)

val join_tables :
  ?build_left:bool ->
  on:(string * string) list ->
  Table.t ->
  Table.t ->
  Table.t
(** Hash equi-join keyed on dictionary codes (right-side key codes are
    translated into the left dictionaries, so probe compares are integer
    equality).  The result keeps all columns of the left table, then the
    right columns that are not join keys; it is named ["<a>|x|<b>"] and
    lists matches left-major, right rows ascending, whichever side is
    built: when the left side is the build side, matches are restored to
    that order by a stable counting sort.  [?build_left] overrides the
    cardinality heuristic (used by tests).  Each row's lineage merges its
    two parents' when either input is tracked.

    @raise Ops.Schema_clash on non-key column name collisions. *)
