(** The row-at-a-time reference engine, kept only as a test oracle.

    Each operator is the textbook sequential implementation over
    {!Relalg.Table.t}: one pass per clause, in the fixed order SQL
    defines, with lineage propagated through {!Relalg.Table}'s own
    gathers when it is tracked.  The production executor
    ({!Relalg.Planner} over {!Relalg.Batch}) must reproduce these results
    row for row, in order, lineage included; the differential suites
    check that. *)

open Relalg

val select : ?funcs:Expr.funcs -> Expr.t -> Table.t -> Table.t
(** Keep the rows satisfying the predicate, in order. *)

val equi_join : on:(string * string) list -> Table.t -> Table.t -> Table.t
(** Rows of the product where each [ta.ai = tb.bi], all [ta] columns then
    the non-key [tb] columns, [ta]-major with [tb] matches ascending.
    @raise Ops.Schema_clash on a kept [tb] column that collides. *)

val group_count : by:string list -> Table.t -> (Row.t * int) list
(** Multiplicity of each distinct projection onto [by], in
    first-occurrence order. *)

val group_count_lineage :
  by:string list -> Table.t -> (Row.t * int * Lineage.row) list
(** {!group_count} plus, per group, the merged base contributors of every
    member row. *)

val order_by : (string * [ `Asc | `Desc ]) list -> Table.t -> Table.t
(** Stable sort under {!Value.order}; ties keep input order. *)

val limit : int -> Table.t -> Table.t
(** The first [n] rows in current order. *)

val execute : Database.t -> Plan.t -> Table.t
(** Evaluate a logical plan operator by operator, unoptimized. *)

val run : ?optimize:bool -> Database.t -> string -> Table.t
(** Parse, translate ({!Plan.of_query}), optionally {!Plan.optimize}
    (default [true]), {!execute}. *)

val run_query : Database.t -> Sql_ast.query -> Table.t
(** Interpret a query AST clause by clause; the result is named
    ["<query>"].  @raise Sql_exec.Exec_error on an unknown table. *)
