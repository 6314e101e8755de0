(** Executor: runs parsed or textual SQL against a {!Database.t}.

    This is the layer the rest of the system drives: controller-table
    checks (section 4), implementation-table generation (section 5) and
    emptiness-style invariants all go through [query] / [exec] /
    [is_empty]. *)

exception Exec_error of string

val run_query : ?label:string -> Database.t -> Sql_ast.query -> Table.t
(** Evaluate a query AST through the cost-based {!Planner} (vectorized
    execution, lineage carried when tracked).  The result table is named
    ["<query>"] unless produced by [CREATE TABLE … AS].  Executions are
    recorded in the plan observatory under [label] (default: the
    pretty-printed query), at site ["sql"] unless a more specific
    {!Obs.Planlog.with_site} label is active.
    @raise Exec_error on a table the database does not hold. *)

val run_statement : Database.t -> Sql_ast.statement -> Database.t * Table.t option
(** Evaluate a statement; [CREATE TABLE AS] / [INSERT] / [DROP] return the
    updated database, plain queries also return the result table. *)

val query : Database.t -> string -> Table.t
(** Parse then {!run_query}. *)

val exec : Database.t -> string -> Database.t * Table.t option
(** Parse then {!run_statement}. *)

val exec_script : Database.t -> string list -> Database.t
(** Run statements in sequence, threading the database. *)

val is_empty : Database.t -> string -> bool
(** [is_empty db sql]: the paper's [\[Select …\] = empty] invariant check. *)
