(** Controller-table generation from column tables and column constraints
    (section 3 of the paper).

    A table is described by its {e column tables} (one per column,
    enumerating the legal values, always including [NULL] for protocol
    columns) and one {e column constraint} per column — a boolean
    {!Expr.t} relating that column to the others.  The generated table is
    the set of satisfying assignments of the conjunction of all column
    constraints, i.e. the cross product of the column tables pruned by the
    constraints.

    {!generate_monolithic} materializes the full cross product and filters
    by the whole conjunction — the paper reports ~6 hours for the
    directory table this way.  {!generate} adds one column at a time and
    applies each constraint as soon as all columns it mentions are bound —
    the paper reports a few minutes.  Both produce the same table; the
    incremental strategy prunes dead branches early.

    {!generate} never materializes the candidate extensions.  Each
    constraint that becomes ready when column [c] is added is read as a
    first-match chain [g1 ? l1 : g2 ? l2 : ... : l] (a non-ternary is a
    chain of no guards) and solved per parent row by two rules keyed on
    expression shape only:
    - {e guard-set compilation}: when no guard mentions [c], the guard
      list is evaluated once per row.  Guards that are conjunctions of
      single-column atoms ([col = k], [col <> k], [col IN (...)]) compile
      to per-(column, dictionary code) bitsets over guard positions; a
      row's first matching guard is the lowest set bit of the AND of its
      columns' masks.  Other guards fall back to compiled closures.
      Structurally equal guard lists share one first-match index, kept
      as a hidden int column through later extensions, so the identical
      chains of many output columns cost one walk.  An OR of atomic
      conjunctions compiles the same way: it holds iff the AND is nonzero.
    - {e definitional leaves}: a leaf [c = e], with [e] a constant or a
      bound column, determines [c]: the row extends by exactly the domain
      positions equal to [e], in domain order.  Any other leaf is
      evaluated over the domain for that row only.

    Each call also returns {!stats}.  The {e logical} counts
    ([candidates], [evaluations], [per_column], [pruning]) are exactly
    those of enumerating every candidate extension and short-circuiting
    its newly-ready constraints in order, so the complexity gap between
    the strategies is measured independently of machine speed and of how
    the solver factorizes the work.  [physical_evaluations] counts the
    work actually done. *)

type role = Input | Output

type column = {
  cname : string;
  role : role;
  domain : Value.t list;  (** the column table: legal values, in order *)
}

type spec
(** A validated table specification. *)

type column_stats = {
  column : string;
  considered : int;  (** candidate extensions tried while adding the column *)
  kept : int;  (** rows surviving the column's applicable constraints *)
}

type stats = {
  candidates : int;  (** candidate (partial) rows materialized *)
  evaluations : int;
      (** logical constraint evaluations: those a per-candidate
          enumeration short-circuiting each column's newly-ready
          constraints in order would perform *)
  physical_evaluations : int;
      (** evaluations actually performed: one per row for each distinct
          guard list's first-match walk, one per parent row for a
          definitional leaf, one per surviving candidate for any other
          leaf ({!generate_monolithic}: equal to [evaluations]) *)
  per_column : (string * int) list;
      (** rows surviving after each column is added (incremental) or a
          single entry for the full product (monolithic) *)
  pruning : column_stats list;
      (** per-column candidate/pruned breakdown, in column-addition
          order — the measured shape of the paper's "prune dead branches
          early" argument *)
}

val pruned : column_stats -> int
(** [considered - kept]. *)

exception Invalid_spec of string

val make :
  name:string ->
  columns:column list ->
  constraints:(string * Expr.t) list ->
  spec
(** Build a spec.  Every constrained column must exist; a column without an
    entry in [constraints] is unconstrained ([Expr.True]); constraints may
    mention any columns of the table.
    @raise Invalid_spec on unknown columns, duplicate columns, or an empty
    domain. *)

val name : spec -> string
val columns : spec -> column list
val inputs : spec -> column list
val outputs : spec -> column list
val constraint_of : spec -> string -> Expr.t
val search_space : spec -> int
(** Product of domain sizes — the size of the unpruned cross product. *)

val generate : ?funcs:Expr.funcs -> spec -> Table.t * stats
(** Incremental (column-at-a-time) generation: inputs first, in declaration
    order, then outputs.  A constraint is applied at the first point all its
    columns are bound.  Rows come out parent-major, in domain order.  Under
    {!Lineage.tracking} every cell points at its column-table entry. *)

val generate_monolithic : ?funcs:Expr.funcs -> spec -> Table.t * stats
(** Full cross product, then filter by the conjunction of all constraints.
    Same result as {!generate}; exponentially more work. *)
