(** Relational-algebra operators over {!Table.t} that the vectorized
    executor does not provide.

    These are the operations the paper performs besides selection and
    joins: projection, renaming, cross product (table generation), union
    (assembling dependency tables), difference and intersection.
    Set-producing operators ([union], [except], [intersect]) return
    duplicate-free tables; [project] preserves multiplicity like its SQL
    counterpart.  Selection, joins, grouping, sorting and limits run
    through {!Planner} (programmatically: {!Planner.select},
    {!Planner.equi_join}, {!Planner.group_count}, {!Planner.distinct}). *)

exception Schema_clash of string
(** Raised by {!cross} (and {!Batch.join_tables}) when operand schemas
    share a column name. *)

exception Incompatible_schemas of string

val project : string list -> Table.t -> Table.t
(** Keep (and reorder to) the named columns; duplicates are retained — pair
    with {!Table.distinct} for SQL's [SELECT DISTINCT]. *)

val rename : (string * string) list -> Table.t -> Table.t

val cross : Table.t -> Table.t -> Table.t
(** Cartesian product. @raise Schema_clash on shared column names. *)

val cross_many : name:string -> Table.t list -> Table.t
(** Left-to-right product of several tables (used to build the candidate
    space of a controller table from its column tables). *)

val prefix_columns : string -> Table.t -> Table.t
(** [prefix_columns "t1." t] renames every column [c] to ["t1." ^ c]. *)

val union : Table.t -> Table.t -> Table.t
(** Set union. @raise Incompatible_schemas unless union-compatible. *)

val union_many : name:string -> Schema.t -> Table.t list -> Table.t

val except : Table.t -> Table.t -> Table.t
val intersect : Table.t -> Table.t -> Table.t

val pair_lineage : Table.t -> Table.t -> (int -> int -> Lineage.row) option
(** Lineage of a row combined from row [ia] of the first table and row
    [ib] of the second (joins, products): the union of both parents'
    contributors.  [None] when neither input carries lineage and
    tracking is off. *)

val add_column :
  name:string -> (Row.t -> Value.t) -> Table.t -> Table.t
(** Extend every row with a computed column appended on the right. *)
