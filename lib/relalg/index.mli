(** Hash indexes over a single column.

    The planner's index access path ({!Planner.plan} with [~indexes]):
    a filter over a scan whose predicate has a [col = literal] conjunct
    on an indexed column becomes an index-scan leaf that reads only the
    matching rows.  Indexes are explicit immutable values built from a
    table snapshot; the caller builds each once and reuses it, and the
    planner ignores an index whose {!source} is no longer the table the
    database holds under that name (another {!Table.id}).

    The buckets hold row numbers keyed by dictionary code: probing first
    resolves the value through the column's dictionary, so a value that
    never occurs in the table misses in O(1), and a hit yields row
    numbers without decoding any row. *)

type t

val build : Table.t -> string -> t
(** Index the given column. @raise Schema.Unknown_column. *)

val source : t -> Table.t
(** The table snapshot the index was built from. *)

val column : t -> string

val lookup : t -> Value.t -> Row.t list
(** All rows whose indexed cell equals the value, in table order. *)

val lookup_idx : t -> Value.t -> int list
(** Row numbers (into {!source}) whose indexed cell equals the value, in
    table order.  No row is decoded. *)

val consistent : t -> Table.t -> bool
(** Every row of the table is reachable through the index and vice versa
    (used by the property tests). *)
