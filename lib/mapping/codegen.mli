(** Code generation from implementation tables — the paper's "code is
    automatically generated from these tables using SQL report
    generation".

    A table becomes an ordered rule list: each row contributes a guard
    (its non-NULL input cells — NULL inputs are dont-cares, which is what
    makes the mapping compact) and an action (its non-NULL output cells).
    Rules are ordered most-specific-first so a dont-care row never shadows
    a more constrained one.  From the rules we emit Verilog-style
    priority logic and an OCaml match function; {!agrees_with_table}
    replays every table row through the rule list to prove the generated
    logic computes exactly the table (experiment E8). *)

type rule = {
  row : int;
      (** index of the generating row in the source table — survives the
          specificity sort, so a fired rule can be traced back to (and
          coverage charged against) its table row *)
  guard : (string * string) list;  (** input column = value conjuncts *)
  action : (string * string) list;  (** output column := value *)
}

val rules_of_table :
  inputs:string list -> outputs:string list -> Relalg.Table.t -> rule list

val rendered_column : Relalg.Table.t -> string -> int array * string option array
(** A column's dictionary-code buffer, and each code rendered as the
    cell string rules carry ([None] for NULL): the same rendering as
    {!rules_of_table}, for callers compiling a table by row index.
    @raise Relalg.Schema.Unknown_column *)

val eval_rule : rule list -> (string * string) list -> rule option
(** First-match-wins evaluation over a concrete input binding (absent
    columns behave as NULL); the whole matched rule, so callers can see
    which table row fired.  [None] if no rule fires. *)

val eval_rules :
  rule list -> (string * string) list -> (string * string) list option
(** [eval_rule] projected to the action. *)

val agrees_with_table :
  inputs:string list -> outputs:string list -> Relalg.Table.t -> bool
(** Replay every row: the rule list must reproduce the row's outputs. *)

val to_verilog : name:string -> rule list -> string
(** Priority if/else always-block with localparam enum encodings. *)

val to_ocaml : name:string -> rule list -> string
(** An OCaml function over (string * string) list environments. *)

val emit_all : Relalg.Database.t -> (string * string) list
(** Verilog for each of the nine implementation tables of a database
    produced by {!Partition.run}: (table name, code). *)
