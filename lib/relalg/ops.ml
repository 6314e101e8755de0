exception Schema_clash of string
exception Incompatible_schemas of string

let project cols t =
  let schema = Table.schema t in
  Table.select_columns (Schema.project schema cols) t
    (List.map (Schema.index schema) cols)

let rename mapping t =
  let schema = Table.schema t in
  Table.select_columns (Schema.rename schema mapping) t
    (List.init (Schema.arity schema) Fun.id)

let check_disjoint sa sb =
  List.iter
    (fun c -> if Schema.mem sa c then raise (Schema_clash c))
    (Schema.columns sb)

(* Lineage of a row combined from row [ia] of [ta] and row [ib] of [tb]
   (joins, products): the union of both parents' contributors.  Only
   evaluated when either input carries lineage or tracking is on. *)
let pair_lineage ta tb =
  if
    Table.lineage ta <> None || Table.lineage tb <> None
    || Lineage.tracking ()
  then begin
    let la = Table.lineage_rows ta and lb = Table.lineage_rows tb in
    Some (fun ia ib -> Lineage.merge la.(ia) lb.(ib))
  end
  else None

let cross ta tb =
  let sa = Table.schema ta and sb = Table.schema tb in
  check_disjoint sa sb;
  let schema = Schema.append sa (Schema.columns sb) in
  let na = Table.cardinality ta and nb = Table.cardinality tb in
  let n = na * nb in
  (* Row (ia, ib) lands at index ia*nb + ib: a-columns repeat each code nb
     times, b-columns tile their whole code sequence na times. *)
  let col_of_a j =
    let src = Table.codes ta j in
    let out = Array.make n 0 in
    for ia = 0 to na - 1 do
      Array.fill out (ia * nb) nb src.(ia)
    done;
    (Table.dict ta j, out)
  in
  let col_of_b j =
    let src = Table.codes tb j in
    let out = Array.make n 0 in
    for ia = 0 to na - 1 do
      Array.blit src 0 out (ia * nb) nb
    done;
    (Table.dict tb j, out)
  in
  let lineage =
    Option.map
      (fun combine ->
        Array.init n (fun k -> combine (k / nb) (k mod nb)))
      (pair_lineage ta tb)
  in
  Table.of_columns ?lineage
    ~name:(Table.name ta ^ "*" ^ Table.name tb)
    schema ~nrows:n
    (Array.append
       (Array.init (Schema.arity sa) col_of_a)
       (Array.init (Schema.arity sb) col_of_b))

let cross_many ~name = function
  | [] -> invalid_arg "Ops.cross_many: empty list"
  | t :: ts -> Table.with_name name (List.fold_left cross t ts)

let prefix_columns prefix t =
  let mapping =
    List.map (fun c -> c, prefix ^ c) (Schema.columns (Table.schema t))
  in
  rename mapping t

let require_compatible op ta tb =
  if not (Schema.union_compatible (Table.schema ta) (Table.schema tb)) then
    raise
      (Incompatible_schemas
         (Printf.sprintf "%s: %s vs %s" op (Table.name ta) (Table.name tb)))

let union ta tb =
  require_compatible "union" ta tb;
  Table.distinct (Table.concat ta tb)

let union_many ~name schema = function
  | [] -> Table.create ~name schema
  | t :: ts -> Table.with_name name (List.fold_left union t ts)

let except ta tb =
  require_compatible "except" ta tb;
  let in_b = Table.row_membership ~of_:tb ta in
  Table.distinct (Table.filter_idx (fun i -> not (in_b i)) ta)

let intersect ta tb =
  require_compatible "intersect" ta tb;
  let in_b = Table.row_membership ~of_:tb ta in
  Table.distinct (Table.filter_idx in_b ta)

let add_column ~name f t =
  let schema = Schema.append (Table.schema t) [ name ] in
  let n = Table.cardinality t in
  let d = Dict.create () in
  let extra = Array.init n (fun i -> Dict.intern d (f (Table.get t i))) in
  let shared =
    Array.init (Table.arity t) (fun j ->
        (Table.dict t j, Array.sub (Table.codes t j) 0 n))
  in
  let lineage =
    if Table.lineage t <> None || Lineage.tracking () then
      Some (Array.sub (Table.lineage_rows t) 0 n)
    else None
  in
  Table.of_columns ?lineage ~name:(Table.name t) schema ~nrows:n
    (Array.append shared [| (d, extra) |])
