(* The row-at-a-time reference engine: sequential, one operator call per
   clause, no cost model.  Lineage comes from Table's gathers
   (filter_idx, gather, select_columns), which synthesize identity
   lineage for a base table under tracking. *)

open Relalg

let select ?funcs pred t =
  let check =
    Expr.compile_columns ?funcs (Table.schema t) ~dict:(Table.dict t)
      ~codes:(Table.codes t) pred
  in
  Table.filter_idx check t

(* Hash join in code space: index tb's row numbers by their key codes,
   translate each ta key into tb's dictionaries, probe in ta order. *)
let equi_join ~on ta tb =
  let sa = Table.schema ta and sb = Table.schema tb in
  let a_keys = List.map (fun (a, _) -> Schema.index sa a) on in
  let b_keys = List.map (fun (_, b) -> Schema.index sb b) on in
  let b_key_cols = List.map snd on in
  let kept_b =
    List.filter (fun c -> not (List.mem c b_key_cols)) (Schema.columns sb)
  in
  List.iter (fun c -> if Schema.mem sa c then raise (Ops.Schema_clash c)) kept_b;
  let buckets = Hashtbl.create 64 in
  for ib = Table.cardinality tb - 1 downto 0 do
    let k = List.map (fun j -> (Table.codes tb j).(ib)) b_keys in
    Hashtbl.replace buckets k
      (ib :: Option.value (Hashtbl.find_opt buckets k) ~default:[])
  done;
  let trans =
    List.map2
      (fun ja jb ->
        Dict.translate ~from:(Table.dict ta ja) ~into:(Table.dict tb jb))
      a_keys b_keys
  in
  let pairs =
    List.concat_map
      (fun ia ->
        let k =
          List.map2 (fun ja map -> map.((Table.codes ta ja).(ia))) a_keys trans
        in
        if List.exists (fun c -> c < 0) k then []
        else
          List.map (fun ib -> (ia, ib))
            (Option.value (Hashtbl.find_opt buckets k) ~default:[]))
      (List.init (Table.cardinality ta) Fun.id)
  in
  let m = List.length pairs in
  let col_from t pick j =
    let src = Table.codes t j in
    (Table.dict t j, Array.of_list (List.map (fun p -> src.(pick p)) pairs))
  in
  let lineage =
    Option.map
      (fun combine -> Array.of_list (List.map (fun (ia, ib) -> combine ia ib) pairs))
      (Ops.pair_lineage ta tb)
  in
  Table.of_columns ?lineage
    ~name:(Table.name ta ^ "|x|" ^ Table.name tb)
    (Schema.append sa kept_b) ~nrows:m
    (Array.append
       (Array.init (Schema.arity sa) (col_from ta fst))
       (Array.of_list
          (List.map (fun c -> col_from tb snd (Schema.index sb c)) kept_b)))

(* First-occurrence grouping over decoded rows of the projection. *)
let groups ~by t =
  let projected = Ops.project by t in
  let seen = Hashtbl.create 64 in
  let order = ref [] in
  for i = 0 to Table.cardinality projected - 1 do
    let key = Table.get projected i in
    match Hashtbl.find_opt seen key with
    | Some members -> Hashtbl.replace seen key (i :: members)
    | None ->
        Hashtbl.add seen key [ i ];
        order := key :: !order
  done;
  (projected, List.rev_map (fun key -> (key, List.rev (Hashtbl.find seen key))) !order)

let group_count ~by t =
  List.map (fun (key, members) -> (key, List.length members)) (snd (groups ~by t))

let group_count_lineage ~by t =
  let projected, gs = groups ~by t in
  let lin = Table.lineage_rows projected in
  List.map
    (fun (key, members) ->
      ( key,
        List.length members,
        List.fold_left (fun acc i -> Lineage.merge acc lin.(i)) [||] members ))
    gs

let order_by keys t =
  let schema = Table.schema t in
  let cmp a b =
    let ra = Table.get t a and rb = Table.get t b in
    List.fold_left
      (fun acc (c, dir) ->
        if acc <> 0 then acc
        else
          let j = Schema.index schema c in
          let r = Value.order ra.(j) rb.(j) in
          match dir with `Asc -> r | `Desc -> -r)
      0 keys
  in
  Table.gather t (List.stable_sort cmp (List.init (Table.cardinality t) Fun.id))

(* Always a gather, even when [n] covers the whole table, so a tracked
   result carries lineage like every other derived table. *)
let limit n t = Table.filter_idx (fun i -> i < n) t

let count_table n =
  Table.of_rows ~name:"<count>" (Schema.of_list [ "count" ]) [ [| Value.Int n |] ]

let group_table ~by t =
  Table.of_rows ~name:"<group>"
    (Schema.of_list (by @ [ "count" ]))
    (List.map (fun (key, n) -> Array.append key [| Value.Int n |]) (group_count ~by t))

let rec execute db (p : Plan.t) =
  match p with
  | Plan.Scan name -> Database.find db name
  | Plan.Select (e, inner) ->
      select ~funcs:(Database.functions db) e (execute db inner)
  | Plan.Project (cols, inner) -> Ops.project cols (execute db inner)
  | Plan.Distinct inner -> Table.distinct (execute db inner)
  | Plan.Sort (keys, inner) -> order_by keys (execute db inner)
  | Plan.Limit (n, inner) -> limit n (execute db inner)
  | Plan.Count inner -> count_table (Table.cardinality (execute db inner))
  | Plan.Group_count (cols, inner) -> group_table ~by:cols (execute db inner)
  | Plan.Union (a, b) -> Ops.union (execute db a) (execute db b)
  | Plan.Except (a, b) -> Ops.except (execute db a) (execute db b)
  | Plan.Intersect (a, b) -> Ops.intersect (execute db a) (execute db b)
  | Plan.Join (on, a, b) -> equi_join ~on (execute db a) (execute db b)
  | Plan.Empty cols -> Table.create ~name:"<empty>" (Schema.of_list cols)

let run ?(optimize = true) db src =
  let p = Plan.of_query (Sql_parser.parse_query src) in
  execute db (if optimize then Plan.optimize p else p)

let rec run_query db (q : Sql_ast.query) =
  match q with
  | Sql_ast.Select { distinct; columns; from; where; order_by = keys; limit = n } ->
      let table =
        match Database.find_opt db from with
        | Some t -> t
        | None -> raise (Sql_exec.Exec_error ("unknown table " ^ from))
      in
      let table =
        match where with
        | None -> table
        | Some pred -> select ~funcs:(Database.functions db) pred table
      in
      let dir = function Sql_ast.Asc -> `Asc | Sql_ast.Desc -> `Desc in
      let sort t =
        match keys with
        | [] -> t
        | keys -> order_by (List.map (fun (c, d) -> (c, dir d)) keys) t
      in
      (* plain projections sort upstream, so ORDER BY may use columns the
         SELECT list drops; aggregates sort over their output *)
      let table, sorted =
        match columns with
        | Sql_ast.Star -> (sort table, true)
        | Sql_ast.Columns cols -> (Ops.project cols (sort table), true)
        | Sql_ast.Count -> (count_table (Table.cardinality table), false)
        | Sql_ast.Group_count cols -> (group_table ~by:cols table, false)
      in
      let table = if distinct then Table.distinct table else table in
      let table = if sorted then table else sort table in
      let table = match n with None -> table | Some n -> limit n table in
      Table.with_name "<query>" table
  | Sql_ast.Union (a, b) -> Ops.union (run_query db a) (run_query db b)
  | Sql_ast.Except (a, b) -> Ops.except (run_query db a) (run_query db b)
  | Sql_ast.Intersect (a, b) -> Ops.intersect (run_query db a) (run_query db b)
