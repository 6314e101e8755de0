(* Cost-based planning: annotate a logical {!Plan.t} with cardinality
   estimates from per-column dictionary sizes and table row counts, pick
   physical operators (index scan for an indexed equality, hash-join
   build side, top-k instead of sort-then-limit), and execute through the
   vectorized {!Batch} layer, which carries lineage when it is tracked.
   This is the only relational executor. *)

(* ASURA_PLAN_BUILD=left|right overrides the hash-join build-side choice
   everywhere (annotation and the programmatic [equi_join]).  This is
   the deterministic "planted plan regression" knob: the structural
   fingerprint covers the build side, so flipping it is exactly what
   `asura plan diff --strict` and the CI plan gate must catch.  Read
   dynamically. *)
let forced_build_side () =
  match Sys.getenv_opt "ASURA_PLAN_BUILD" with
  | Some ("left" | "LEFT" | "l") -> Some true
  | Some ("right" | "RIGHT" | "r") -> Some false
  | _ -> None

let choose_build_side ~auto =
  match forced_build_side () with Some b -> b | None -> auto

(* ------------------------- annotated plans ---------------------------- *)

type keys = (string * [ `Asc | `Desc ]) list

type op =
  | Scan of string
  | Index_scan of {
      table : string;
      column : string;
      value : Value.t;
      index : Index.t;
    }
  | Filter of Expr.t
  | Project of string list
  | Distinct
  | Sort of keys
  | Topk of int * keys
  | Limit of int
  | Hash_join of { on : (string * string) list; build_left : bool }
  | Union
  | Except
  | Intersect
  | Count
  | Group of string list
  | Nothing of string list

type t = {
  op : op;
  est : float;  (* estimated output rows *)
  cost : float;  (* cumulative cost estimate, in abstract row-touches *)
  mutable actual : int;  (* output rows observed by execution; -1 before *)
  mutable ns : int64;  (* wall time at this node, inclusive of children *)
  mutable batches : int;  (* batches pulled through (streaming nodes) *)
  children : t list;
}

(* --------------------------- statistics ------------------------------- *)

(* Estimated row count plus per-column number of distinct values.  Base
   ndv comes straight from the columnar storage: every column's
   dictionary size is an exact distinct count of the values ever
   interned, capped by the current cardinality. *)
type stats = { rows : float; cols : string list; ndv : (string * float) list }

let ndv_of st c =
  match List.assoc_opt c st.ndv with
  | Some n -> max 1. n
  | None -> max 1. (min st.rows 16.)

(* Cap every ndv by a new (smaller) row estimate. *)
let restrict st rows =
  let rows = max 0. rows in
  { st with rows; ndv = List.map (fun (c, n) -> (c, min n (max 1. rows))) st.ndv }

let table_stats t =
  let rows = float_of_int (Table.cardinality t) in
  let cols = Schema.columns (Table.schema t) in
  let ndv =
    List.mapi
      (fun j c -> (c, min (max 1. rows) (float_of_int (Dict.size (Table.dict t j)))))
      cols
  in
  { rows; cols; ndv }

let scan_stats db name = table_stats (Database.find db name)

(* Textbook selectivities over dictionary ndv: equality selects 1/ndv,
   range predicates a third, IN k values k/ndv, registered functions an
   uninformed half; connectives assume independence. *)
let rec selectivity st (e : Expr.t) =
  match e with
  | Expr.True -> 1.
  | Expr.False -> 0.
  | Expr.Eq (Expr.Col c, Expr.Const _) | Expr.Eq (Expr.Const _, Expr.Col c) ->
      1. /. ndv_of st c
  | Expr.Eq (Expr.Col a, Expr.Col b) -> 1. /. max (ndv_of st a) (ndv_of st b)
  | Expr.Eq (Expr.Const _, Expr.Const _) -> 0.5
  | Expr.Neq (a, b) -> 1. -. selectivity st (Expr.Eq (a, b))
  | Expr.Cmp _ -> 1. /. 3.
  | Expr.In (Expr.Col c, vs) ->
      min 1. (float_of_int (List.length vs) /. ndv_of st c)
  | Expr.In _ -> 0.5
  | Expr.Fn _ -> 0.5
  | Expr.And (a, b) -> selectivity st a *. selectivity st b
  | Expr.Or (a, b) ->
      let sa = selectivity st a and sb = selectivity st b in
      sa +. sb -. (sa *. sb)
  | Expr.Not a -> 1. -. selectivity st a
  | Expr.Ternary (c, a, b) ->
      let sc = selectivity st c in
      (sc *. selectivity st a) +. ((1. -. sc) *. selectivity st b)

(* Estimated distinct rows over [cols]: product of per-column ndv,
   capped by the row count. *)
let distinct_est st cols =
  min st.rows (List.fold_left (fun acc c -> acc *. ndv_of st c) 1. cols)

let nlogn n = n *. (log (max 2. n) /. log 2.)

(* ------------------------ planner rewrites ---------------------------- *)

(* Output columns of a plan, resolving bare scans against the database
   (unlike {!Plan.schema_hint}, which is database-free). *)
let rec plan_cols db (p : Plan.t) =
  match p with
  | Plan.Scan name -> (
      match Database.find_opt db name with
      | Some t -> Some (Schema.columns (Table.schema t))
      | None -> None)
  | Plan.Project (cols, _) | Plan.Empty cols -> Some cols
  | Plan.Select (_, p) | Plan.Distinct p | Plan.Sort (_, p) | Plan.Limit (_, p)
    ->
      plan_cols db p
  | Plan.Union (a, b) | Plan.Except (a, b) | Plan.Intersect (a, b) -> (
      match plan_cols db a with Some c -> Some c | None -> plan_cols db b)
  | Plan.Count _ -> Some [ "count" ]
  | Plan.Group_count (cols, _) -> Some (cols @ [ "count" ])
  | Plan.Join (on, a, b) -> (
      match (plan_cols db a, plan_cols db b) with
      | Some ca, Some cb ->
          let keys = List.map snd on in
          Some (ca @ List.filter (fun c -> not (List.mem c keys)) cb)
      | _ -> None)

let rec conjuncts = function
  | Expr.And (a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

(* Push a selection's conjuncts below a join into whichever side covers
   their free columns.  A join emits pairs in left-major order, so
   filtering a side before joining yields exactly the surviving pairs in
   the same relative order as filtering after — the rewrite is
   order-preserving, not just multiset-preserving.  {!Plan.rewrite}
   leaves this case alone because it cannot resolve scan schemas. *)
let rec push_into_joins db (p : Plan.t) : Plan.t =
  match p with
  | Plan.Scan _ | Plan.Empty _ -> p
  | Plan.Select (e, inner) -> (
      match push_into_joins db inner with
      | Plan.Join (on, a, b) as j -> (
          match (plan_cols db a, plan_cols db b) with
          | Some ca, Some cb ->
              let keys = List.map snd on in
              let kept_b = List.filter (fun c -> not (List.mem c keys)) cb in
              let la, lb, above =
                List.fold_left
                  (fun (la, lb, above) c ->
                    let free = Expr.free_columns c in
                    if List.for_all (fun x -> List.mem x ca) free then
                      (c :: la, lb, above)
                    else if List.for_all (fun x -> List.mem x kept_b) free then
                      (la, c :: lb, above)
                    else (la, lb, c :: above))
                  ([], [], []) (conjuncts e)
              in
              let wrap side = function
                | [] -> side
                | es -> push_into_joins db (Plan.Select (Expr.conj (List.rev es), side))
              in
              let j = Plan.Join (on, wrap a la, wrap b lb) in
              (match above with
              | [] -> j
              | es -> Plan.Select (Expr.conj (List.rev es), j))
          | _ -> Plan.Select (e, j))
      | inner -> Plan.Select (e, inner))
  | Plan.Project (cols, inner) -> Plan.Project (cols, push_into_joins db inner)
  | Plan.Distinct inner -> Plan.Distinct (push_into_joins db inner)
  | Plan.Sort (keys, inner) -> Plan.Sort (keys, push_into_joins db inner)
  | Plan.Limit (n, inner) -> Plan.Limit (n, push_into_joins db inner)
  | Plan.Count inner -> Plan.Count (push_into_joins db inner)
  | Plan.Group_count (cols, inner) ->
      Plan.Group_count (cols, push_into_joins db inner)
  | Plan.Union (a, b) -> Plan.Union (push_into_joins db a, push_into_joins db b)
  | Plan.Except (a, b) ->
      Plan.Except (push_into_joins db a, push_into_joins db b)
  | Plan.Intersect (a, b) ->
      Plan.Intersect (push_into_joins db a, push_into_joins db b)
  | Plan.Join (on, a, b) ->
      Plan.Join (on, push_into_joins db a, push_into_joins db b)

(* ---------------------------- annotation ------------------------------ *)

let node op est cost children =
  { op; est; cost; actual = -1; ns = 0L; batches = 0; children }

(* Indexes built over exactly the table [name] now holds: one whose
   source is another snapshot (a different {!Table.id}) is stale and
   ignored. *)
let usable_indexes indexes db name =
  match Database.find_opt db name with
  | None -> []
  | Some t ->
      List.filter
        (fun ix -> Table.id (Index.source ix) = Table.id t)
        indexes

(* The first [col = literal] conjunct on an indexed column, with the
   index and the remaining conjuncts. *)
let split_indexable indexes pred =
  let index_on c = List.find_opt (fun ix -> Index.column ix = c) indexes in
  let rec go seen = function
    | [] -> None
    | ((Expr.Eq (Expr.Col c, Expr.Const v) | Expr.Eq (Expr.Const v, Expr.Col c))
       as e)
      :: rest -> (
        match index_on c with
        | Some ix -> Some (ix, v, List.rev_append seen rest)
        | None -> go (e :: seen) rest)
    | e :: rest -> go (e :: seen) rest
  in
  go [] (conjuncts pred)

let filter_node e (c, st) =
  let rows = st.rows *. selectivity st (Plan.simplify_predicate e) in
  (node (Filter e) rows (c.cost +. st.rows) [ c ], restrict st rows)

let rec annotate ~indexes db (p : Plan.t) : t * stats =
  let annotate = annotate ~indexes in
  match p with
  | Plan.Scan name ->
      let st = scan_stats db name in
      (node (Scan name) st.rows st.rows [], st)
  (* a filter over a scan with an indexed [col = literal] conjunct reads
     only the matching rows through the index; the other conjuncts
     filter above it *)
  | Plan.Select (e, (Plan.Scan name as scan)) -> (
      match split_indexable (usable_indexes indexes db name) e with
      | None -> filter_node e (annotate db scan)
      | Some (index, value, rest) ->
          let st = scan_stats db name in
          let column = Index.column index in
          let rows = st.rows /. ndv_of st column in
          let leaf =
            ( node
                (Index_scan { table = name; column; value; index })
                rows rows [],
              restrict st rows )
          in
          if rest = [] then leaf else filter_node (Expr.conj rest) leaf)
  | Plan.Select (e, inner) -> filter_node e (annotate db inner)
  | Plan.Project (cols, inner) ->
      let c, st = annotate db inner in
      let st =
        { st with cols; ndv = List.filter (fun (c, _) -> List.mem c cols) st.ndv }
      in
      (* zero-copy column aliasing: no per-row cost *)
      (node (Project cols) st.rows c.cost [ c ], st)
  | Plan.Distinct inner ->
      let c, st = annotate db inner in
      let rows = distinct_est st st.cols in
      (node Distinct rows (c.cost +. st.rows) [ c ], restrict st rows)
  (* LIMIT over ORDER BY (with or without an intervening projection,
     which preserves order) is a top-k: keep a bounded buffer of the k
     least rows instead of sorting everything. *)
  | Plan.Limit (n, Plan.Sort (keys, inner)) ->
      let c, st = annotate db inner in
      let rows = min st.rows (float_of_int n) in
      ( node (Topk (n, keys))
          rows
          (c.cost +. (st.rows *. (log (max 2. (float_of_int n)) /. log 2.)))
          [ c ],
        restrict st rows )
  | Plan.Limit (n, Plan.Project (cols, Plan.Sort (keys, inner))) ->
      let topk, st = annotate db (Plan.Limit (n, Plan.Sort (keys, inner))) in
      let st =
        { st with cols; ndv = List.filter (fun (c, _) -> List.mem c cols) st.ndv }
      in
      (node (Project cols) st.rows topk.cost [ topk ], st)
  | Plan.Sort (keys, inner) ->
      let c, st = annotate db inner in
      (node (Sort keys) st.rows (c.cost +. nlogn st.rows) [ c ], st)
  | Plan.Limit (n, inner) ->
      let c, st = annotate db inner in
      let rows = min st.rows (float_of_int n) in
      (node (Limit n) rows (c.cost +. rows) [ c ], restrict st rows)
  | Plan.Count inner ->
      let c, st = annotate db inner in
      ( node Count 1. (c.cost +. st.rows) [ c ],
        { rows = 1.; cols = [ "count" ]; ndv = [ ("count", 1.) ] } )
  | Plan.Group_count (cols, inner) ->
      let c, st = annotate db inner in
      let rows = distinct_est st cols in
      let ndv =
        List.map (fun g -> (g, min rows (ndv_of st g))) cols
        @ [ ("count", rows) ]
      in
      ( node (Group cols) rows (c.cost +. st.rows) [ c ],
        { rows; cols = cols @ [ "count" ]; ndv } )
  | Plan.Join (on, a, b) ->
      let ca, sta = annotate db a and cb, stb = annotate db b in
      let key_sel =
        List.fold_left
          (fun acc (l, r) -> acc /. max (ndv_of sta l) (ndv_of stb r))
          1. on
      in
      let rows = sta.rows *. stb.rows *. key_sel in
      (* build the hash index on the estimated-smaller side, unless
         ASURA_PLAN_BUILD forces a side *)
      let build_left = choose_build_side ~auto:(sta.rows <= stb.rows) in
      let keys = List.map snd on in
      let kept_b = List.filter (fun c -> not (List.mem c keys)) stb.cols in
      let ndv =
        List.map (fun (c, n) -> (c, min n (max 1. rows))) sta.ndv
        @ List.filter_map
            (fun (c, n) ->
              if List.mem c kept_b then Some (c, min n (max 1. rows)) else None)
            stb.ndv
      in
      ( node
          (Hash_join { on; build_left })
          rows
          (ca.cost +. cb.cost +. sta.rows +. stb.rows +. rows)
          [ ca; cb ],
        { rows; cols = sta.cols @ kept_b; ndv } )
  | Plan.Union (a, b) ->
      let ca, sta = annotate db a and cb, stb = annotate db b in
      let merged =
        {
          rows = sta.rows +. stb.rows;
          cols = sta.cols;
          ndv = List.map (fun (c, n) -> (c, max n (ndv_of stb c))) sta.ndv;
        }
      in
      let rows = distinct_est merged merged.cols in
      ( node Union rows (ca.cost +. cb.cost +. merged.rows) [ ca; cb ],
        restrict merged rows )
  | Plan.Except (a, b) ->
      let ca, sta = annotate db a and cb, stb = annotate db b in
      let rows = distinct_est sta sta.cols *. 0.5 in
      ( node Except rows (ca.cost +. cb.cost +. sta.rows +. stb.rows) [ ca; cb ],
        restrict sta rows )
  | Plan.Intersect (a, b) ->
      let ca, sta = annotate db a and cb, stb = annotate db b in
      let rows = min (distinct_est sta sta.cols) (distinct_est stb stb.cols) *. 0.5 in
      ( node Intersect rows
          (ca.cost +. cb.cost +. sta.rows +. stb.rows)
          [ ca; cb ],
        restrict sta rows )
  | Plan.Empty cols ->
      ( node (Nothing cols) 0. 0. [],
        { rows = 0.; cols; ndv = List.map (fun c -> (c, 1.)) cols } )

let plan ?(indexes = []) db (p : Plan.t) : t =
  fst (annotate ~indexes db (push_into_joins db (Plan.optimize p)))

(* ---------------------------- fingerprint ----------------------------- *)

(* Canonical per-node strings hashed into the structural plan
   fingerprint.  Column references are rewritten to positional indices
   into the node's input columns, so renaming columns leaves the
   fingerprint unchanged; a filter's conjuncts are canonicalized
   individually and sorted, so predicate order doesn't matter; build
   side, top-k recognition and pushdown placement all appear in the
   node strings, so every physical decision does. *)

let index_of c cols =
  let rec go i = function
    | [] -> None
    | x :: _ when String.equal x c -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 cols

let col_ref cols c =
  match index_of c cols with
  | Some i -> "#" ^ string_of_int i
  | None -> c (* unresolvable column: keep the name, still deterministic *)

let canon_operand cols = function
  | Expr.Col c -> col_ref cols c
  | Expr.Const v -> Value.to_sql v

(* Equality and inequality are commutative: normalize by sorting the
   rendered operands, so [a = b] and [b = a] fingerprint identically. *)
let rec canon_expr cols (e : Expr.t) =
  let opnd = canon_operand cols in
  let commut tag a b =
    let a = opnd a and b = opnd b in
    let a, b = if String.compare a b <= 0 then (a, b) else (b, a) in
    Printf.sprintf "%s(%s,%s)" tag a b
  in
  match e with
  | Expr.True -> "t"
  | Expr.False -> "f"
  | Expr.Eq (a, b) -> commut "eq" a b
  | Expr.Neq (a, b) -> commut "ne" a b
  | Expr.Cmp (c, a, b) ->
      Printf.sprintf "%s(%s,%s)" (Expr.cmp_to_string c) (opnd a) (opnd b)
  | Expr.In (a, vs) ->
      Printf.sprintf "in(%s,[%s])" (opnd a)
        (String.concat ";" (List.sort compare (List.map Value.to_sql vs)))
  | Expr.Fn (f, a) -> Printf.sprintf "fn:%s(%s)" f (opnd a)
  | Expr.And (a, b) -> conj_string cols (Expr.And (a, b))
  | Expr.Or (a, b) ->
      Printf.sprintf "or(%s)"
        (String.concat ","
           (List.sort compare [ canon_expr cols a; canon_expr cols b ]))
  | Expr.Not a -> Printf.sprintf "not(%s)" (canon_expr cols a)
  | Expr.Ternary (c, a, b) ->
      Printf.sprintf "if(%s,%s,%s)" (canon_expr cols c) (canon_expr cols a)
        (canon_expr cols b)

(* Flattened conjunct list, canonicalized then sorted: AND is
   commutative and associative, and [push_into_joins] already reorders
   conjuncts freely. *)
and conj_string cols e =
  match conjuncts e with
  | [ single ] -> canon_expr cols single
  | cs ->
      Printf.sprintf "and(%s)"
        (String.concat "," (List.sort compare (List.map (canon_expr cols) cs)))

let canon_keys cols keys =
  String.concat ","
    (List.map
       (fun (c, d) ->
         col_ref cols c ^ match d with `Asc -> "" | `Desc -> " desc")
       keys)

(* Pre-order canonical strings plus the node's output columns.  The scan
   schema comes through [lookup] so programmatic plans (whose inputs are
   tables, not database names) fingerprint with the same machinery. *)
let rec canon lookup n =
  let child () =
    match n.children with
    | [ c ] -> canon lookup c
    | _ -> invalid_arg "Planner.canon: arity"
  in
  let two () =
    match n.children with
    | [ a; b ] -> (canon lookup a, canon lookup b)
    | _ -> invalid_arg "Planner.canon: arity"
  in
  match n.op with
  | Scan name ->
      ([ "scan:" ^ name ], Option.value ~default:[] (lookup name))
  | Index_scan { table; column; value; _ } ->
      let cols = Option.value ~default:[] (lookup table) in
      ( [ Printf.sprintf "indexscan:%s:%s=%s" table (col_ref cols column)
            (Value.to_sql value) ],
        cols )
  | Filter e ->
      let parts, cols = child () in
      (("filter:" ^ conj_string cols e) :: parts, cols)
  | Project cs ->
      let parts, cols = child () in
      ( Printf.sprintf "project:[%s]"
          (String.concat "," (List.map (col_ref cols) cs))
        :: parts,
        cs )
  | Distinct ->
      let parts, cols = child () in
      ("distinct" :: parts, cols)
  | Sort keys ->
      let parts, cols = child () in
      (Printf.sprintf "sort:[%s]" (canon_keys cols keys) :: parts, cols)
  | Topk (k, keys) ->
      let parts, cols = child () in
      ( Printf.sprintf "topk:%d:[%s]" k (canon_keys cols keys) :: parts,
        cols )
  | Limit k ->
      let parts, cols = child () in
      (Printf.sprintf "limit:%d" k :: parts, cols)
  | Hash_join { on; build_left } ->
      let (pa, ca), (pb, cb) = two () in
      let keys = List.map snd on in
      let out = ca @ List.filter (fun c -> not (List.mem c keys)) cb in
      ( Printf.sprintf "hashjoin:[%s]:build=%s"
          (String.concat ","
             (List.map
                (fun (l, r) -> col_ref ca l ^ "=" ^ col_ref cb r)
                on))
          (if build_left then "L" else "R")
        :: (pa @ pb),
        out )
  | Union ->
      let (pa, ca), (pb, _) = two () in
      (("union" :: pa) @ pb, ca)
  | Except ->
      let (pa, ca), (pb, _) = two () in
      (("except" :: pa) @ pb, ca)
  | Intersect ->
      let (pa, ca), (pb, _) = two () in
      (("intersect" :: pa) @ pb, ca)
  | Count ->
      let parts, _ = child () in
      ("count" :: parts, [ "count" ])
  | Group cs ->
      let parts, cols = child () in
      ( Printf.sprintf "group:[%s]"
          (String.concat "," (List.map (col_ref cols) cs))
        :: parts,
        cs @ [ "count" ] )
  | Nothing cs ->
      ([ Printf.sprintf "empty:%d" (List.length cs) ], cs)

let fingerprint_with lookup root = Obs.Planlog.fingerprint (fst (canon lookup root))

let db_lookup db name =
  Option.map
    (fun t -> Schema.columns (Table.schema t))
    (Database.find_opt db name)

let fingerprint db root = fingerprint_with (db_lookup db) root

(* ---------------------------- execution ------------------------------- *)

(* Streaming nodes compose {!Batch} sources, tapped so [actual] counts
   accumulate per operator and timed per pull so [ns]/[batches] fill in;
   blocking nodes materialize tables (their [actual] is the result
   cardinality, their [ns] the wall time of the whole materialization)
   and re-enter the stream via {!Batch.of_table}.  All [ns] figures are
   inclusive of children, matching the plan-observatory convention. *)
let timed n (src : Batch.source) =
  Batch.timed
    (fun ns b ->
      n.ns <- Int64.add n.ns ns;
      if b >= 0 then n.batches <- n.batches + 1)
    src

let rec source_of db (n : t) : Batch.source =
  match (n.op, n.children) with
  | Scan name, [] ->
      let t = Database.find db name in
      n.actual <- Table.cardinality t;
      timed n (Batch.of_table t)
  | Index_scan { index; value; _ }, [] ->
      let rows = Array.of_list (Index.lookup_idx index value) in
      n.actual <- Array.length rows;
      timed n (Batch.of_rows (Index.source index) rows)
  | Filter e, [ c ] ->
      n.actual <- 0;
      timed n
        (Batch.tap
           (fun b -> n.actual <- n.actual + b)
           (Batch.select ~funcs:(Database.functions db) e (source_of db c)))
  | Project cols, [ c ] ->
      n.actual <- 0;
      timed n
        (Batch.tap
           (fun b -> n.actual <- n.actual + b)
           (Batch.project cols (source_of db c)))
  | Limit k, [ c ] ->
      n.actual <- 0;
      timed n
        (Batch.tap
           (fun b -> n.actual <- n.actual + b)
           (Batch.limit k (source_of db c)))
  | _ -> Batch.of_table (execute db n)

and execute db (n : t) : Table.t =
  let t0 = Obs.Clock.now_ns () in
  let record t =
    n.actual <- Table.cardinality t;
    n.ns <- Obs.Clock.since t0;
    t
  in
  match (n.op, n.children) with
  | Scan name, [] -> record (Database.find db name)
  | (Index_scan _ | Filter _ | Project _ | Limit _), _ ->
      (* a streaming chain asked to produce a table: drain it *)
      Batch.to_table ~name:"<batch>" (source_of db n)
  | Distinct, [ c ] ->
      record (Batch.distinct_table ~name:"<distinct>" (source_of db c))
  | Sort keys, [ c ] ->
      record (Batch.sort_table ~name:"<sort>" keys (source_of db c))
  | Topk (k, keys), [ c ] ->
      record (Batch.topk_table ~name:"<topk>" k keys (source_of db c))
  | Group cols, [ ({ op = Scan name; _ } as c) ] ->
      (* projection pushdown into the scan: grouping only reads the key
         columns, so don't stream the table's full arity *)
      let t = Database.find db name in
      c.actual <- Table.cardinality t;
      record (Batch.group_table ~by:cols (Batch.of_table (Ops.project cols t)))
  | Group cols, [ c ] -> record (Batch.group_table ~by:cols (source_of db c))
  | Count, [ c ] ->
      record
        (Table.of_rows ~name:"<count>"
           (Schema.of_list [ "count" ])
           [ [| Value.Int (Batch.count (source_of db c)) |] ])
  | Hash_join { on; build_left }, [ a; b ] ->
      record (Batch.join_tables ~build_left ~on (execute db a) (execute db b))
  (* set operators delegate to the reference implementations for their
     exact dictionary-sharing and first-occurrence semantics; both
     inputs are already vectorized upstream *)
  | Union, [ a; b ] -> record (Ops.union (execute db a) (execute db b))
  | Except, [ a; b ] -> record (Ops.except (execute db a) (execute db b))
  | Intersect, [ a; b ] -> record (Ops.intersect (execute db a) (execute db b))
  | Nothing cols, [] ->
      record (Table.create ~name:"<empty>" (Schema.of_list cols))
  | _ -> invalid_arg "Planner.execute: malformed plan"

(* --------------------------- rendering -------------------------------- *)

let op_string = function
  | Scan name -> "seq scan " ^ name
  | Index_scan { table; column; value; _ } ->
      Printf.sprintf "index scan %s.%s = %s" table column (Value.to_sql value)
  | Filter e -> Format.asprintf "filter %a" Expr.pp e
  | Project cols -> Printf.sprintf "project [%s]" (String.concat ", " cols)
  | Distinct -> "distinct"
  | Sort keys | Topk (_, keys) as op ->
      let ks =
        String.concat ", "
          (List.map
             (fun (c, d) -> c ^ match d with `Asc -> "" | `Desc -> " desc")
             keys)
      in
      (match op with
      | Topk (k, _) -> Printf.sprintf "top-k %d [%s]" k ks
      | _ -> Printf.sprintf "sort [%s]" ks)
  | Limit n -> Printf.sprintf "limit %d" n
  | Hash_join { on; build_left } ->
      Printf.sprintf "hash join [%s] (build=%s)"
        (String.concat ", "
           (List.map (fun (l, r) -> Printf.sprintf "%s=%s" l r) on))
        (if build_left then "left" else "right")
  | Union -> "union"
  | Except -> "except"
  | Intersect -> "intersect"
  | Count -> "count"
  | Group cols ->
      Printf.sprintf "group count by [%s]" (String.concat ", " cols)
  | Nothing cols -> Printf.sprintf "empty [%s]" (String.concat ", " cols)

let render root =
  let buf = Buffer.create 256 in
  let rec go indent n =
    Printf.ksprintf (Buffer.add_string buf) "%s%-*s est=%-9.0f %s cost=%.0f\n"
      (String.make indent ' ')
      (max 1 (40 - indent))
      (op_string n.op) n.est
      (if n.actual < 0 then "actual=-     "
       else Printf.sprintf "actual=%-6d" n.actual)
      n.cost;
    List.iter (go (indent + 2)) n.children
  in
  go 0 root;
  Buffer.contents buf

let explain ?indexes db src =
  render (plan ?indexes db (Plan.of_query (Sql_parser.parse_query src)))

(* ------------------------- plan observatory --------------------------- *)

(* Pre-order per-operator telemetry handed to the {!Obs.Planlog}
   collector; [actual_ns] is inclusive of children, as measured. *)
let rec planlog_ops n =
  {
    Obs.Planlog.op = op_string n.op;
    est_rows = n.est;
    est_cost = n.cost;
    actual_rows = max 0 n.actual;
    actual_ns = Int64.to_float n.ns;
    batches = n.batches;
  }
  :: List.concat_map planlog_ops n.children

(* The plan-diff key is (site, query), so the label must identify the
   *logical* workload: it deliberately omits physical choices (build
   side) the fingerprint tracks — otherwise a plan change would report
   as removed+added instead of changed. *)
let label_of root =
  match root.op with
  | Hash_join { on; _ } ->
      Printf.sprintf "join [%s]"
        (String.concat ", "
           (List.map (fun (l, r) -> Printf.sprintf "%s=%s" l r) on))
  | op -> op_string op

let observe ?query ~lookup root total_ns rows_out =
  if Obs.Config.on () then
    let query = match query with Some q -> q | None -> label_of root in
    Obs.Planlog.record
      ~fingerprint:(fingerprint_with lookup root)
      ~query ~est_cost:root.cost
      ~total_ns:(Int64.to_float total_ns)
      ~rows_out (planlog_ops root)

let run_annotated ?query db root =
  let t0 = Obs.Clock.now_ns () in
  let t = execute db root in
  observe ?query ~lookup:(db_lookup db) root (Obs.Clock.since t0)
    (Table.cardinality t);
  t

let run_plan ?indexes db p = run_annotated db (plan ?indexes db p)

let run_query ?label db (q : Sql_ast.query) =
  let query =
    match label with
    | Some l -> l
    | None -> Format.asprintf "%a" Sql_ast.pp_query q
  in
  Table.with_name "<query>"
    (run_annotated ~query db (plan db (Plan.of_query q)))

(* -------------------------- EXPLAIN ANALYZE --------------------------- *)

type report = {
  table : Table.t;
  root : t;
  total_ns : int64;
  fingerprint : string;
}

let analyze ?indexes db src =
  Obs.Trace.with_span ~cat:"relalg"
    ~args:[ ("query", Obs.Json.Str src) ]
    "sql.planner_analyze"
  @@ fun () ->
  let t0 = Obs.Clock.now_ns () in
  let root = plan ?indexes db (Plan.of_query (Sql_parser.parse_query src)) in
  let table = Table.with_name "<query>" (execute db root) in
  let total_ns = Obs.Clock.since t0 in
  observe ~query:src ~lookup:(db_lookup db) root total_ns
    (Table.cardinality table);
  { table; root; total_ns; fingerprint = fingerprint db root }

let render_report r =
  Printf.sprintf "%stotal: %.3f ms, %d rows\n" (render r.root)
    (Obs.Clock.to_ms r.total_ns)
    (Table.cardinality r.table)

(* Per-node misestimation: symmetric 1-smoothed ratio between estimated
   and actual output rows (>= 1.0; 1.0 = perfect), same definition as
   {!Obs.Planlog.misest} applies per operator. *)
let node_misest n =
  let actual = float_of_int (max 0 n.actual) in
  let est = max 0. n.est in
  (max actual est +. 1.) /. (min actual est +. 1.)

let rec node_to_json n =
  Obs.Json.Obj
    [
      ("op", Obs.Json.Str (op_string n.op));
      ("est_rows", Obs.Json.Float n.est);
      ("actual_rows", Obs.Json.Int n.actual);
      ("misest", Obs.Json.Float (node_misest n));
      ("cost", Obs.Json.Float n.cost);
      ("actual_ms", Obs.Json.Float (Int64.to_float n.ns /. 1e6));
      ("batches", Obs.Json.Int n.batches);
      ("children", Obs.Json.List (List.map node_to_json n.children));
    ]

(* asura-explain/2 = asura-explain/1 plus the top-level "fingerprint"
   and per-node "misest"/"actual_ms"/"batches" members; every /1 member
   is retained unchanged (compat note in DESIGN.md §12). *)
let to_json r =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str "asura-explain/2");
      ("fingerprint", Obs.Json.Str r.fingerprint);
      ("rows", Obs.Json.Int (Table.cardinality r.table));
      ("total_ns", Obs.Json.Float (Int64.to_float r.total_ns));
      ("physical", Obs.Json.Str (render r.root));
      ("plan", node_to_json r.root);
    ]

(* ----------------------- programmatic operators ----------------------- *)

(* Direct entry points for consumers that build operator chains in code
   (solver, checkers, mapping, bench) rather than through SQL, on the
   same vectorized operators (lineage included).

   Each call reports to the plan observatory through a small synthetic
   annotated tree — scan children under the one real operator — built
   with the same estimators annotation uses, so sys.plans shows
   est-vs-actual for programmatic plans exactly like SQL ones.  All of
   that is gated on {!Obs.Config.on}: an uninstrumented run pays two
   clock reads per call and nothing else. *)

(* Fingerprint scans of a synthetic tree against the input tables. *)
let tables_lookup tables name =
  List.find_map
    (fun t ->
      if String.equal (Table.name t) name then
        Some (Schema.columns (Table.schema t))
      else None)
    tables

let observe_tables root total_ns out tables =
  if Obs.Config.on () then begin
    root.actual <- Table.cardinality out;
    root.ns <- total_ns;
    observe ~lookup:(tables_lookup tables) root total_ns
      (Table.cardinality out)
  end

let scan_node t st =
  let n = node (Scan (Table.name t)) st.rows st.rows [] in
  n.actual <- Table.cardinality t;
  n

let equi_join ~on ta tb =
  let na = Table.cardinality ta and nb = Table.cardinality tb in
  (* same <= tie-break annotation uses, overridable for plan-gate
     regression drills *)
  let build_left = choose_build_side ~auto:(na <= nb) in
  let t0 = Obs.Clock.now_ns () in
  let out = Batch.join_tables ~build_left ~on ta tb in
  let total = Obs.Clock.since t0 in
  if Obs.Config.on () then begin
    let sta = table_stats ta and stb = table_stats tb in
    let key_sel =
      List.fold_left
        (fun acc (l, r) -> acc /. max (ndv_of sta l) (ndv_of stb r))
        1. on
    in
    let rows = sta.rows *. stb.rows *. key_sel in
    let ca = scan_node ta sta and cb = scan_node tb stb in
    let root =
      node
        (Hash_join { on; build_left })
        rows
        (ca.cost +. cb.cost +. sta.rows +. stb.rows +. rows)
        [ ca; cb ]
    in
    observe_tables root total out [ ta; tb ]
  end;
  out

let select ?funcs e t =
  let t0 = Obs.Clock.now_ns () in
  let out =
    Batch.to_table ~name:(Table.name t)
      (Batch.select ?funcs e (Batch.of_table t))
  in
  let total = Obs.Clock.since t0 in
  if Obs.Config.on () then begin
    let st = table_stats t in
    let rows = st.rows *. selectivity st (Plan.simplify_predicate e) in
    let c = scan_node t st in
    let root = node (Filter e) rows (c.cost +. st.rows) [ c ] in
    observe_tables root total out [ t ]
  end;
  out

let group_count ~by t =
  let t0 = Obs.Clock.now_ns () in
  (* project before scanning so the stream only reads the grouping
     columns, not the table's full arity *)
  let out = Batch.group_table ~by (Batch.of_table (Ops.project by t)) in
  let total = Obs.Clock.since t0 in
  if Obs.Config.on () then begin
    let st = table_stats t in
    let rows = distinct_est st by in
    let c = scan_node t st in
    let root = node (Group by) rows (c.cost +. st.rows) [ c ] in
    observe_tables root total out [ t ]
  end;
  out

let distinct t =
  let t0 = Obs.Clock.now_ns () in
  let out = Batch.distinct_table ~name:(Table.name t) (Batch.of_table t) in
  let total = Obs.Clock.since t0 in
  if Obs.Config.on () then begin
    let st = table_stats t in
    let rows = distinct_est st st.cols in
    let c = scan_node t st in
    let root = node Distinct rows (c.cost +. st.rows) [ c ] in
    observe_tables root total out [ t ]
  end;
  out
