type role = Input | Output
type column = { cname : string; role : role; domain : Value.t list }

type spec = {
  sname : string;
  cols : column list;
  constraints : (string * (string list * Expr.t)) list;
      (** per column: the constraint and its free columns *)
}

type column_stats = { column : string; considered : int; kept : int }

type stats = {
  candidates : int;
  evaluations : int;
  physical_evaluations : int;
  per_column : (string * int) list;
  pruning : column_stats list;
}

let pruned c = c.considered - c.kept

let obs_reg = lazy (Obs.Metrics.registry "solver")

let obs_counter name = Obs.Metrics.counter (Lazy.force obs_reg) name

exception Invalid_spec of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid_spec s)) fmt

let make ~name ~columns ~constraints =
  let names = List.map (fun c -> c.cname) columns in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun c ->
      if Hashtbl.mem seen c then invalid "duplicate column %s in %s" c name;
      Hashtbl.add seen c ())
    names;
  List.iter
    (fun c ->
      if c.domain = [] then invalid "empty domain for column %s in %s" c.cname name)
    columns;
  let constraints =
    List.map
      (fun (c, e) ->
        if not (Hashtbl.mem seen c) then
          invalid "constraint on unknown column %s in %s" c name;
        let free = Expr.free_columns e in
        List.iter
          (fun fc ->
            if not (Hashtbl.mem seen fc) then
              invalid "constraint on %s in %s mentions unknown column %s" c name fc)
          free;
        c, (free, e))
      constraints
  in
  { sname = name; cols = columns; constraints }

let name s = s.sname
let columns s = s.cols
let inputs s = List.filter (fun c -> c.role = Input) s.cols
let outputs s = List.filter (fun c -> c.role = Output) s.cols

let constraint_of s c =
  if not (List.exists (fun col -> col.cname = c) s.cols) then
    invalid "no column %s in %s" c s.sname;
  match List.assoc_opt c s.constraints with
  | Some (_, e) -> e
  | None -> Expr.True

let search_space s =
  List.fold_left (fun acc c -> acc * List.length c.domain) 1 s.cols

(* Column addition order: inputs in declaration order, then outputs in
   declaration order — the paper first solves the input combinations, then
   extends with one output column at a time. *)
let ordered_columns s = inputs s @ outputs s

(* Provenance of a generated table: every cell is literally one element
   of its column table (the domain), so under lineage tracking each row
   points at the domain entries that were composed into it.  The column
   tables are materialized as 1-column base tables named
   "<table>.<column>" and registered as lineage sources.  Reconstructed
   after generation so the row-extension hot path stays untouched when
   tracking is off. *)
let attach_domain_lineage s table =
  if not (Lineage.tracking ()) then table
  else begin
    let sources =
      List.map
        (fun c ->
          let ct =
            Table.of_rows
              ~name:(s.sname ^ "." ^ c.cname)
              (Schema.of_list [ c.cname ])
              (List.map (fun v -> [| v |]) c.domain)
          in
          Lineage.register ~id:(Table.id ct) ~name:(Table.name ct)
            ~columns:[ c.cname ] ~get:(Table.get ct);
          let index = Hashtbl.create 16 in
          List.iteri (fun i v -> Hashtbl.replace index v i) c.domain;
          (Table.id ct, index))
        (ordered_columns s)
    in
    let srcs = Array.of_list sources in
    let lin =
      Array.init (Table.cardinality table) (fun i ->
          Array.mapi
            (fun j cell ->
              let cid, index = srcs.(j) in
              { Lineage.source = cid; row = Hashtbl.find index cell })
            (Table.get table i))
    in
    Table.with_lineage table lin
  end

(* ------------------------------------------------------------------ *)
(* Factorized constraint compilation                                   *)
(* ------------------------------------------------------------------ *)

(* A single-column atom: the column it reads and the values it accepts. *)
type atom = { acol : string; accepts : Value.t -> bool }

let atom = function
  | Expr.Eq (Col c, Const v) | Eq (Const v, Col c) ->
      Some { acol = c; accepts = Value.equal v }
  | Neq (Col c, Const v) | Neq (Const v, Col c) ->
      Some { acol = c; accepts = (fun x -> not (Value.equal v x)) }
  | In (Col c, vs) ->
      Some { acol = c; accepts = (fun x -> List.exists (Value.equal x) vs) }
  | _ -> None

(* A conjunction of single-column atoms, flattened; [None] for any other
   shape. *)
let rec conj_atoms = function
  | Expr.True -> Some []
  | And (a, b) -> (
      match conj_atoms a with
      | None -> None
      | Some xs -> Option.map (fun ys -> xs @ ys) (conj_atoms b))
  | e -> Option.map (fun a -> [ a ]) (atom e)

(* The conjunctions as atoms, when every one is atomic. *)
let all_atomic conjs =
  let atoms = List.map conj_atoms conjs in
  if List.for_all Option.is_some atoms then
    Some (Array.of_list (List.map Option.get atoms))
  else None

let disjuncts e =
  let rec go acc = function Expr.Or (a, b) -> go (go acc b) a | e -> e :: acc in
  go [] e

(* [g1 ? l1 : g2 ? l2 : ... : default] as its guards and its leaves (one
   more leaf than guards).  A non-ternary is a chain of no guards. *)
let rec chain = function
  | Expr.Ternary (g, l, rest) ->
      let gs, ls = chain rest in
      g :: gs, l :: ls
  | e -> [], [ e ]

(* A list of [n] atomic conjunctions compiled to bitsets: bit [g] of a
   mask stands for conjunction [g], [words] 63-bit words per mask.  For
   every column some conjunction mentions, [per_col] holds one mask per
   dictionary code of that column: the conjunctions whose atoms on the
   column accept the value (a conjunction silent on the column accepts
   every value).  A row satisfies conjunction [g] iff bit [g] survives
   the AND of its columns' masks. *)
type masks = {
  n : int;
  words : int;
  base : int array;  (** all [n] bits *)
  per_col : (int * int array) array;  (** schema position, code masks *)
}

let compile_masks ~position ~dict conjs =
  let n = Array.length conjs in
  let words = max 1 ((n + 62) / 63) in
  let base = Array.make words 0 in
  for g = 0 to n - 1 do
    base.(g / 63) <- base.(g / 63) lor (1 lsl (g mod 63))
  done;
  (* every code of a column starts accepted by every conjunction; each
     atom clears its conjunction's bit on the codes it rejects *)
  let per_col = Hashtbl.create 16 in
  Array.iteri
    (fun g atoms ->
      List.iter
        (fun a ->
          let j = position a.acol in
          let d = dict j in
          let m =
            match Hashtbl.find_opt per_col j with
            | Some m -> m
            | None ->
                let m =
                  Array.init (Dict.size d * words) (fun i -> base.(i mod words))
                in
                Hashtbl.add per_col j m;
                m
          in
          for code = 0 to Dict.size d - 1 do
            if not (a.accepts (Dict.value d code)) then begin
              let w = (code * words) + (g / 63) in
              m.(w) <- m.(w) land lnot (1 lsl (g mod 63))
            end
          done)
        atoms)
    conjs;
  let per_col = Hashtbl.fold (fun j m acc -> (j, m) :: acc) per_col [] in
  let per_col = List.sort (fun (a, _) (b, _) -> compare a b) per_col in
  { n; words; base; per_col = Array.of_list per_col }

(* [acc] := the conjunctions row [i] satisfies, judging only the columns
   whose code buffers [codes] holds. *)
let row_mask ms codes i acc =
  Array.blit ms.base 0 acc 0 ms.words;
  Array.iter
    (fun (j, m) ->
      if j < Array.length codes then begin
        let off = codes.(j).(i) * ms.words in
        for w = 0 to ms.words - 1 do
          acc.(w) <- acc.(w) land m.(off + w)
        done
      end)
    ms.per_col

(* Lowest set bit of [acc] — the first satisfied conjunction — or [n]. *)
let first_set ms acc =
  let rec bit x b = if x land 1 = 1 then b else bit (x lsr 1) (b + 1) in
  let rec word w =
    if w = ms.words then ms.n
    else if acc.(w) = 0 then word (w + 1)
    else (w * 63) + bit acc.(w) 0
  in
  word 0

(* A leaf of a chain, judged for one parent row over the new column's
   domain positions. *)
type leaf =
  | Det_const of int
      (** [c = v]: the positions whose code is [v]'s ([-1]: none) *)
  | Det_copy of int * int array
      (** [c = b] for a bound column [b]: its position and the
          translation of its codes into the new column's dictionary *)
  | Dnf of masks * int array option
      (** OR of atomic conjunctions: masks over the bound columns, and
          the new column's code masks when it is mentioned *)
  | Residual of int
      (** any other shape: index of a closure evaluated per candidate *)

(* A ready constraint: a chain whose guards never mention the new column.
   [first] is the per-parent-row first-match index of its guard list
   (a hidden column); [None] when it has no guards. *)
type check = { first : int array option; leaves : leaf array }

let generate ?funcs s =
  Obs.Trace.with_span ~cat:"solver"
    ~args:[ "table", Obs.Json.Str s.sname ]
    "solver.generate"
  @@ fun () ->
  let order = ordered_columns s in
  let evaluations = ref 0 and candidates = ref 0 and physical = ref 0 in
  let per_column = ref [] in
  let pruning = ref [] in
  (* plan-observatory accounting: one "extend" op per column, recorded
     as a single solver.generate plan after the fold (spawning domain
     only; workers never touch obs) *)
  let t_gen = Obs.Clock.now_ns () in
  let plan_ops = ref [] in
  let plan_cost = ref 0. in
  let pending =
    ref
      (List.filter_map
         (fun c ->
           match List.assoc_opt c.cname s.constraints with
           | Some (_, Expr.True) | None -> None
           | Some fe -> Some fe)
         order)
  in
  let bound = Hashtbl.create 16 in
  (* hash-consed guard lists: structurally equal lists share one id and
     one hidden first-match column *)
  let guard_ids = Hashtbl.create 8 in
  (* state: one (dict, codes) pair per bound column, [nrows] valid rows,
     and the hidden first-match columns as (guard-list id, codes) *)
  let step (schema, cols, hidden, nrows) col =
    Obs.Trace.with_span ~cat:"solver"
      ~args:[ "column", Obs.Json.Str col.cname ]
      "solver.extend"
    @@ fun () ->
    let t_step = Obs.Clock.now_ns () in
    Hashtbl.add bound col.cname ();
    let schema' = Schema.append schema [ col.cname ] in
    let ready, waiting =
      List.partition
        (fun (free, _) -> List.for_all (Hashtbl.mem bound) free)
        !pending
    in
    pending := waiting;
    let arity = Array.length cols in
    let dom = Array.of_list col.domain in
    let d = Array.length dom in
    let ndict = Dict.create () in
    let dom_codes = Array.map (Dict.intern ndict) dom in
    let dicts = Array.append (Array.map fst cols) [| ndict |] in
    let codes = Array.map snd cols in
    let position = Schema.index schema' in
    let hidden = ref hidden in
    (* the first-match column of a guard list, computed once per parent
       row the first time the list is seen and carried from then on *)
    let first_matches guards =
      match Hashtbl.find_opt guard_ids guards with
      | Some id -> List.assoc id !hidden
      | None ->
          let n = List.length guards in
          let first =
            match all_atomic guards with
            | Some conjs ->
                let ms = compile_masks ~position ~dict:(Array.get dicts) conjs in
                let acc = Array.make ms.words 0 in
                Array.init nrows (fun i ->
                    row_mask ms codes i acc;
                    first_set ms acc)
            | None ->
                let fs =
                  Array.of_list
                    (List.map
                       (Expr.compile_columns ?funcs schema'
                          ~dict:(Array.get dicts) ~codes:(Array.get codes))
                       guards)
                in
                Array.init nrows (fun i ->
                    let rec go g = if g = n || fs.(g) i then g else go (g + 1) in
                    go 0)
          in
          physical := !physical + nrows;
          let id = Hashtbl.length guard_ids in
          Hashtbl.add guard_ids guards id;
          hidden := (id, first) :: !hidden;
          first
    in
    let residuals = ref [] in
    let leaf e =
      let is_new a = a = col.cname in
      match e with
      | Expr.Eq (Col a, Col b) when is_new a <> is_new b ->
          let j = position (if is_new a then b else a) in
          Det_copy (j, Dict.translate ~from:dicts.(j) ~into:ndict)
      | Eq (Col a, Const v) | Eq (Const v, Col a) when is_new a ->
          Det_const (Option.value (Dict.code_opt ndict v) ~default:(-1))
      | _ -> (
          match all_atomic (disjuncts e) with
          | Some conjs ->
              let ms = compile_masks ~position ~dict:(Array.get dicts) conjs in
              Dnf (ms, List.assoc_opt arity (Array.to_list ms.per_col))
          | None ->
              residuals := e :: !residuals;
              Residual (List.length !residuals - 1))
    in
    let checks =
      List.map
        (fun (_, e) ->
          match chain e with
          | guards, leaves
            when guards <> []
                 && (Hashtbl.mem guard_ids guards
                    || not
                         (List.exists
                            (fun g -> List.mem col.cname (Expr.free_columns g))
                            guards)) ->
              {
                first = Some (first_matches guards);
                leaves = Array.of_list (List.map leaf leaves);
              }
          | _ -> { first = None; leaves = [| leaf e |] })
        ready
      |> Array.of_list
    in
    let residuals = Array.of_list (List.rev !residuals) in
    let res_cols =
      List.sort_uniq compare
        (List.concat_map
           (fun e -> List.map position (Expr.free_columns e))
           (Array.to_list residuals))
      |> List.filter (fun j -> j < arity)
    in
    (* Per parent row: start from every domain position of the new column
       and narrow by each check in order, counting the candidates each
       check would have judged — exactly the evaluations of a
       per-candidate short-circuit enumeration.  Survivors are emitted
       as [parent * d + position], parent-major, domain order.  Chunks
       over parent rows merge in chunk order, so row order and counts are
       independent of the domain count. *)
    let run_chunk parents =
      let out = ref (Array.make 64 0) and m_out = ref 0 in
      let emit x =
        if !m_out = Array.length !out then begin
          let a = Array.make (2 * !m_out) 0 in
          Array.blit !out 0 a 0 !m_out;
          out := a
        end;
        !out.(!m_out) <- x;
        incr m_out
      in
      (* residual leaves read the parent's cells from per-chunk buffers
         repeated across the d positions, and the new column's codes *)
      let scratch =
        Array.init arity (fun j ->
            if List.mem j res_cols then Array.make d 0 else [||])
      in
      let res_fns =
        Array.map
          (Expr.compile_columns ?funcs schema' ~dict:(Array.get dicts)
             ~codes:(fun j -> if j = arity then dom_codes else scratch.(j)))
          residuals
      in
      let acc =
        Array.make
          (Array.fold_left
             (fun w c ->
               Array.fold_left
                 (fun w -> function Dnf (ms, _) -> max w ms.words | _ -> w)
                 w c.leaves)
             1 checks)
          0
      in
      let sel = Array.make d 0 in
      let evals = ref 0 and phys = ref 0 in
      (* keep the first [m] selected positions that pass; the new count *)
      let filter m keep =
        let k = ref 0 in
        for i = 0 to m - 1 do
          let x = sel.(i) in
          if keep x then begin
            sel.(!k) <- x;
            incr k
          end
        done;
        !k
      in
      let has_code code x = dom_codes.(x) = code in
      let masked ms cm x =
        let off = dom_codes.(x) * ms.words in
        let hit = ref false in
        for w = 0 to ms.words - 1 do
          if acc.(w) land cm.(off + w) <> 0 then hit := true
        done;
        !hit
      in
      (* the parent whose cells the scratch buffers hold *)
      let filled = ref (-1) in
      let narrow p m chk =
        let leaf =
          match chk.first with
          | None -> chk.leaves.(0)
          | Some first -> chk.leaves.(first.(p))
        in
        match leaf with
        | Det_const code ->
            incr phys;
            filter m (has_code code)
        | Det_copy (j, map) ->
            incr phys;
            filter m (has_code map.(codes.(j).(p)))
        | Dnf (ms, mine) -> (
            row_mask ms codes p acc;
            phys := !phys + m;
            match mine with
            | None -> if first_set ms acc < ms.n then m else 0
            | Some cm -> filter m (masked ms cm))
        | Residual r ->
            if !filled <> p then begin
              List.iter
                (fun j -> Array.fill scratch.(j) 0 d codes.(j).(p))
                res_cols;
              filled := p
            end;
            phys := !phys + m;
            filter m res_fns.(r)
      in
      Array.iter
        (fun p ->
          for k = 0 to d - 1 do
            sel.(k) <- k
          done;
          let m = ref d in
          for c = 0 to Array.length checks - 1 do
            evals := !evals + !m;
            if !m > 0 then m := narrow p !m checks.(c)
          done;
          for i = 0 to !m - 1 do
            emit ((p * d) + sel.(i))
          done)
        parents;
      Array.sub !out 0 !m_out, Array.length parents * d, !evals, !phys
    in
    let parts =
      Par.Pool.map_chunks ~min_chunk:64 run_chunk (Array.init nrows Fun.id)
    in
    let out =
      Array.concat (Array.to_list (Array.map (fun (o, _, _, _) -> o) parts))
    in
    let kept = Array.length out in
    (* a step that extends every parent by exactly one value leaves the
       parent columns as they are: share them *)
    let same_rows =
      kept = nrows
      &&
      let rec from i = i = kept || (out.(i) / d = i && from (i + 1)) in
      from 0
    in
    let gather src =
      if same_rows then src
      else
        Array.init (max 1 kept) (fun i ->
            if i < kept then src.(out.(i) / d) else 0)
    in
    let out_cols =
      Array.init (arity + 1) (fun j ->
          if j < arity then gather codes.(j)
          else
            Array.init (max 1 kept) (fun i ->
                if i < kept then dom_codes.(out.(i) mod d) else 0))
    in
    let considered = Array.fold_left (fun acc (_, c, _, _) -> acc + c) 0 parts in
    Array.iter
      (fun (_, _, e, ph) ->
        evaluations := !evaluations + e;
        physical := !physical + ph)
      parts;
    candidates := !candidates + considered;
    per_column := (col.cname, kept) :: !per_column;
    Obs.Flightrec.record ~tag:Obs.Flightrec.tag_solver_extend ~a:considered
      ~b:kept ();
    pruning := { column = col.cname; considered; kept } :: !pruning;
    (* per-constraint pruning attribution: candidate rows this column's
       newly-applicable constraints eliminated, so the most selective
       constraints are visible in metrics snapshots and run manifests *)
    Obs.Metrics.add
      (obs_counter (Printf.sprintf "pruned.%s.%s" s.sname col.cname))
      (considered - kept);
    if Obs.Config.on () then begin
      let considered_f = float_of_int considered in
      (* uninformed textbook half per newly-ready constraint — the same
         default the planner uses for registered functions; the misest
         column of sys.plans shows how far off that is per column *)
      let est_rows =
        considered_f *. (0.5 ** float_of_int (Array.length checks))
      in
      plan_cost := !plan_cost +. considered_f;
      plan_ops :=
        {
          Obs.Planlog.op =
            Printf.sprintf "extend %s (domain=%d, checks=%d)" col.cname d
              (Array.length checks);
          est_rows;
          est_cost = !plan_cost;
          actual_rows = kept;
          actual_ns = Int64.to_float (Obs.Clock.since t_step);
          batches = Array.length parts;
        }
        :: !plan_ops
    end;
    ( schema',
      Array.mapi (fun j c -> dicts.(j), c) out_cols,
      List.map (fun (id, first) -> id, gather first) !hidden,
      kept )
  in
  let schema, cols, _, nrows =
    List.fold_left step (Schema.of_list [], [||], [], 1) order
  in
  Obs.Metrics.add (obs_counter "candidates") !candidates;
  Obs.Metrics.add (obs_counter "evaluations") !evaluations;
  Obs.Metrics.add (obs_counter "physical_evaluations") !physical;
  Obs.Metrics.add (obs_counter "rows_generated") nrows;
  Obs.Flightrec.record ~tag:Obs.Flightrec.tag_solver_gen ~a:nrows
    ~b:(List.length order) ();
  (if Obs.Config.on () then
     let ops = List.rev !plan_ops in
     (* structural fingerprint: table, column order, domain sizes and
        per-column constraint counts — the extension "plan" the column
        ordering heuristic chose *)
     let fingerprint =
       Obs.Planlog.fingerprint
         ("solver-generate" :: s.sname
         :: List.map (fun (o : Obs.Planlog.op) -> o.op) ops)
     in
     Obs.Planlog.record ~site:"solver.generate" ~fingerprint
       ~query:("generate " ^ s.sname) ~est_cost:!plan_cost
       ~total_ns:(Int64.to_float (Obs.Clock.since t_gen))
       ~rows_out:nrows ops);
  let table =
    attach_domain_lineage s (Table.of_columns ~name:s.sname schema ~nrows cols)
  in
  Obs.Metrics.add (obs_counter "storage_bytes") (Table.storage_bytes table);
  ( table,
    {
      candidates = !candidates;
      evaluations = !evaluations;
      physical_evaluations = !physical;
      per_column = List.rev !per_column;
      pruning = List.rev !pruning;
    } )

let generate_monolithic ?funcs s =
  Obs.Trace.with_span ~cat:"solver"
    ~args:[ "table", Obs.Json.Str s.sname ]
    "solver.generate_monolithic"
  @@ fun () ->
  let order = ordered_columns s in
  let schema = Schema.of_list (List.map (fun c -> c.cname) order) in
  let conjunction =
    Expr.compile ?funcs schema
      (Expr.conj (List.map (fun c -> constraint_of s c.cname) order))
  in
  (* Enumerate the full cross product without materializing it as a list of
     lists: depth-first over the domains.  For the parallel path the
     outermost column's values are split across the pool; each chunk
     enumerates its sub-product with private counters and a private row
     buffer, and chunk results concatenate in value order — the exact
     depth-first order of the sequential enumeration. *)
  let domains = Array.of_list (List.map (fun c -> Array.of_list c.domain) order) in
  let n = Array.length domains in
  let enum_chunk first_values =
    let evaluations = ref 0 and candidates = ref 0 in
    let kept = ref [] in
    let row = Array.make (max n 1) Value.Null in
    let rec enum i =
      if i = n then begin
        incr candidates;
        incr evaluations;
        let r = Array.sub row 0 n in
        if conjunction r then kept := r :: !kept
      end
      else
        let values = if i = 0 then first_values else domains.(i) in
        Array.iter
          (fun v ->
            row.(i) <- v;
            enum (i + 1))
          values
    in
    enum 0;
    List.rev !kept, !candidates, !evaluations
  in
  let parts =
    if n = 0 then [||] else Par.Pool.map_chunks ~min_chunk:1 enum_chunk domains.(0)
  in
  let rows =
    List.concat (Array.to_list (Array.map (fun (r, _, _) -> r) parts))
  in
  let candidates =
    ref (Array.fold_left (fun acc (_, c, _) -> acc + c) 0 parts)
  in
  let evaluations =
    ref (Array.fold_left (fun acc (_, _, e) -> acc + e) 0 parts)
  in
  Obs.Metrics.add
    (obs_counter (Printf.sprintf "pruned.%s.<full product>" s.sname))
    (!candidates - List.length rows);
  Obs.Flightrec.record ~tag:Obs.Flightrec.tag_solver_gen
    ~a:(List.length rows) ~b:n ();
  ( attach_domain_lineage s (Table.of_rows ~name:s.sname schema rows),
    {
      candidates = !candidates;
      evaluations = !evaluations;
      physical_evaluations = !evaluations;
      per_column = [ ("<full product>", List.length rows) ];
      pruning =
        [ { column = "<full product>"; considered = !candidates;
            kept = List.length rows } ];
    } )
