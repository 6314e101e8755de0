open Mstate

(* ------------------------------------------------------------------ *)
(* Compiled rule dispatch                                              *)
(* ------------------------------------------------------------------ *)

(* Every executable table is compiled once, at load time, against the
   one delivery site that fires it.  A site binds a fixed list of input
   columns and builds its binding as a [string array] in that order, so
   a guard cell becomes a (binding position, wanted value) pair and
   matching a rule is a few array reads and string compares instead of
   [List.assoc_opt] over a 12-entry association list.  A rule whose
   guard names a column the site never binds can never match (first
   match over a binding without that column fails it too), so it is
   left out of the dispatch altogether.  A rule's action becomes a [string option
   array] over the site's output positions: the columns the site reads
   come first, at positions fixed below, followed by the table's other
   output columns, so [deliver_*] reads its fields by position.

   Dispatch buckets the compiled rules by the value their guard binds at
   one discriminating position (the input message name, in practice),
   splitting big buckets again on the next-best position.  A bucket
   holds, in the original priority order, exactly the rules that can
   match a binding carrying that value — rules that leave the position
   unconstrained appear in every bucket and in [rest] — so first match
   over a bucket is the row first match over the whole priority-ordered
   table gives, and coverage and flight-recorder attribution (table id,
   row) are unchanged. *)

module Sh = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type rule = {
  row : int;  (* the generating row in the source table *)
  gpos : int array;  (* binding positions the guard constrains … *)
  gval : string array;  (* … and the value each must equal *)
  action : string option array;  (* by site output position *)
}

type dispatch =
  | Scan of rule array
  | Split of { pos : int; buckets : dispatch Sh.t; rest : dispatch }
      (* [rest]: the rules leaving [pos] free, the candidates for a
         value no guard names *)

type site = { cols : string array; outs : string array }

type ruleset = {
  table : Relalg.Table.t;
  inputs : string list;  (* the table's guard columns … *)
  outputs : string list;  (* … and action columns *)
  source : Mapping.Codegen.rule list Lazy.t;
      (* the string rules, priority order: built only for the naive
         matcher, the tests and ED gating; forced on the spawning
         domain *)
  cols : string array;  (* binding columns, in binding-array order *)
  outs : string array;  (* output columns, in action-array order *)
  cov : int;  (* runtime Table.id, for coverage and the flight recorder *)
  dispatch : dispatch;
  naive : bool;  (* match by {!Mapping.Codegen.eval_rule}: the oracle *)
}

type tables = {
  d_rules : ruleset;
  c_rules : ruleset;
  n_rules : ruleset;
  pif_rules : ruleset;
  m_rules : ruleset;
  io_rules : ruleset;
}

let position cols c =
  let rec go i =
    if i >= Array.length cols then -1
    else if String.equal cols.(i) c then i
    else go (i + 1)
  in
  go 0

(* Compilation reads the table column-wise from its dictionary codes,
   never building the string rules, and works on value codes:
   [values.(p)] lists the distinct guard values at binding position
   [p], and a rule's [want.(p)] indexes it ([-1]: free), so choosing and
   filling buckets is integer work, O(rules x positions) per split. *)
type compiling = { rule : rule; want : int array }

(* A binding position's table column: its dictionary codes, and each
   code's index into the position's distinct values ([-1] for NULL, a
   dont-care).  Equal renderings share one index. *)
let position_column (codes, strs) =
  let seen = Sh.create 16 in
  let index =
    Array.map
      (function
        | None -> -1
        | Some s -> (
            match Sh.find_opt seen s with
            | Some i -> i
            | None ->
                let i = Sh.length seen in
                Sh.add seen s i;
                i))
      strs
  in
  let values = Array.make (Sh.length seen) "" in
  Sh.iter (fun s i -> values.(i) <- s) seen;
  (codes, index, values)

(* The discriminator is the position whose buckets are smallest on
   average: a position constraining [hits] rules over [values] distinct
   values, and leaving [n - hits] rules free (they join every bucket),
   averages [hits / values + n - hits] candidates — the input message
   name for the delivery tables, the processor op for PIF.  Counting
   the free rules also bounds the build: the buckets of one split hold
   [hits + (n - hits) * values] entries in all.  Ties go to the earlier
   position; only positions with two or more values split. *)
let best_pos ~values rules =
  let n = List.length rules in
  let best = ref None in
  Array.iteri
    (fun p vals ->
      let seen = Array.make (Array.length vals) false in
      let hits = ref 0 and distinct = ref 0 in
      List.iter
        (fun { want; _ } ->
          let c = want.(p) in
          if c >= 0 then begin
            incr hits;
            if not seen.(c) then begin
              seen.(c) <- true;
              incr distinct
            end
          end)
        rules;
      if !distinct >= 2 then begin
        let avg =
          (float_of_int !hits /. float_of_int !distinct)
          +. float_of_int (n - !hits)
        in
        match !best with
        | Some (_, b) when b <= avg -> ()
        | _ -> best := Some (p, avg)
      end)
    values;
  Option.map fst !best

(* Buckets bigger than this are split again on the next-best position
   (D splits on the input message, then again within a message); depth
   is bounded so degenerate tables can't recurse forever. *)
let split_threshold = 8

(* One pass over the priority-ordered rules fills every bucket in
   order: a rule binding the discriminator joins its value's bucket, a
   rule leaving it free joins every bucket and [rest]. *)
let rec build ~values fuel rules =
  let scan () = Scan (Array.of_list (List.map (fun c -> c.rule) rules)) in
  if fuel = 0 || List.length rules <= split_threshold then scan ()
  else
    match best_pos ~values rules with
    | None -> scan ()
    | Some pos ->
        let nv = Array.length values.(pos) in
        let present = Array.make nv false in
        List.iter
          (fun { want; _ } -> if want.(pos) >= 0 then present.(want.(pos)) <- true)
          rules;
        let acc = Array.make nv [] and rest = ref [] in
        List.iter
          (fun ({ want; _ } as c) ->
            let v = want.(pos) in
            if v >= 0 then acc.(v) <- c :: acc.(v)
            else begin
              rest := c :: !rest;
              for i = 0 to nv - 1 do
                if present.(i) then acc.(i) <- c :: acc.(i)
              done
            end)
          rules;
        let buckets = Sh.create nv in
        Array.iteri
          (fun i v ->
            if present.(i) then
              Sh.add buckets v (build ~values (fuel - 1) (List.rev acc.(i))))
          values.(pos);
        Split { pos; buckets; rest = build ~values (fuel - 1) (List.rev !rest) }

let compile_ruleset (site : site) ~inputs ~outputs t =
  let n = Relalg.Table.cardinality t in
  let rendered =
    List.map (fun c -> (c, Mapping.Codegen.rendered_column t c)) (inputs @ outputs)
  in
  let column c = List.assoc c rendered in
  (* priority: most guard cells first, table order among equals — the
     order {!Mapping.Codegen.rules_of_table} sorts its rules into *)
  let cells = Array.make n 0 in
  List.iter
    (fun c ->
      let codes, strs = column c in
      for i = 0 to n - 1 do
        if Option.is_some strs.(codes.(i)) then cells.(i) <- cells.(i) + 1
      done)
    inputs;
  let order =
    List.stable_sort
      (fun a b -> Int.compare cells.(b) cells.(a))
      (List.init n Fun.id)
  in
  (* the site's own reads first, at their fixed positions *)
  let outs =
    Array.append site.outs
      (Array.of_list
         (List.filter (fun c -> position site.outs c < 0) outputs))
  in
  let pcols =
    Array.map
      (fun c ->
        if List.mem c inputs then Some (position_column (column c)) else None)
      site.cols
  in
  let values =
    Array.map (function Some (_, _, v) -> v | None -> [||]) pcols
  in
  (* guard columns the site never binds: a rule constraining one can
     never match *)
  let unbound =
    List.filter_map
      (fun c -> if position site.cols c >= 0 then None else Some (column c))
      inputs
  in
  let ocols =
    Array.map (fun c -> if List.mem c outputs then Some (column c) else None) outs
  in
  let compile i =
    let want =
      Array.map
        (function Some (codes, index, _) -> index.(codes.(i)) | None -> -1)
        pcols
    in
    let k = Array.fold_left (fun k c -> if c >= 0 then k + 1 else k) 0 want in
    let gpos = Array.make k 0 and gval = Array.make k "" in
    let j = ref 0 in
    Array.iteri
      (fun p c ->
        if c >= 0 then begin
          gpos.(!j) <- p;
          gval.(!j) <- values.(p).(c);
          incr j
        end)
      want;
    let action =
      Array.map
        (function Some (codes, strs) -> strs.(codes.(i)) | None -> None)
        ocols
    in
    { rule = { row = i; gpos; gval; action }; want }
  in
  let matchable i =
    not (List.exists (fun (codes, strs) -> Option.is_some strs.(codes.(i))) unbound)
  in
  {
    table = t;
    inputs;
    outputs;
    source = lazy (Mapping.Codegen.rules_of_table ~inputs ~outputs t);
    cols = site.cols;
    outs;
    cov = Relalg.Table.id t;
    dispatch =
      build ~values 3 (List.map compile (List.filter matchable order));
    naive = false;
  }

let ruleset_of_table site ~inputs ~outputs t =
  Obs.Coverage.register ~id:(Relalg.Table.id t)
    ~name:(Relalg.Table.name t)
    ~rows:(Relalg.Table.cardinality t);
  compile_ruleset site ~inputs ~outputs t

(* The delivery sites: the columns each binds, in binding-array order,
   and the output columns it reads, at positions [0 ..] of every action
   array.  The [deliver_*] functions below build and read exactly these
   orders. *)
let dir_site =
  {
    cols =
      [| "inmsg"; "inmsgsrc"; "inmsgdest"; "inmsgres"; "addrspace"; "dirst";
         "dirpv"; "reqpv"; "bdirst"; "bdirpv"; "dirlookup"; "bdirlookup" |];
    outs =
      [| "locmsg"; "remmsg"; "memmsg"; "bdirop"; "nxtbdirst"; "nxtbdirpv";
         "nxtdirst"; "nxtdirpv" |];
  }

let snoop_site =
  {
    cols = [| "inmsg"; "inmsgsrc"; "inmsgdest"; "inmsgres"; "cachest" |];
    outs = [| "respmsg"; "nxtcachest" |];
  }

let response_site =
  {
    cols = [| "inmsg"; "inmsgsrc"; "inmsgdest"; "inmsgres"; "pendop" |];
    outs = [| "cachefill"; "ackmsg"; "procresult" |];
  }

let mem_site =
  {
    cols = [| "inmsg"; "inmsgsrc"; "inmsgdest"; "inmsgres"; "eccst" |];
    outs = [| "outmsg" |];
  }

let io_site =
  {
    cols = [| "inmsg"; "inmsgsrc"; "inmsgdest"; "inmsgres"; "devst" |];
    outs = [| "outmsg" |];
  }

let issue_site =
  { cols = [| "procop"; "cachest" |]; outs = [| "reqmsg"; "pendop" |] }

let rules_of site (c : Protocol.controller) =
  let spec = c.Protocol.spec in
  ruleset_of_table site
    ~inputs:(Protocol.Ctrl_spec.input_columns spec)
    ~outputs:(Protocol.Ctrl_spec.output_columns spec)
    (Protocol.Ctrl_spec.table spec)

let load_tables_with ?dir () =
  let d_rules =
    match dir with
    | None -> rules_of dir_site Protocol.directory
    | Some spec ->
        ruleset_of_table dir_site
          ~inputs:(Protocol.Ctrl_spec.input_columns spec)
          ~outputs:(Protocol.Ctrl_spec.output_columns spec)
          (fst (Protocol.Ctrl_spec.generate spec))
  in
  {
    d_rules;
    c_rules = rules_of snoop_site Protocol.cache;
    n_rules = rules_of response_site Protocol.node;
    pif_rules = rules_of issue_site Protocol.pif;
    m_rules = rules_of mem_site Protocol.memory;
    io_rules = rules_of io_site Protocol.io;
  }

let load_tables () = load_tables_with ()

let reference_tables t =
  let naive rs =
    ignore (Lazy.force rs.source : Mapping.Codegen.rule list);
    { rs with naive = true }
  in
  {
    d_rules = naive t.d_rules;
    c_rules = naive t.c_rules;
    n_rules = naive t.n_rules;
    pif_rules = naive t.pif_rules;
    m_rules = naive t.m_rules;
    io_rules = naive t.io_rules;
  }

let rulesets t =
  [ "D", t.d_rules; "C", t.c_rules; "N", t.n_rules; "PIF", t.pif_rules;
    "M", t.m_rules; "IO", t.io_rules ]

let compile_table ~columns ~inputs ~outputs t =
  compile_ruleset { cols = Array.copy columns; outs = [||] } ~inputs ~outputs t

let columns rs = Array.copy rs.cols
let rules rs = Lazy.force rs.source
let directory_rules t = Lazy.force t.d_rules.source

let rec candidates d (b : string array) =
  match d with
  | Scan rules -> rules
  | Split { pos; buckets; rest } -> (
      match Sh.find_opt buckets b.(pos) with
      | Some sub -> candidates sub b
      | None -> candidates rest b)

let matches r (b : string array) =
  let n = Array.length r.gpos in
  let rec go i =
    i >= n
    || String.equal b.(Array.unsafe_get r.gpos i) (Array.unsafe_get r.gval i)
       && go (i + 1)
  in
  go 0

let find rs b =
  let cands = candidates rs.dispatch b in
  let rec scan i =
    if i >= Array.length cands then None
    else
      let r = Array.unsafe_get cands i in
      if matches r b then Some r else scan (i + 1)
  in
  scan 0

let dispatch rs b =
  if Array.length b <> Array.length rs.cols then
    invalid_arg "Semantics.dispatch: binding length";
  Option.map
    (fun r ->
      ( r.row,
        List.filter_map
          (fun i -> Option.map (fun v -> (rs.outs.(i), v)) r.action.(i))
          (List.init (Array.length rs.outs) Fun.id) ))
    (find rs b)

(* The single choke point where controller-table rows fire: record the
   matched row in the coverage bitmap (a no-op branch when coverage is
   off — safe from parallel workers, see Obs.Coverage) and in the flight
   recorder, under the same (table id, row) attribution.  The naive
   matcher is the boxed reference's: it zips the binding with the
   site's columns and runs first match over the string rules, sharing
   nothing with the compiled dispatch it checks. *)
let fire rs row action =
  Obs.Coverage.record ~id:rs.cov ~row;
  Obs.Flightrec.record ~tag:Obs.Flightrec.tag_fire ~a:rs.cov ~b:row ();
  Some action

let eval rs b =
  if rs.naive then
    match
      Mapping.Codegen.eval_rule (Lazy.force rs.source)
        (List.combine (Array.to_list rs.cols) (Array.to_list b))
    with
    | None -> None
    | Some r ->
        fire rs r.Mapping.Codegen.row
          (Array.map (fun c -> List.assoc_opt c r.Mapping.Codegen.action) rs.outs)
  else
    match find rs b with None -> None | Some r -> fire rs r.row r.action

(* Every symbolic string a reachable state can contain comes out of a
   controller-table cell: harvest them per column, so the bit-packer can
   seed its per-field dictionaries up front and pool workers never
   intern (Pack relies on the read-only Dict.code_opt fast path). *)
let pack_vocab t =
  let tbl : (string, unit Sh.t) Hashtbl.t = Hashtbl.create 32 in
  let record col v =
    let vs =
      match Hashtbl.find_opt tbl col with
      | Some vs -> vs
      | None ->
          let vs = Sh.create 16 in
          Hashtbl.add tbl col vs;
          vs
    in
    Sh.replace vs v ()
  in
  (* every non-NULL cell of a guard or action column, read off the
     dictionary codes the rows use *)
  List.iter
    (fun (_, rs) ->
      List.iter
        (fun c ->
          let codes, strs = Mapping.Codegen.rendered_column rs.table c in
          let used = Array.make (Array.length strs) false in
          for i = 0 to Relalg.Table.cardinality rs.table - 1 do
            used.(codes.(i)) <- true
          done;
          Array.iteri
            (fun code s ->
              match s with Some v when used.(code) -> record c v | _ -> ())
            strs)
        (rs.inputs @ rs.outputs))
    (rulesets t);
  Hashtbl.fold
    (fun col vs acc ->
      (col, List.sort compare (Sh.fold (fun v () l -> v :: l) vs [])) :: acc)
    tbl []
  |> List.sort compare

type config = {
  nodes : int;
  addrs : int;
  ops : string list;
  capacity : int;
  io_addrs : int list;  (* addresses living in the uncached I/O space *)
  lossy : bool;  (* inter-node links may drop messages (LK crcdrop) *)
}
type outcome = Next of Mstate.t | Broken of string

let bit n = 1 lsl n

let data_bearing = function
  | "data" | "datax" | "mdata" | "sdata" | "swbdata" | "wb" | "mwrite"
  | "mupdate" ->
      true
  | _ -> false

(* The request a node reissues after a retry, from its pending op. *)
let request_of_pendop = function
  | "read" -> Some "read"
  | "ifetch" -> Some "fetch"
  | "write" -> Some "readex"
  | "rmw" -> Some "swap"
  | "upgrade" -> Some "upgrade"
  | "wback" -> Some "wb"
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Directory                                                           *)
(* ------------------------------------------------------------------ *)

(* In [dir_site.cols] order. *)
let dir_binding_array config st ~cls msg =
  let a = addr_state st msg.addr in
  let addrspace =
    if List.mem msg.addr config.io_addrs then "io" else "mem"
  in
  let src_role =
    if cls = "reqq" || cls = "ackq" then "local"
    else if msg.src = mem then "home"
    else "remote"
  in
  [|
    msg.m; src_role; "home"; cls; addrspace; a.dirst; pv_encode a.sharers;
    (if a.sharers land bit msg.src <> 0 then "in" else "out");
    (match a.busy with Some b -> b.bst | None -> "I");
    (match a.busy with Some b -> pv_encode b.acks | None -> "zero");
    (if a.dirst = "I" then "miss" else "hit");
    (if a.busy = None then "miss" else "hit");
  |]

let dir_binding config st ~cls msg =
  List.combine (Array.to_list dir_site.cols)
    (Array.to_list (dir_binding_array config st ~cls msg))

let deliver_dir tables config st cls msg =
  let a = addr_state st msg.addr in
  let binding = dir_binding_array config st ~cls msg in
  match eval tables.d_rules binding with
  | None ->
      Broken
        (Printf.sprintf "D has no row for %s (%s) dirst=%s bdirst=%s" msg.m
           binding.(1) a.dirst
           (match a.busy with Some b -> b.bst | None -> "I"))
  | Some out ->
      (* positions of [dir_site.outs] *)
      let locmsg = out.(0) and remmsg = out.(1) and memmsg = out.(2)
      and bdirop = out.(3) and nxtbdirst = out.(4) and nxtbdirpv = out.(5)
      and nxtdirst = out.(6) and nxtdirpv = out.(7) in
      let requester =
        match cls, a.busy with
        | "reqq", _ -> msg.src
        | _, Some b -> b.requester
        | _, None -> msg.src
      in
      (* freshness of any data this row forwards to the requester *)
      let incoming_fresh =
        if data_bearing msg.m then Some msg.fresh else None
      in
      let forwarded_fresh =
        match incoming_fresh, a.busy with
        | Some f, _ -> f
        | None, Some b -> b.data_fresh
        | None, None -> true
      in
      (* snoop targets, before any state update *)
      let drepl = nxtbdirpv = Some "drepl" in
      let targets =
        match remmsg with
        | None -> 0
        | Some "sinv" ->
            if drepl then a.sharers land lnot (bit requester) else a.sharers
        | Some _ -> a.sharers
      in
      let st = ref st in
      (match locmsg with
      | Some locmsg ->
          st :=
            enqueue !st ~cls:"resp"
              {
                m = locmsg; src = dir; dst = requester; addr = msg.addr;
                fresh =
                  (if data_bearing locmsg then forwarded_fresh else true);
              }
      | None -> ());
      (match remmsg with
      | Some remmsg ->
          (* one snoop per target, lowest node first *)
          let rec fan mask =
            if mask <> 0 then begin
              let low = mask land -mask in
              st :=
                enqueue !st ~cls:"snp"
                  { m = remmsg; src = dir; dst = popcount (low - 1);
                    addr = msg.addr; fresh = true };
              fan (mask lxor low)
            end
          in
          fan (targets land 0xffff)
      | None -> ());
      (match memmsg with
      | Some memmsg ->
          st :=
            enqueue !st ~cls:"memq"
              {
                m = memmsg; src = dir; dst = mem; addr = msg.addr;
                fresh =
                  (if memmsg = "mwrite" || memmsg = "mupdate" then
                     forwarded_fresh
                   else true);
              }
      | None -> ());
      (* busy-directory operation *)
      let base = match a.busy with Some b -> b.snapshot | None -> a.sharers in
      let busy' =
        match bdirop with
        | Some "alloc" ->
            Some
              {
                bst = Option.value nxtbdirst ~default:"I";
                requester;
                acks = targets;
                snapshot =
                  (if drepl then a.sharers land lnot (bit requester)
                   else a.sharers);
                data_fresh = forwarded_fresh;
              }
        | Some "update" ->
            Option.map
              (fun b ->
                let acks =
                  if
                    cls = "respq"
                    && (match msg.m with
                       | "idone" | "sack" | "snack" | "sdata" | "swbdata" ->
                           true
                       | _ -> false)
                  then b.acks land lnot (bit msg.src)
                  else b.acks
                in
                {
                  b with
                  bst = Option.value nxtbdirst ~default:b.bst;
                  acks;
                  data_fresh = forwarded_fresh;
                })
              a.busy
        | Some "dealloc" -> None
        | _ -> a.busy
      in
      (* directory state and concrete presence-vector operation *)
      let dirst' = Option.value nxtdirst ~default:a.dirst in
      let sharers' =
        match nxtdirpv with
        | Some "repl" -> bit requester
        | Some "inc" -> base lor bit requester
        | Some "dec" ->
            let actor = if cls = "reqq" then msg.src else requester in
            a.sharers land lnot (bit actor)
        | Some "drepl" -> base land lnot (bit requester)
        | _ -> a.sharers
      in
      let sharers' = if nxtdirst = Some "I" then 0 else sharers' in
      st :=
        set_addr !st msg.addr
          { a with dirst = dirst'; sharers = sharers'; busy = busy' };
      Next !st

(* ------------------------------------------------------------------ *)
(* Node: snoops and responses                                          *)
(* ------------------------------------------------------------------ *)

let deliver_snoop tables st node msg =
  let cachest = cache st ~node ~addr:msg.addr in
  match
    eval tables.c_rules [| msg.m; "home"; "remote"; "snpq"; cachest |]
  with
  | None ->
      Broken
        (Printf.sprintf "C has no row for %s at node %d in %s" msg.m node
           cachest)
  | Some out ->
      (* positions of [snoop_site.outs] *)
      let st = ref st in
      (match out.(0) with
      | Some resp ->
          st :=
            enqueue !st ~cls:"respq"
              { m = resp; src = node; dst = dir; addr = msg.addr; fresh = true }
      | None -> ());
      (match out.(1) with
      | Some c -> st := set_cache !st ~node ~addr:msg.addr c
      | None -> ());
      Next !st

let deliver_response tables st node msg =
  let pendop = pending st ~node ~addr:msg.addr in
  let pendop_s = Option.value pendop ~default:"none" in
  match
    eval tables.n_rules [| msg.m; "home"; "local"; "respq"; pendop_s |]
  with
  | None ->
      Broken
        (Printf.sprintf "N has no row for %s at node %d pending %s" msg.m node
           pendop_s)
  | Some out ->
      (* positions of [response_site.outs] *)
      let cachefill = out.(0) and ackmsg = out.(1) and procresult = out.(2) in
      if data_bearing msg.m && not msg.fresh then
        Broken
          (Printf.sprintf "stale data: %s delivered to node %d for addr %d"
             msg.m node msg.addr)
      else begin
        let st = ref st in
        (match cachefill with
        | Some "shared" -> st := set_cache !st ~node ~addr:msg.addr "S"
        | Some "excl" ->
            st := set_cache !st ~node ~addr:msg.addr "M";
            (* the new owner will write: memory is no longer current *)
            let a = addr_state !st msg.addr in
            st := set_addr !st msg.addr { a with mem_fresh = false }
        | _ -> ());
        (match ackmsg with
        | Some ackmsg ->
            st :=
              enqueue !st ~cls:"ackq"
                { m = ackmsg; src = node; dst = dir; addr = msg.addr;
                  fresh = true }
        | None -> ());
        (match procresult with
        | Some ("done" | "fault") ->
            st := set_pending !st ~node ~addr:msg.addr None
        | Some "retrylater" -> (
            (* the node controller emits nothing: the processor interface
               reissues later, as a separate (backpressurable) step --
               consuming a retry must never need request-channel space *)
            match pendop with
            | Some op ->
                st := set_pending !st ~node ~addr:msg.addr (Some ("backoff:" ^ op))
            | None -> ())
        | _ -> ());
        Next !st
      end

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

let deliver_mem tables st msg =
  let rules, binding =
    if msg.m = "mioread" || msg.m = "miowrite" then
      tables.io_rules, [| msg.m; "home"; "home"; "memq"; "ready" |]
    else tables.m_rules, [| msg.m; "home"; "home"; "memq"; "ok" |]
  in
  match eval rules binding with
  | None -> Broken (Printf.sprintf "M/IO has no row for %s" msg.m)
  | Some out ->
      let a = addr_state st msg.addr in
      let st =
        if msg.m = "mwrite" || msg.m = "mupdate" then
          set_addr st msg.addr { a with mem_fresh = msg.fresh }
        else st
      in
      let a = addr_state st msg.addr in
      (* position 0 of [mem_site.outs] and [io_site.outs] *)
      let st =
        match out.(0) with
        | Some resp ->
            enqueue st ~cls:"respq"
              {
                m = resp; src = mem; dst = dir; addr = msg.addr;
                fresh = (if resp = "mdata" then a.mem_fresh else true);
              }
        | None -> st
      in
      Next st

(* ------------------------------------------------------------------ *)
(* Processor issue                                                     *)
(* ------------------------------------------------------------------ *)

let issue tables st node addr op =
  match eval tables.pif_rules [| op; cache st ~node ~addr |] with
  | None -> None
  | Some out -> (
      (* positions of [issue_site.outs] *)
      match out.(0) with
      | None -> None (* a pure cache hit changes nothing: skip *)
      | Some req ->
          let st =
            enqueue st ~cls:"reqq"
              { m = req; src = node; dst = dir; addr; fresh = true }
          in
          let st =
            match out.(1) with
            | Some p -> set_pending st ~node ~addr (Some p)
            | None -> st
          in
          (* evictions drop the line from the cache as they issue *)
          let st =
            if op = "evictmod" || op = "evictsh" then
              set_cache st ~node ~addr "I"
            else st
          in
          Some st)

(* A backed-off operation re-enters the network as a fresh request. *)
let backoff_of pend =
  match pend with
  | Some s when String.length s > 8 && String.starts_with ~prefix:"backoff:" s ->
      Some (String.sub s 8 (String.length s - 8))
  | _ -> None

let reissue st ~node ~addr =
  match backoff_of (pending st ~node ~addr) with
  | None -> None
  | Some op -> (
      match request_of_pendop op with
      | None -> None
      | Some req ->
          let st =
            enqueue st ~cls:"reqq"
              { m = req; src = node; dst = dir; addr; fresh = true }
          in
          Some (set_pending st ~node ~addr (Some op)))

(* ------------------------------------------------------------------ *)
(* Successor relation and structural checks                            *)
(* ------------------------------------------------------------------ *)

let within_capacity config st =
  List.for_all
    (fun (_, q) -> List.length q <= config.capacity)
    st.Mstate.queues

let io_op = function "ioload" | "iostore" | "iormwop" -> true | _ -> false

let link_class = function
  | "reqq" | "respq" | "snp" | "resp" -> true
  | _ -> false

let successors ?(labels = true) tables config st =
  (* Label rendering is a real fraction of the per-state cost (several
     Printf.sprintf per expansion).  The boxed reference engine needs
     the labels — it stores one per visited state for counterexample
     traces — but the packed engine reconstructs traces by sequential
     replay and pass [~labels:false] to skip the rendering entirely.
     Transitions accumulate in reverse and are reversed once: reissues,
     issues, deliveries, then drops. *)
  let out = ref [] in
  let enabled label outcome = out := (label, outcome) :: !out in
  for node = 0 to config.nodes - 1 do
    for addr = 0 to config.addrs - 1 do
      match reissue st ~node ~addr with
      | Some st' when within_capacity config st' ->
          enabled
            (if labels then Printf.sprintf "reissue node%d addr%d" node addr
             else "")
            (Next st')
      | Some _ | None -> ()
    done
  done;
  for node = 0 to config.nodes - 1 do
    for addr = 0 to config.addrs - 1 do
      let is_io = List.mem addr config.io_addrs in
      if Option.is_none (pending st ~node ~addr) then
        List.iter
          (fun op ->
            if io_op op = is_io then
              match issue tables st node addr op with
              | Some st' when within_capacity config st' ->
                  enabled
                    (if labels then
                       Printf.sprintf "issue %s node%d addr%d" op node addr
                     else "")
                    (Next st')
              | Some _ | None -> ())
          config.ops
    done
  done;
  List.iter
    (fun ((_, dst, cls), q) ->
      match q with
      | [] -> ()
      | msg :: _ -> (
          let st' =
            match dequeue st (msg.src, dst, cls) with
            | Some (_, st') -> st'
            | None -> assert false
          in
          let outcome =
            if dst = dir then deliver_dir tables config st' cls msg
            else if dst = mem then deliver_mem tables st' msg
            else if cls = "snp" then deliver_snoop tables st' dst msg
            else deliver_response tables st' dst msg
          in
          match outcome with
          | Next s when not (within_capacity config s) ->
              () (* backpressure: the consumer stalls on a full queue *)
          | outcome ->
              enabled
                (if labels then
                   Printf.sprintf "deliver %s %d->%d (%s) addr%d" msg.m msg.src
                     dst cls msg.addr
                 else "")
                outcome))
    st.queues;
  if config.lossy then
    (* a faulty link silently drops an inter-node message (the link
       controller's crcdrop row); intra-node and reserved resources
       (memq, ackq) are not links *)
    List.iter
      (fun (((src, dst, cls) as k), q) ->
        match q with
        | (msg : Mstate.msg) :: _ when link_class cls -> (
            match dequeue st k with
            | Some (_, st') ->
                enabled
                  (if labels then
                     Printf.sprintf "DROP %s %d->%d (%s) addr%d" msg.m src dst
                       cls msg.addr
                   else "")
                  (Next st')
            | None -> ())
        | _ -> ())
      st.queues;
  List.rev !out

let deliver ?(config = { nodes = 0; addrs = 0; ops = []; capacity = 0; io_addrs = []; lossy = false })
    tables st ~cls ~dst msg =
  if dst = dir then deliver_dir tables config st cls msg
  else if dst = mem then deliver_mem tables st msg
  else if cls = "snp" then deliver_snoop tables st dst msg
  else deliver_response tables st dst msg

let issue_op tables st ~node ~addr ~op = issue tables st node addr op

let state_violations config st =
  List.concat
    (List.mapi
       (fun addr a ->
         let caches =
           List.init config.nodes (fun n -> n, cache st ~node:n ~addr)
         in
         let owners = List.filter (fun (_, c) -> c = "M" || c = "E") caches in
         let sharers = List.filter (fun (_, c) -> c = "S") caches in
         let multi_owner =
           if List.length owners > 1 then
             [ Printf.sprintf "addr %d: multiple owners" addr ]
           else []
         in
         let owner_and_sharer =
           if owners <> [] && sharers <> [] then
             [ Printf.sprintf "addr %d: owner coexists with sharers" addr ]
           else []
         in
         let orphaned =
           (* a busy transaction with nothing in flight for its address
              and no backed-off request that could regenerate traffic can
              never complete: the protocol-level consequence of a lost
              message *)
           if
             a.busy <> None
             && (not (List.exists (fun (_, q) ->
                     List.exists (fun m -> m.addr = addr) q) st.queues))
             && not
                  (List.exists
                     (fun n ->
                       backoff_of (pending st ~node:n ~addr) <> None)
                     (List.init config.nodes Fun.id))
           then [ Printf.sprintf "addr %d: orphaned busy transaction" addr ]
           else []
         in
         let idle_invalid =
           (* only meaningful when nothing is in flight for this address *)
           if
             a.dirst = "I" && a.busy = None
             && (not (List.exists (fun (_, q) ->
                     List.exists (fun m -> m.addr = addr) q) st.queues))
             && List.exists (fun (_, c) -> c <> "I") caches
           then [ Printf.sprintf "addr %d: cached under invalid directory" addr ]
           else []
         in
         multi_owner @ owner_and_sharer @ orphaned @ idle_invalid)
       st.addrs)
