open Mstate

(* A compiled rule list plus the runtime Table.id of the table it came
   from, so every fired rule can be charged to its source row in the
   transition-coverage bitmaps.

   [index] is an optional dispatch accelerator built by {!index_tables}:
   rules bucketed by the value their guard binds one discriminating
   column to (the input message name, in practice).  A bucket holds, in
   the original priority order, exactly the rules that can match a
   binding carrying that value — rules that leave the column
   unconstrained appear in every bucket — so first-match evaluation over
   a bucket returns the same row as a scan of the full list.  The boxed
   reference search never builds the index; the packed engine does,
   which turns the per-delivery O(|table|) guard scan into a scan of a
   few candidate rows. *)
type rule_index =
  | Flat of Mapping.Codegen.rule list
  | Split of {
      disc : string;
      buckets : (string, rule_index) Hashtbl.t;
      unbound : rule_index;
          (* rules whose guard leaves [disc] free: the candidates for a
             discriminator value no guard ever names *)
      all : Mapping.Codegen.rule list;
          (* fallback when a binding doesn't carry [disc] at all *)
    }

type ruleset = {
  rules : Mapping.Codegen.rule list;
  cov : int;
  index : rule_index option;
}

type tables = {
  d_rules : ruleset;
  c_rules : ruleset;
  n_rules : ruleset;
  pif_rules : ruleset;
  m_rules : ruleset;
  io_rules : ruleset;
}

let ruleset_of_table ~inputs ~outputs t =
  let rules = Mapping.Codegen.rules_of_table ~inputs ~outputs t in
  Obs.Coverage.register ~id:(Relalg.Table.id t)
    ~name:(Relalg.Table.name t)
    ~rows:(Relalg.Table.cardinality t);
  { rules; cov = Relalg.Table.id t; index = None }

let rules_of (c : Protocol.controller) =
  let spec = c.Protocol.spec in
  ruleset_of_table
    ~inputs:(Protocol.Ctrl_spec.input_columns spec)
    ~outputs:(Protocol.Ctrl_spec.output_columns spec)
    (Protocol.Ctrl_spec.table spec)

let load_tables_with ?dir () =
  let d_rules =
    match dir with
    | None -> rules_of Protocol.directory
    | Some spec ->
        ruleset_of_table
          ~inputs:(Protocol.Ctrl_spec.input_columns spec)
          ~outputs:(Protocol.Ctrl_spec.output_columns spec)
          (fst (Protocol.Ctrl_spec.generate spec))
  in
  {
    d_rules;
    c_rules = rules_of Protocol.cache;
    n_rules = rules_of Protocol.node;
    pif_rules = rules_of Protocol.pif;
    m_rules = rules_of Protocol.memory;
    io_rules = rules_of Protocol.io;
  }

let load_tables () = load_tables_with ()

(* The discriminator is the guard column with the most distinct values
   (ties broken by how many guards constrain it): the input message name
   for the delivery tables, the processor op for PIF.  More distinct
   values means smaller buckets. *)
let best_disc rules =
  let vals : (string, string list) Hashtbl.t = Hashtbl.create 16 in
  let hits : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (r : Mapping.Codegen.rule) ->
      List.iter
        (fun (c, v) ->
          Hashtbl.replace hits c
            (1 + Option.value (Hashtbl.find_opt hits c) ~default:0);
          let seen = Option.value (Hashtbl.find_opt vals c) ~default:[] in
          if not (List.mem v seen) then Hashtbl.replace vals c (v :: seen))
        r.guard)
    rules;
  Hashtbl.fold
    (fun c vs best ->
      let score = (List.length vs, Hashtbl.find hits c) in
      match best with
      | Some (_, bs) when bs >= score -> best
      | _ -> Some (c, score))
    vals None
  |> Option.map fst

(* Buckets bigger than this get split again on the next-best column
   (e.g. D splits on inmsg, then within a message on dirst); depth is
   bounded so degenerate tables can't recurse forever. *)
let split_threshold = 8

let rec build_index fuel rules =
  if fuel = 0 || List.length rules <= split_threshold then Flat rules
  else
    match best_disc rules with
    | None -> Flat rules
    | Some disc ->
        let values =
          List.sort_uniq compare
            (List.filter_map
               (fun (r : Mapping.Codegen.rule) -> List.assoc_opt disc r.guard)
               rules)
        in
        let bucket_of v =
          List.filter
            (fun (r : Mapping.Codegen.rule) ->
              match List.assoc_opt disc r.guard with
              | Some g -> String.equal g v
              | None -> true)
            rules
        in
        let bs = List.map (fun v -> (v, bucket_of v)) values in
        if
          (* no progress: every bucket is the whole list (all guards
             agree on one value, or none constrain the column) *)
          List.for_all
            (fun (_, b) -> List.length b = List.length rules)
            bs
        then Flat rules
        else begin
          let buckets = Hashtbl.create (2 * List.length values) in
          List.iter
            (fun (v, b) -> Hashtbl.replace buckets v (build_index (fuel - 1) b))
            bs;
          let unbound =
            List.filter
              (fun (r : Mapping.Codegen.rule) ->
                List.assoc_opt disc r.guard = None)
              rules
          in
          Split
            { disc; buckets; unbound = build_index (fuel - 1) unbound;
              all = rules }
        end

let index_ruleset rs =
  match build_index 3 rs.rules with
  | Flat _ -> rs
  | index -> { rs with index = Some index }

let index_tables t =
  {
    d_rules = index_ruleset t.d_rules;
    c_rules = index_ruleset t.c_rules;
    n_rules = index_ruleset t.n_rules;
    pif_rules = index_ruleset t.pif_rules;
    m_rules = index_ruleset t.m_rules;
    io_rules = index_ruleset t.io_rules;
  }

let directory_rules t = t.d_rules.rules

(* Every symbolic string a reachable state can contain comes out of a
   controller-table cell: harvest them per column, so the bit-packer can
   seed its per-field dictionaries up front and pool workers never
   intern (Pack relies on the read-only Dict.code_opt fast path). *)
let pack_vocab t =
  let tbl : (string, string list) Hashtbl.t = Hashtbl.create 32 in
  let record (col, v) =
    let prev = Option.value (Hashtbl.find_opt tbl col) ~default:[] in
    if not (List.mem v prev) then Hashtbl.replace tbl col (v :: prev)
  in
  List.iter
    (fun rs ->
      List.iter
        (fun (r : Mapping.Codegen.rule) ->
          List.iter record r.guard;
          List.iter record r.action)
        rs.rules)
    [ t.d_rules; t.c_rules; t.n_rules; t.pif_rules; t.m_rules; t.io_rules ];
  Hashtbl.fold
    (fun col vs acc -> (col, List.sort compare vs) :: acc)
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

(* The single choke point where controller-table rows fire: record the
   matched row in the coverage bitmap (a no-op branch when coverage is
   off — safe from parallel workers, see Obs.Coverage). *)
let rec index_candidates idx binding =
  match idx with
  | Flat rules -> rules
  | Split { disc; buckets; unbound; all } -> (
      match List.assoc_opt disc binding with
      | None -> all (* binding doesn't carry the discriminator *)
      | Some v -> (
          match Hashtbl.find_opt buckets v with
          | Some sub -> index_candidates sub binding
          | None -> index_candidates unbound binding))

let eval rs binding =
  let candidates =
    match rs.index with
    | None -> rs.rules
    | Some idx -> index_candidates idx binding
  in
  match Mapping.Codegen.eval_rule candidates binding with
  | None -> None
  | Some r ->
      Obs.Coverage.record ~id:rs.cov ~row:r.Mapping.Codegen.row;
      (* same (table id, row) attribution as coverage, so flight-recorded
         firings decode through the identical registry *)
      Obs.Flightrec.record ~tag:Obs.Flightrec.tag_fire ~a:rs.cov
        ~b:r.Mapping.Codegen.row ();
      Some r.Mapping.Codegen.action
let bit n = 1 lsl n
let data_bearing m =
  List.mem m
    [ "data"; "datax"; "mdata"; "sdata"; "swbdata"; "wb"; "mwrite"; "mupdate" ]

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

let dir_binding config st ~cls msg =
  let a = addr_state st msg.addr in
  let addrspace =
    if List.mem msg.addr config.io_addrs then "io" else "mem"
  in
  let src_role =
    if cls = "reqq" || cls = "ackq" then "local"
    else if msg.src = mem then "home"
    else "remote"
  in
  [
    "inmsg", msg.m; "inmsgsrc", src_role; "inmsgdest", "home";
    "inmsgres", cls; "addrspace", addrspace; "dirst", a.dirst;
    "dirpv", pv_encode a.sharers;
    "reqpv", (if a.sharers land bit msg.src <> 0 then "in" else "out");
    "bdirst", (match a.busy with Some b -> b.bst | None -> "I");
    "bdirpv", (match a.busy with Some b -> pv_encode b.acks | None -> "zero");
    "dirlookup", (if a.dirst = "I" then "miss" else "hit");
    "bdirlookup", (if a.busy = None then "miss" else "hit");
  ]

let deliver_dir tables config st cls msg =
  let a = addr_state st msg.addr in
  let binding = dir_binding config st ~cls msg in
  match eval tables.d_rules binding with
  | None ->
      Broken
        (Printf.sprintf "D has no row for %s (%s) dirst=%s bdirst=%s" msg.m
           (List.assoc "inmsgsrc" binding)
           a.dirst
           (match a.busy with Some b -> b.bst | None -> "I"))
  | Some outputs ->
      let field c = List.assoc_opt c outputs in
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
      let drepl = field "nxtbdirpv" = Some "drepl" in
      let targets =
        match field "remmsg" with
        | None -> 0
        | Some "sinv" ->
            if drepl then a.sharers land lnot (bit requester) else a.sharers
        | Some _ -> a.sharers
      in
      let st = ref st in
      (match field "locmsg" with
      | Some locmsg ->
          st :=
            enqueue !st ~cls:"resp"
              {
                m = locmsg; src = dir; dst = requester; addr = msg.addr;
                fresh =
                  (if data_bearing locmsg then forwarded_fresh else true);
              }
      | None -> ());
      (match field "remmsg" with
      | Some remmsg ->
          List.iter
            (fun n ->
              if targets land bit n <> 0 then
                st :=
                  enqueue !st ~cls:"snp"
                    { m = remmsg; src = dir; dst = n; addr = msg.addr;
                      fresh = true })
            (List.init 16 Fun.id)
      | None -> ());
      (match field "memmsg" with
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
        match field "bdirop" with
        | Some "alloc" ->
            Some
              {
                bst = Option.value (field "nxtbdirst") ~default:"I";
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
                    && List.mem msg.m
                         [ "idone"; "sack"; "snack"; "sdata"; "swbdata" ]
                  then b.acks land lnot (bit msg.src)
                  else b.acks
                in
                {
                  b with
                  bst = Option.value (field "nxtbdirst") ~default:b.bst;
                  acks;
                  data_fresh = forwarded_fresh;
                })
              a.busy
        | Some "dealloc" -> None
        | _ -> a.busy
      in
      (* directory state and concrete presence-vector operation *)
      let dirst' = Option.value (field "nxtdirst") ~default:a.dirst in
      let sharers' =
        match field "nxtdirpv" with
        | Some "repl" -> bit requester
        | Some "inc" -> base lor bit requester
        | Some "dec" ->
            let actor = if cls = "reqq" then msg.src else requester in
            a.sharers land lnot (bit actor)
        | Some "drepl" -> base land lnot (bit requester)
        | _ -> a.sharers
      in
      let sharers' = if field "nxtdirst" = Some "I" then 0 else sharers' in
      st :=
        set_addr !st msg.addr
          { a with dirst = dirst'; sharers = sharers'; busy = busy' };
      Next !st

(* ------------------------------------------------------------------ *)
(* Node: snoops and responses                                          *)
(* ------------------------------------------------------------------ *)

let deliver_snoop tables st node msg =
  let binding =
    [
      "inmsg", msg.m; "inmsgsrc", "home"; "inmsgdest", "remote";
      "inmsgres", "snpq"; "cachest", cache st ~node ~addr:msg.addr;
    ]
  in
  match eval tables.c_rules binding with
  | None ->
      Broken
        (Printf.sprintf "C has no row for %s at node %d in %s" msg.m node
           (cache st ~node ~addr:msg.addr))
  | Some outputs ->
      let st = ref st in
      (match List.assoc_opt "respmsg" outputs with
      | Some resp ->
          st :=
            enqueue !st ~cls:"respq"
              { m = resp; src = node; dst = dir; addr = msg.addr; fresh = true }
      | None -> ());
      (match List.assoc_opt "nxtcachest" outputs with
      | Some c -> st := set_cache !st ~node ~addr:msg.addr c
      | None -> ());
      Next !st

let deliver_response tables st node msg =
  let pendop = pending st ~node ~addr:msg.addr in
  let binding =
    [
      "inmsg", msg.m; "inmsgsrc", "home"; "inmsgdest", "local";
      "inmsgres", "respq";
      "pendop", Option.value pendop ~default:"none";
    ]
  in
  match eval tables.n_rules binding with
  | None ->
      Broken
        (Printf.sprintf "N has no row for %s at node %d pending %s" msg.m node
           (Option.value pendop ~default:"none"))
  | Some outputs ->
      let field c = List.assoc_opt c outputs in
      if data_bearing msg.m && not msg.fresh then
        Broken
          (Printf.sprintf "stale data: %s delivered to node %d for addr %d"
             msg.m node msg.addr)
      else begin
        let st = ref st in
        (match field "cachefill" with
        | Some "shared" -> st := set_cache !st ~node ~addr:msg.addr "S"
        | Some "excl" ->
            st := set_cache !st ~node ~addr:msg.addr "M";
            (* the new owner will write: memory is no longer current *)
            let a = addr_state !st msg.addr in
            st := set_addr !st msg.addr { a with mem_fresh = false }
        | _ -> ());
        (match field "ackmsg" with
        | Some ackmsg ->
            st :=
              enqueue !st ~cls:"ackq"
                { m = ackmsg; src = node; dst = dir; addr = msg.addr;
                  fresh = true }
        | None -> ());
        (match field "procresult" with
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
  let io_request = msg.m = "mioread" || msg.m = "miowrite" in
  let binding =
    [ "inmsg", msg.m; "inmsgsrc", "home"; "inmsgdest", "home";
      "inmsgres", "memq" ]
    @ (if io_request then [ "devst", "ready" ] else [ "eccst", "ok" ])
  in
  match eval (if io_request then tables.io_rules else tables.m_rules) binding with
  | None -> Broken (Printf.sprintf "M/IO has no row for %s" msg.m)
  | Some outputs ->
      let a = addr_state st msg.addr in
      let st =
        if msg.m = "mwrite" || msg.m = "mupdate" then
          set_addr st msg.addr { a with mem_fresh = msg.fresh }
        else st
      in
      let a = addr_state st msg.addr in
      let st =
        match List.assoc_opt "outmsg" outputs with
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
  let cachest = cache st ~node ~addr in
  let binding = [ "procop", op; "cachest", cachest ] in
  match eval tables.pif_rules binding with
  | None -> None
  | Some outputs ->
      let field c = List.assoc_opt c outputs in
      (match field "reqmsg" with
      | None -> None (* a pure cache hit changes nothing: skip *)
      | Some req ->
          let st =
            enqueue st ~cls:"reqq"
              { m = req; src = node; dst = dir; addr; fresh = true }
          in
          let st =
            match field "pendop" with
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
  | Some s when String.length s > 8 && String.sub s 0 8 = "backoff:" ->
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

let successors ?(labels = true) tables config st =
  (* Label rendering is a real fraction of the per-state cost (several
     Printf.sprintf per expansion).  The boxed reference engine needs
     the labels — it stores one per visited state for counterexample
     traces — but the packed engine reconstructs traces by sequential
     replay and pass [~labels:false] to skip the rendering entirely. *)
  let lbl f = if labels then f () else "" in
  let io_op op = List.mem op [ "ioload"; "iostore"; "iormwop" ] in
  let reissues =
    List.concat_map
      (fun node ->
        List.filter_map
          (fun addr ->
            match reissue st ~node ~addr with
            | Some st' when within_capacity config st' ->
                Some
                  ( lbl (fun () ->
                        Printf.sprintf "reissue node%d addr%d" node addr),
                    Next st' )
            | Some _ | None -> None)
          (List.init config.addrs Fun.id))
      (List.init config.nodes Fun.id)
  in
  let issues =
    List.concat_map
      (fun node ->
        List.concat_map
          (fun addr ->
            let is_io = List.mem addr config.io_addrs in
            if pending st ~node ~addr <> None then []
            else
              List.filter_map
                (fun op ->
                  if io_op op <> is_io then None
                  else
                  match issue tables st node addr op with
                  | Some st' when within_capacity config st' ->
                      Some
                        ( lbl (fun () ->
                              Printf.sprintf "issue %s node%d addr%d" op node
                                addr),
                          Next st' )
                  | Some _ | None -> None)
                config.ops)
          (List.init config.addrs Fun.id))
      (List.init config.nodes Fun.id)
  in
  let deliveries =
    List.filter_map
      (fun ((_, dst, cls), msg) ->
        let label =
          lbl (fun () ->
              Printf.sprintf "deliver %s %d->%d (%s) addr%d" msg.m msg.src dst
                cls msg.addr)
        in
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
            None (* backpressure: the consumer stalls on a full queue *)
        | outcome -> Some (label, outcome))
      (queue_heads st)
  in
  let drops =
    if not config.lossy then []
    else
      (* a faulty link silently drops an inter-node message (the link
         controller's crcdrop row); intra-node and reserved resources
         (memq, ackq) are not links *)
      List.filter_map
        (fun ((src, dst, cls), (msg : Mstate.msg)) ->
          if List.mem cls [ "reqq"; "respq"; "snp"; "resp" ] then
            match dequeue st (src, dst, cls) with
            | Some (_, st') ->
                Some
                  ( lbl (fun () ->
                        Printf.sprintf "DROP %s %d->%d (%s) addr%d" msg.m src
                          dst cls msg.addr),
                    Next st' )
            | None -> None
          else None)
        (queue_heads st)
  in
  reissues @ issues @ deliveries @ drops

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
