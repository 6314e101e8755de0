(* The explicit-state model-checker baseline, driven by the generated
   controller tables. *)

open Mcheck

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let tables = lazy (Semantics.load_tables ())

let config ?(nodes = 2) ?(addrs = 1) ?(capacity = 3) ?(io_addrs = []) ops =
  { Semantics.nodes; addrs; ops; capacity; io_addrs; lossy = false }

let run ?(max_states = 120_000) cfg =
  Explore.run ~max_states ~tables:(Lazy.force tables) cfg

let test_state_basics () =
  let st = Mstate.initial ~nodes:2 ~addrs:1 in
  check "initially quiescent" true (Mstate.quiescent st);
  check_int "no messages" 0 (List.length (Mstate.queue_heads st));
  let msg = { Mstate.m = "read"; src = 0; dst = Mstate.dir; addr = 0; fresh = true } in
  let st = Mstate.enqueue st ~cls:"reqq" msg in
  check "not quiescent with traffic" false (Mstate.quiescent st);
  (match Mstate.dequeue st (0, Mstate.dir, "reqq") with
  | Some (m, st') ->
      check "fifo returns the message" true (m.Mstate.m = "read");
      check "dequeue empties" true (Mstate.quiescent st')
  | None -> Alcotest.fail "dequeue failed");
  check "keys are canonical" true (Mstate.key st = Mstate.key st)

let test_fifo_order () =
  let st = Mstate.initial ~nodes:1 ~addrs:1 in
  let m name = { Mstate.m = name; src = 0; dst = Mstate.dir; addr = 0; fresh = true } in
  let st = Mstate.enqueue (Mstate.enqueue st ~cls:"reqq" (m "first")) ~cls:"reqq" (m "second") in
  match Mstate.dequeue st (0, Mstate.dir, "reqq") with
  | Some (x, st') ->
      check "fifo head" true (x.Mstate.m = "first");
      check "fifo second" true
        (match Mstate.dequeue st' (0, Mstate.dir, "reqq") with
        | Some (y, _) -> y.Mstate.m = "second"
        | None -> false)
  | None -> Alcotest.fail "dequeue failed"

let test_pv_encode () =
  Alcotest.(check string) "zero" "zero" (Mstate.pv_encode 0);
  Alcotest.(check string) "one" "one" (Mstate.pv_encode 0b100);
  Alcotest.(check string) "gone" "gone" (Mstate.pv_encode 0b101);
  check_int "popcount" 3 (Mstate.popcount 0b1011)

let test_single_transaction () =
  (* one load: issue, mread, mdata, data, ack; quiescent with S line *)
  let cfg = config ~nodes:1 [ "load" ] in
  let r = run cfg in
  check "complete" true r.Explore.complete;
  check "no violations" true (r.Explore.violation = None);
  check "non-trivial state count" true (r.Explore.explored > 5)

let test_load_store_clean () =
  let r = run (config [ "load"; "store" ]) in
  check "complete" true r.Explore.complete;
  check "no violations" true (r.Explore.violation = None)

let test_full_workload_clean () =
  let r = run (config [ "load"; "store"; "evictmod"; "evictsh" ]) in
  check "complete" true r.Explore.complete;
  check "no violations" true (r.Explore.violation = None)

let test_state_explosion_with_nodes () =
  (* the paper's argument against model checkers: growth in node count *)
  let states n =
    (run ~max_states:60_000 (config ~nodes:n [ "load"; "store" ])).Explore.explored
  in
  let s2 = states 2 and s3 = states 3 in
  check "3 nodes blow up vs 2 nodes" true (s3 > 3 * s2)

let test_seeded_hang_found () =
  (* drop the last-idone row: Busy-readex-sd never drains; the checker
     must report the wedge with a concrete trace *)
  let spec' =
    Protocol.Ctrl_spec.drop_scenario Protocol.Dir_controller.spec
      "readex-idone-sd-last"
  in
  let tables' = Semantics.load_tables_with ~dir:spec' () in
  let r =
    Explore.run ~max_states:200_000 ~tables:tables'
      (config ~nodes:3 [ "load"; "store" ])
  in
  match r.Explore.violation with
  | Some v ->
      check "found a problem" true
        (v.Explore.kind = `Deadlock || v.Explore.kind = `Unhandled);
      check "has a trace" true (v.Explore.trace <> [])
  | None -> Alcotest.fail "seeded hang not found"

let test_seeded_stale_data_found () =
  (* drop the sharing writeback: a read after a dirty downgrade and a
     silent eviction returns stale memory *)
  let spec' =
    Protocol.Ctrl_spec.map_scenario Protocol.Dir_controller.spec
      "read-sdata-grant"
      (fun s ->
        { s with emit = List.filter (fun (c, _) -> c <> "memmsg") s.emit })
  in
  let tables' = Semantics.load_tables_with ~dir:spec' () in
  let r =
    Explore.run ~max_states:300_000 ~tables:tables'
      (config [ "load"; "store"; "evictmod"; "evictsh" ])
  in
  match r.Explore.violation with
  | Some v -> check "stale data detected" true (v.Explore.kind = `Stale_data)
  | None -> Alcotest.fail "stale data not found"

let test_io_workload_clean () =
  (* one I/O line served by the device-bus controller: ioread/iowrite
     serialize through the busy directory like everything else *)
  let cfg = config ~nodes:2 ~io_addrs:[ 0 ] [ "ioload"; "iostore" ] in
  let r = run cfg in
  check "complete" true r.Explore.complete;
  check "no violations" true (r.Explore.violation = None);
  check "explored io interleavings" true (r.Explore.explored > 20)

let test_mixed_spaces_clean () =
  (* a memory line and an I/O line side by side *)
  let cfg =
    config ~nodes:2 ~addrs:2 ~io_addrs:[ 1 ]
      [ "load"; "store"; "ioload"; "iostore" ]
  in
  let r = run ~max_states:200_000 cfg in
  check "no violations" true (r.Explore.violation = None)

let test_lock_workload_clean () =
  (* lock/unlock ride the directory like tiny transactions: contention
     resolves through retry, no coherence machinery is touched *)
  let cfg = config ~nodes:2 [ "lockacq"; "lockrel" ] in
  let r = run cfg in
  check "complete" true r.Explore.complete;
  check "no violations" true (r.Explore.violation = None)

let test_symmetry_reduction () =
  (* the canonical key must respect permutation orbits... *)
  let st = Mcheck.Mstate.initial ~nodes:3 ~addrs:1 in
  let st_a = Mcheck.Mstate.set_cache st ~node:0 ~addr:0 "S" in
  let st_b = Mcheck.Mstate.set_cache st ~node:2 ~addr:0 "S" in
  check "permuted states share a canonical key" true
    (Mcheck.Mstate.canonical_key ~nodes:3 st_a
    = Mcheck.Mstate.canonical_key ~nodes:3 st_b);
  check "distinct states keep distinct keys" false
    (Mcheck.Mstate.canonical_key ~nodes:3 st_a
    = Mcheck.Mstate.canonical_key ~nodes:3 st);
  (* ... and the reduced search gives the same verdict on fewer states *)
  let cfg = config ~nodes:3 [ "load"; "store" ] in
  let plain = run ~max_states:200_000 cfg in
  let reduced =
    Explore.run ~max_states:200_000 ~symmetry:true ~tables:(Lazy.force tables) cfg
  in
  check "same verdict" true
    (plain.Explore.violation = None && reduced.Explore.violation = None);
  check "both complete" true (plain.Explore.complete && reduced.Explore.complete);
  check "at least 3x fewer states" true
    (3 * reduced.Explore.explored < plain.Explore.explored)

let test_symmetry_still_finds_bugs () =
  let spec' =
    Protocol.Ctrl_spec.map_scenario Protocol.Dir_controller.spec
      "read-sdata-grant"
      (fun s ->
        { s with emit = List.filter (fun (c, _) -> c <> "memmsg") s.emit })
  in
  let tables' = Semantics.load_tables_with ~dir:spec' () in
  let r =
    Explore.run ~max_states:300_000 ~symmetry:true ~tables:tables'
      (config [ "load"; "store"; "evictmod"; "evictsh" ])
  in
  check "stale data still found under symmetry" true
    (match r.Explore.violation with
    | Some v -> v.Explore.kind = `Stale_data
    | None -> false)

let test_lossy_links_found () =
  (* with faulty links the protocol has no recovery: the checker finds a
     wedge (the paper's protocol likewise assumes reliable channels) *)
  let cfg =
    { (config [ "load"; "store" ]) with Semantics.lossy = true }
  in
  let r = run ~max_states:150_000 cfg in
  (match r.Explore.violation with
  | Some v ->
      check "wedge or orphan found" true
        (v.Explore.kind = `Deadlock || v.Explore.kind = `Coherence);
      check "a DROP appears in the trace" true
        (List.exists
           (fun l -> String.length l >= 4 && String.sub l 0 4 = "DROP")
           v.Explore.trace)
  | None -> Alcotest.fail "loss tolerated?");
  (* the orphaned-transaction invariant stays silent without loss *)
  let clean = run (config [ "load"; "store" ]) in
  check "loss-free run clean under the orphan invariant" true
    (clean.Explore.violation = None)

let test_bounded_search_reports_incomplete () =
  let r = run ~max_states:50 (config ~nodes:3 [ "load"; "store" ]) in
  check "bounded" false r.Explore.complete;
  check_int "respected the bound" 50 r.Explore.explored

(* [elapsed] is wall-clock time: with two domains expanding, the CPU
   time summed across them may exceed it, but [elapsed] never exceeds the
   caller's own wall-clock bracket around the run.  Checked for the
   packed engine and the boxed reference. *)
let test_elapsed_is_wall_clock () =
  let cfg = config [ "load"; "store" ] in
  Par.Pool.with_domains 2 (fun () ->
      List.iter
        (fun search ->
          let t0 = Obs.Clock.now_ns () in
          let r = search () in
          let wall = Obs.Clock.to_s (Obs.Clock.since t0) in
          check "elapsed within the caller's wall bracket" true
            (r.Explore.elapsed > 0. && r.Explore.elapsed <= wall);
          check "cpu time reported separately" true (r.Explore.cpu_s > 0.);
          check "states/s is per wall second" true
            (Explore.states_per_sec r
            >= float_of_int r.Explore.explored /. wall))
        [
          (fun () ->
            Explore.run ~max_states:20_000 ~tables:(Lazy.force tables) cfg);
          (fun () ->
            Explore.run_reference ~max_states:20_000
              ~tables:(Lazy.force tables) cfg);
        ])

(* Depth is BFS depth only when one participant expands states in FIFO
   order.  On several racing participants it would be a discovery depth
   (readings of 2,000+ against a true depth of 59 on the 3-node search),
   so the result, the summary line and the profile leave it out. *)
let test_depth_only_on_one_domain () =
  let cfg = config [ "load"; "store" ] in
  let reference = Explore.run_reference ~tables:(Lazy.force tables) cfg in
  let one = Par.Pool.with_domains 1 (fun () -> run cfg) in
  check "reference reports a depth" true (reference.Explore.max_depth <> None);
  check "one domain: max_depth equals the reference's" true
    (one.Explore.max_depth = reference.Explore.max_depth);
  check "one domain: per_depth equals the reference's" true
    (one.Explore.per_depth = reference.Explore.per_depth);
  (* two participants need two cores: the degree is capped at the
     hardware, and a capped search is a one-participant BFS again *)
  if Domain.recommended_domain_count () >= 2 then begin
    let two = Par.Pool.with_domains 2 (fun () -> run cfg) in
    check "two domains: no max_depth" true (two.Explore.max_depth = None);
    check "two domains: no per_depth" true (two.Explore.per_depth = []);
    check "two domains: same state count" true
      (two.Explore.explored = reference.Explore.explored);
    let words =
      String.split_on_char ' ' (Format.asprintf "%a" Explore.pp_result two)
    in
    check "no depth= in the summary" false
      (List.exists (String.starts_with ~prefix:"depth=") words);
    let profile = Format.asprintf "%a" Explore.pp_depth_profile two in
    check "profile asks for one domain" true
      (String.starts_with ~prefix:"depth histogram unavailable" profile)
  end

(* ------------- compiled dispatch against naive first match ------------- *)

(* Every executable table is compiled into positional dispatch at load
   time; here each one is checked against first match over its string
   rules ({!Mapping.Codegen.eval_rule}), on the clean tables and on the
   stale-data D.  [absent] stands for a column the binding leaves out
   (the naive binding omits it; no guard names it, so compiled dispatch
   treats it as unbound); [unnamed] is a bound value no guard names. *)
let absent = "\000absent"
let unnamed = "\000unnamed"

let stale_tables =
  lazy
    (Semantics.load_tables_with
       ~dir:
         (Protocol.Ctrl_spec.map_scenario Protocol.Dir_controller.spec
            "read-sdata-grant" (fun s ->
              { s with emit = List.filter (fun (c, _) -> c <> "memmsg") s.emit }))
       ())

(* each binding column's guard values, plus the two that match nothing *)
let vocabulary rs =
  Array.map
    (fun c ->
      Array.of_list
        (List.sort_uniq compare
           (List.filter_map
              (fun (r : Mapping.Codegen.rule) -> List.assoc_opt c r.guard)
              (Semantics.rules rs))
        @ [ unnamed; absent ]))
    (Semantics.columns rs)

(* (name, ruleset, vocabulary, rules) for every table under test *)
let dispatch_tables =
  lazy
    (List.map
       (fun (name, rs) ->
         (name, rs, vocabulary rs, Array.of_list (Semantics.rules rs)))
       (List.map (fun (name, rs) -> ("clean " ^ name, rs))
          (Semantics.rulesets (Lazy.force tables))
       @ [ ("stale D",
            List.assoc "D" (Semantics.rulesets (Lazy.force stale_tables))) ]))

let naive_fire rs b =
  let binding =
    List.filter
      (fun (_, v) -> not (String.equal v absent))
      (List.combine
         (Array.to_list (Semantics.columns rs))
         (Array.to_list b))
  in
  Option.map
    (fun (r : Mapping.Codegen.rule) -> (r.row, List.sort compare r.action))
    (Mapping.Codegen.eval_rule (Semantics.rules rs) binding)

let compiled_fire rs b =
  Option.map
    (fun (row, outs) -> (row, List.sort compare outs))
    (Semantics.dispatch rs b)

let pick rng vals = vals.(Random.State.int rng (Array.length vals))

(* a rule's own guard values, the columns it leaves free drawn from the
   vocabulary *)
let own_binding rng vocab rs (r : Mapping.Codegen.rule) =
  Array.mapi
    (fun p c ->
      match List.assoc_opt c r.guard with
      | Some v -> v
      | None -> pick rng vocab.(p))
    (Semantics.columns rs)

let agree name rs b =
  let expect = naive_fire rs b and got = compiled_fire rs b in
  if expect <> got then
    Alcotest.failf "%s: binding [%s] fires %s, first match fires %s" name
      (String.concat "; " (Array.to_list b))
      (match got with Some (row, _) -> "row " ^ string_of_int row | None -> "nothing")
      (match expect with Some (row, _) -> "row " ^ string_of_int row | None -> "nothing");
  true

let test_dispatch_every_row () =
  let rng = Random.State.make [| 15 |] in
  List.iter
    (fun (name, rs, vocab, rules) ->
      Array.iter
        (fun r -> ignore (agree name rs (own_binding rng vocab rs r) : bool))
        rules)
    (Lazy.force dispatch_tables)

(* Random bindings near the rules: a rule's own binding with some
   columns redrawn from the vocabulary (including the two values that
   match nothing) and, a quarter of the time, the discriminator — the
   first column, the input message or processor op — omitted. *)
let prop_dispatch_random =
  QCheck.Test.make ~count:100
    ~name:"compiled dispatch fires the row naive first match fires"
    QCheck.(make ~print:string_of_int Gen.nat)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      List.for_all
        (fun (name, rs, vocab, rules) ->
          List.for_all
            (fun _ ->
              let b = own_binding rng vocab rs (pick rng rules) in
              Array.iteri
                (fun p _ ->
                  if Random.State.int rng 3 = 0 then b.(p) <- pick rng vocab.(p))
                b;
              if Random.State.int rng 4 = 0 then b.(0) <- absent;
              agree name rs b)
            (List.init 20 Fun.id))
        (Lazy.force dispatch_tables))

(* The generated controller tables are functions (no binding matches
   two rows), so on them priority order is unobservable.  Random small
   tables with NULL dont-cares overlap freely: several rows of equal
   specificity match one binding and table order picks the row.  The
   site binds a..d and [e], which is no table column; the table's input
   [f] is never bound, so a row constraining it can never fire. *)
let overlap_inputs = [ "a"; "b"; "c"; "d"; "f" ]
let overlap_columns = [| "a"; "b"; "c"; "d"; "e" |]

let overlap_table rng =
  let cell c =
    if c = "f" && Random.State.int rng 6 <> 0 then Relalg.Value.Null
    else
      match pick rng [| Some "x"; Some "y"; Some "z"; None |] with
      | Some v -> Relalg.Value.Str v
      | None -> Relalg.Value.Null
  in
  Relalg.Table.of_rows ~name:"overlap"
    (Relalg.Schema.of_list (overlap_inputs @ [ "o" ]))
    (List.init
       (6 + Random.State.int rng 40)
       (fun i ->
         Array.of_list
           (List.map cell overlap_inputs
           @ [ Relalg.Value.Str ("o" ^ string_of_int i) ])))

let prop_dispatch_overlapping =
  QCheck.Test.make ~count:200
    ~name:"compiled dispatch keeps first-match priority on overlapping rows"
    QCheck.(make ~print:string_of_int Gen.nat)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let rs =
        Semantics.compile_table ~columns:overlap_columns
          ~inputs:overlap_inputs ~outputs:[ "o" ] (overlap_table rng)
      in
      let values = [| "x"; "y"; "z"; unnamed; absent |] in
      let vocab = Array.map (fun _ -> values) overlap_columns in
      let rules = Array.of_list (Semantics.rules rs) in
      List.for_all
        (fun _ ->
          let b =
            if Random.State.bool rng then
              own_binding rng vocab rs (pick rng rules)
            else Array.map (fun _ -> pick rng values) overlap_columns
          in
          agree "overlap" rs b)
        (List.init 20 Fun.id))

let suite =
  [
    Alcotest.test_case "state basics" `Quick test_state_basics;
    Alcotest.test_case "fifo ordering" `Quick test_fifo_order;
    Alcotest.test_case "pv encoding" `Quick test_pv_encode;
    Alcotest.test_case "single transaction" `Quick test_single_transaction;
    Alcotest.test_case "load/store exhaustive" `Slow test_load_store_clean;
    Alcotest.test_case "full workload exhaustive" `Slow test_full_workload_clean;
    Alcotest.test_case "state explosion with node count" `Slow test_state_explosion_with_nodes;
    Alcotest.test_case "seeded hang found with trace" `Slow test_seeded_hang_found;
    Alcotest.test_case "seeded stale data found" `Slow test_seeded_stale_data_found;
    Alcotest.test_case "io workload exhaustive" `Slow test_io_workload_clean;
    Alcotest.test_case "mixed address spaces" `Slow test_mixed_spaces_clean;
    Alcotest.test_case "lock workload exhaustive" `Slow test_lock_workload_clean;
    Alcotest.test_case "lossy links produce wedges" `Quick test_lossy_links_found;
    Alcotest.test_case "symmetry reduction" `Slow test_symmetry_reduction;
    Alcotest.test_case "symmetry preserves bug finding" `Slow test_symmetry_still_finds_bugs;
    Alcotest.test_case "bounded search reports incomplete" `Quick test_bounded_search_reports_incomplete;
    Alcotest.test_case "elapsed is wall clock at 2 domains" `Quick
      test_elapsed_is_wall_clock;
    Alcotest.test_case "depth reported only on one domain" `Quick
      test_depth_only_on_one_domain;
    Alcotest.test_case "compiled dispatch equals first match on every row" `Quick
      test_dispatch_every_row;
    QCheck_alcotest.to_alcotest prop_dispatch_random;
    QCheck_alcotest.to_alcotest prop_dispatch_overlapping;
  ]
