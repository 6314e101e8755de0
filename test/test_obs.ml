(* The observability layer: span nesting and ordering, histogram bucket
   math, counter aggregation across registries, and a round trip of the
   Chrome trace-event JSON export through the bundled parser. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_string = Alcotest.(check string)

(* Each test starts from a clean slate and leaves the layer disabled so
   the other suites (which run in the same process) are unaffected. *)
let with_obs f () =
  Obs.Report.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Config.disable ();
      Obs.Report.reset ())
    (fun () -> Obs.Config.with_enabled f)

(* ------------------------------- spans -------------------------------- *)

let spin () =
  (* burn a little real time so span durations are strictly positive *)
  let t0 = Obs.Clock.now_ns () in
  while Int64.sub (Obs.Clock.now_ns ()) t0 < 50_000L do
    ignore (Sys.opaque_identity (ref 0))
  done

let complete_events () =
  List.filter_map
    (function Obs.Trace.Complete _ as e -> Some e | _ -> None)
    (Obs.Trace.events ())

(* (ts_us, dur_us, depth) of the first complete span with this name *)
let find_span name =
  List.find_map
    (function
      | Obs.Trace.Complete { name = n; ts_us; dur_us; depth; _ } when n = name ->
          Some (ts_us, dur_us, depth)
      | _ -> None)
    (Obs.Trace.events ())
  |> Option.get

let test_span_nesting =
  with_obs @@ fun () ->
  let result =
    Obs.Trace.with_span "outer" (fun () ->
        Obs.Trace.with_span "inner" (fun () ->
            spin ();
            41)
        + 1)
  in
  check_int "thunk result flows through" 42 result;
  check_int "two complete events" 2 (List.length (complete_events ()));
  (* children complete first, so "inner" precedes "outer" *)
  (match complete_events () with
  | [ Obs.Trace.Complete { name = first; _ };
      Obs.Trace.Complete { name = second; _ } ] ->
      check_string "child recorded first" "inner" first;
      check_string "parent recorded second" "outer" second
  | _ -> Alcotest.fail "expected exactly two complete events");
  let o_ts, o_dur, o_depth = find_span "outer" in
  let i_ts, i_dur, i_depth = find_span "inner" in
  check_int "outer is a root span" 0 o_depth;
  check_int "inner nests one level down" 1 i_depth;
  check "inner starts within outer" true (i_ts >= o_ts);
  check "inner ends within outer" true (i_ts +. i_dur <= o_ts +. o_dur);
  check "durations are positive" true (i_dur > 0.)

let test_span_exception =
  with_obs @@ fun () ->
  (try
     Obs.Trace.with_span "failing" (fun () -> failwith "boom")
   with Failure _ -> ());
  check_int "span recorded despite the exception" 1
    (List.length (complete_events ()))

let test_disabled_is_noop () =
  Obs.Report.reset ();
  Obs.Config.disable ();
  let r = Obs.Trace.with_span "ignored" (fun () -> 7) in
  Obs.Trace.instant "ignored";
  Obs.Trace.counter "ignored" [ "x", 1. ];
  let c = Obs.Metrics.counter (Obs.Metrics.registry "off") "n" in
  Obs.Metrics.incr c;
  check_int "thunk still runs" 7 r;
  check_int "no events recorded" 0 (List.length (Obs.Trace.events ()));
  check_int "counter not incremented" 0 (Obs.Metrics.count c)

(* ----------------------------- histograms ----------------------------- *)

let test_histogram_buckets =
  with_obs @@ fun () ->
  let reg = Obs.Metrics.registry "test-hist" in
  let h = Obs.Metrics.histogram ~bounds:[| 1.; 2.; 4.; 8. |] reg "h" in
  List.iter (Obs.Metrics.observe h) [ 0.5; 1.; 1.5; 3.; 100. ];
  check_int "observations" 5 (Obs.Metrics.observations h);
  check_float "mean" ((0.5 +. 1. +. 1.5 +. 3. +. 100.) /. 5.)
    (Obs.Metrics.mean h);
  (* 0.5 and 1.0 land in <=1; 1.5 in <=2; 3.0 in <=4; 100 overflows *)
  check_float "median from buckets" 2. (Obs.Metrics.quantile h 0.5);
  check_float "p100 is the observed max" 100. (Obs.Metrics.quantile h 1.0);
  check "rejects non-increasing bounds" true
    (try
       ignore (Obs.Metrics.histogram ~bounds:[| 2.; 1. |] reg "bad");
       false
     with Invalid_argument _ -> true)

let test_exponential_bounds () =
  Alcotest.(check (array (float 1e-9)))
    "powers of two" [| 1.; 2.; 4.; 8. |]
    (Obs.Metrics.exponential_bounds ~start:1. ~factor:2. 4)

(* ------------------------------ counters ------------------------------ *)

let test_counter_aggregation =
  with_obs @@ fun () ->
  let a = Obs.Metrics.registry "agg-a" and b = Obs.Metrics.registry "agg-b" in
  let ca = Obs.Metrics.counter a "rows" and cb = Obs.Metrics.counter b "rows" in
  let other = Obs.Metrics.counter a "other" in
  Obs.Metrics.add ca 3;
  Obs.Metrics.add cb 4;
  Obs.Metrics.incr cb;
  Obs.Metrics.add other 100;
  check_int "per-registry counts" 3 (Obs.Metrics.count ca);
  check_int "aggregate sums across registries" 8 (Obs.Metrics.aggregate "rows");
  check_int "aggregation is by name" 100 (Obs.Metrics.aggregate "other");
  check "summary mentions both registries" true
    (let s = Obs.Metrics.summary () in
     let contains sub =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     contains "[agg-a]" && contains "[agg-b]");
  Obs.Metrics.reset ();
  check_int "reset zeroes handles in place" 0 (Obs.Metrics.count ca)

(* ------------------------- chrome trace export ------------------------ *)

let test_chrome_roundtrip =
  with_obs @@ fun () ->
  Obs.Trace.with_span ~cat:"t" "outer" (fun () ->
      Obs.Trace.with_span ~cat:"t"
        ~args:[ "k", Obs.Json.Str "v\"with\nescapes" ]
        "inner"
        (fun () -> spin ());
      Obs.Trace.counter "occupancy" [ "VC0", 2.; "VC1", 0. ];
      Obs.Trace.instant "marker");
  let json = Obs.Json.parse_exn (Obs.Trace.export ()) in
  let events =
    Option.get (Obs.Json.member "traceEvents" json)
    |> Obs.Json.to_list |> Option.get
  in
  check_int "all four events exported" 4 (List.length events);
  let field ev name = Option.get (Obs.Json.member name ev) in
  let num ev name = Option.get (Obs.Json.to_number (field ev name)) in
  let str ev name = Option.get (Obs.Json.to_str (field ev name)) in
  (* every event: non-negative ts; complete events: non-negative dur *)
  List.iter
    (fun ev ->
      check "ts >= 0" true (num ev "ts" >= 0.);
      if str ev "ph" = "X" then check "dur >= 0" true (num ev "dur" >= 0.))
    events;
  (* ts/dur containment survives the round trip *)
  let by_name n =
    List.find (fun ev -> str ev "name" = n) events
  in
  let outer = by_name "outer" and inner = by_name "inner" in
  check "inner.ts >= outer.ts" true (num inner "ts" >= num outer "ts");
  check "inner ends before outer ends" true
    (num inner "ts" +. num inner "dur"
    <= num outer "ts" +. num outer "dur");
  (* args survive escaping *)
  check_string "escaped arg round trips" "v\"with\nescapes"
    (Option.get
       (Obs.Json.to_str (Option.get (Obs.Json.member "k" (field inner "args")))));
  (* counter payload *)
  let occ = by_name "occupancy" in
  check_string "counter phase" "C" (str occ "ph");
  check_float "counter value" 2.
    (Option.get
       (Obs.Json.to_number (Option.get (Obs.Json.member "VC0" (field occ "args")))))

let test_json_parser () =
  let roundtrip v = Obs.Json.parse_exn (Obs.Json.to_string v) in
  let v =
    Obs.Json.Obj
      [
        "a", Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Float 2.5; Obs.Json.Null ];
        "b", Obs.Json.Bool true;
        "c", Obs.Json.Str "tab\there";
      ]
  in
  check "structured round trip" true (roundtrip v = v);
  check "rejects trailing garbage" true
    (match Obs.Json.parse "{} junk" with Error _ -> true | Ok _ -> false);
  check "parses nested containers" true
    (match Obs.Json.parse "[{\"x\": [1, 2]}, -3.5e2]" with
    | Ok _ -> true
    | Error _ -> false)

(* ------------------------------ report ------------------------------- *)

let test_report_render =
  with_obs @@ fun () ->
  Obs.Trace.with_span "stage" (fun () -> spin ());
  Obs.Metrics.add (Obs.Metrics.counter (Obs.Metrics.registry "layer") "n") 5;
  let s = Obs.Report.render () in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  check "report lists the span" true (contains "stage");
  check "report lists the registry" true (contains "[layer]");
  Obs.Report.reset ();
  check_string "reset empties the report" "" (Obs.Report.render ())

(* Artifacts are written to a temporary beside the target and renamed
   into place: an overwrite replaces the whole file and leaves nothing
   else in the directory, and a failed write leaves the old file as it
   was. *)
let test_atomic_overwrite () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "asura-test-atomic-%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "artifact.json" in
  let read () = In_channel.with_open_bin path In_channel.input_all in
  Obs.Atomic_file.write path (fun oc -> output_string oc "first, longer\n");
  Obs.Atomic_file.write path (fun oc -> output_string oc "second\n");
  check_string "overwrite replaces the contents" "second\n" (read ());
  (try
     Obs.Atomic_file.write path (fun oc ->
         output_string oc "partial";
         failwith "killed mid-write")
   with Failure _ -> ());
  check_string "a failed write leaves the old file" "second\n" (read ());
  Obs.Trace.save path;
  let entries = Sys.readdir dir in
  Sys.remove path;
  Unix.rmdir dir;
  Alcotest.(check (array string))
    "no temporary left behind" [| "artifact.json" |] entries

let suite =
  [
    "span nesting and ordering", `Quick, test_span_nesting;
    "span survives exceptions", `Quick, test_span_exception;
    "disabled layer is a no-op", `Quick, test_disabled_is_noop;
    "histogram bucket math", `Quick, test_histogram_buckets;
    "exponential bounds", `Quick, test_exponential_bounds;
    "counter aggregation across registries", `Quick, test_counter_aggregation;
    "chrome trace json round trip", `Quick, test_chrome_roundtrip;
    "json parser", `Quick, test_json_parser;
    "report rendering", `Quick, test_report_render;
    "atomic artifact overwrite", `Quick, test_atomic_overwrite;
  ]
