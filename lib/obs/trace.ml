(* Span and event recording, exported in the Chrome trace-event format
   (load the file in chrome://tracing or https://ui.perfetto.dev).

   Spans are recorded as complete ("ph":"X") events when they finish, so
   a child always appears in the buffer before its parent; nesting is
   recovered by the viewer from ts/dur containment on the same thread
   track.  Counter samples become "ph":"C" events, which Perfetto renders
   as stacked time series — used for the simulator's per-virtual-channel
   queue occupancy. *)

type args = (string * Json.t) list

type event =
  | Complete of {
      name : string;
      cat : string;
      ts_us : float;  (** microseconds since the first recorded event *)
      dur_us : float;
      depth : int;  (** nesting depth at the time the span was open *)
      tid : int;  (** recording domain, the Chrome-trace thread track *)
      args : args;
    }
  | Instant of {
      name : string;
      cat : string;
      ts_us : float;
      tid : int;
      args : args;
    }
  | Counter of { name : string; ts_us : float; values : (string * float) list }

(* The buffer and epoch are shared across domains; one mutex guards them.
   Recording only happens while tracing is enabled, so the disabled hot
   path still pays a single load-and-branch and never touches the lock. *)
let lock = Mutex.create ()
let buffer : event list ref = ref []
let epoch : int64 option ref = ref None

(* Span nesting is a per-domain notion: a worker's spans must not skew
   the depth bookkeeping of the domain that spawned it. *)
let nesting_key = Domain.DLS.new_key (fun () -> ref 0)
let nesting () = Domain.DLS.get nesting_key
let tid () = (Domain.self () :> int)

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let reset () =
  locked (fun () ->
      buffer := [];
      epoch := None);
  nesting () := 0

(* Callers must hold [lock]. *)
let now_us_unlocked () =
  match !epoch with
  | Some e -> Clock.to_us (Int64.sub (Clock.now_ns ()) e)
  | None ->
      epoch := Some (Clock.now_ns ());
      0.

let now_us () = locked now_us_unlocked

let record ev = locked (fun () -> buffer := ev :: !buffer)

let with_span ?(cat = "app") ?(args = []) name f =
  if not (Config.on ()) then f ()
  else begin
    let ts = now_us () in
    let tid = tid () in
    let nesting = nesting () in
    let depth = !nesting in
    incr nesting;
    let finish () =
      decr nesting;
      record
        (Complete
           { name; cat; ts_us = ts; dur_us = now_us () -. ts; depth; tid; args })
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let instant ?(cat = "app") ?(args = []) name =
  if Config.on () then
    record (Instant { name; cat; ts_us = now_us (); tid = tid (); args })

let counter name values =
  if Config.on () then record (Counter { name; ts_us = now_us (); values })

let events () = locked (fun () -> List.rev !buffer)

(* ------------------------- chrome trace export ------------------------ *)

let event_to_json ev =
  let common name cat ph ts tid =
    [ "name", Json.Str name; "cat", Json.Str cat; "ph", Json.Str ph;
      "ts", Json.Float ts; "pid", Json.Int 1; "tid", Json.Int tid ]
  in
  match ev with
  | Complete { name; cat; ts_us; dur_us; args; tid; depth = _ } ->
      Json.Obj
        (common name cat "X" ts_us tid
        @ [ "dur", Json.Float dur_us; "args", Json.Obj args ])
  | Instant { name; cat; ts_us; tid; args } ->
      Json.Obj
        (common name cat "i" ts_us tid
        @ [ "s", Json.Str "t"; "args", Json.Obj args ])
  | Counter { name; ts_us; values } ->
      Json.Obj
        (common name "counter" "C" ts_us 0
        @ [ "args", Json.Obj (List.map (fun (k, v) -> k, Json.Float v) values) ])

let to_json () =
  Json.Obj
    [
      "traceEvents", Json.List (List.map event_to_json (events ()));
      "displayTimeUnit", Json.Str "ms";
    ]

let export () = Json.to_string (to_json ())

let save filename =
  Atomic_file.write filename (fun oc -> output_string oc (export ()))

(* ------------------------------ roll-up ------------------------------- *)

type span_stat = {
  span : string;
  count : int;
  total_us : float;
  min_us : float;
  max_us : float;
}

let span_stats () =
  let tbl : (string, span_stat) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (function
      | Complete { name; dur_us; _ } -> (
          match Hashtbl.find_opt tbl name with
          | None ->
              order := name :: !order;
              Hashtbl.add tbl name
                {
                  span = name;
                  count = 1;
                  total_us = dur_us;
                  min_us = dur_us;
                  max_us = dur_us;
                }
          | Some s ->
              Hashtbl.replace tbl name
                {
                  s with
                  count = s.count + 1;
                  total_us = s.total_us +. dur_us;
                  min_us = Float.min s.min_us dur_us;
                  max_us = Float.max s.max_us dur_us;
                })
      | Instant _ | Counter _ -> ())
    (events ());
  List.rev_map (Hashtbl.find tbl) !order
