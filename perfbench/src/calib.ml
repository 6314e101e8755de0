(* Host-speed calibration.  The benchmark runs on a shared host whose
   speed drifts by a third or more within minutes, for every process
   alike: a fixed loop's wall and CPU time move together, so the drift
   is not time spent descheduled.  Drift of that size between two sets
   of runs would hide any change to the program.  So a fixed reference
   computation, which uses nothing of the program, is timed right before
   and right after every timed operation, and the operation's wall time
   is also reported scaled to the host speed at which the reference
   takes [nominal_ms]. *)

module Clock = Obs.Clock

(* Hashing, sorting and list allocation over a few hundred kilobytes:
   the kinds of work the checkers and the model checker do. *)
let work () =
  let n = 3_000 in
  let h = Hashtbl.create n in
  for i = 0 to n - 1 do
    Hashtbl.replace h ((i * 7919) land 0x3ffff) i
  done;
  let a = Array.init n (fun i -> (i * 48271) mod 65521) in
  Array.sort compare a;
  let s = ref 0 in
  Array.iter (fun x -> match Hashtbl.find_opt h x with Some v -> s := !s + v | None -> ()) a;
  let l = List.init (n / 4) (fun i -> (a.(i) land 0xff, i)) in
  !s + List.length (List.sort compare l)

(* The reference's wall ms: the fastest of three back-to-back runs, so
   that a minor collection or an interrupt inside one run is dropped.
   The drift is far slower than the three runs. *)
let reference_ms () =
  let once () =
    let t0 = Clock.now_ns () in
    ignore (Sys.opaque_identity (work ()));
    Clock.to_ms (Clock.since t0)
  in
  let a = once () in
  let b = once () in
  let c = once () in
  Float.min a (Float.min b c)

(* About the reference's median on the 2-core host the benchmark was
   sized on, where it read 0.8 to 1.4 ms: scaled times are then of the
   same size as the wall times there. *)
let nominal_ms = 1.2

(* The reference timed after the last operation is the one before the
   next.  Every reference time is kept for the result file. *)
let last = ref Float.nan
let samples = ref []

(* [f ()], its wall ms, and its ms at the nominal host speed: the wall
   ms times [nominal_ms] over the mean of the references timed just
   before and just after it. *)
let timed f =
  let reference () =
    let ms = reference_ms () in
    samples := ms :: !samples;
    ms
  in
  if Float.is_nan !last then last := reference ();
  let t0 = Clock.now_ns () in
  let r = f () in
  let ms = Clock.to_ms (Clock.since t0) in
  let before = !last and after = reference () in
  last := after;
  r, ms, ms *. nominal_ms /. ((before +. after) /. 2.)
