(* Self-test of the benchmark harness: seeded inputs are reproducible,
   the channel renaming is a bijection, percentiles need ten samples
   beyond them, and a wrong verdict fails a run.  The fork-based checks
   come first, while this process has generated no tables. *)

open Perfbench
open Harness

let expect = Alcotest.(check bool)

let take n next = List.init n (fun _ -> next ())

let test_same_seed_same_ops () =
  List.iter
    (fun (name, w) ->
      let a = take 5 (rounds ~seed:42 w) and b = take 5 (rounds ~seed:42 w) in
      expect (name ^ ": same seed, same operations") true (a = b))
    workloads;
  expect "another seed reorders cold commands" true
    (take 5 (rounds ~seed:1 Cold_cli) <> take 5 (rounds ~seed:2 Cold_cli))

let test_renaming_is_bijection () =
  for seed = 0 to 99 do
    let r = renaming (Random.State.make [| seed |]) in
    let targets = List.sort_uniq compare (List.map snd r) in
    expect "defined on every channel" true (List.map fst r = channels);
    expect "injective" true (List.length targets = List.length channels);
    expect "fresh names" true (List.for_all (fun t -> not (List.mem t channels)) targets)
  done

let test_percentiles () =
  let xs n = List.init n (fun i -> float_of_int (n - i)) in
  expect "median of one sample" true (median [ 3. ] = Some 3.);
  expect "even median averages" true (median [ 4.; 1.; 2.; 3. ] = Some 2.5);
  expect "p90 refused with 9 samples beyond" true (percentile 0.9 (xs 99) = None);
  expect "p90 with 10 samples beyond" true (percentile 0.9 (xs 100) = Some 90.);
  expect "p99 refused at 100 samples" true (percentile 0.99 (xs 100) = None);
  expect "p99 at 1000 samples" true (percentile 0.99 (xs 1000) = Some 990.)

let test_wrong_verdict_caught () =
  let planted = { Known.v with deadlock = [ "initial", (4, 11, 6); "vc4", (5, 13, 3); "debugged", (5, 9, 0) ] } in
  expect "planted cycle count rejected" true
    (Result.is_error
       (Harness.check planted (Cli "deadlock-initial") ~exit_code:1
          (Vcg { channels = 4; edges = 11; cycles = 7 })));
  expect "true verdict accepted" true
    (Result.is_ok
       (Harness.check Known.v (Cli "deadlock-initial") ~exit_code:1
          (Vcg { channels = 4; edges = 11; cycles = 7 })));
  expect "a cycle with exit code 0 rejected" true
    (Result.is_error
       (Harness.check Known.v (Cli "deadlock-initial") ~exit_code:0
          (Vcg { channels = 4; edges = 11; cycles = 7 })))

let replica known =
  let err, _ = Bench.run_replica known ~traced:true "deadlock-vc4" in
  err

let test_cold_replica_pays_generation () =
  expect "fresh fork generates every table" true (Result.is_ok (replica Known.v));
  expect "planted candidate count rejected" true
    (Result.is_error
       (replica { Known.v with candidates = [ "deadlock", 1 ] }))

let test_planted_run_fails () =
  let planted = { Known.v with invariants = 75 } in
  let o = Bench.run ~known:planted ~asura:"" ~seed:1 ~seconds:0. ~trace:true Warm_audit in
  expect "some verdicts wrong" true (o.failed > 0);
  expect "others right" true (o.failed < o.attempted);
  expect "run reported incorrect" true
    (Obs.Json.member "correct" (Bench.to_json o) = Some (Obs.Json.Bool false))

let test_carried_tables_caught () =
  (* this process has generated tables by now: a fork inherits them *)
  expect "memoized tables fail the guard" true (Result.is_error (replica Known.v))

let () =
  Alcotest.run "perfbench"
    [
      ( "harness",
        [
          Alcotest.test_case "same seed, same operations" `Quick test_same_seed_same_ops;
          Alcotest.test_case "channel renaming is a bijection" `Quick test_renaming_is_bijection;
          Alcotest.test_case "percentiles need ten samples beyond" `Quick test_percentiles;
          Alcotest.test_case "wrong verdicts are caught" `Quick test_wrong_verdict_caught;
          Alcotest.test_case "cold replica pays for generation" `Quick test_cold_replica_pays_generation;
          Alcotest.test_case "planted wrong verdict fails the run" `Quick test_planted_run_fails;
          Alcotest.test_case "carried-over tables fail the guard" `Quick test_carried_tables_caught;
        ] );
    ]
