(* Tests of the benchmark's own reducers. *)

open Perfbench_reduce

let feq = Alcotest.float 1e-12

let test_ratio () =
  Alcotest.check feq "item over reference" 2.5 (Reduce.ratio ~item:0.010 ~reference:0.004);
  Alcotest.check_raises "zero reference"
    (Invalid_argument "Reduce.ratio: reference <= 0") (fun () ->
      ignore (Reduce.ratio ~item:1.0 ~reference:0.0))

let test_median_geomean () =
  Alcotest.check feq "odd" 3.0 (Reduce.median [| 5.0; 1.0; 3.0 |]);
  Alcotest.check feq "even" 2.5 (Reduce.median [| 4.0; 1.0; 3.0; 2.0 |]);
  Alcotest.check feq "geomean" 4.0 (Reduce.geomean [ 2.0; 8.0 ]);
  let samples = [ ("a", 1.0); ("b", 8.0); ("a", 3.0); ("a", 2.0); ("b", 2.0) ] in
  Alcotest.(check (list (pair string (float 1e-12))))
    "per-input medians in first-seen order"
    [ ("a", 2.0); ("b", 5.0) ]
    (Reduce.per_input_medians samples);
  Alcotest.check feq "geomean of medians" (sqrt 10.0) (Reduce.geo_of_medians samples)

let test_percentile () =
  let a = Array.init 101 (fun i -> float_of_int (i + 1)) in
  let p90 = Reduce.percentile a 90.0 in
  Alcotest.check feq "p90 value" 91.0 p90.Reduce.value;
  Alcotest.(check int) "beyond p90" 10 p90.Reduce.beyond;
  Alcotest.(check bool) "10 beyond is trusted" true p90.Reduce.trusted;
  let p99 = Reduce.percentile a 99.0 in
  Alcotest.(check int) "beyond p99" 1 p99.Reduce.beyond;
  Alcotest.(check bool) "1 beyond is flagged" false p99.Reduce.trusted;
  let short = Reduce.percentile (Array.sub a 0 100) 90.0 in
  Alcotest.check feq "interpolated" 90.1 short.Reduce.value;
  Alcotest.(check int) "100 samples: 9 beyond p90" 9 short.Reduce.beyond;
  Alcotest.(check bool) "100 samples: p90 flagged" false short.Reduce.trusted;
  Alcotest.check feq "p50, even count" 50.5 (Reduce.percentile (Array.sub a 0 100) 50.0).Reduce.value;
  Alcotest.check feq "unsorted input" 2.0 (Reduce.percentile [| 3.0; 1.0; 2.0 |] 50.0).Reduce.value

let test_round_percentile () =
  let round k = Array.init 10 (fun i -> float_of_int (i + k)) in
  let r = Reduce.round_percentile [ round 1; round 3; round 2 ] 50.0 in
  Alcotest.check feq "median of the rounds' p50" 6.5 r.Reduce.value;
  Alcotest.(check int) "samples above it, whole run" 15 r.Reduce.beyond;
  Alcotest.(check bool) "15 beyond is trusted" true r.Reduce.trusted;
  let r90 = Reduce.round_percentile [ round 1; round 3; round 2 ] 90.0 in
  Alcotest.(check int) "few samples beyond p90" 3 r90.Reduce.beyond;
  Alcotest.(check bool) "flagged" false r90.Reduce.trusted

let test_tally () =
  let t = Reduce.tally [ true; false; true; true ] in
  Alcotest.(check int) "attempted" 4 t.Reduce.attempted;
  Alcotest.(check int) "failed" 1 t.Reduce.failed;
  Alcotest.check feq "ok_frac" 0.75 (Reduce.ok_frac t);
  Alcotest.check feq "nothing attempted" 0.0 (Reduce.ok_frac (Reduce.tally []))

let take next k = List.init k (fun _ -> next ())

let test_order () =
  List.iter
    (fun n ->
      let a = take (Reduce.order ~seed:7 ~n ()) (20 * n) in
      Alcotest.(check (list int))
        "same seed, same order" a
        (take (Reduce.order ~seed:7 ~n ()) (20 * n));
      List.iteri
        (fun i x ->
          if i > 0 && List.nth a (i - 1) = x then
            Alcotest.failf "n=%d: input %d runs twice in a row at %d" n x i)
        a;
      (* every round is a permutation *)
      for r = 0 to 19 do
        let round = List.sort compare (List.filteri (fun i _ -> i / n = r) a) in
        Alcotest.(check (list int)) "round is a permutation" (List.init n Fun.id) round
      done)
    [ 2; 3; 16; 40 ];
  List.iter
    (fun seed ->
      let first = Reduce.order ~after:3 ~seed ~n:4 () () in
      if first = 3 then Alcotest.failf "seed %d: starts with the input run just before" seed)
    (List.init 50 Fun.id);
  Alcotest.(check bool)
    "another seed, another order" true
    (take (Reduce.order ~seed:7 ~n:16 ()) 64 <> take (Reduce.order ~seed:8 ~n:16 ()) 64)

let () =
  Alcotest.run "perfbench"
    [
      ( "reduce",
        [
          Alcotest.test_case "ratio" `Quick test_ratio;
          Alcotest.test_case "median and geomean" `Quick test_median_geomean;
          Alcotest.test_case "percentile rule" `Quick test_percentile;
          Alcotest.test_case "round percentile" `Quick test_round_percentile;
          Alcotest.test_case "failure counting" `Quick test_tally;
          Alcotest.test_case "seeded order" `Quick test_order;
        ] );
    ]
