(* Stats accumulators against closed-form oracles. *)

let feq = Alcotest.(check (float 1e-9))

let test_summary_basic () =
  let s = Sim.Stats.Summary.create () in
  List.iter (Sim.Stats.Summary.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Sim.Stats.Summary.count s);
  feq "mean" 2.5 (Sim.Stats.Summary.mean s);
  feq "variance" 1.25 (Sim.Stats.Summary.variance s);
  feq "min" 1.0 (Sim.Stats.Summary.min s);
  feq "max" 4.0 (Sim.Stats.Summary.max s);
  feq "total" 10.0 (Sim.Stats.Summary.total s)

let test_summary_single () =
  let s = Sim.Stats.Summary.create () in
  Sim.Stats.Summary.add s 7.0;
  feq "mean" 7.0 (Sim.Stats.Summary.mean s);
  feq "variance is 0" 0.0 (Sim.Stats.Summary.variance s)

let test_percentiles () =
  let s = Sim.Stats.Summary.create () in
  for i = 1 to 100 do
    Sim.Stats.Summary.add s (float_of_int i)
  done;
  feq "p50" 50.0 (Sim.Stats.Summary.percentile s 50.0);
  feq "p100" 100.0 (Sim.Stats.Summary.percentile s 100.0);
  feq "p1" 1.0 (Sim.Stats.Summary.percentile s 1.0)

let test_percentile_interleaved_with_add () =
  let s = Sim.Stats.Summary.create () in
  List.iter (Sim.Stats.Summary.add s) [ 5.0; 1.0 ];
  feq "p100 before" 5.0 (Sim.Stats.Summary.percentile s 100.0);
  Sim.Stats.Summary.add s 9.0;
  feq "p100 after" 9.0 (Sim.Stats.Summary.percentile s 100.0)

let test_percentile_empty_raises () =
  let s = Sim.Stats.Summary.create () in
  Alcotest.check_raises "empty" (Invalid_argument "Summary.percentile: empty")
    (fun () -> ignore (Sim.Stats.Summary.percentile s 50.0))

let prop_mean_matches_naive =
  QCheck.Test.make ~name:"streaming mean equals naive mean" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 100) (float_bound_inclusive 1e6))
    (fun xs ->
      let s = Sim.Stats.Summary.create () in
      List.iter (Sim.Stats.Summary.add s) xs;
      let naive = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      Float.abs (Sim.Stats.Summary.mean s -. naive)
      <= 1e-6 *. (1.0 +. Float.abs naive))

(* Reservoir regression: the percentile sample set must stay bounded no
   matter how many values stream in, while count/mean/min/max remain
   exact. *)
let test_reservoir_bounded () =
  let cap = 128 in
  let s = Sim.Stats.Summary.create ~reservoir:cap () in
  for i = 1 to 100_000 do
    Sim.Stats.Summary.add s (float_of_int i)
  done;
  Alcotest.(check int) "capacity" cap (Sim.Stats.Summary.capacity s);
  Alcotest.(check bool) "retained bounded" true
    (Sim.Stats.Summary.retained s <= cap);
  Alcotest.(check int) "exact count" 100_000 (Sim.Stats.Summary.count s);
  feq "exact mean" 50000.5 (Sim.Stats.Summary.mean s);
  feq "exact min" 1.0 (Sim.Stats.Summary.min s);
  feq "exact max" 100000.0 (Sim.Stats.Summary.max s);
  (* Sampled percentiles stay plausible: the p50 of 1..100k drawn from a
     uniform reservoir of 128 lies well inside the central half. *)
  let p50 = Sim.Stats.Summary.percentile s 50.0 in
  Alcotest.(check bool) "sampled p50 sane" true (p50 > 25_000.0 && p50 < 75_000.0)

let test_reservoir_exact_until_full () =
  let s = Sim.Stats.Summary.create ~reservoir:64 () in
  for i = 64 downto 1 do
    Sim.Stats.Summary.add s (float_of_int i)
  done;
  Alcotest.(check int) "all retained" 64 (Sim.Stats.Summary.retained s);
  feq "exact p50 while not overflowing" 32.0
    (Sim.Stats.Summary.percentile s 50.0);
  feq "exact p100" 64.0 (Sim.Stats.Summary.percentile s 100.0)

(* The eviction stream is a private splitmix64 sequence: identical add
   sequences give identical reservoirs (and draw nothing from any global
   RNG). *)
let test_reservoir_deterministic () =
  let run () =
    let s = Sim.Stats.Summary.create ~reservoir:32 () in
    for i = 1 to 10_000 do
      Sim.Stats.Summary.add s (float_of_int ((i * 7919) mod 10_007))
    done;
    List.map
      (fun q -> Sim.Stats.Summary.percentile s q)
      [ 1.0; 25.0; 50.0; 75.0; 99.0 ]
  in
  let a = run () and b = run () in
  Alcotest.(check (list (float 0.0))) "identical percentiles" a b

let test_reservoir_bad_arg () =
  Alcotest.check_raises "reservoir" (Invalid_argument "Summary.create: reservoir")
    (fun () -> ignore (Sim.Stats.Summary.create ~reservoir:0 ()))

(* --- log-bucketed histogram ---------------------------------------------- *)

module L = Sim.Stats.Log_histogram

let test_log_histogram_basics () =
  let h = L.create () in
  List.iter (L.add h) [ 1e-3; 2e-3; 4e-3; 8e-3 ];
  Alcotest.(check int) "count" 4 (L.count h);
  feq "total" 15e-3 (L.total h);
  feq "mean" 3.75e-3 (L.mean h);
  feq "min" 1e-3 (L.min h);
  feq "max" 8e-3 (L.max h);
  Alcotest.(check int) "no underflow" 0 (L.underflow h);
  Alcotest.(check int) "no overflow" 0 (L.overflow h)

(* Bucket boundaries are authoritative: for any bucket i, values at
   [blo], just below [bhi], and the geometric midpoint all index back
   to i — including exact boundary values, where naive float log/exp
   rounding is most likely to be off by one. *)
let test_log_bucket_boundaries () =
  let h = L.create ~lo:1e-6 ~growth:1.05 ~buckets:400 () in
  List.iter
    (fun i ->
      let blo, bhi = L.bucket_bounds h i in
      Alcotest.(check int)
        (Printf.sprintf "bucket %d lower bound" i)
        i (L.bucket_index h blo);
      Alcotest.(check int)
        (Printf.sprintf "bucket %d upper bound opens %d" i (i + 1))
        (i + 1)
        (L.bucket_index h bhi);
      let mid = Float.sqrt (blo *. bhi) in
      Alcotest.(check int)
        (Printf.sprintf "bucket %d midpoint" i)
        i (L.bucket_index h mid))
    [ 0; 1; 17; 100; 255; 399 ];
  (* Out-of-range values land in the sentinel pseudo-buckets. *)
  Alcotest.(check int) "underflow index" (-1) (L.bucket_index h 0.5e-6);
  let top = snd (L.bucket_bounds h 399) in
  Alcotest.(check int) "overflow index" 400 (L.bucket_index h (top *. 2.0))

let test_log_percentiles () =
  let h = L.create ~lo:1e-6 ~growth:1.05 ~buckets:640 () in
  for i = 1 to 1000 do
    L.add h (float_of_int i *. 1e-3)
  done;
  (* Nearest-rank within a 5%-wide bucket, clamped to observed bounds. *)
  let near name want got =
    if Float.abs (got -. want) > 0.05 *. want then
      Alcotest.failf "%s: wanted ~%g, got %g" name want got
  in
  near "p50" 0.5 (L.percentile h 50.0);
  near "p99" 0.99 (L.percentile h 99.0);
  feq "p0 is exact min" 1e-3 (L.percentile h 0.0);
  feq "p100 is exact max" 1.0 (L.percentile h 100.0);
  (* A single sample reports exactly, any percentile. *)
  let one = L.create () in
  L.add one 42.0;
  feq "single p50" 42.0 (L.percentile one 50.0);
  feq "single p99" 42.0 (L.percentile one 99.0)

let test_log_merge_and_clear () =
  let a = L.create () and b = L.create () in
  List.iter (L.add a) [ 1.0; 2.0 ];
  List.iter (L.add b) [ 3.0; 4.0 ];
  L.merge a b;
  Alcotest.(check int) "merged count" 4 (L.count a);
  feq "merged max" 4.0 (L.max a);
  Alcotest.check_raises "geometry mismatch"
    (Invalid_argument "Log_histogram.merge: geometry mismatch") (fun () ->
      L.merge a (L.create ~lo:1e-3 ()));
  L.clear a;
  Alcotest.(check int) "cleared" 0 (L.count a)

let test_log_bad_args () =
  List.iter
    (fun (msg, f) -> Alcotest.check_raises "create" (Invalid_argument msg) f)
    [
      ("Log_histogram.create: lo", fun () -> ignore (L.create ~lo:0.0 ()));
      ("Log_histogram.create: growth", fun () -> ignore (L.create ~growth:1.0 ()));
      ("Log_histogram.create: buckets", fun () -> ignore (L.create ~buckets:0 ()));
    ]

let suite =
  [
    Alcotest.test_case "summary basics" `Quick test_summary_basic;
    Alcotest.test_case "single sample" `Quick test_summary_single;
    Alcotest.test_case "percentiles" `Quick test_percentiles;
    Alcotest.test_case "percentile after more adds" `Quick
      test_percentile_interleaved_with_add;
    Alcotest.test_case "empty percentile raises" `Quick
      test_percentile_empty_raises;
    QCheck_alcotest.to_alcotest prop_mean_matches_naive;
    Alcotest.test_case "reservoir stays bounded" `Quick test_reservoir_bounded;
    Alcotest.test_case "reservoir exact until full" `Quick
      test_reservoir_exact_until_full;
    Alcotest.test_case "reservoir deterministic" `Quick
      test_reservoir_deterministic;
    Alcotest.test_case "reservoir bad arg" `Quick test_reservoir_bad_arg;
    Alcotest.test_case "log histogram basics" `Quick test_log_histogram_basics;
    Alcotest.test_case "log histogram bucket boundaries" `Quick
      test_log_bucket_boundaries;
    Alcotest.test_case "log histogram percentiles" `Quick test_log_percentiles;
    Alcotest.test_case "log histogram merge and clear" `Quick
      test_log_merge_and_clear;
    Alcotest.test_case "log histogram bad args" `Quick test_log_bad_args;
  ]
