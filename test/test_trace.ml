(* Trace ring buffer behaviour. *)

let emit t time cat msg =
  Sim.Trace.emit t ~time ~category:cat ~detail:(lazy msg) ()

let test_disabled_by_default () =
  let t = Sim.Trace.create () in
  emit t 1.0 "x" "hello";
  Alcotest.(check int) "nothing recorded" 0 (Sim.Trace.length t)

let test_lazy_detail_not_forced_when_disabled () =
  let t = Sim.Trace.create () in
  let forced = ref false in
  Sim.Trace.emit t ~time:1.0 ~category:"x"
    ~detail:
      (lazy
        (forced := true;
         "expensive"))
    ();
  Alcotest.(check bool) "not forced" false !forced

(* A ring that is never enabled allocates no buffer; one that is only
   cleared or read stays empty. *)
let test_unused_ring_not_allocated () =
  let before = Gc.allocated_bytes () in
  let t = Sim.Trace.create ~capacity:1_000_000 () in
  Sim.Trace.clear t;
  let records = Sim.Trace.records t in
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check int) "no records" 0 (List.length records);
  Alcotest.(check bool)
    (Printf.sprintf "under 1 MiB allocated (%.0f bytes)" allocated)
    true
    (allocated < 1048576.0);
  Sim.Trace.set_enabled t true;
  emit t 1.0 "x" "first";
  Alcotest.(check int) "records once enabled" 1 (Sim.Trace.length t)

let test_records_in_order () =
  let t = Sim.Trace.create () in
  Sim.Trace.set_enabled t true;
  emit t 1.0 "a" "one";
  emit t 2.0 "b" "two";
  let r = Sim.Trace.records t in
  Alcotest.(check (list string)) "order" [ "one"; "two" ]
    (List.map (fun r -> r.Sim.Trace.detail) r)

let test_ring_wraps () =
  let t = Sim.Trace.create ~capacity:3 () in
  Sim.Trace.set_enabled t true;
  List.iter (fun i -> emit t (float_of_int i) "n" (string_of_int i))
    [ 1; 2; 3; 4; 5 ];
  let r = Sim.Trace.records t in
  Alcotest.(check (list string)) "last three" [ "3"; "4"; "5" ]
    (List.map (fun r -> r.Sim.Trace.detail) r)

let test_by_category () =
  let t = Sim.Trace.create () in
  Sim.Trace.set_enabled t true;
  emit t 1.0 "net" "p1";
  emit t 2.0 "invoke" "i1";
  emit t 3.0 "net" "p2";
  Alcotest.(check int) "two net records" 2
    (List.length (Sim.Trace.by_category t "net"))

let test_clear () =
  let t = Sim.Trace.create () in
  Sim.Trace.set_enabled t true;
  emit t 1.0 "x" "a";
  Sim.Trace.clear t;
  Alcotest.(check int) "cleared" 0 (Sim.Trace.length t)

(* Wraparound bookkeeping: [dropped] counts evicted records exactly, and
   resets with [clear]. *)
let test_dropped_counter () =
  let t = Sim.Trace.create ~capacity:4 () in
  Sim.Trace.set_enabled t true;
  Alcotest.(check int) "nothing dropped yet" 0 (Sim.Trace.dropped t);
  List.iter (fun i -> emit t (float_of_int i) "n" (string_of_int i))
    [ 1; 2; 3; 4 ];
  Alcotest.(check int) "full but not overflowed" 0 (Sim.Trace.dropped t);
  List.iter (fun i -> emit t (float_of_int i) "n" (string_of_int i))
    [ 5; 6; 7 ];
  Alcotest.(check int) "three evicted" 3 (Sim.Trace.dropped t);
  Sim.Trace.clear t;
  Alcotest.(check int) "clear resets dropped" 0 (Sim.Trace.dropped t)

(* --category filters the *surviving* window: records of a category that
   were evicted by wraparound are gone, and the filter only sees what the
   ring still holds (documented in the mli). *)
let test_filter_after_overflow () =
  let t = Sim.Trace.create ~capacity:4 () in
  Sim.Trace.set_enabled t true;
  (* Alternate categories: a1 b2 a3 b4 a5 b6 a7 b8 a9 b10.  Capacity 4
     keeps only a7 b8 a9 b10. *)
  for i = 1 to 10 do
    let cat = if i mod 2 = 1 then "a" else "b" in
    emit t (float_of_int i) cat (string_of_int i)
  done;
  Alcotest.(check int) "six dropped" 6 (Sim.Trace.dropped t);
  let det c =
    List.map (fun r -> r.Sim.Trace.detail) (Sim.Trace.by_category t c)
  in
  Alcotest.(check (list string)) "surviving a" [ "7"; "9" ] (det "a");
  Alcotest.(check (list string)) "surviving b" [ "8"; "10" ] (det "b");
  Alcotest.(check (list string))
    "window is the newest capacity records" [ "7"; "8"; "9"; "10" ]
    (List.map (fun r -> r.Sim.Trace.detail) (Sim.Trace.records t))

(* Structured fields default to -1 (absent) and round-trip when given. *)
let test_structured_fields () =
  let t = Sim.Trace.create () in
  Sim.Trace.set_enabled t true;
  emit t 1.0 "plain" "p";
  Sim.Trace.emit t ~time:2.0 ~node:3 ~cpu:1 ~tid:7 ~obj:42 ~span:9 ~parent:4
    ~category:"rich" ~detail:(lazy "r") ();
  match Sim.Trace.records t with
  | [ plain; rich ] ->
      Alcotest.(check (list int))
        "plain defaults" [ -1; -1; -1; -1; -1; -1 ]
        [
          plain.Sim.Trace.node; plain.Sim.Trace.cpu; plain.Sim.Trace.tid;
          plain.Sim.Trace.obj; plain.Sim.Trace.span; plain.Sim.Trace.parent;
        ];
      Alcotest.(check (list int))
        "rich round-trips" [ 3; 1; 7; 42; 9; 4 ]
        [
          rich.Sim.Trace.node; rich.Sim.Trace.cpu; rich.Sim.Trace.tid;
          rich.Sim.Trace.obj; rich.Sim.Trace.span; rich.Sim.Trace.parent;
        ]
  | l -> Alcotest.failf "expected 2 records, got %d" (List.length l)

let suite =
  [
    Alcotest.test_case "disabled by default" `Quick test_disabled_by_default;
    Alcotest.test_case "lazy detail not forced when disabled" `Quick
      test_lazy_detail_not_forced_when_disabled;
    Alcotest.test_case "unused ring not allocated" `Quick
      test_unused_ring_not_allocated;
    Alcotest.test_case "records kept in order" `Quick test_records_in_order;
    Alcotest.test_case "ring buffer wraps" `Quick test_ring_wraps;
    Alcotest.test_case "filter by category" `Quick test_by_category;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "dropped counter" `Quick test_dropped_counter;
    Alcotest.test_case "category filter after overflow" `Quick
      test_filter_after_overflow;
    Alcotest.test_case "structured fields" `Quick test_structured_fields;
  ]
