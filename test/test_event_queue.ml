(* Unit and property tests for the simulation event queue. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_empty () =
  let q = Sim.Event_queue.create () in
  check "empty" true (Sim.Event_queue.is_empty q);
  check "no peek" true (Sim.Event_queue.peek q = None);
  check "no pop" true (Sim.Event_queue.pop q = None)

let test_ordering () =
  let q = Sim.Event_queue.create () in
  Sim.Event_queue.add q ~time:3.0 "c";
  Sim.Event_queue.add q ~time:1.0 "a";
  Sim.Event_queue.add q ~time:2.0 "b";
  let order = List.init 3 (fun _ -> Sim.Event_queue.pop q) in
  Alcotest.(check (list (option (pair (float 0.0) string))))
    "sorted"
    [ Some (1.0, "a"); Some (2.0, "b"); Some (3.0, "c") ]
    order

let test_fifo_ties () =
  let q = Sim.Event_queue.create () in
  for i = 0 to 99 do
    Sim.Event_queue.add q ~time:5.0 i
  done;
  let out = List.init 100 (fun _ ->
      match Sim.Event_queue.pop q with Some (_, v) -> v | None -> -1)
  in
  Alcotest.(check (list int)) "insertion order on equal times"
    (List.init 100 Fun.id) out

let test_peek_does_not_remove () =
  let q = Sim.Event_queue.create () in
  Sim.Event_queue.add q ~time:1.0 "x";
  check "peek" true (Sim.Event_queue.peek q = Some (1.0, "x"));
  check_int "still there" 1 (Sim.Event_queue.length q)

let test_nan_rejected () =
  let q = Sim.Event_queue.create () in
  Alcotest.check_raises "NaN" (Invalid_argument "Event_queue.add: NaN time")
    (fun () -> Sim.Event_queue.add q ~time:Float.nan ())

let test_clear () =
  let q = Sim.Event_queue.create () in
  Sim.Event_queue.add q ~time:1.0 ();
  Sim.Event_queue.clear q;
  check "cleared" true (Sim.Event_queue.is_empty q)

let test_interleaved_add_pop () =
  let q = Sim.Event_queue.create () in
  Sim.Event_queue.add q ~time:10.0 "late";
  Sim.Event_queue.add q ~time:1.0 "early";
  (match Sim.Event_queue.pop q with
  | Some (_, v) -> Alcotest.(check string) "early first" "early" v
  | None -> Alcotest.fail "pop");
  Sim.Event_queue.add q ~time:5.0 "mid";
  (match Sim.Event_queue.pop q with
  | Some (_, v) -> Alcotest.(check string) "mid next" "mid" v
  | None -> Alcotest.fail "pop");
  check_int "one left" 1 (Sim.Event_queue.length q)

let test_fold () =
  let q = Sim.Event_queue.create () in
  List.iter (fun t -> Sim.Event_queue.add q ~time:t t) [ 3.0; 1.0; 2.0 ];
  let sum = Sim.Event_queue.fold q ~init:0.0 ~f:(fun acc t _ -> acc +. t) in
  Alcotest.(check (float 1e-9)) "fold sums all" 6.0 sum

(* Property: popping yields times in nondecreasing order, with seq order on
   ties, for arbitrary insert sequences. *)
let prop_sorted =
  QCheck.Test.make ~name:"pop yields sorted (time, seq)" ~count:300
    QCheck.(list (float_bound_inclusive 1000.0))
    (fun times ->
      let q = Sim.Event_queue.create () in
      List.iteri (fun i t -> Sim.Event_queue.add q ~time:t i) times;
      let rec drain prev acc =
        match Sim.Event_queue.pop q with
        | None -> List.rev acc
        | Some (t, seq) ->
          (match prev with
          | Some (pt, pseq) ->
            if t < pt then QCheck.Test.fail_report "time went backwards";
            if t = pt && seq < pseq then
              QCheck.Test.fail_report "tie broke FIFO order"
          | None -> ());
          drain (Some (t, seq)) ((t, seq) :: acc)
      in
      let out = drain None [] in
      List.length out = List.length times)

let prop_length =
  QCheck.Test.make ~name:"length tracks adds and pops" ~count:200
    QCheck.(list (pair bool (float_bound_inclusive 100.0)))
    (fun ops ->
      let q = Sim.Event_queue.create () in
      let model = ref 0 in
      List.iter
        (fun (is_add, t) ->
          if is_add then begin
            Sim.Event_queue.add q ~time:t ();
            incr model
          end
          else begin
            (match Sim.Event_queue.pop q with
            | Some _ -> decr model
            | None -> ())
          end)
        ops;
      Sim.Event_queue.length q = !model)

(* Model test: random interleavings of add / pop / take / filter, drawn
   from a handful of timestamps so ties are common, against a list kept
   sorted by (time, insertion number).  Every removal must agree with the
   model's head, so ties come out FIFO. *)
type op = Add of int | Pop | Take | Filter of int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun t -> Add t) (int_bound 3));
        (2, return Pop);
        (2, return Take);
        (1, map (fun m -> Filter m) (int_range 2 4));
      ])

let show_op = function
  | Add t -> Printf.sprintf "add %d" t
  | Pop -> "pop"
  | Take -> "take"
  | Filter m -> Printf.sprintf "filter mod %d" m

let prop_model =
  QCheck.Test.make ~name:"add/pop/take/filter match a sorted-list model"
    ~count:500
    QCheck.(make ~print:(Print.list show_op) Gen.(list_size (int_bound 200) op_gen))
    (fun ops ->
      let q = Sim.Event_queue.create () in
      let model = ref [] in
      let next = ref 0 in
      let insert e =
        let rec go = function
          | [] -> [ e ]
          | x :: rest when compare x e <= 0 -> x :: go rest
          | l -> e :: l
        in
        model := go !model
      in
      let expect_head got =
        match !model with
        | [] -> QCheck.Test.fail_report "queue had an entry the model lacks"
        | (t, n) :: rest ->
          if got <> (float_of_int t, n) then
            QCheck.Test.fail_reportf "got (%g, %d), model says (%d, %d)"
              (fst got) (snd got) t n;
          model := rest
      in
      List.iter
        (function
          | Add t ->
            Sim.Event_queue.add q ~time:(float_of_int t) !next;
            insert (t, !next);
            incr next
          | Pop -> (
            match Sim.Event_queue.pop q with
            | Some got -> expect_head got
            | None ->
              if !model <> [] then QCheck.Test.fail_report "pop lost entries")
          | Take ->
            if Sim.Event_queue.is_empty q then begin
              if !model <> [] then QCheck.Test.fail_report "take lost entries"
            end
            else begin
              let time = Sim.Event_queue.min_time q in
              expect_head (time, Sim.Event_queue.take q)
            end
          | Filter m ->
            Sim.Event_queue.filter q (fun n -> n mod m <> 0);
            model := List.filter (fun (_, n) -> n mod m <> 0) !model)
        ops;
      if Sim.Event_queue.length q <> List.length !model then
        QCheck.Test.fail_report "length differs from the model";
      let rec drain () =
        match Sim.Event_queue.pop q with
        | Some got ->
          expect_head got;
          drain ()
        | None -> ()
      in
      drain ();
      !model = [])

let test_reserved_seq () =
  (* An entry added under a seq reserved earlier goes ahead of equal-time
     entries created after the reservation. *)
  let q = Sim.Event_queue.create () in
  let early = Sim.Event_queue.reserve q in
  Sim.Event_queue.add q ~time:1.0 "later";
  Sim.Event_queue.add_reserved q ~time:1.0 ~seq:early "reserved";
  let first = Sim.Event_queue.take q in
  let second = Sim.Event_queue.take q in
  Alcotest.(check (list string))
    "reserved first" [ "reserved"; "later" ] [ first; second ]

let test_take_empty () =
  let q : unit Sim.Event_queue.t = Sim.Event_queue.create () in
  Alcotest.check_raises "take"
    (Invalid_argument "Event_queue.take: empty queue") (fun () ->
      Sim.Event_queue.take q);
  Alcotest.check_raises "min_time"
    (Invalid_argument "Event_queue.min_time: empty queue") (fun () ->
      ignore (Sim.Event_queue.min_time q : float))

let suite =
  [
    Alcotest.test_case "empty queue" `Quick test_empty;
    Alcotest.test_case "time ordering" `Quick test_ordering;
    Alcotest.test_case "FIFO on ties" `Quick test_fifo_ties;
    Alcotest.test_case "peek is non-destructive" `Quick test_peek_does_not_remove;
    Alcotest.test_case "NaN time rejected" `Quick test_nan_rejected;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "interleaved add/pop" `Quick test_interleaved_add_pop;
    Alcotest.test_case "fold visits everything" `Quick test_fold;
    QCheck_alcotest.to_alcotest prop_sorted;
    QCheck_alcotest.to_alcotest prop_length;
    QCheck_alcotest.to_alcotest prop_model;
    Alcotest.test_case "reserved seq keeps its place" `Quick test_reserved_seq;
    Alcotest.test_case "take and min_time on empty" `Quick test_take_empty;
  ]
