(* Tests for the discrete-event engine: clock advance, ordering,
   cancellation, run horizons. *)

let test_clock_starts_at_zero () =
  let e = Sim.Engine.create () in
  Alcotest.(check (float 0.0)) "t=0" 0.0 (Sim.Engine.now e)

let test_events_run_in_order () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore (Sim.Engine.schedule e ~delay:2.0 (fun () -> log := "b" :: !log));
  ignore (Sim.Engine.schedule e ~delay:1.0 (fun () -> log := "a" :: !log));
  ignore (Sim.Engine.schedule e ~delay:3.0 (fun () -> log := "c" :: !log));
  let n = Sim.Engine.run e in
  Alcotest.(check int) "three events" 3 n;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check (float 0.0)) "clock at last event" 3.0 (Sim.Engine.now e)

let test_same_time_fifo () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore (Sim.Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log))
  done;
  ignore (Sim.Engine.run e);
  Alcotest.(check (list int)) "fifo" (List.init 10 Fun.id) (List.rev !log)

let test_events_can_schedule_events () =
  let e = Sim.Engine.create () in
  let fired = ref 0.0 in
  ignore
    (Sim.Engine.schedule e ~delay:1.0 (fun () ->
         ignore
           (Sim.Engine.schedule e ~delay:1.5 (fun () ->
                fired := Sim.Engine.now e))));
  ignore (Sim.Engine.run e);
  Alcotest.(check (float 1e-12)) "nested time" 2.5 !fired

let test_cancel () =
  let e = Sim.Engine.create () in
  let ran = ref false in
  let id = Sim.Engine.schedule e ~delay:1.0 (fun () -> ran := true) in
  Alcotest.(check bool) "pending" true (Sim.Engine.is_pending e id);
  Sim.Engine.cancel e id;
  Alcotest.(check bool) "not pending" false (Sim.Engine.is_pending e id);
  ignore (Sim.Engine.run e);
  Alcotest.(check bool) "cancelled did not run" false !ran

let test_cancel_twice_is_noop () =
  let e = Sim.Engine.create () in
  let id = Sim.Engine.schedule e ~delay:1.0 (fun () -> ()) in
  Sim.Engine.cancel e id;
  Sim.Engine.cancel e id;
  ignore (Sim.Engine.run e)

let test_run_until () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore (Sim.Engine.schedule e ~delay:1.0 (fun () -> log := 1 :: !log));
  ignore (Sim.Engine.schedule e ~delay:5.0 (fun () -> log := 5 :: !log));
  let n = Sim.Engine.run ~until:2.0 e in
  Alcotest.(check int) "only first" 1 n;
  Alcotest.(check (float 0.0)) "clock parked at horizon" 2.0 (Sim.Engine.now e);
  let n2 = Sim.Engine.run e in
  Alcotest.(check int) "rest run" 1 n2;
  Alcotest.(check (list int)) "both" [ 5; 1 ] !log

let test_run_until_skips_dead_top () =
  (* A cancelled event at the top of the heap must not let a live event
     past the horizon run. *)
  let e = Sim.Engine.create () in
  let log = ref [] in
  let dead = Sim.Engine.schedule e ~delay:5.0 (fun () -> log := 5 :: !log) in
  let late = Sim.Engine.schedule e ~delay:20.0 (fun () -> log := 20 :: !log) in
  Sim.Engine.cancel e dead;
  let n = Sim.Engine.run ~until:10.0 e in
  Alcotest.(check int) "nothing runs" 0 n;
  Alcotest.(check (float 0.0)) "clock parked at horizon" 10.0
    (Sim.Engine.now e);
  Alcotest.(check bool) "late event still pending" true
    (Sim.Engine.is_pending e late);
  Alcotest.(check (list int)) "nothing logged" [] !log

let test_step () =
  let e = Sim.Engine.create () in
  ignore (Sim.Engine.schedule e ~delay:1.0 (fun () -> ()));
  Alcotest.(check bool) "one step" true (Sim.Engine.step e);
  Alcotest.(check bool) "empty" false (Sim.Engine.step e)

let test_negative_delay_rejected () =
  let e = Sim.Engine.create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Engine.schedule: negative or NaN delay") (fun () ->
      ignore (Sim.Engine.schedule e ~delay:(-1.0) (fun () -> ())))

let test_schedule_in_past_rejected () =
  let e = Sim.Engine.create () in
  ignore (Sim.Engine.schedule e ~delay:5.0 (fun () -> ()));
  ignore (Sim.Engine.run e);
  Alcotest.check_raises "past"
    (Invalid_argument "Engine.schedule_at: time 1 is before now 5") (fun () ->
      ignore (Sim.Engine.schedule_at e ~time:1.0 (fun () -> ())))

let test_exception_propagates () =
  let e = Sim.Engine.create () in
  ignore (Sim.Engine.schedule e ~delay:1.0 (fun () -> failwith "boom"));
  Alcotest.check_raises "exn" (Failure "boom") (fun () ->
      ignore (Sim.Engine.run e))

let test_executed_counter () =
  let e = Sim.Engine.create () in
  for _ = 1 to 7 do
    ignore (Sim.Engine.schedule e ~delay:1.0 (fun () -> ()))
  done;
  ignore (Sim.Engine.run e);
  Alcotest.(check int) "counter" 7 (Sim.Engine.events_executed e)

let test_cancel_after_fire_is_noop () =
  let e = Sim.Engine.create () in
  let runs = ref 0 in
  let id = Sim.Engine.schedule e ~delay:1.0 (fun () -> incr runs) in
  ignore (Sim.Engine.run e);
  Sim.Engine.cancel e id;
  Alcotest.(check bool) "still not pending" false (Sim.Engine.is_pending e id);
  ignore (Sim.Engine.schedule e ~delay:1.0 (fun () -> incr runs));
  ignore (Sim.Engine.run e);
  Alcotest.(check int) "both ran once" 2 !runs;
  Alcotest.(check int) "executed" 2 (Sim.Engine.events_executed e)

let test_pending_goes_false_on_fire () =
  let e = Sim.Engine.create () in
  let seen = ref true in
  let id = ref Sim.Engine.no_event in
  id :=
    Sim.Engine.schedule e ~delay:1.0 (fun () ->
        seen := Sim.Engine.is_pending e !id);
  Alcotest.(check bool) "pending before" true (Sim.Engine.is_pending e !id);
  ignore (Sim.Engine.run e);
  Alcotest.(check bool) "not pending inside its own thunk" false !seen;
  Alcotest.(check bool) "not pending after" false (Sim.Engine.is_pending e !id)

let test_no_event () =
  let e = Sim.Engine.create () in
  Alcotest.(check bool) "never pending" false
    (Sim.Engine.is_pending e Sim.Engine.no_event);
  Sim.Engine.cancel e Sim.Engine.no_event;
  Alcotest.(check bool) "still never pending" false
    (Sim.Engine.is_pending e Sim.Engine.no_event);
  Alcotest.(check bool) "nothing to run" false (Sim.Engine.step e)

let test_reserved_keeps_its_place () =
  (* Reserved at creation, queued after a later equal-time event: it
     still runs first, as if it had been queued when created. *)
  let e = Sim.Engine.create () in
  let log = ref [] in
  let first = Sim.Engine.reserve e ~time:1.0 (fun () -> log := "a" :: !log) in
  ignore (Sim.Engine.schedule_at e ~time:1.0 (fun () -> log := "b" :: !log));
  Alcotest.(check bool) "reserved is pending" true
    (Sim.Engine.is_pending e first);
  Alcotest.(check int) "not in the heap yet" 1 (Sim.Engine.pending e);
  Sim.Engine.schedule_reserved e first;
  ignore (Sim.Engine.run e);
  Alcotest.(check (list string)) "creation order" [ "a"; "b" ] (List.rev !log)

let suite =
  [
    Alcotest.test_case "clock starts at zero" `Quick test_clock_starts_at_zero;
    Alcotest.test_case "events run in time order" `Quick test_events_run_in_order;
    Alcotest.test_case "same-time events run FIFO" `Quick test_same_time_fifo;
    Alcotest.test_case "events schedule events" `Quick
      test_events_can_schedule_events;
    Alcotest.test_case "cancel prevents execution" `Quick test_cancel;
    Alcotest.test_case "double cancel is no-op" `Quick test_cancel_twice_is_noop;
    Alcotest.test_case "run ~until leaves later events" `Quick test_run_until;
    Alcotest.test_case "run ~until skips a dead top entry" `Quick
      test_run_until_skips_dead_top;
    Alcotest.test_case "single stepping" `Quick test_step;
    Alcotest.test_case "negative delay rejected" `Quick
      test_negative_delay_rejected;
    Alcotest.test_case "scheduling in the past rejected" `Quick
      test_schedule_in_past_rejected;
    Alcotest.test_case "event exception propagates" `Quick
      test_exception_propagates;
    Alcotest.test_case "executed counter" `Quick test_executed_counter;
    Alcotest.test_case "cancel after fire is no-op" `Quick
      test_cancel_after_fire_is_noop;
    Alcotest.test_case "is_pending false once fired" `Quick
      test_pending_goes_false_on_fire;
    Alcotest.test_case "no_event is never pending" `Quick test_no_event;
    Alcotest.test_case "reserved event keeps its place" `Quick
      test_reserved_keeps_its_place;
  ]
